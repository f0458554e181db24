"""Tests for the report assembly script."""

import sys
from pathlib import Path


REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))

import make_report  # noqa: E402


def test_section_order_names_exactly_the_committed_results():
    """Every committed bench result has a titled section, and no section
    names a result that is gone."""
    names = [name for name, _ in make_report.SECTION_ORDER]
    committed = {path.stem for path in (REPO / "benchmarks" / "results").glob("*.md")}
    assert len(names) == len(set(names))
    assert set(names) == committed


class TestBuildReport:
    def test_known_sections_ordered(self, tmp_path):
        (tmp_path / "table2_precision_grid.md").write_text("### T2")
        (tmp_path / "fig1a_fi_curve.md").write_text("### F1")
        report = make_report.build_report(tmp_path)
        assert report.index("Fig. 1a") < report.index("Table II")
        assert "### F1" in report and "### T2" in report

    def test_unknown_sections_appended(self, tmp_path):
        (tmp_path / "fig1a_fi_curve.md").write_text("### F1")
        (tmp_path / "novel_bench.md").write_text("### NEW")
        report = make_report.build_report(tmp_path)
        assert "(extra) novel_bench" in report
        assert "### NEW" in report

    def test_missing_sections_skipped(self, tmp_path):
        (tmp_path / "fig1a_fi_curve.md").write_text("### F1")
        report = make_report.build_report(tmp_path)
        assert "Table II" not in report

    def test_main_writes_output(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1a_fi_curve.md").write_text("### F1")
        out = tmp_path / "report.md"
        code = make_report.main(["--results", str(results), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_main_missing_dir_errors(self, tmp_path, capsys):
        code = make_report.main(["--results", str(tmp_path / "nope"), "--out", "x.md"])
        assert code == 1
