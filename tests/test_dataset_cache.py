"""Tests for the dataset disk cache."""

import struct
import zipfile

import numpy as np
import pytest

from repro.datasets.cache import (
    cache_key,
    cached_load_dataset,
    dataset_digest,
    load_saved_dataset,
    save_dataset,
)
from repro.datasets.dataset import load_dataset
from repro.errors import DatasetError
from repro.resilience.faults import corrupt_file, truncate_file


class TestKey:
    def test_stable(self):
        assert cache_key(a=1, b="x") == cache_key(b="x", a=1)

    def test_parameter_sensitivity(self):
        assert cache_key(seed=1) != cache_key(seed=2)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        path = tmp_path / "ds.npz"
        save_dataset(path, ds)
        out = load_saved_dataset(path)
        assert out.name == ds.name
        assert np.array_equal(out.train_images, ds.train_images)
        assert np.array_equal(out.test_labels, ds.test_labels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_saved_dataset(tmp_path / "nope.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(DatasetError):
            load_saved_dataset(path)


class TestIntegrityDigest:
    def test_digest_is_stable(self):
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        again = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        assert dataset_digest(ds) == dataset_digest(again)

    @pytest.mark.parametrize(
        "field", ["train_images", "train_labels", "test_images", "test_labels"]
    )
    def test_digest_is_content_sensitive(self, field):
        """A change to any stored array, labels included, changes the
        digest, so a cache entry damaged anywhere fails verification."""
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        before = dataset_digest(ds)
        getattr(ds, field).flat[0] ^= 1
        assert dataset_digest(ds) != before

    def test_stale_digest_detected_on_load(self, tmp_path):
        """Corruption the zip layer cannot see — arrays rewritten with the
        old digest left in place — must fail the digest comparison."""
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        path = tmp_path / "ds.npz"
        tampered = ds.train_images.copy()
        tampered[0, 0, 0] ^= 0xFF
        np.savez_compressed(
            path,
            name=np.array(ds.name),
            train_images=tampered,
            train_labels=ds.train_labels,
            test_images=ds.test_images,
            test_labels=ds.test_labels,
            n_classes=np.array(ds.n_classes),
            digest=np.array(dataset_digest(ds)),
        )
        with pytest.raises(DatasetError, match="integrity check"):
            load_saved_dataset(path)

    def test_torn_archive_raises_typed_error(self, tmp_path):
        """Zip-level damage (bad CRC) surfaces as DatasetError, not
        zipfile.BadZipFile."""
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        path = tmp_path / "ds.npz"
        save_dataset(path, ds)
        corrupt_file(path, n_bytes=32, seed=0)
        # Whichever layer notices first (zip directory, CRC, digest), the
        # error must be the typed DatasetError, never a raw zipfile error.
        with pytest.raises(DatasetError):
            load_saved_dataset(path)

    def test_damaged_zip_version_field_raises_typed_error(self, tmp_path):
        """A flipped "version needed to extract" byte makes zipfile raise
        NotImplementedError; the loader reports it as DatasetError."""
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        path = tmp_path / "ds.npz"
        save_dataset(path, ds)
        data = bytearray(path.read_bytes())
        data[data.index(b"PK\x01\x02") + 6] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="truncated or corrupt"):
            load_saved_dataset(path)

    def test_pre_digest_entry_rejected(self, tmp_path):
        """A v1-era entry without a stored digest cannot be trusted."""
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            name=np.array(ds.name),
            train_images=ds.train_images,
            train_labels=ds.train_labels,
            test_images=ds.test_images,
            test_labels=ds.test_labels,
            n_classes=np.array(ds.n_classes),
        )
        with pytest.raises(DatasetError, match="no integrity digest"):
            load_saved_dataset(path)
        assert load_saved_dataset(path, verify=False).name == ds.name

    def test_saved_entry_carries_digest(self, tmp_path):
        ds = load_dataset("mnist", n_train=6, n_test=4, size=8, seed=0)
        path = tmp_path / "ds.npz"
        save_dataset(path, ds)
        with np.load(path) as data:
            assert str(data["digest"]) == dataset_digest(ds)


class TestCachedLoad:
    def test_populates_and_reuses(self, tmp_path):
        a = cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3,
                                cache_dir=tmp_path)
        files = list(tmp_path.glob("mnist-*.npz"))
        assert len(files) == 1
        b = cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3,
                                cache_dir=tmp_path)
        assert np.array_equal(a.train_images, b.train_images)
        assert len(list(tmp_path.glob("mnist-*.npz"))) == 1

    def test_different_params_different_entries(self, tmp_path):
        cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3,
                            cache_dir=tmp_path)
        cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=4,
                            cache_dir=tmp_path)
        assert len(list(tmp_path.glob("mnist-*.npz"))) == 2

    def test_corrupt_entry_regenerated(self, tmp_path):
        ds = cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3,
                                 cache_dir=tmp_path)
        entry = next(tmp_path.glob("mnist-*.npz"))
        entry.write_bytes(b"garbage")
        again = cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3,
                                    cache_dir=tmp_path)
        assert np.array_equal(ds.train_images, again.train_images)

    def test_digest_mismatch_regenerates(self, tmp_path):
        """An entry that unzips but fails its digest is rebuilt, not fatal."""
        ds = cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3,
                                 cache_dir=tmp_path)
        entry = next(tmp_path.glob("mnist-*.npz"))
        corrupt_file(entry, n_bytes=32, seed=0)
        again = cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3,
                                    cache_dir=tmp_path)
        assert np.array_equal(ds.train_images, again.train_images)
        # The rewritten entry verifies clean again.
        fresh = load_saved_dataset(next(tmp_path.glob("mnist-*.npz")))
        assert np.array_equal(fresh.train_images, ds.train_images)

    @pytest.mark.parametrize(
        "damage,seed",
        [
            # A torn write: the zip central directory is gone.
            ("truncate", None),
            # 64 flipped bytes; on this entry's layout the seeds trip a bad
            # central-directory offset (0), a bad central-directory magic
            # (1), an unparsable member (3, ValueError), damaged member
            # names (8, "not a cached dataset") and a damaged zip version
            # field (31, NotImplementedError).
            ("corrupt", 0),
            ("corrupt", 1),
            ("corrupt", 3),
            ("corrupt", 8),
            ("corrupt", 31),
            # The first byte of a member's deflate stream: zlib.error.
            ("deflate", None),
        ],
    )
    def test_damaged_entry_regenerates_bit_identically(
        self, tmp_path, damage, seed
    ):
        params = dict(n_train=8, n_test=4, size=8, seed=42, cache_dir=tmp_path)
        pristine = cached_load_dataset("mnist", **params)
        entry = next(tmp_path.glob("mnist-*.npz"))
        if damage == "truncate":
            truncate_file(entry, keep_fraction=0.5)
        elif damage == "corrupt":
            corrupt_file(entry, n_bytes=64, seed=seed)
        else:
            with zipfile.ZipFile(entry) as archive:
                offset = archive.getinfo("train_images.npy").header_offset
            data = bytearray(entry.read_bytes())
            name_len, extra_len = struct.unpack("<HH", data[offset + 26:offset + 30])
            data[offset + 30 + name_len + extra_len] ^= 0xFF
            entry.write_bytes(bytes(data))
        with pytest.raises(DatasetError):
            load_saved_dataset(entry)
        again = cached_load_dataset("mnist", **params)
        for field in ("train_images", "train_labels", "test_images", "test_labels"):
            assert np.array_equal(getattr(again, field), getattr(pristine, field))
        # The regenerated entry was rewritten and verifies clean.
        assert dataset_digest(load_saved_dataset(entry)) == dataset_digest(pristine)

    def test_no_cache_dir_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        ds = cached_load_dataset("mnist", n_train=6, n_test=4, size=8, seed=3)
        assert ds.train_images.shape == (6, 8, 8)

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cached_load_dataset("fashion", n_train=5, n_test=3, size=8, seed=0)
        assert len(list(tmp_path.glob("fashion-*.npz"))) == 1
