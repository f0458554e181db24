"""Every public name the packages export resolves to a live object.

A module deletion that leaves its name in a package's ``__all__`` or in
:mod:`repro.engine`'s lazy export table only fails when someone touches
that name; these tests touch every one.
"""

from importlib import import_module

import pytest

import repro.engine

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.config",
    "repro.engine",
    "repro.io",
    "repro.network",
    "repro.neurons",
    "repro.synapses",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_resolves(package):
    module = import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", sorted(repro.engine._EXPORTS))
def test_engine_lazy_export_is_its_module_attribute(name):
    defining = import_module(repro.engine._EXPORTS[name])
    assert getattr(repro.engine, name) is getattr(defining, name)


def test_engine_dir_lists_every_export():
    assert set(repro.engine._EXPORTS) <= set(dir(repro.engine))
    assert repro.engine.__all__ == sorted(repro.engine._EXPORTS)


def test_engine_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Simulator'"):
        getattr(repro.engine, "Simulator")
