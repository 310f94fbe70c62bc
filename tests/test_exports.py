"""The package's export surface: explicit names, no submodules, and none
of the cross-check formulas that only the tests use."""

import importlib
import pkgutil
from types import ModuleType

import pytest

import unidom

TEST_ONLY = (
    "min_forest_edges",
    "bipartite_bound_gamma2",
    "Gamma2CaseBounds",
    "gamma2_case_bounds",
    "gamma2_m2_strict",
    "degree_sequence",
)


def test_all_is_explicit_resolves_and_names_no_module():
    namespace = {}
    exec("from unidom import *", namespace)
    namespace.pop("__builtins__")
    assert len(unidom.__all__) == len(set(unidom.__all__)) == 39
    assert sorted(namespace) == sorted(unidom.__all__)
    for name, value in namespace.items():
        assert not isinstance(value, ModuleType), name


def test_submodules_stay_importable_by_name():
    from unidom import bounds

    assert bounds.bipartite_bound is unidom.bipartite_bound


@pytest.mark.parametrize("name", TEST_ONLY)
def test_test_only_formulas_are_not_in_the_package(name):
    assert name not in unidom.__all__
    modules = [unidom] + [importlib.import_module(f"unidom.{info.name}")
                          for info in pkgutil.iter_modules(unidom.__path__)]
    for module in modules:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
