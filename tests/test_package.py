"""The import surface: ``optforge`` is the package's one facade, and any
other name has one import path, the module that defines it."""

import importlib

import pytest

import optforge


@pytest.mark.parametrize("name", ["problems", "render", "optimizers"])
def test_subpackage_binds_no_public_name_but_its_submodules(name):
    package = importlib.import_module(f"optforge.{name}")
    public = {n: v for n, v in vars(package).items() if not n.startswith("_")}
    assert public
    assert {n: getattr(v, "__name__", None) for n, v in public.items()} == {
        n: f"{package.__name__}.{n}" for n in public}


def test_every_name_of_the_facade_imports():
    namespace = {}
    exec("from optforge import *", namespace)
    assert set(optforge.__all__) <= set(namespace)
