"""The package's public surface: ``__all__`` lists exactly its public
names, and every module's doctests pass."""

import doctest
import importlib
import inspect
import pkgutil

import pytest

import uvbraid

MODULES = ["uvbraid"] + sorted(
    f"uvbraid.{info.name}" for info in pkgutil.iter_modules(uvbraid.__path__)
)


def test_all_is_exactly_the_public_names():
    public = {
        name
        for name, value in vars(uvbraid).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(set(uvbraid.__all__)) == len(uvbraid.__all__)
    assert set(uvbraid.__all__) == public


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from uvbraid import *", namespace)
    assert set(uvbraid.__all__) <= set(namespace)


def test_test_only_helpers_are_not_exported():
    # the tests keep their own permutation product in tests/perm_reference.py
    assert "compose" not in uvbraid.__all__
    assert not hasattr(uvbraid.perms, "compose")


@pytest.mark.parametrize("name", MODULES, ids=lambda name: name.rpartition(".")[2])
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
