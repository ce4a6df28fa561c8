import importlib
import inspect

import pytest

import calparity


def test_public_names_resolve_to_their_defining_module():
    # Loading the cost submodule binds nothing over the function calparity.cost.
    importlib.import_module("calparity.cost")
    assert calparity.__all__ == sorted(set(calparity.__all__))
    for name in calparity.__all__:
        obj = getattr(calparity, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name
        assert obj.__module__.startswith("calparity.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from calparity import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == calparity.__all__
    assert all(namespace[name] is getattr(calparity, name) for name in calparity.__all__)


@pytest.mark.parametrize("name", ["no_such_name", "optimality_audit", "AuditVerdict"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(calparity, name)
