"""Every name that evtkit and its modules list in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import evtkit

# Importing evtkit.__main__ would run the program.
MODULES = ["evtkit"] + [
    f"evtkit.{info.name}" for info in pkgutil.iter_modules(evtkit.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from evtkit import *", namespace)
    assert set(evtkit.__all__) <= set(namespace)
