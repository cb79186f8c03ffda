"""The package exports: each module's __all__ and the top-level names agree
with what the modules define."""

import importlib
import inspect

import pytest

import nk6

MODULES = ("canonical", "cayley", "geometry", "models", "simons")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_exactly_its_public_definitions(name):
    module = importlib.import_module(f"nk6.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined - set(module.__all__) == set()


def test_top_level_exports_come_from_module_all():
    listed = set().union(*(importlib.import_module(f"nk6.{m}").__all__ for m in MODULES))
    exported = {n for n, obj in vars(nk6).items()
                if not n.startswith("_") and not inspect.ismodule(obj)}
    assert exported - listed == set()
