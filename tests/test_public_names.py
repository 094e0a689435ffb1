"""Every name a module exports resolves: the package's ``__all__`` and the
``__all__`` of each of its modules."""

import importlib
import pkgutil

import pytest

import expsamp

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(expsamp.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["expsamp"] + [f"expsamp.{name}" for name in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
