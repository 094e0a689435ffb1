"""Every name a module exports resolves: the package's ``__all__`` and the
``__all__`` of each of its modules.  The package's list is its library
modules' lists, re-exported."""

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


LIBRARY = ["analysis", "combinations", "functions", "kernels", "moments", "operators"]


def test_package_reexports_every_module_list():
    """The package's names are its library modules' ``__all__`` lists, in
    order, each bound to the module's own object."""
    modules = [importlib.import_module(f"expsamp.{name}") for name in LIBRARY]
    assert expsamp.__all__ == [n for module in modules for n in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(expsamp, name) is getattr(module, name), (module.__name__, name)


def test_library_modules_are_every_module_but_the_cli():
    assert LIBRARY == [name for name in MODULES if name != "cli"]
