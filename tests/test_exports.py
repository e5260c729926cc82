import importlib
import pkgutil

import pytest

import contextrnn

MODULES = sorted(
    f"contextrnn.{info.name}"
    for info in pkgutil.iter_modules(contextrnn.__path__)
    if info.name != "__main__"  # importing it runs the CLI
)


@pytest.mark.parametrize("module_name", ["contextrnn"] + MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
