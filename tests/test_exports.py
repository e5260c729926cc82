import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_model_commands_do_not_import_scipy():
    # scipy costs about 0.2 s of start-up and serves only the Granger p-values of select-context
    script = (
        "import sys\n"
        "import contextrnn, contextrnn.cli, contextrnn.data, contextrnn.model, contextrnn.metrics\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = Path(contextrnn.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
