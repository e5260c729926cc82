import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import contextrnn

ROOT = Path(__file__).resolve().parents[1]

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


#: exported names that no program code needs to reach, each with its reason
UNREACHED_EXPORTS = {
    "preprocess_window": "the reference formula that tests compare the sweep's window against",
}


def _names_in_use() -> set:
    """Every ``Name``, ``Attribute`` and import alias in the program: src/ outside __init__.py, perfbench/, demos/."""
    files = [f for f in sorted((ROOT / "src").rglob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_every_export_has_a_use_outside_tests():
    # an API in src/ that only tests call is code to delete
    used = _names_in_use()
    unused = [
        f"{name}.{export}"
        for name in MODULES
        for export in importlib.import_module(name).__all__
        if export not in used and export not in UNREACHED_EXPORTS
    ]
    assert not unused, f"exported, yet used only by tests or not at all: {unused}"


def test_no_command_imports_scipy():
    # scipy's import costs about 0.2 s and 18 MiB; the package runs on numpy alone, selection's
    # Granger p-values included, so importing every module and selecting contexts loads none of it
    script = (
        "import sys\n"
        "import contextrnn, contextrnn.cli, contextrnn.data, contextrnn.model, contextrnn.metrics\n"
        "from contextrnn import data, selection\n"
        "panel = data.synth_generate(data.SynthSpec(n=6, T=300, edges=((0, 1), (2, 3))), seed=3)\n"
        "cm = selection.build_context_map(panel, S=2, K=3)\n"
        "assert len(cm.per_target) == 6\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = Path(contextrnn.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
