"""Every function the benchmark tracer wraps exists where its callers look it up, and the program calls it.

``perfbench/tracing.py`` swaps each ``module:attribute`` of its ``WRAPPED``
list for a timed wrapper; a name that no longer resolves makes every
traced benchmark run fail, and one the sweep or the selection stopped
calling reads zero. Its ``TAPE_OPS`` table names the tape ops it counts
one by one; a name no primitive records would read zero too.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from contextrnn.data import SeriesPanel, SynthSpec, synth_generate

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", tracing.WRAPPED)
def test_wrapped_name_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def recorded_ops() -> set:
    """The op names ``tape.py`` records: the first argument of each ``_emit`` call, and the op of each ``Node`` it makes."""
    ops = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "contextrnn" / "tape.py").read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("_emit", "Node"):
            op = node.args[0 if node.func.id == "_emit" else 1]
            if isinstance(op, ast.Constant):
                ops.add(op.value)
    return ops


def test_every_counted_op_is_recorded():
    ops = recorded_ops()
    assert {"leaf", "add", "conv1d_pointwise"} <= ops  # the scan finds leaves and primitives
    missing = [op for op in tracing.TAPE_OPS if op not in ops]
    assert not missing, f"tracing.TAPE_OPS names ops no tape primitive records: {missing}"


def test_sweep_calls_every_wrapped_model_function(tmp_path):
    from contextrnn import metrics, model
    from contextrnn.config import TrainConfig
    from contextrnn.selection import ContextMap

    base = synth_generate(SynthSpec(n=3, T=80, edges=((0, 1),), seasonal_period=4), seed=1)
    mask = np.ones((base.n, base.T), dtype=bool)
    mask[:, 30] = False  # every series misses one step
    mask[1, 40] = False  # one series misses another
    panel = SeriesPanel(np.where(mask, base.values, 0.0), base.timestamps, mask, base.frequency)
    cfg = TrainConfig(epochs=1, batch_schedule={1: 3}, lr_schedule={1: 1e-3}, window=8, horizon=2, period=4,
                      dilations=(1, 2), context_batch=2, state_width=4, hidden_width=4, conv_channels=2,
                      stride=4, steps_per_update=4, seed=0)
    cmap = ContextMap({0: (1,), 1: (0,), 2: (0,)}, (0, 1), S=1, K=2)
    path = tmp_path / "m.bin"
    with tracing.Tracer() as tracer:
        params, _ = model.train(panel, cmap, cfg)
        model.save_model(params, str(path))
        metrics.evaluate(model.load_model(str(path)), panel, 60)
    called = tracing.table(tracer.spans)
    for target in tracing.WRAPPED:
        module_name, _, path_name = target.partition(":")
        if module_name == "contextrnn.model":
            assert f"{module_name}.{path_name}" in called, f"{target} was never called"


def test_selection_calls_every_wrapped_selection_function():
    from contextrnn import selection

    base = synth_generate(SynthSpec(n=8, T=300, edges=((0, 1), (2, 3)), seasonal_period=8), seed=2)
    mask = np.ones((base.n, base.T), dtype=bool)
    mask[3, 100:104] = False  # one gapped series, tested on its longest joint run
    panel = SeriesPanel(np.where(mask, base.values, 0.0), base.timestamps, mask, base.frequency)
    S = 2
    with tracing.Tracer() as tracer:
        selection.build_context_map(panel, S=S, K=3)
    called = tracing.table(tracer.spans)
    for target in tracing.WRAPPED:
        module_name, _, path_name = target.partition(":")
        if module_name == "contextrnn.selection":
            assert f"{module_name}.{path_name}" in called, f"{target} was never called"
    assert tracing.op_metrics(tracer)["selection.granger_tests"] == panel.n * math.ceil(1.5 * S)
