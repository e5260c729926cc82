"""Seeded input generator for the benchmark workloads.

Every input is made from the workload name and a seed, with numpy alone,
except the forecast model file, which the program's own ``init_model`` and
``save_model`` write (a seeded, untrained paper-default model). The program
reads the inputs only as a panel CSV, a context-map file and a model file.

Regenerate every input of one seed with

    python3 perfbench/gen.py --seed 0

which writes ``perfbench/inputs/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
INPUT_DIR = BENCH_DIR / "inputs"

PERIOD = 24
WINDOW = 168
HORIZON = 24
K = 15  # series in the context track
S = 5  # contexts per target
MAXLAG = 4
STEPS_PER_UPDATE = 50

#: the train panels hold this many training-grid anchors: T = W + fh + A - 1
TRAIN_ANCHORS = 20
TRAIN_N = 20
FORECAST_N = 30
FORECAST_T = 221  # grid anchors 168..221; test anchors 176..197 have whole windows
SELECT_N = 200
SELECT_T = 2000
SELECT_PAIRS = 40  # planted source -> target pairs
SELECT_GAPPED = 40  # series with scattered missing cells
SELECT_GAPS_PER_SERIES = 20

#: fixed gap layout of train-b20-gaps (series id -> missing time steps). It does
#: not depend on the seed, so every per-layer count repeats exactly across
#: seeds. Series 3, 8 and 12 sit in the context batch (ids 0..14), 16 and 19
#: do not. Each loses six cells inside the input windows (masked windows and
#: skipped smoothing steps) and one in the targets of the last anchors
#: (dropped loss terms). Series 17 loses steps 95..180: the windows of
#: anchors 180..187 are more than half missing and get skipped, and the
#: targets of anchors 168..179 reach into the gap. It is the only series
#: without loss terms.
_SCATTER = {
    sid: tuple(60 + 19 * k + 3 * j for k in range(6)) + (200 + 2 * j,)
    for j, sid in enumerate((3, 8, 12, 16, 19))
}
TRAIN_GAPS = {**_SCATTER, 17: tuple(range(95, 181))}

ORIGIN = dt.datetime(2000, 1, 1)


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # train | forecast | select
    n: int
    T: int
    batch: int = 0


SPECS = {
    "train-b20-gaps": Spec("train-b20-gaps", "train", TRAIN_N, WINDOW + HORIZON + TRAIN_ANCHORS - 1, batch=20),
    "forecast": Spec("forecast", "forecast", FORECAST_N, FORECAST_T),
    "select": Spec("select", "select", SELECT_N, SELECT_T),
}


@dataclass
class Truth:
    """What the generator wrote, kept for the checks (never read back from the program)."""

    spec: Spec
    seed: int
    directory: Path
    values: np.ndarray  # (n, T), 0 where missing
    mask: np.ndarray  # (n, T) bool, True = observed
    planted: tuple = ()  # (source, target) pairs

    @property
    def panel_path(self) -> Path:
        return self.directory / "panel.csv"

    @property
    def map_path(self) -> Path:
        return self.directory / "context.map"

    @property
    def model_path(self) -> Path:
        return self.directory / "model.bin"


def paper_config(seed: int):
    """The paper's default architecture, pinned here so a change of defaults cannot move a workload."""
    from contextrnn.config import TrainConfig

    return TrainConfig(
        window=WINDOW,
        horizon=HORIZON,
        period=PERIOD,
        dilations=(2, 6, 12, 24),
        context_size=2,
        context_batch=K,
        contexts_per_target=S,
        state_width=40,
        hidden_width=40,
        conv_channels=8,
        conv_kernel=3,
        stride=1,
        steps_per_update=STEPS_PER_UPDATE,
        maxlag=MAXLAG,
        seed=seed,
    )


def coupled_values(rng, n: int, T: int, pairs, coupling: float, noise: float, lag: int = 1) -> np.ndarray:
    """Positive sinusoid mixtures; each target series adds ``coupling * source[t - lag]``."""
    grid = np.arange(-lag, T, dtype=np.float64)
    amp = rng.uniform(0.5, 1.5, (n, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, (n, 2))
    slow = rng.uniform(4.0, 8.0, (n, 1)) * PERIOD
    base = 10.0 + amp[:, :1] * np.sin(2.0 * np.pi * grid / PERIOD + phase[:, :1])
    base += amp[:, 1:] * np.sin(2.0 * np.pi * grid / slow + phase[:, 1:])
    base += rng.normal(0.0, noise, base.shape)
    values = base[:, lag:].copy()
    for source, target in pairs:
        values[target] = coupling * base[source, :T] + base[target, lag:]
    return values


def disjoint_pairs(rng, n: int, count: int):
    ids = rng.permutation(n)[: 2 * count]
    return tuple((int(ids[2 * k]), int(ids[2 * k + 1])) for k in range(count))


def write_panel(path: Path, values: np.ndarray, mask: np.ndarray):
    """One CSV row per time step, written as it is made, so the text never sits whole in memory."""
    n, T = values.shape
    with path.open("w") as fh:
        for t in range(T):
            stamp = (ORIGIN + dt.timedelta(hours=t)).isoformat()
            cells = [repr(float(values[j, t])) if mask[j, t] else "" for j in range(n)]
            fh.write(stamp + "," + ",".join(cells) + "\n")


def ring_map(n: int) -> tuple[dict, tuple]:
    """Predefined map: target i takes i+1..i+S (mod n); the context batch is ids 0..K-1."""
    per_target = {i: tuple((i + k) % n for k in range(1, S + 1)) for i in range(n)}
    return per_target, tuple(range(K))


def write_map(path: Path, per_target: dict, global_batch: tuple):
    lines = [f"{t}: {','.join(str(i) for i in ids)}" for t, ids in sorted(per_target.items())]
    lines.append(f"GLOBAL: {','.join(str(i) for i in global_batch)}")
    path.write_text("\n".join(lines) + "\n")


def generate(name: str, seed: int, root: Path = INPUT_DIR) -> Truth:
    spec = SPECS[name]
    rng = np.random.default_rng([seed, sum(name.encode())])
    directory = root / f"{name}-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    mask = np.ones((spec.n, spec.T), dtype=bool)
    planted = ()
    if spec.kind == "select":
        planted = disjoint_pairs(rng, spec.n, SELECT_PAIRS)
        values = coupled_values(rng, spec.n, spec.T, planted, coupling=2.0, noise=0.5)
        for sid in rng.choice(spec.n, SELECT_GAPPED, replace=False):
            mask[sid, rng.choice(spec.T, SELECT_GAPS_PER_SERIES, replace=False)] = False
    else:
        pairs = disjoint_pairs(rng, spec.n, spec.n // 4)
        values = coupled_values(rng, spec.n, spec.T, pairs, coupling=1.0, noise=0.1)
        if spec.kind == "train":
            for sid, steps in TRAIN_GAPS.items():
                mask[sid, list(steps)] = False
    values[~mask] = 0.0
    truth = Truth(spec, seed, directory, values, mask, planted)
    write_panel(truth.panel_path, values, mask)
    if spec.kind != "select":
        per_target, global_batch = ring_map(spec.n)
        write_map(truth.map_path, per_target, global_batch)
    if spec.kind == "forecast":
        from contextrnn.model import init_model, save_model
        from contextrnn.selection import ContextMap

        params = init_model(paper_config(seed), spec.n, ContextMap(per_target, global_batch, S, K))
        save_model(params, truth.model_path)
    return truth


def eval_start(T: int) -> int:
    """First scored anchor: the last 20% of the panel, as ``contextrnn evaluate`` splits it."""
    return int(math.floor(0.8 * T))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    for name in sorted(SPECS):
        print(generate(name, args.seed).directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
