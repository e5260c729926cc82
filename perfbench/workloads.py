"""The three workloads: how each loads its inputs, runs its timed call, and is checked.

Every call into the program goes through the module attribute its callers
use (``model.train``, ``metrics.evaluate`` ...), so a traced run sees it.
Each workload splits verification in two: ``collect`` makes the extra
program calls the checks need, outside the timed region; ``check`` compares
that evidence with the generator's truth and with :mod:`oracles`, and
raises :class:`CheckFailed`. ``mutations`` yields deliberately wrong
evidence that ``check`` must reject (see ``selftest.py``).
"""

from __future__ import annotations

import copy
import dataclasses
import io
import math

import numpy as np

import oracles
from gen import HORIZON, K, MAXLAG, PERIOD, S, SPECS, STEPS_PER_UPDATE, WINDOW, eval_start, paper_config

from contextrnn import data, metrics, model, selection

#: the acceptance suite's context-selection oracle expects a planted source
#: to be found in 9 trials of 10. Each planted pair is one trial; a hit count
#: in the lower ALPHA tail of Binomial(pairs, RECALL) fails the check.
RECALL = 0.9
ALPHA = 1e-3
PREDICT_SAMPLES = 2
#: share of the epoch's update at which the loss must have fallen. The epoch
#: takes one Adam step, whose direction -lr * m_hat / (sqrt(v_hat) + eps) has
#: a negative inner product with the gradient, so a short enough step along
#: it lowers the loss whenever the gradients are right; the whole step of
#: lr 3e-3 on every parameter may overshoot, and on some seeds it does.
STEP_SHARE = 0.01
SUBPANEL = 12  # series in the estimator spot-check


class CheckFailed(Exception):
    """The program's output disagrees with an independent computation or a required property."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= abs_ + rel * abs(want)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def edited(ev: dict, **changes) -> dict:
    """A copy of the evidence with some entries replaced (for the mutations)."""
    return {**ev, **changes}


def training_anchors(T: int) -> int:
    return T - HORIZON - max(WINDOW, 2 * PERIOD) + 1


class Train:
    item = "series-anchor"

    def __init__(self, name: str):
        self.name, self.spec = name, SPECS[name]

    def config(self, seed: int):
        return paper_config(seed).with_overrides(epochs=1, batch_schedule={1: self.spec.batch})

    def load(self, truth, seed):
        panel = data.load_panel(truth.panel_path)
        cmap = selection.read_context_map(truth.map_path)
        return panel, cmap, self.config(seed)

    def run(self, loaded):
        panel, cmap, cfg = loaded
        return model.train(panel, cmap, cfg)

    def items(self) -> int:
        return self.spec.n * training_anchors(self.spec.T)

    def summary(self, outputs) -> str:
        return f"train_loss {outputs[0][1][-1].train_loss!r}"

    def collect(self, truth, loaded, outputs, rng) -> dict:
        panel, cmap, cfg = loaded
        params = outputs[0][0]
        buffer = io.BytesIO()
        model.save_model(params, buffer)
        buffer.seek(0)
        initial = model.init_model(cfg, panel.n, cmap)
        stepped = initial.copy()
        for key, arr in stepped.arrays.items():
            arr += STEP_SHARE * (params.arrays[key] - arr)
        return {
            "losses": [log[-1].train_loss for _p, log in outputs],
            "epochs": [len(log) for _p, log in outputs],
            "updates": [log[-1].updates for _p, log in outputs],
            "runs": [p.arrays for p, _log in outputs],
            "val_initial": model.validation_loss(initial, panel),
            "val_stepped": model.validation_loss(stepped, panel),
            "restored": model.load_model(buffer).arrays,
        }

    def check(self, truth, ev):
        n, batch = self.spec.n, self.spec.batch
        # one update per batch per segment of STEPS_PER_UPDATE anchors; every
        # batch holds a series with loss terms (the gap layout leaves one
        # series without any)
        expected = math.ceil(n / min(batch, n)) * math.ceil(training_anchors(self.spec.T) / STEPS_PER_UPDATE)
        require(all(math.isfinite(v) for v in ev["losses"]), f"non-finite train loss {ev['losses']}")
        require(len(set(ev["losses"])) == 1, f"identical epochs gave different losses {[float(v) for v in ev['losses']]}")
        require(set(ev["epochs"]) == {1}, f"expected one epoch per call, got {ev['epochs']}")
        require(set(ev["updates"]) == {expected}, f"updates {ev['updates']}, derived {expected}")
        first = ev["runs"][0]
        for other in ev["runs"][1:]:
            require(first.keys() == other.keys() and all(same_bits(first[k], other[k]) for k in first),
                    "identical epochs gave different parameters")
        v0, v1 = ev["val_initial"], ev["val_stepped"]
        require(v0 is not None and v1 is not None and math.isfinite(v0) and math.isfinite(v1),
                f"validation loss not finite: {v0} -> {v1}")
        require(v1 < v0, f"{STEP_SHARE:g} of the update did not lower the loss on its panel: {v0!r} -> {v1!r}")
        restored = ev["restored"]
        require(restored.keys() == first.keys(), "model file round trip changed the parameter names")
        for key, arr in first.items():
            require(same_bits(arr, restored[key]), f"model file round trip changed {key}")

    def mutations(self, ev):
        yield "train loss is NaN", edited(ev, losses=[math.nan] + ev["losses"][1:])
        yield "a rerun's loss differs in the last bit", edited(ev, losses=ev["losses"] + [np.nextafter(ev["losses"][0], 1.0)])
        yield "update count off by one", edited(ev, updates=[u + 1 for u in ev["updates"]])
        yield "two calls", edited(ev, epochs=[2 for _ in ev["epochs"]])
        yield "validation loss does not fall", edited(ev, val_stepped=ev["val_initial"])
        changed = copy.deepcopy(ev["runs"][0])
        changed["head_b"].flat[0] = np.nextafter(changed["head_b"].flat[0], 1.0)
        yield "a rerun's parameters differ in one bit", edited(ev, runs=ev["runs"] + [changed])
        yield "model file round trip flips one bit", edited(ev, restored=changed)
        dropped = dict(ev["restored"])
        dropped.pop("head_b")
        yield "model file round trip drops an array", edited(ev, restored=dropped)


class Forecast:
    item = "series-anchor"

    def __init__(self, name: str):
        self.name, self.spec = name, SPECS[name]

    def load(self, truth, seed):
        return data.load_panel(truth.panel_path), model.load_model(truth.model_path)

    def run(self, loaded):
        panel, params = loaded
        return metrics.evaluate(params, panel, eval_start(panel.T))

    def items(self) -> int:
        return self.spec.n * (self.spec.T - WINDOW + 1)  # every grid anchor is swept

    def summary(self, outputs) -> str:
        return f"rse {outputs[0].rse!r} corr {outputs[0].corr!r}"

    def scored(self, truth):
        """{series: [anchor, ...]} scored by the protocol, derived from the generator's mask."""
        T = self.spec.T
        start = max(eval_start(T), max(WINDOW, 2 * PERIOD))
        out = {}
        for sid in range(self.spec.n):
            anchors = [t for t in range(start, T - HORIZON + 1) if truth.mask[sid, t : t + HORIZON].all()]
            if anchors:
                out[sid] = anchors
        return out

    def collect(self, truth, loaded, outputs, rng) -> dict:
        panel, params = loaded
        start = max(eval_start(panel.T), params.config.first_anchor)
        predicted, actual = metrics.forecast_matrices(params, panel, start)
        scored = self.scored(truth)
        samples = []
        for _ in range(PREDICT_SAMPLES):
            sid = int(rng.choice(sorted(scored)))
            anchor = int(rng.choice(scored[sid]))
            cut = data.SeriesPanel(panel.values[:, :anchor], panel.timestamps[:anchor],
                                   panel.mask[:, :anchor], panel.frequency, panel.shift)
            median = model.predict(params, cut, anchor, series=[sid])[sid][0]
            samples.append((sid, anchor, median))
        return {"reports": list(outputs), "predicted": predicted, "actual": actual, "samples": samples}

    def check(self, truth, ev):
        first = ev["reports"][0]
        for other in ev["reports"][1:]:
            require(dataclasses.replace(other, runtime_seconds=0.0) == dataclasses.replace(first, runtime_seconds=0.0),
                    "identical evaluations gave different reports")
        predicted, actual = ev["predicted"], ev["actual"]
        scored = self.scored(truth)
        rows = sorted(scored)
        cells = sum(len(a) for a in scored.values()) * HORIZON
        require(predicted.shape == actual.shape and predicted.size == cells,
                f"{predicted.size} scored cells, the mask gives {cells}")
        want = np.concatenate([truth.values[sid, t : t + HORIZON] for sid in rows for t in scored[sid]])
        require(np.array_equal(actual.reshape(-1), want), "scored actuals are not the panel's values")
        require(np.all(np.isfinite(predicted)), "non-finite forecast")
        for sid, anchor, median in ev["samples"]:
            row = predicted[rows.index(sid), scored[sid].index(anchor)]
            require(np.allclose(median, row, rtol=1e-9, atol=0.0),
                    f"series {sid}: forecast at anchor {anchor} from the truncated panel differs from the rolling one")
        checks = [("rse", first.rse, oracles.rse(predicted, actual)),
                  ("corr", first.corr, oracles.mean_corr(predicted.reshape(len(rows), -1), actual.reshape(len(rows), -1)))]
        for h in range(HORIZON):
            got_rse, got_corr = first.per_horizon[h + 1]
            checks.append((f"rse@{h + 1}", got_rse, oracles.rse(predicted[:, :, h], actual[:, :, h])))
            checks.append((f"corr@{h + 1}", got_corr, oracles.mean_corr(predicted[:, :, h], actual[:, :, h])))
        for label, got, want in checks:
            require(close(got, want, rel=1e-9, abs_=1e-12), f"report {label} {got!r}, brute force {want!r}")

    def mutations(self, ev):
        report = ev["reports"][0]
        yield "report RSE off by 1e-6", edited(ev, reports=[dataclasses.replace(report, rse=report.rse + 1e-6)])
        yield "report CORR off by 1e-6", edited(ev, reports=[dataclasses.replace(report, corr=report.corr - 1e-6)])
        horizon = dict(report.per_horizon)
        horizon[HORIZON] = (horizon[HORIZON][0] * (1 + 1e-6), horizon[HORIZON][1])
        yield "per-horizon RSE off by 1e-6", edited(ev, reports=[dataclasses.replace(report, per_horizon=horizon)])
        yield "a rerun's report differs", edited(ev, reports=[report, dataclasses.replace(report, rse=report.rse * 2)])
        sid, anchor, median = ev["samples"][0]
        yield "perturbed forecast at a sampled anchor", edited(ev, samples=[(sid, anchor, median * (1 + 1e-6))])
        perturbed = ev["predicted"].copy()
        perturbed[0, 0, 0] *= 1 + 1e-6
        yield "perturbed forecast in the scored matrix", edited(ev, predicted=perturbed)
        yield "one anchor fewer scored", edited(ev, predicted=ev["predicted"][:, 1:], actual=ev["actual"][:, 1:])
        shifted = ev["actual"].copy()
        shifted[-1, -1, -1] += 1e-9
        yield "an actual off the panel value", edited(ev, actual=shifted)


class Select:
    item = "series-pair"

    def __init__(self, name: str):
        self.name, self.spec = name, SPECS[name]

    def load(self, truth, seed):
        return data.load_panel(truth.panel_path)

    def run(self, panel):
        return selection.build_context_map(panel, S, K, maxlag=MAXLAG)

    def items(self) -> int:
        return self.spec.n * (self.spec.n - 1) // 2  # series pairs scored

    def summary(self, outputs) -> str:
        return f"global batch {outputs[0].global_batch}"

    def subpanel(self, truth, rng) -> list:
        """A planted pair, four gapped series and six fully observed ones."""
        source, target = truth.planted[0]
        gapped = [i for i in range(self.spec.n) if not truth.mask[i].all() and i not in (source, target)]
        full = [i for i in range(self.spec.n) if truth.mask[i].all() and i not in (source, target)]
        picks = list(rng.choice(gapped, 4, replace=False)) + list(rng.choice(full, SUBPANEL - 6, replace=False))
        return [source, target] + [int(i) for i in picks]

    def collect(self, truth, panel, outputs, rng) -> dict:
        ids = self.subpanel(truth, rng)
        sub = data.SeriesPanel(panel.values[ids], panel.timestamps, panel.mask[ids], panel.frequency, panel.shift)
        others = {t: tuple(j for j in range(len(ids)) if j != t) for t in range(len(ids))}
        return {
            "maps": [(dict(cm.per_target), tuple(cm.global_batch)) for cm in outputs],
            "ids": ids,
            "pearson": selection.pearson_matrix(sub).weights,
            "mi": selection.mi_matrix(sub).weights,
            "granger": selection.granger_rank(sub, others, MAXLAG, S).p_values,
        }

    def check(self, truth, ev):
        from scipy import stats  # imported here, so it stays out of the timed process's peak memory

        n = self.spec.n
        per_target, global_batch = ev["maps"][0]
        require(all(m == ev["maps"][0] for m in ev["maps"]), "identical selections gave different maps")
        require(sorted(per_target) == list(range(n)), "the map does not cover every target once")
        for target, ids in per_target.items():
            require(len(ids) == S and len(set(ids)) == S and target not in ids and all(0 <= i < n for i in ids),
                    f"target {target}: {ids} is not {S} distinct other series")
        require(len(global_batch) == K and len(set(global_batch)) == K and all(0 <= i < n for i in global_batch),
                f"context batch {global_batch} is not {K} distinct series")
        hits = sum(source in per_target[target] for source, target in truth.planted)
        need = int(stats.binom.ppf(ALPHA, len(truth.planted), RECALL))
        require(hits >= need, f"{hits} of {len(truth.planted)} planted sources selected, need {need}")
        ids = ev["ids"]
        for a, i in enumerate(ids):
            for b, j in enumerate(ids):
                if a == b:
                    continue
                keep = truth.mask[i] & truth.mask[j]
                x, y = truth.values[i, keep], truth.values[j, keep]
                if a < b:
                    want = oracles.pearson(x, y)
                    require(close(ev["pearson"][a, b], want, rel=0.0, abs_=1e-12),
                            f"Pearson({i}, {j}) {float(ev['pearson'][a, b])!r}, numpy {want!r}")
                    want = oracles.mutual_information(x, y)
                    require(close(ev["mi"][a, b], want, rel=0.0, abs_=1e-12),
                            f"MI({i}, {j}) {float(ev['mi'][a, b])!r}, numpy {want!r}")
                lo, hi = oracles.longest_run(keep)
                want = oracles.granger_p(truth.values[i, lo:hi], truth.values[j, lo:hi], MAXLAG)
                require(close(ev["granger"][a, b], want, rel=1e-6, abs_=1e-10),
                        f"Granger p({j} -> {i}) {float(ev['granger'][a, b])!r}, scipy {want!r}")

    def mutations(self, ev):
        per_target, global_batch = ev["maps"][0]
        targets = sorted(per_target)
        rolled = {t: per_target[targets[(k + 1) % len(targets)]] for k, t in enumerate(targets)}
        rolled = {t: tuple(i if i != t else (t + 1) % len(targets) for i in ids) for t, ids in rolled.items()}
        yield "shuffled context map", edited(ev, maps=[(rolled, global_batch)])
        yield "a target lists itself", edited(ev, maps=[({**per_target, 0: (0,) + per_target[0][1:]}, global_batch)])
        yield "a context listed twice", edited(ev, maps=[({**per_target, 0: (per_target[0][1],) + per_target[0][1:]}, global_batch)])
        yield "context batch repeats an id", edited(ev, maps=[(per_target, global_batch[:-1] + global_batch[:1])])
        yield "a target missing", edited(ev, maps=[({t: v for t, v in per_target.items() if t != 0}, global_batch)])
        yield "a rerun picks another batch", edited(ev, maps=ev["maps"] + [(per_target, global_batch[::-1])])
        for key, delta in (("pearson", 1e-9), ("mi", 1e-9), ("granger", 1e-6)):
            bumped = ev[key].copy()
            bumped[0, 2] = bumped[0, 2] * (1 + delta) + delta
            yield f"{key} value off by {delta:g}", edited(ev, **{key: bumped})


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (Train("train-b20-gaps"), Forecast("forecast"), Select("select"))}
