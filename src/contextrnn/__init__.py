"""Context-augmented hybrid exponential-smoothing / dilated-RNN forecaster.

Subpackages:

- ``tape``: tensor type and tape-based reverse-mode autodiff
- ``data``: panels, splits, window normalization, calendar features, synthetic data
- ``smoothing``: dynamic multiplicative Holt-Winters decomposition
- ``selection``: data-driven context-series selection (correlation, spanning
  tree, mutual information, Granger causality)
- ``context_track``: DFT feature stacks, separable conv blocks, modulation
- ``cells``: weighted dilated RNN cells and the stacked backbone
- ``model``: loss, optimizer, training/prediction loops, serialization
- ``metrics``: RSE / CORR evaluation and reports
- ``cli``: command-line surface
"""

from .config import TrainConfig, load_config
from .data import SeriesPanel, SynthSpec, load_panel, split, synth_generate
from .metrics import EvalReport, evaluate, rse
from .model import (
    ModelParams,
    ensemble_predict,
    load_model,
    predict,
    save_model,
    train,
)
from .selection import ContextMap, build_context_map, read_context_map, write_context_map
from .tape import Tape, Tensor, backward, grad_check

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "grad_check",
    "TrainConfig",
    "load_config",
    "SeriesPanel",
    "SynthSpec",
    "load_panel",
    "split",
    "synth_generate",
    "ContextMap",
    "build_context_map",
    "read_context_map",
    "write_context_map",
    "ModelParams",
    "train",
    "predict",
    "ensemble_predict",
    "save_model",
    "load_model",
    "EvalReport",
    "evaluate",
    "rse",
    "__version__",
]
