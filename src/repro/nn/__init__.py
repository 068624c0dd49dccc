"""Minimal CNN framework in pure numpy (no autograd dependencies).

Implements exactly what the paper's Keras model needs — 2-D convolutions,
average/max pooling, dense layers, ReLU, batch-norm (for the Sec. 4
ablation), MSE loss, and the Nadam optimizer with per-epoch learning-rate
decay — with hand-derived backward passes that are gradient-checked in the
test suite.

Data layout is NHWC; all math is float64 for numerical robustness.
"""

from .initializers import glorot_uniform, zeros_init
from .layers import (
    AveragePooling2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPooling2D,
    Parameter,
    ReLU,
)
from .losses import MeanSquaredError
from .optimizers import Adam, Nadam, Optimizer
from .model import Sequential, TrainingHistory

__all__ = [
    "glorot_uniform",
    "zeros_init",
    "Parameter",
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "AveragePooling2D",
    "MaxPooling2D",
    "BatchNorm2D",
    "MeanSquaredError",
    "Optimizer",
    "Adam",
    "Nadam",
    "Sequential",
    "TrainingHistory",
]
