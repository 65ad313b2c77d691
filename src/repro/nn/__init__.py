"""Numpy DNN substrate.

The paper configures its deep SNNs through DNN-to-SNN conversion of VGG16
networks trained in a conventional deep-learning framework.  This package is
a from-scratch, numpy-only replacement for that framework: layer classes with
explicit forward/backward passes, losses, optimisers, a ``Sequential``
container, VGG-style model builders and a small training loop.

Only the pieces needed by the conversion pipeline are implemented -- ReLU
convolutional networks with pooling, dropout and batch normalisation -- but
each piece is fully functional (training actually converges) rather than a
stub.
"""

from repro.nn.initializers import he_normal, xavier_uniform, zeros_init
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Identity,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.nn.norm import BatchNorm2D
from repro.nn.losses import CrossEntropyLoss, MSELoss, softmax
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.schedules import ConstantSchedule, CosineSchedule, StepSchedule
from repro.nn.model import Sequential
from repro.nn.vgg import (
    VGG_CONFIGS,
    build_mlp,
    build_vgg,
    vgg7,
    vgg9,
    vgg16,
    vgg_micro,
)
from repro.nn.training import (
    TrainingResult,
    Trainer,
    evaluate_accuracy,
    train_classifier,
)

__all__ = [
    "he_normal",
    "xavier_uniform",
    "zeros_init",
    "Layer",
    "Identity",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Dropout",
    "BatchNorm2D",
    "CrossEntropyLoss",
    "MSELoss",
    "softmax",
    "Optimizer",
    "SGD",
    "Adam",
    "ConstantSchedule",
    "StepSchedule",
    "CosineSchedule",
    "Sequential",
    "VGG_CONFIGS",
    "build_vgg",
    "build_mlp",
    "vgg7",
    "vgg9",
    "vgg16",
    "vgg_micro",
    "Trainer",
    "TrainingResult",
    "evaluate_accuracy",
    "train_classifier",
]
