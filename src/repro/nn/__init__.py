"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Provides everything the TAaMR reproduction needs from a DL framework:
reverse-mode autodiff (:mod:`repro.nn.tensor`), layers, losses,
optimizers, and the residual CNN classifier standing in for ResNet50.
"""

from . import functional
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    conv_bn_forward,
    fold_conv_bn,
    frozen_parameters,
)
from .functional import Im2colWorkspace
from .losses import accuracy, cross_entropy, mse, soft_cross_entropy
from .sanitizer import (
    DtypePolicyError,
    GraphLeakError,
    GraphSanitizer,
    NonFiniteError,
    SanitizerError,
    SavedTensorError,
    sanitize,
)
from .optim import SGD, Adam, CosineAnnealingLR, StepLR, clip_grad_norm
from .classifier import ImageClassifier
from .resnet import ResidualBlock, TinyResNet
from .simplecnn import SimpleCNN
from .serialization import load_state, save_state
from .tensor import (
    Tensor,
    as_tensor,
    compute_dtype,
    concat,
    get_default_dtype,
    no_grad,
    set_default_dtype,
    stack,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "compute_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "conv_bn_forward",
    "fold_conv_bn",
    "frozen_parameters",
    "Im2colWorkspace",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "Flatten",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Sequential",
    "cross_entropy",
    "soft_cross_entropy",
    "mse",
    "accuracy",
    "SGD",
    "Adam",
    "StepLR",
    "CosineAnnealingLR",
    "clip_grad_norm",
    "TinyResNet",
    "SimpleCNN",
    "ImageClassifier",
    "ResidualBlock",
    "save_state",
    "load_state",
    "sanitize",
    "GraphSanitizer",
    "SanitizerError",
    "NonFiniteError",
    "SavedTensorError",
    "DtypePolicyError",
    "GraphLeakError",
]
