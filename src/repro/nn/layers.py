"""Layer / module abstractions for the numpy CNN substrate.

Mirrors a minimal slice of the ``torch.nn`` API surface (``Module``,
``parameters()``, ``train()``/``eval()``, ``Sequential`` …) so that the
classifier, trainer, attacks and defenses compose the same way the
paper's PyTorch code would.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..rng import unseeded_rng
from . import functional as F
from .tensor import Tensor, get_default_dtype, is_grad_enabled


class Parameter(Tensor):
    """A trainable :class:`Tensor` (always requires grad).

    Parameters adopt the module compute dtype (float32 by default; see
    :func:`repro.nn.set_default_dtype`).
    """

    def __init__(self, data, name: str = "") -> None:
        super().__init__(
            np.asarray(data, dtype=get_default_dtype()), requires_grad=True, name=name
        )


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes;
    :meth:`parameters` and :meth:`named_parameters` discover them
    recursively, and :meth:`state_dict` / :meth:`load_state_dict` provide
    serialization hooks used by :mod:`repro.nn.serialization`.
    """

    def __init__(self) -> None:
        self.training = True

    # -- discovery ------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{idx}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{idx}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self.children():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    # -- mode ------------------------------------------------------------ #
    def train(self) -> "Module":
        self.training = True
        # Parameters may now change (optimizer steps mutate ``.data`` in
        # place), so any cached conv+BN fold is about to go stale.
        self.__dict__.pop("_folded_eval", None)
        for child in self.children():
            child.train()
        return self

    def eval(self) -> "Module":
        if self.training:  # an eval→eval call keeps the conv+BN fold cache
            self.__dict__.pop("_folded_eval", None)
        self.training = False
        for child in self.children():
            child.eval()
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def to_dtype(self, dtype) -> "Module":
        """Cast every parameter, gradient and buffer to ``dtype`` in place.

        Used by the perf benchmark to time the same trained weights under
        both compute policies.
        """
        resolved = np.dtype(dtype)
        for _, param in self.named_parameters():
            param.data = param.data.astype(resolved, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(resolved, copy=False)
        for module, attr in self._named_buffer_refs().values():
            setattr(module, attr, np.asarray(getattr(module, attr), dtype=resolved))
        return self

    # -- state ------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters plus persistent buffers, keyed by dotted path."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update(self._named_buffers())
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self._named_buffer_refs())
        for key, value in state.items():
            if key in own_params:
                target = own_params[key]
                if target.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for '{key}': {target.data.shape} vs {value.shape}"
                    )
                target.data = np.array(value, dtype=target.data.dtype, copy=True)
            elif key in own_buffers:
                module, attr = own_buffers[key]
                current = getattr(module, attr)
                if current.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for buffer '{key}': {current.shape} vs {value.shape}"
                    )
                # Cast to the live buffer's dtype so checkpoints written
                # under one compute policy load cleanly under another.
                setattr(module, attr, np.array(value, dtype=current.dtype, copy=True))
            else:
                raise KeyError(f"unexpected key in state dict: '{key}'")

    def _named_buffers(self, prefix: str = "") -> Dict[str, np.ndarray]:
        buffers: Dict[str, np.ndarray] = {}
        for name, (module, attr) in self._named_buffer_refs(prefix).items():
            buffers[name] = np.array(getattr(module, attr), copy=True)
        return buffers

    def _named_buffer_refs(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        refs: Dict[str, Tuple[Module, str]] = {}
        for attr in getattr(self, "_buffer_names", ()):  # declared by subclasses
            refs[f"{prefix}{attr}"] = (self, attr)
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                refs.update(value._named_buffer_refs(prefix=f"{prefix}{attr}."))
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        refs.update(item._named_buffer_refs(prefix=f"{prefix}{attr}.{idx}."))
        return refs

    # -- call -------------------------------------------------------------- #
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


# --------------------------------------------------------------------- #
# Initialization helpers
# --------------------------------------------------------------------- #


def kaiming_normal(shape: Sequence[int], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal initialisation suited to ReLU networks."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.standard_normal(shape) * std


# --------------------------------------------------------------------- #
# Concrete layers
# --------------------------------------------------------------------- #


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else unseeded_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_normal((out_features, in_features), in_features, rng))
        self.bias = Parameter(np.zeros(out_features, dtype=get_default_dtype())) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """Square-kernel 2-D convolution over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else unseeded_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=get_default_dtype())) if bias else None
        self._col_workspace = F.Im2colWorkspace()

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            workspace=self._col_workspace,
        )


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW tensors.

    Keeps running statistics for evaluation mode — critical here because
    adversarial attacks run the classifier in ``eval()`` mode, exactly as
    an adversary attacking a deployed extractor would.
    """

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=get_default_dtype()))
        self.bias = Parameter(np.zeros(num_features, dtype=get_default_dtype()))
        self.running_mean = np.zeros(num_features, dtype=get_default_dtype())
        self.running_var = np.ones(num_features, dtype=get_default_dtype())

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects NCHW input")
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var.data.reshape(-1)
            )
            normalised = (x - mean) / (var + self.eps) ** 0.5
        else:
            # Match the input precision so stored float64 statistics do not
            # silently promote a float32 forward pass (and vice versa).
            mean = Tensor(
                self.running_mean.reshape(1, -1, 1, 1).astype(x.dtype, copy=False)
            )
            var = Tensor(
                self.running_var.reshape(1, -1, 1, 1).astype(x.dtype, copy=False)
            )
            normalised = (x - mean) / (var + self.eps) ** 0.5
        scale = self.weight.reshape(1, self.num_features, 1, 1)
        shift = self.bias.reshape(1, self.num_features, 1, 1)
        return normalised * scale + shift


# --------------------------------------------------------------------- #
# Eval-time conv + BN folding
# --------------------------------------------------------------------- #
#
# In eval mode batch norm is a fixed per-channel affine map, so it can be
# folded into the preceding convolution's weights: W' = W · γ/√(v+ε),
# b' = β + (b − m) · γ/√(v+ε).  Every attack iteration runs the model in
# eval mode, so folding removes four full-feature-map elementwise ops
# (and their backward closures) per conv/BN pair per iteration.  The fold
# is computed with Tensor ops on the layers' parameters, so it is exact
# and gradients still flow to conv and BN parameters; train() falls back
# to the unfolded pair automatically because folding is eval-only.

_PARAMETER_FREEZING = True


def set_parameter_freezing(enabled: bool) -> bool:
    """Globally enable/disable :class:`frozen_parameters`; returns previous.

    With freezing off the context manager becomes a no-op and attack
    backward passes compute (and accumulate) parameter gradients exactly
    as the seed engine did — kept reachable for benchmarking.
    """
    global _PARAMETER_FREEZING
    previous = _PARAMETER_FREEZING
    _PARAMETER_FREEZING = bool(enabled)
    return previous


class parameter_freezing:
    """Context manager pinning the parameter-freezing flag."""

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled

    def __enter__(self) -> "parameter_freezing":
        self._previous = set_parameter_freezing(self._enabled)
        return self

    def __exit__(self, *exc_info) -> None:
        set_parameter_freezing(self._previous)


class frozen_parameters:
    """Context manager disabling gradient tracking for a module's parameters.

    Input-gradient attacks only need ∂loss/∂x.  Freezing the parameters
    while the attack graph is built prunes every weight-gradient GEMM
    from the backward pass (roughly a third of its cost on the conv
    stack) and leaves ``param.grad`` untouched — so an attack sandwiched
    between training steps (adversarial training) cannot pollute the
    optimizer's gradient buffers.
    """

    def __init__(self, module: "Module") -> None:
        self._module = module

    def __enter__(self) -> "frozen_parameters":
        if not _PARAMETER_FREEZING:
            self._frozen = []
            return self
        self._frozen = [p for p in self._module.parameters() if p.requires_grad]
        for parameter in self._frozen:
            parameter.requires_grad = False
        return self

    def __exit__(self, *exc_info) -> None:
        for parameter in self._frozen:
            parameter.requires_grad = True


_CONV_BN_FOLDING = True


def set_conv_bn_folding(enabled: bool) -> bool:
    """Globally enable/disable eval-time conv+BN folding; returns previous."""
    global _CONV_BN_FOLDING
    previous = _CONV_BN_FOLDING
    _CONV_BN_FOLDING = bool(enabled)
    return previous


def conv_bn_folding_enabled() -> bool:
    return _CONV_BN_FOLDING


class conv_bn_folding:
    """Context manager pinning the folding flag (used by benchmarks/tests)."""

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled

    def __enter__(self) -> "conv_bn_folding":
        self._previous = set_conv_bn_folding(self._enabled)
        return self

    def __exit__(self, *exc_info) -> None:
        set_conv_bn_folding(self._previous)


def fold_conv_bn(conv: Conv2d, bn: BatchNorm2d) -> Tuple[Tensor, Tensor]:
    """Return the BN-folded ``(weight, bias)`` of a conv→BN pair.

    Both outputs are differentiable functions of the pair's parameters
    (running statistics are constants, as in eval-mode BN).
    """
    weight_dtype = conv.weight.dtype
    inv_std = 1.0 / np.sqrt(np.asarray(bn.running_var, dtype=np.float64) + bn.eps)  # lint: allow-float64
    scale = bn.weight * Tensor(inv_std.astype(weight_dtype, copy=False))
    weight = conv.weight * scale.reshape(-1, 1, 1, 1)
    shift = bn.bias - scale * Tensor(
        np.asarray(bn.running_mean, dtype=weight_dtype)
    )
    if conv.bias is not None:
        shift = shift + conv.bias * scale
    return weight, shift


def conv_bn_forward(x: Tensor, conv: Conv2d, bn: BatchNorm2d) -> Tensor:
    """``bn(conv(x))`` with eval-time folding when enabled.

    Training mode (or a disabled fold flag) uses the unfolded pair, so
    running statistics keep updating exactly as before.  When no gradient
    can flow to the pair's parameters (inference under ``no_grad``, or an
    input-gradient attack with frozen weights) the folded weight/bias are
    cached on the conv, holding the source arrays it was folded from, and
    reused until one of them is rebound (``load_state_dict``,
    ``to_dtype``) or the module goes back to training — repeated eval
    forwards skip the re-fold.
    """
    if bn.training or not _CONV_BN_FOLDING:
        return bn(conv(x))
    needs_parameter_graph = is_grad_enabled() and (
        conv.weight.requires_grad
        or bn.weight.requires_grad
        or bn.bias.requires_grad
        or (conv.bias is not None and conv.bias.requires_grad)
    )
    if needs_parameter_graph:
        weight, bias = fold_conv_bn(conv, bn)
    else:
        # Hold the sources, not their ids: an id can be reused once a
        # rebound array is freed, which would serve a stale fold.
        sources = (
            conv.weight.data,
            None if conv.bias is None else conv.bias.data,
            bn.weight.data,
            bn.bias.data,
            bn.running_mean,
            bn.running_var,
        )
        cached = conv.__dict__.get("_folded_eval")
        if cached is None or any(a is not b for a, b in zip(cached[0], sources)):
            folded_weight, folded_bias = fold_conv_bn(conv, bn)
            cached = (sources, Tensor(folded_weight.data), Tensor(folded_bias.data))
            conv._folded_eval = cached
        weight, bias = cached[1], cached[2]
    return F.conv2d(
        x,
        weight,
        bias,
        stride=conv.stride,
        padding=conv.padding,
        workspace=conv._col_workspace,
    )


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_from(axis=1)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self._col_workspace = F.Im2colWorkspace()

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, workspace=self._col_workspace)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self._col_workspace = F.Im2colWorkspace()

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, workspace=self._col_workspace)


class GlobalAvgPool2d(Module):
    """The paper's feature layer ``e`` (§IV-A5)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else unseeded_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        # The draw above is float64; match the input so dropout never
        # silently promotes a float32 forward pass.
        return x * Tensor(mask.astype(x.data.dtype, copy=False))


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
