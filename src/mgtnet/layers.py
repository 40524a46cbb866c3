"""Differentiable graph and attention layers over the autodiff core.

Every layer owns its parameters as requires-grad tensors, exposes
``parameters()`` as stable (name, tensor) pairs, and is callable on a
``Tensor`` of per-joint feature rows, (N, F) for one sample or (B, N, F) for
a batch.  Adjacency stacks arrive as plain numpy matrices from the skeleton
module and are frozen as constants here.
"""
from __future__ import annotations

import math

import numpy as np

from . import linalg as la
from .linalg import Tensor

__all__ = [
    "ConfigurationError",
    "MultiHopGConvLayer",
    "HighOrderGConvLayer",
    "LamGConvLayer",
    "MultiHeadSelfAttention",
    "DilatedConvLayer",
    "LayerNorm",
    "receptive_field",
]


class ConfigurationError(ValueError):
    """A layer or model was configured inconsistently."""


_ACTIVATIONS = ("relu", "identity")


def _check_activation(activation: str) -> str:
    if activation not in _ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}, expected one of {_ACTIVATIONS}")
    return activation


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform Glorot sample for a weight of the given fan and shape."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _as_square_constant(adjacency: np.ndarray) -> Tensor:
    mat = np.asarray(adjacency, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigurationError(f"adjacency must be square, got shape {mat.shape}")
    return Tensor(mat.copy())


class MultiHopGConvLayer:
    """Sum of per-hop graph convolutions with disentangled adjacencies.

    One weight matrix per hop order; each hop's frozen adjacency selects the
    pairs at exactly that shortest-path distance (plus self-loops).  The K+1
    hop terms feed one sum, so each hop weight is drawn with Glorot on the
    layer's full fan-in (K+1)*f_in, the fan-in of the stacked form
    concat_k(A_k H) @ W; a plain Glorot draw per hop would grow the output
    variance about (K+1)x per layer.
    """

    def __init__(
        self,
        adjacencies,
        f_in: int,
        f_out: int,
        rng: np.random.Generator,
        bias: bool = True,
        activation: str = "relu",
    ):
        stack = [_as_square_constant(a) for a in adjacencies]
        if not stack:
            raise ConfigurationError("multi-hop conv needs at least one adjacency")
        n = stack[0].shape[0]
        for mat in stack[1:]:
            if mat.shape[0] != n:
                raise ConfigurationError("adjacency stack sizes disagree")
        self.adjacencies = stack
        self.f_in = int(f_in)
        self.f_out = int(f_out)
        self.activation = _check_activation(activation)
        fan_in = len(stack) * self.f_in
        self.weights = [
            Tensor(glorot(rng, fan_in, f_out, (f_in, f_out)), requires_grad=True)
            for _ in stack
        ]
        self.bias = Tensor(np.zeros(f_out), requires_grad=True) if bias else None

    @property
    def max_hop(self) -> int:
        return len(self.adjacencies) - 1

    def __call__(self, h: Tensor) -> Tensor:
        n = self.adjacencies[0].shape[0]
        if h.ndim not in (2, 3) or h.shape[-2:] != (n, self.f_in):
            raise la.ShapeError(
                f"multi-hop conv expects input of shape ([B,] {n}, {self.f_in}), got {h.shape}"
            )
        return la.graph_conv(
            h, self.adjacencies, self.weights, self.bias, relu=self.activation == "relu"
        )

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [(f"w{k}", w) for k, w in enumerate(self.weights)]
        if self.bias is not None:
            named.append(("b", self.bias))
        return named


class HighOrderGConvLayer(MultiHopGConvLayer):
    """Sum of graph convolutions over powers of one normalized adjacency.

    Order k uses A^k, so supports overlap across orders; contrast with the
    disentangled multi-hop stack.
    """

    def __init__(
        self,
        normalized_adjacency: np.ndarray,
        max_order: int,
        f_in: int,
        f_out: int,
        rng: np.random.Generator,
        bias: bool = True,
        activation: str = "relu",
    ):
        if max_order < 0:
            raise ConfigurationError(f"max_order must be nonnegative, got {max_order}")
        base = np.asarray(normalized_adjacency, dtype=np.float64)
        powers = [np.linalg.matrix_power(base, k) for k in range(max_order + 1)]
        super().__init__(powers, f_in, f_out, rng, bias=bias, activation=activation)


class LamGConvLayer:
    """Graph convolution whose adjacency is itself trainable.

    The adjacency starts as the normalized 1-hop matrix of the skeleton and
    is free to move away from it; no renormalization is applied afterwards.
    """

    def __init__(
        self,
        initial_adjacency: np.ndarray,
        width: int,
        rng: np.random.Generator,
        activation: str = "relu",
    ):
        init = np.asarray(initial_adjacency, dtype=np.float64)
        if init.ndim != 2 or init.shape[0] != init.shape[1]:
            raise ConfigurationError(f"adjacency must be square, got shape {init.shape}")
        self.width = int(width)
        self.activation = _check_activation(activation)
        self.adjacency = Tensor(init.copy(), requires_grad=True)
        self.weight = Tensor(glorot(rng, width, width, (width, width)), requires_grad=True)

    def __call__(self, h: Tensor) -> Tensor:
        n = self.adjacency.shape[0]
        if h.ndim not in (2, 3) or h.shape[-2:] != (n, self.width):
            raise la.ShapeError(
                f"lam conv expects input of shape ([B,] {n}, {self.width}), got {h.shape}"
            )
        return la.graph_conv(
            h, [self.adjacency], [self.weight], relu=self.activation == "relu"
        )

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("adj", self.adjacency), ("w", self.weight)]


class MultiHeadSelfAttention:
    """Scaled dot-product self-attention over joint rows.

    Per-head query/key/value projections are stored separately; outputs are
    concatenated and mixed by a square output projection.  No masking and no
    positional encoding, so the layer is permutation-equivariant in the rows.
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator):
        if heads < 1:
            raise ConfigurationError(f"heads must be positive, got {heads}")
        if width % heads != 0:
            raise ConfigurationError(f"width {width} is not divisible by heads {heads}")
        self.width = int(width)
        self.heads = int(heads)
        self.head_dim = width // heads
        self.w_query = []
        self.w_key = []
        self.w_value = []
        for _ in range(heads):
            for store in (self.w_query, self.w_key, self.w_value):
                store.append(
                    Tensor(glorot(rng, width, self.head_dim, (width, self.head_dim)), requires_grad=True)
                )
        self.w_out = Tensor(glorot(rng, width, width, (width, width)), requires_grad=True)
        self._inv_sqrt_dim = 1.0 / math.sqrt(self.head_dim)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim not in (2, 3) or x.shape[-1] != self.width:
            raise la.ShapeError(f"attention expects ([B,] *, {self.width}) input, got {x.shape}")
        return la.self_attention(
            x, self.w_query, self.w_key, self.w_value, self.w_out, self._inv_sqrt_dim
        )

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for i in range(self.heads):
            named.append((f"wq{i}", self.w_query[i]))
            named.append((f"wk{i}", self.w_key[i]))
            named.append((f"wv{i}", self.w_value[i]))
        named.append(("wo", self.w_out))
        return named


def receptive_field(half_width: int, dilation: int) -> int:
    """Span in grid cells covered by one dilated kernel application."""
    if half_width < 0 or dilation < 1:
        raise ConfigurationError(
            f"need half_width >= 0 and dilation >= 1, got {half_width}, {dilation}"
        )
    return 2 * dilation * half_width + 1


class DilatedConvLayer:
    """Single-channel dilated 2-d convolution over the joint x feature grid.

    Kernel taps sample the zero-padded grid at offsets spaced by the dilation
    factor, keeping the output shape equal to the input shape.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        half_width: int = 1,
        dilation: int = 2,
    ):
        if half_width < 0:
            raise ConfigurationError(f"half_width must be nonnegative, got {half_width}")
        if dilation < 1:
            raise ConfigurationError(f"dilation must be positive, got {dilation}")
        self.half_width = int(half_width)
        self.dilation = int(dilation)
        taps = 2 * half_width + 1
        self.kernel = Tensor(glorot(rng, taps * taps, taps * taps, (taps, taps)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return la.dilated_conv2d(x, self.kernel, self.dilation)

    @property
    def span(self) -> int:
        return receptive_field(self.half_width, self.dilation)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("kernel", self.kernel)]


class LayerNorm:
    """Row-wise layer normalization with trainable gain and bias."""

    def __init__(self, width: int, eps: float = 1e-5):
        self.width = int(width)
        self.eps = float(eps)
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return la.layer_norm(x, self.gain, self.bias, self.eps)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("gain", self.gain), ("bias", self.bias)]
