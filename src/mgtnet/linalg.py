"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything downstream (layers, model, training) is built from the operations
in this module.  A ``Tensor`` wraps a row-major numpy buffer.  Operations are
recorded onto the innermost active ``Tape``; with no tape installed they just
compute values, which is what evaluation paths use.  Tapes are single-threaded
by contract: one tape per training worker, never shared concurrently.

The operations the network records take an optional leading batch axis: a
3-d tensor is a batch of 2-d samples.  A batch times a shared weight is one
GEMM over the rows of all samples, and a gradient that reaches an operand
without the batch axis (a weight, a bias, a kernel) is one sum over it.  So
a batch agrees with a tape of per-sample forwards joined by ``stack`` within
rounding (about 1e-12 of each array's largest magnitude), not bit for bit.

Two fused ops, ``graph_conv`` and ``self_attention``, each write one tape
record for a whole layer and carry a hand-written backward.  They are bit
for bit the composition of primitives they replace, forward and every
gradient, by three rules: they run the same array expressions on arrays of
the same layout in the same order (the product and softmax rules live in
private helpers that ``matmul`` and ``softmax_rows`` call too); they list an
input once per internal use, in the order a reverse sweep over the
composition reaches it, so ``Tape.backward`` adds its gradients in the same
order; and they keep backward state only while a tape records.  The
primitives stay as the reference the tests compare the fused ops against.

``dilated_conv2d`` is under the tolerance contract instead: it runs as one
banded product per direction, so it agrees with the per-tap sum of shifted
windows it replaces within about 1e-12 of each array's largest magnitude,
forward and both gradients, not bit for bit.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "ContractError",
    "EvaluationError",
    "GradCheckReport",
    "set_debug",
    "debug_enabled",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "absolute",
    "concat",
    "stack",
    "reshape",
    "permute",
    "transpose",
    "dropout",
    "tensor_sum",
    "softmax_rows",
    "layer_norm",
    "dilated_conv2d",
    "graph_conv",
    "self_attention",
    "grad_check",
    "grad_check_params",
    "zero_grads",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's preconditions."""


class ContractError(RuntimeError):
    """An API contract was violated (non-scalar loss, missing tape, ...)."""


class EvaluationError(RuntimeError):
    """A checked evaluation produced non-finite values."""


_DEBUG = False


def set_debug(enabled: bool) -> None:
    """Toggle finiteness checks after every forward operation."""
    global _DEBUG
    _DEBUG = bool(enabled)


def debug_enabled() -> bool:
    return _DEBUG


def _check_finite(data: np.ndarray, op: str) -> None:
    if _DEBUG and not np.all(np.isfinite(data)):
        raise EvaluationError(f"non-finite values produced by {op}")


class Tensor:
    """A dense float64 array plus gradient bookkeeping.

    ``requires_grad`` marks tensors that should receive gradients.  ``grad``
    is populated by ``Tape.backward`` for every requires-grad tensor that was
    not produced on the tape being replayed (i.e. leaves such as parameters).
    Repeated backward calls accumulate into ``grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # weak reference to the producing tape, so a tape and its outputs
        # form no reference cycle and refcounting frees a finished tape
        self._tape: "weakref.ref[Tape] | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed operations for one reverse sweep.

    Usable as a context manager; the innermost active tape records every
    operation whose inputs require gradients.  Replaying in reverse recorded
    order visits each node exactly once.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self._ref = weakref.ref(self)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: tapes must nest")

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

        Leaves are requires-grad tensors not produced on this tape.  Calling
        again without clearing grads adds another copy of the gradient.
        """
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self._ref:
            raise ContractError("loss was not produced by operations recorded on this tape")
        pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, rule in reversed(self._records):
            out_grad = pending.pop(id(out), None)
            if out_grad is None:
                continue
            for tensor, grad in zip(inputs, rule(out_grad)):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor._tape is self._ref:
                    seen = pending.get(id(tensor))
                    pending[id(tensor)] = grad if seen is None else seen + grad
                elif tensor.grad is None:
                    tensor.grad = grad.copy()
                else:
                    tensor.grad = tensor.grad + grad


def zero_grads(params) -> None:
    """Clear ``grad`` on an iterable of tensors or (name, tensor) pairs."""
    for p in params:
        tensor = p[1] if isinstance(p, tuple) else p
        tensor.grad = None


def _current_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(data: np.ndarray, inputs: tuple[Tensor, ...], rule, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _current_tape()
    if out.requires_grad and tape is not None:
        out._tape = tape._ref
        tape._records.append((out, inputs, rule))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting.

    The leading axes ``shape`` lacks, a batch axis included, go in one sum.
    """
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural operations


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add cannot broadcast {a.shape} with {b.shape}") from None

    def rule(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _emit(data, (a, b), rule, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub cannot broadcast {a.shape} with {b.shape}") from None

    def rule(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _emit(data, (a, b), rule, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul cannot broadcast {a.shape} with {b.shape}") from None
    a_data, b_data = a.data, b.data

    def rule(g):
        return (
            _unbroadcast(g * b_data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a_data, b.shape) if b.requires_grad else None,
        )

    return _emit(data, (a, b), rule, "mul")


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    factor = float(factor)

    def rule(g):
        return (g * factor,)

    return _emit(a.data * factor, (a,), rule, "scale")


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def rule(g):
        return (g * mask,)

    return _emit(a.data * mask, (a,), rule, "relu")


def absolute(a) -> Tensor:
    a = as_tensor(a)
    sign = np.sign(a.data)

    def rule(g):
        return (g * sign,)

    return _emit(np.abs(a.data), (a,), rule, "absolute")


def _matmul_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product rule of ``matmul`` on arrays: a batch times a shared right
    operand is one GEMM over the folded rows, every other form is ``np.matmul``."""
    if a.ndim == 3 and b.ndim == 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return np.matmul(a, b)


def _matmul_backward(a: np.ndarray, b: np.ndarray, g: np.ndarray, need_a: bool, need_b: bool):
    """Gradients of ``_matmul_forward(a, b)`` for output gradient ``g``, each
    ``None`` unless asked for.  The folded form's are one GEMM each way."""
    if a.ndim == 3 and b.ndim == 2:
        g_rows = g.reshape(-1, g.shape[-1])
        return (
            (g_rows @ b.T).reshape(a.shape) if need_a else None,
            a.reshape(-1, a.shape[-1]).T @ g_rows if need_b else None,
        )
    return (
        _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape) if need_a else None,
        _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape) if need_b else None,
    )


def matmul(a, b) -> Tensor:
    """Matrix product, optionally over a leading batch axis.

    Accepted forms: ``(n, k) @ (k, m)``, ``(B, n, k) @ (k, m)``,
    ``(n, k) @ (B, k, m)`` and ``(B, n, k) @ (B, k, m)``.  The second folds
    the batch into the rows: forward, input gradient and weight gradient are
    one GEMM each, over ``B*n`` rows.  The others run the batched
    ``np.matmul``, which would need transposing copies to fold.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ShapeError(f"matmul needs 2-d or batched 3-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul batch sizes disagree: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data

    def rule(g):
        return _matmul_backward(a_data, b_data, g, a.requires_grad, b.requires_grad)

    return _emit(_matmul_forward(a_data, b_data), (a, b), rule, "matmul")


def concat(tensors) -> Tensor:
    """Concatenate along the last axis."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    lead = tensors[0].shape[:-1]
    for t in tensors[1:]:
        if t.ndim != tensors[0].ndim or t.shape[:-1] != lead:
            raise ShapeError(
                "concat operands must agree on all axes but the last: "
                f"{[t.shape for t in tensors]}"
            )
    widths = [t.shape[-1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def rule(g):
        return tuple(
            g[..., offsets[i] : offsets[i + 1]] if t.requires_grad else None
            for i, t in enumerate(tensors)
        )

    return _emit(np.concatenate([t.data for t in tensors], axis=-1), tuple(tensors), rule, "concat")


def stack(tensors) -> Tensor:
    """Stack equally shaped tensors along a new leading axis."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack needs at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ShapeError(f"stack operands must share a shape: {[t.shape for t in tensors]}")

    def rule(g):
        return tuple(g[i] if t.requires_grad else None for i, t in enumerate(tensors))

    return _emit(np.stack([t.data for t in tensors]), tuple(tensors), rule, "stack")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(n) for n in (shape if hasattr(shape, "__iter__") else (shape,)))
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    in_shape = a.shape

    def rule(g):
        return (g.reshape(in_shape),)

    return _emit(a.data.reshape(shape).copy(), (a,), rule, "reshape")


def permute(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute axes {axes} invalid for shape {a.shape}")
    inverse = tuple(int(x) for x in np.argsort(axes))

    def rule(g):
        return (np.transpose(g, inverse),)

    return _emit(np.transpose(a.data, axes).copy(), (a,), rule, "permute")


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 axes, got {a.shape}")
    return permute(a, (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2))


def dropout(a, p: float, rng: np.random.Generator | None = None, train: bool = True) -> Tensor:
    """Inverted dropout; identity when ``train`` is false or ``p`` is zero."""
    a = as_tensor(a)
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout needs 0 <= p < 1, got {p}")
    if not train or p == 0.0:
        return a
    if rng is None:
        raise ContractError("dropout with p > 0 needs an explicit rng")
    keep = (rng.random(a.shape) >= p) / (1.0 - p)

    def rule(g):
        return (g * keep,)

    return _emit(a.data * keep, (a,), rule, "dropout")


# ---------------------------------------------------------------------------
# reductions and row-wise normalizations


def tensor_sum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape
    if axis is not None:
        axis = int(axis)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), in_shape).copy(),)

    return _emit(a.data.sum(axis=axis), (a,), rule, "sum")


def _softmax_forward(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by row-max subtraction."""
    shifted = a - a.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _softmax_backward(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient through softmax output ``p``: ``p * (g - sum(g * p))`` per row."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis, stabilized by row-max subtraction."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"softmax_rows needs at least 2 axes, got {a.shape}")
    out = _softmax_forward(a.data)

    def rule(g):
        return (_softmax_backward(out, g),)

    return _emit(out, (a,), rule, "softmax_rows")


def layer_norm(a, gain, bias) -> Tensor:
    """Row-wise normalization to zero mean, unit variance, then affine.

    ``a`` is (rows, width) or a (B, rows, width) batch.  Variance is the
    population variance over the last (feature) axis.  An epsilon of 1e-5
    under the square root keeps constant rows finite: they normalize to
    zero and come out as ``bias``.
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    if a.ndim not in (2, 3):
        raise ShapeError(f"layer_norm needs a 2-d tensor or a batch of them, got {a.shape}")
    width = a.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}, {bias.shape} do not match width {width}"
        )
    centered = a.data - a.data.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    normed = centered * inv
    out = normed * gain.data + bias.data
    gain_data = gain.data

    def rule(g):
        d_gain = _unbroadcast(g * normed, gain.shape) if gain.requires_grad else None
        d_bias = _unbroadcast(g, bias.shape) if bias.requires_grad else None
        if a.requires_grad:
            d_normed = g * gain_data
            d_a = inv * (
                d_normed
                - d_normed.mean(axis=-1, keepdims=True)
                - normed * (d_normed * normed).mean(axis=-1, keepdims=True)
            )
        else:
            d_a = None
        return (d_a, d_gain, d_bias)

    return _emit(out, (a, gain, bias), rule, "layer_norm")


@functools.lru_cache(maxsize=None)
def _conv_plan(rows: int, cols: int, taps: int, dilation: int):
    """Index plan of ``dilated_conv2d`` on (rows, cols) grids.

    Returns the column taps as ``(s, dst, src)``, meaning stack block ``s``
    holds ``grid[:, src]`` at columns ``dst``; and, one entry per nonzero
    band cell in the order (s, i, r), that cell's flat position in the
    (rows, taps*rows) band, its flat position in the (taps, rows, rows)
    kernel-gradient blocks, and its flat kernel tap ``r*taps + s``.
    """
    m = taps // 2
    column_taps = []
    for s in range(taps):
        shift = dilation * (s - m)
        lo, hi = max(0, -shift), min(cols, cols - shift)
        if lo < hi:
            column_taps.append((s, slice(lo, hi), slice(lo + shift, hi + shift)))
    cells = [
        (s, i, r, i + dilation * (r - m))
        for s in range(taps)
        for i in range(rows)
        for r in range(taps)
        if 0 <= i + dilation * (r - m) < rows
    ]
    s, i, r, j = np.array(cells, dtype=np.intp).reshape(-1, 4).T
    return (
        tuple(column_taps),
        i * (taps * rows) + s * rows + j,
        (s * rows + i) * rows + j,
        r * taps + s,
    )


def dilated_conv2d(a, kernel, dilation: int) -> Tensor:
    """Zero-padded 2-d convolution of a grid with a square, odd, dilated kernel.

    ``a`` is a (rows, cols) grid or a (B, rows, cols) batch of them; the
    output has the input's shape.  Tap (r, s) of a (2m+1) x (2m+1) kernel
    reads the grid at offset (dilation * (r - m), dilation * (s - m)); cells
    beyond the edge read zero.  The op is three products.  The forward
    multiplies a (rows, taps*rows) band, whose block s is the sum over r of
    ``kernel[r, s]`` times the row shift by ``dilation * (r - m)``, by the
    grids stacked by column tap, block s shifted ``dilation * (s - m)``
    along columns with zero fill.  The input gradient is the band's
    transpose times the output gradient, each block shifted back and the
    blocks summed; the kernel gradient sums ``g[:, dst] @ a[:, src].T`` per
    column tap over the batch and gathers its diagonals into the taps.  So
    it matches the per-tap sum within rounding, not bit for bit.
    """
    a, kernel = as_tensor(a), as_tensor(kernel)
    if a.ndim not in (2, 3):
        raise ShapeError(f"dilated_conv2d needs a 2-d grid or a batch of them, got {a.shape}")
    taps = kernel.shape[0]
    if kernel.ndim != 2 or kernel.shape[1] != taps or taps % 2 == 0:
        raise ShapeError(f"dilated_conv2d needs a square kernel of odd size, got {kernel.shape}")
    dilation = int(dilation)
    if dilation < 1:
        raise ShapeError(f"dilated_conv2d needs dilation >= 1, got {dilation}")
    rows, cols = a.shape[-2:]
    column_taps, band_cells, block_cells, tap_of_cell = _conv_plan(rows, cols, taps, dilation)
    band = np.zeros(rows * taps * rows)
    band[band_cells] = kernel.data.reshape(-1)[tap_of_cell]
    band = band.reshape(rows, taps * rows)
    grids = a.data.reshape(-1, rows, cols)
    stacked = (len(grids), taps, rows, cols)
    stack = np.zeros(stacked)
    for s, dst, src in column_taps:
        stack[:, s, :, dst] = grids[..., src]
    out = np.matmul(band, stack.reshape(len(grids), taps * rows, cols)).reshape(a.shape)

    def rule(g):
        g = g.reshape(grids.shape)
        d_a = d_kernel = None
        if a.requires_grad:
            d_stack = np.matmul(band.T, g).reshape(stacked)
            d_a = np.zeros(grids.shape)
            for s, dst, src in column_taps:
                d_a[..., src] += d_stack[:, s, :, dst]
            d_a = d_a.reshape(a.shape)
        if kernel.requires_grad:
            blocks = np.zeros((taps, rows, rows))
            for s, dst, src in column_taps:
                np.matmul(g[..., dst], grids[..., src].transpose(0, 2, 1)).sum(axis=0, out=blocks[s])
            d_kernel = np.bincount(
                tap_of_cell, weights=blocks.reshape(-1)[block_cells], minlength=taps * taps
            ).reshape(taps, taps)
        return (d_a, d_kernel)

    return _emit(out, (a, kernel), rule, "dilated_conv2d")


# ---------------------------------------------------------------------------
# fused layers: one tape record each, bit for bit the composition they replace


def _recording(inputs) -> bool:
    """Whether an op on ``inputs`` is recorded, and so must keep backward state."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def graph_conv(h, adjacencies, weights, bias=None, relu: bool = False) -> Tensor:
    """Graph convolution ``sum_k (A_k @ h) @ W_k``, plus ``bias``, then an optional ReLU.

    ``h`` is (N, F) or a (B, N, F) batch, each ``A_k`` an (N, N) adjacency
    (constant or trainable) and each ``W_k`` an (F, F_out) weight.  The hop
    terms add in order k = 0, 1, ..., and the result is bit for bit the
    ``matmul``/``add``/``relu`` composition; the input is listed once per hop,
    last hop first, so its gradients add up in that composition's order too.
    """
    h = as_tensor(h)
    adjacencies = [as_tensor(a) for a in adjacencies]
    weights = [as_tensor(w) for w in weights]
    if not adjacencies or len(adjacencies) != len(weights):
        raise ShapeError(
            f"graph_conv needs one weight per adjacency, got {len(adjacencies)} and {len(weights)}"
        )
    if h.ndim not in (2, 3):
        raise ShapeError(f"graph_conv needs a 2-d input or a batch of them, got {h.shape}")
    n, f_in = h.shape[-2:]
    f_out = weights[0].shape[-1]
    for a, w in zip(adjacencies, weights):
        if a.shape != (n, n) or w.shape != (f_in, f_out):
            raise ShapeError(
                f"graph_conv on {h.shape} needs ({n}, {n}) adjacencies and ({f_in}, {f_out}) "
                f"weights, got {a.shape} and {w.shape}"
            )
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (f_out,):
            raise ShapeError(f"graph_conv bias shape {bias.shape} does not match width {f_out}")
    inputs = () if bias is None else (bias,)
    for a, w in zip(reversed(adjacencies), reversed(weights)):
        inputs += (w, a, h)
    keep = _recording(inputs)
    h_data = h.data
    hops = []
    out = None
    for a, w in zip(adjacencies, weights):
        ah = _matmul_forward(a.data, h_data)
        term = _matmul_forward(ah, w.data)
        if out is None:
            out = term
        else:
            out += term
        if keep:
            hops.append((a.data, ah, w.data))
    if bias is not None:
        out += bias.data
    if relu:
        mask = out > 0
        out *= mask
    if not keep:
        return _emit(out, inputs, None, "graph_conv")

    def rule(g):
        if relu:
            g = g * mask
        grads = []
        if bias is not None:
            grads.append(_unbroadcast(g, bias.shape) if bias.requires_grad else None)
        for (a_data, ah, w_data), a, w in zip(
            reversed(hops), reversed(adjacencies), reversed(weights)
        ):
            need_ah = a.requires_grad or h.requires_grad
            d_ah, d_w = _matmul_backward(ah, w_data, g, need_ah, w.requires_grad)
            d_a, d_h = (
                _matmul_backward(a_data, h_data, d_ah, a.requires_grad, h.requires_grad)
                if need_ah
                else (None, None)
            )
            grads += [d_w, d_a, d_h]
        return grads

    return _emit(out, inputs, rule, "graph_conv")


def self_attention(x, wq, wk, wv, wo, factor: float) -> Tensor:
    """Multi-head scaled dot-product self-attention over the rows of ``x``.

    ``x`` is (N, F) or a (B, N, F) batch.  Head ``i`` projects ``x`` by
    ``wq[i]``, ``wk[i]`` and ``wv[i]`` (each (F, D)), takes
    ``softmax_rows(factor * q @ k^T) @ v``, and the heads' outputs, joined in
    order along the last axis, are mixed by ``wo`` ((H*D, F_out)).  The
    result is bit for bit the ``matmul``/``transpose``/``scale``/
    ``softmax_rows``/``concat`` composition; ``x`` is listed once per
    projection, for v, k and q of the last head first, so its gradients add
    up in that composition's order too.
    """
    x, wo = as_tensor(x), as_tensor(wo)
    wq, wk, wv = ([as_tensor(w) for w in ws] for ws in (wq, wk, wv))
    heads = len(wq)
    if heads < 1 or len(wk) != heads or len(wv) != heads:
        raise ShapeError(
            f"self_attention needs the same positive number of q, k and v weights, "
            f"got {len(wq)}, {len(wk)} and {len(wv)}"
        )
    if x.ndim not in (2, 3):
        raise ShapeError(f"self_attention needs a 2-d input or a batch of them, got {x.shape}")
    width = x.shape[-1]
    dim = wq[0].shape[-1]
    for w in (*wq, *wk, *wv):
        if w.shape != (width, dim):
            raise ShapeError(
                f"self_attention on {x.shape} needs ({width}, {dim}) weights, got {w.shape}"
            )
    if wo.ndim != 2 or wo.shape[0] != heads * dim:
        raise ShapeError(
            f"self_attention output weight {wo.shape} does not take {heads * dim} inputs"
        )
    factor = float(factor)
    inputs = (wo,)
    for i in reversed(range(heads)):
        inputs += (x, wv[i], x, wk[i], x, wq[i])
    keep = _recording(inputs)
    # the key transpose is a contiguous copy, as ``transpose`` makes it
    axes = (*range(x.ndim - 2), x.ndim - 1, x.ndim - 2)
    x_data = x.data
    weights = [(q.data, k.data, v.data) for q, k, v in zip(wq, wk, wv)]
    saved = []
    outputs = []
    for wq_data, wk_data, wv_data in weights:
        q = _matmul_forward(x_data, wq_data)
        k = _matmul_forward(x_data, wk_data)
        v = _matmul_forward(x_data, wv_data)
        kt = np.transpose(k, axes).copy()
        p = _softmax_forward(_matmul_forward(q, kt) * factor)
        outputs.append(_matmul_forward(p, v))
        if keep:
            saved.append((q, kt, v, p))
    cat = np.concatenate(outputs, axis=-1)
    wo_data = wo.data
    out = _matmul_forward(cat, wo_data)
    if not keep:
        return _emit(out, inputs, None, "self_attention")

    def rule(g):
        d_cat, d_wo = _matmul_backward(cat, wo_data, g, True, wo.requires_grad)
        grads = [d_wo]
        for i in reversed(range(heads)):
            q, kt, v, p = saved[i]
            d_p, d_v = _matmul_backward(p, v, d_cat[..., i * dim : (i + 1) * dim], True, True)
            d_scores = _softmax_backward(p, d_p) * factor
            d_q, d_kt = _matmul_backward(q, kt, d_scores, True, True)
            for d, w, w_data in zip(
                (d_v, np.transpose(d_kt, axes), d_q), (wv[i], wk[i], wq[i]), reversed(weights[i])
            ):
                grads += _matmul_backward(x_data, w_data, d, x.requires_grad, w.requires_grad)
        return grads

    return _emit(out, inputs, rule, "self_attention")


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    worst_index: tuple[int, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


# Relative error denominator is floored so finite-difference noise on
# near-zero gradient entries cannot dominate the report.
_REL_FLOOR = 1e-2


def _relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return np.abs(analytic - numeric) / denom


def _central_difference(evaluate, tensor: Tensor, step: float) -> np.ndarray:
    numeric = np.zeros_like(tensor.data)
    flat_in = tensor.data.reshape(-1)
    flat_out = numeric.reshape(-1)
    for i in range(flat_in.size):
        saved = flat_in[i]
        flat_in[i] = saved + step
        upper = evaluate()
        flat_in[i] = saved - step
        lower = evaluate()
        flat_in[i] = saved
        if not (np.isfinite(upper) and np.isfinite(lower)):
            raise EvaluationError("function is not finite near the probe point")
        flat_out[i] = (upper - lower) / (2.0 * step)
    return numeric


def grad_check(f, x: Tensor, step: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """Compare d f(x) / d x against central finite differences.

    ``f`` must map a tensor to a scalar tensor and be differentiable at
    ``x``.  The probe perturbs ``x.data`` in place and restores it.
    """
    if not isinstance(x, Tensor) or not x.requires_grad:
        raise ContractError("grad_check needs a requires-grad tensor")
    return grad_check_params(lambda: f(x), [("x", x)], step, tol)["x"]


def grad_check_params(loss_fn, params, step: float = 1e-5, tol: float = 1e-5):
    """Gradient-check a zero-argument scalar loss against many parameters.

    ``params`` is an iterable of (name, tensor) pairs; every tensor is probed
    element by element.  Returns ``{name: GradCheckReport}``.
    """
    params = list(params)
    with Tape() as tape:
        loss = loss_fn()
    if loss.size != 1:
        raise ContractError("loss_fn must produce a scalar")
    if not np.isfinite(loss.data).all():
        raise EvaluationError("loss_fn() is not finite")
    zero_grads(params)
    tape.backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params
    }
    zero_grads(params)
    reports = {}
    for name, p in params:
        numeric = _central_difference(lambda: loss_fn().item(), p, step)
        rel = _relative_errors(analytic[name], numeric)
        worst = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.size else ()
        worst_val = float(rel[worst]) if rel.size else 0.0
        reports[name] = GradCheckReport(worst_val, tuple(int(i) for i in worst), tol)
    return reports
