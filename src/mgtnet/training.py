"""Elastic-net pose loss, AMSGrad optimization, and the training loop.

The loss follows the blended form: (1 - alpha) times the batch-mean of the
per-pose sum of squared joint errors plus alpha times the batch-mean of the
per-pose sum of absolute joint errors.  alpha = 0 is pure squared loss,
alpha = 1 pure absolute loss.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg as la
from .data import PoseDataset, Standardizer, compute_standardizer, standardize
from .linalg import Tensor
from .metrics import AlignmentError, mpjpe, pa_mpjpe
from .model import MgtNet, save_checkpoint

__all__ = [
    "TrainConfig",
    "DivergenceError",
    "elastic_loss",
    "AmsGrad",
    "lr_at",
    "HistoryRow",
    "history_csv",
    "train",
    "predict_dataset",
]

log = logging.getLogger("mgtnet.training")

# Poses lifted by one batched forward in ``predict_dataset``.
PREDICT_CHUNK = 64

# Values per block of the AMSGrad update: its two float64 scratch blocks
# (512 KB each) stay in a core's L2 cache, where temporaries over a
# paper-scale buffer (4.3M values) would not.
BLOCK = 65536

# AMSGrad's moment decays and the epsilon added to the root of the second moment
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

LOSS_MODES = ("pose_sum", "joint_mean")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; see ModelConfig for the architecture."""

    alpha: float = 0.01
    lr0: float = 0.005
    decay: float = 0.9
    decay_every: int = 4
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0
    loss_mode: str = "pose_sum"
    standardize: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.decay_every < 1:
            raise ValueError(f"decay_every must be positive, got {self.decay_every}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Stepped exponential decay: lr0 * decay ** floor(epoch / decay_every)."""
    if epoch < 0:
        raise ValueError(f"epoch must be nonnegative, got {epoch}")
    return config.lr0 * config.decay ** (epoch // config.decay_every)


def elastic_loss(pred, target, alpha: float, mode: str = "pose_sum") -> Tensor:
    """Blend of squared and absolute joint errors, averaged over the batch.

    ``pred`` and ``target`` are (N, 3) for one pose or (B, N, 3) for a batch;
    shapes must match exactly.  ``joint_mean`` additionally divides by the
    joint count, leaving the optimum unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if mode not in LOSS_MODES:
        raise ValueError(f"mode must be one of {LOSS_MODES}, got {mode!r}")
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise la.ShapeError(f"pred shape {pred.shape} does not match target {target.shape}")
    if pred.ndim not in (2, 3) or pred.shape[-1] != 3:
        raise la.ShapeError(f"expected (N, 3) or (B, N, 3) poses, got {pred.shape}")
    batch = pred.shape[0] if pred.ndim == 3 else 1
    joints = pred.shape[-2]
    denom = float(batch * (joints if mode == "joint_mean" else 1))
    diff = la.sub(pred, target)
    squared = la.tensor_sum(la.mul(diff, diff))
    absolute = la.tensor_sum(la.absolute(diff))
    return la.add(
        la.scale(squared, (1.0 - alpha) / denom),
        la.scale(absolute, alpha / denom),
    )


def _shared_buffer(arrays, total: int) -> np.ndarray | None:
    """The ``total`` values of one float64 buffer that hold ``arrays`` back to back, or None."""
    base = arrays[0].base
    if (
        base is None
        or base.dtype != np.float64
        or base.ndim != 1
        or not (base.flags.c_contiguous and base.flags.writeable)
    ):
        return None
    start = arrays[0].ctypes.data
    end = start
    for a in arrays:
        if a.base is not base or not a.flags.c_contiguous or a.ctypes.data != end:
            return None
        end += a.nbytes
    first = (start - base.ctypes.data) // base.itemsize
    return base[first : first + total]


class AmsGrad:
    """AMSGrad: Adam with a nondecreasing second-moment cap, bias-corrected.

    The parameters live in one contiguous float64 buffer.  When they already
    lie there back to back, in order, as an ``MgtNet``'s do, the constructor
    adopts that buffer as it is; otherwise it copies them into a new one and
    rebinds each ``p.data`` to its view.  ``m``, ``v`` and ``v_max`` are
    flat buffers of the same length, and ``m[name]``, ``v[name]`` and
    ``v_max[name]`` are views into them.  The gradients are read from one
    more flat buffer: the net's gradient buffer, adopted the same way, or
    else one of the optimizer's own.  ``step`` copies into its slot every
    gradient that ``Tape.backward`` did not already write there, and checks
    the whole buffer, so a non-finite gradient raises before any state
    moves.  It then updates in place,
    ``BLOCK`` values at a time through two scratch blocks that stay in
    cache.  A second moment that overflows, or whose bias-corrected value
    ``v / (1 - BETA2**t)`` does, also raises before any state moves, found
    by a check pass over the blocks when a scalar bound says one may occur.
    Every element goes through the same IEEE operations in the same order
    as a per-tensor update, so the step is bit for bit the same.  A
    parameter whose ``data`` is rebound after adoption would no longer be
    trained, so ``step`` rejects it.
    """

    def __init__(self, params):
        self.params = [(name, p) for name, p in params]
        if not self.params:
            raise la.ContractError("optimizer needs at least one parameter")
        if not all(p.requires_grad for _, p in self.params):
            raise la.ContractError("optimizer parameters must require gradients")
        seen = set()
        for name, p in self.params:
            if id(p) in seen:
                raise la.ContractError(f"parameter {name!r} is listed twice")
            seen.add(id(p))
        self.steps = 0
        self._offsets = np.cumsum([0] + [p.size for _, p in self.params])
        total = int(self._offsets[-1])
        self._views = [p.data for _, p in self.params]
        self._flat = _shared_buffer(self._views, total)
        if self._flat is None:
            self._flat = np.concatenate(self._views, axis=None)
            for (_, p), a, b in zip(self.params, self._offsets[:-1], self._offsets[1:]):
                p.data = self._flat[a:b].reshape(p.shape)
            self._views = [p.data for _, p in self.params]
        self._grad_views = [p._grad_view for _, p in self.params]
        self._grad = None
        if all(g is not None for g in self._grad_views):
            self._grad = _shared_buffer(self._grad_views, total)
        if self._grad is None:
            self._grad = np.empty(total)
            self._grad_views = [
                self._grad[a:b].reshape(p.shape)
                for (_, p), a, b in zip(self.params, self._offsets[:-1], self._offsets[1:])
            ]
        # one allocation, so that the first step faults in fresh pages of one
        # mapping rather than of three
        self._m, self._v, self._v_max = np.zeros((3, total))
        self.m, self.v, self.v_max = {}, {}, {}
        for (name, p), a, b in zip(self.params, self._offsets[:-1], self._offsets[1:]):
            self.m[name] = self._m[a:b].reshape(p.shape)
            self.v[name] = self._v[a:b].reshape(p.shape)
            self.v_max[name] = self._v_max[a:b].reshape(p.shape)
        # per block: its offset, its slices of the five buffers, two scratch slices
        bufs = (self._grad, self._m, self._v, self._v_max, self._flat)
        scratch = np.empty((2, min(BLOCK, total)))
        self._blocks = []
        for a in range(0, total, BLOCK):
            n = min(BLOCK, total - a)
            self._blocks.append((a, *(buf[a : a + n] for buf in bufs), scratch[0, :n], scratch[1, :n]))

    def _name_at(self, offset: int) -> str:
        return self.params[int(np.searchsorted(self._offsets, offset, side="right")) - 1][0]

    def _check_second_moment(self, correct2: float) -> None:
        """Form each block's next bias-corrected second moment in scratch; raise on overflow."""
        for start, g, m, v, v_max, p, s, t in self._blocks:
            np.multiply(v, BETA2, out=t)
            np.multiply(g, 1.0 - BETA2, out=s)
            with np.errstate(over="ignore"):
                np.multiply(s, g, out=s)
                np.add(t, s, out=t)
                np.divide(t, correct2, out=t)
            if t.max() == np.inf:
                # g was finite but g**2 or its correction overflowed; updates would stall at 0
                bad = self._name_at(start + int(np.argmax(t)))
                raise DivergenceError(f"second-moment overflow in parameter {bad!r}")

    def step(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for (name, p), view, slot in zip(self.params, self._views, self._grad_views):
            if p.data is not view:
                raise la.ContractError(
                    f"parameter {name!r} was rebound after the optimizer adopted it"
                )
            if p.grad is None:
                raise la.ContractError(f"parameter {name!r} has no gradient")
            if p.grad is not slot:
                if p.grad.shape != p.shape:
                    raise la.ContractError(
                        f"gradient of {name!r} has shape {p.grad.shape}, expected {p.shape}"
                    )
                slot[...] = p.grad
        hi, lo = self._grad.max(), self._grad.min()  # nan if any value is nan
        if not (np.isfinite(hi) and np.isfinite(lo)):
            bad = self._name_at(int(np.argmin(np.isfinite(self._grad))))
            raise DivergenceError(f"non-finite gradient in parameter {bad!r}")
        correct1 = 1.0 - BETA1 ** (self.steps + 1)
        correct2 = 1.0 - BETA2 ** (self.steps + 1)
        # The update's bias-corrected second moment
        # (v * BETA2 + ((1 - BETA2) * g) * g) / correct2 rounds monotonically
        # in v and |g|, so its value at the largest of each bounds every
        # element's.  Only when that bound overflows can an element, and only
        # then does the check pass run, before any block moves.
        big = max(hi, -lo)
        with np.errstate(over="ignore"):
            bound = (self._v.max() * BETA2 + ((1.0 - BETA2) * big) * big) / correct2
        if bound == np.inf:
            self._check_second_moment(correct2)
        self.steps += 1
        for start, g, m, v, v_max, p, s, t in self._blocks:
            np.multiply(m, BETA1, out=m)
            np.multiply(g, 1.0 - BETA1, out=s)
            np.add(m, s, out=m)
            np.multiply(v, BETA2, out=v)
            np.multiply(g, 1.0 - BETA2, out=s)
            np.multiply(s, g, out=s)
            np.add(v, s, out=v)
            np.divide(v, correct2, out=s)
            np.maximum(v_max, s, out=v_max)
            np.divide(m, correct1, out=s)
            np.multiply(s, lr, out=s)
            np.sqrt(v_max, out=t)
            np.add(t, EPS, out=t)
            np.divide(s, t, out=s)
            np.subtract(p, s, out=p)


@dataclass(frozen=True)
class HistoryRow:
    """One epoch of training: loss on the shuffled batches, metrics on the split."""

    epoch: int
    lr: float
    train_loss: float
    eval_mpjpe: float
    eval_pa_mpjpe: float


def history_csv(rows) -> str:
    lines = ["epoch,lr,train_loss,eval_mpjpe,eval_pa_mpjpe"]
    for r in rows:
        lines.append(f"{r.epoch},{r.lr!r},{r.train_loss!r},{r.eval_mpjpe!r},{r.eval_pa_mpjpe!r}")
    return "\n".join(lines) + "\n"


def predict_dataset(net: MgtNet, dataset: PoseDataset, stats: Standardizer) -> np.ndarray:
    """Deterministic forward pass over every sample; returns (S, N, 3) poses.

    Runs one batched forward per ``PREDICT_CHUNK`` poses.
    """
    ready = stats.apply(dataset.inputs)
    preds = np.empty((len(ready), dataset.n_joints, 3))
    for start in range(0, len(ready), PREDICT_CHUNK):
        chunk = slice(start, start + PREDICT_CHUNK)
        preds[chunk] = net.forward(Tensor(ready[chunk]), train=False).data
    return preds


def train(
    net: MgtNet,
    dataset: PoseDataset,
    config: TrainConfig,
    checkpoint_path=None,
) -> list[HistoryRow]:
    """Shuffled mini-batch AMSGrad training; returns one history row per epoch.

    Inputs are standardized with statistics fitted on ``dataset`` (unless
    disabled), and the fitted transform rides along in the checkpoint.  The
    epoch metrics are evaluated on the training split itself; the epoch
    PA-MPJPE is nan when any pose of the split cannot be aligned.  A
    non-finite loss or gradient aborts with ``DivergenceError``.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if dataset.n_joints != net.config.n_joints or dataset.frames != net.config.frames:
        raise la.ShapeError(
            f"dataset shape ({dataset.n_joints} joints, {dataset.frames} frames) does not "
            f"match model ({net.config.n_joints} joints, {net.config.frames} frames)"
        )
    stats = (
        compute_standardizer(dataset) if config.standardize else Standardizer.identity(dataset.n_joints)
    )
    inputs = standardize(dataset, stats).inputs
    targets = dataset.targets
    count = len(inputs)

    params = net.parameters()
    optimizer = AmsGrad(params)
    shuffle_rng = np.random.default_rng([config.seed, 0])
    dropout_rng = np.random.default_rng([config.seed, 1])

    history: list[HistoryRow] = []
    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        order = shuffle_rng.permutation(count)
        loss_total = 0.0
        for start in range(0, count, config.batch_size):
            batch = order[start : start + config.batch_size]
            with la.Tape() as tape:
                preds = net.forward(Tensor(inputs[batch]), train=True, rng=dropout_rng)
                loss = elastic_loss(preds, targets[batch], config.alpha, config.loss_mode)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch + 1}, batch {start // config.batch_size}"
                )
            la.zero_grads(params)
            tape.backward(loss)
            # free the activations before the step touches the moments
            del tape, preds, loss
            optimizer.step(lr)
            loss_total += loss_value * len(batch)
        predictions = predict_dataset(net, dataset, stats)
        try:
            pa_error = pa_mpjpe(predictions, targets)
        except AlignmentError:
            # A collapsed prediction (all joints coincide) has no defined
            # alignment.  That can happen transiently at high learning rates
            # and is not a training failure, so the epoch records nan.
            pa_error = float("nan")
        row = HistoryRow(
            epoch=epoch + 1,
            lr=lr,
            train_loss=loss_total / count,
            eval_mpjpe=mpjpe(predictions, targets),
            eval_pa_mpjpe=pa_error,
        )
        history.append(row)
        log.info(
            "epoch %d/%d lr %.6f loss %.6f mpjpe %.6f",
            row.epoch,
            config.epochs,
            row.lr,
            row.train_loss,
            row.eval_mpjpe,
        )

    if checkpoint_path is not None:
        extra = {
            "train": asdict(config),
            "standardizer": {
                "mean": stats.mean.tolist(),
                "std": stats.std.tolist(),
            },
            "unit": dataset.unit,
            "root_relative": True,
        }
        save_checkpoint(checkpoint_path, net, extra)
    return history
