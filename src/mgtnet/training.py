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


class AmsGrad:
    """AMSGrad: Adam with a nondecreasing second-moment cap, bias-corrected.

    Buffers are keyed by parameter name and updated in place from each
    tensor's ``grad``.  Betas and epsilon are fixed at construction.
    """

    def __init__(self, params, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = [(name, p) for name, p in params]
        if not all(p.requires_grad for _, p in self.params):
            raise la.ContractError("optimizer parameters must require gradients")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.steps = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v_max = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.steps += 1
        correct1 = 1.0 - self.beta1**self.steps
        correct2 = 1.0 - self.beta2**self.steps
        for name, p in self.params:
            grad = p.grad
            if grad is None:
                raise la.ContractError(f"parameter {name!r} has no gradient")
            if not np.isfinite(grad).all():
                raise DivergenceError(f"non-finite gradient in parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            with np.errstate(over="ignore"):
                v += (1.0 - self.beta2) * grad * grad
            if not np.isfinite(v).all():
                # grad was finite but grad**2 overflowed; updates would stall at 0
                raise DivergenceError(f"second-moment overflow in parameter {name!r}")
            v_hat = v / correct2
            np.maximum(self.v_max[name], v_hat, out=self.v_max[name])
            p.data = p.data - lr * (m / correct1) / (np.sqrt(self.v_max[name]) + self.eps)


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
    ready = standardize(dataset, stats).inputs
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
