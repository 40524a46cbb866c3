"""The benchmark's workloads: which preset runs on how much data.

Every workload runs the same round: ``train()`` on the first
``train_samples`` poses, then ``eval_passes`` times the ``mgt eval`` path over
all ``samples`` poses (``predict_dataset``, ``metric_report``) followed by 256
single-pose ``MgtNet.forward`` calls cycling through the poses.  They differ
in the preset and in where the evaluated checkpoint comes from: the train
workloads evaluate the checkpoint ``train()`` wrote, ``paper-infer``
evaluates one the benchmark wrote.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    samples: int
    train_samples: int
    epochs: int
    batch_size: int
    eval_passes: int
    # the benchmark writes the checkpoint that the eval path loads
    given_checkpoint: bool
    # the train loss must fall over the epochs and the trained net must beat
    # the mean pose; kept to the preset whose training approaches the data
    converges: bool

    def config_text(self, seed: int) -> str:
        """A config file for ``resolve_run_config``, as ``mgt train --config`` reads it."""
        return (
            f"preset = {self.preset}\nepochs = {self.epochs}\n"
            f"batch_size = {self.batch_size}\nseed = {seed}\n"
        )


# The eval sets are larger than the training sets so that each timed
# ``predict_dataset`` pass lasts half a second or more: the host's speed
# wanders by 5 to 15% over shorter spans.  ``toy-train``'s 25 epochs are
# what its convergence check needs on every seed (README.md, Checks).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-train", "toy", 256, 96, 25, 8, 4, False, True),
        Workload("gt-train", "gt-ablation", 128, 32, 2, 32, 1, False, False),
        Workload("paper-infer", "paper-default", 64, 16, 1, 16, 1, True, False),
    )
}
