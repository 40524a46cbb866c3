"""One workload process: set up, check, then time whole rounds of the program.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; talks to it only through
files in ``--workdir``.  It calls the program through its public API alone.
The checks that compare against independent computations run in ``run.py``;
this process computes what only the program can give (tape gradients,
predictions, round trips) and writes it out.

The first round is an untimed warm-up; the timed rounds follow.  With
``--setup-only`` it stops once set up, so that ``run.py`` can time set-up
several times.  With ``--trace 1`` the tracer records set-up, then is
installed for every other timed round only, and per-layer figures come from
those traced rounds.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

# Set-up is timed from here: starting the interpreter and importing numpy
# cost the same for every version of the program, so they would only add
# noise to the program's own set-up time.
SETUP_START = time.monotonic()

import mgtnet
import mgtnet.cli
import mgtnet.data
import mgtnet.linalg
import mgtnet.metrics
import mgtnet.model
import mgtnet.training

# The eval path's own reference, taken before any tracing wrapper replaces
# ``mgtnet.training.predict_dataset``: inside ``train`` that function is the
# epoch evaluation and is traced under that name.
_predict_dataset = mgtnet.training.predict_dataset

# Single-pose forwards per eval pass, cycling through the poses, so that
# every round adds a dozen calls beyond the 95th percentile.
SINGLE_CALLS = 256

# One-sided difference steps of the gradient check, largest first; how far
# the differences at a step and at half of it may be apart, relative and in
# loss rounding errors (ulps of the loss over the step), where the loss is
# smooth.
KINK_FREE_STEPS = (1e-5, 1e-6, 1e-7)
ONE_SIDED_TOL = 1e-6
ROUNDING_ULPS = 32


def check_program_source() -> None:
    """Refuse to time an installed copy of the program instead of the checkout's."""
    expected = Path(__file__).resolve().parents[1] / "src" / "mgtnet"
    if Path(mgtnet.__file__).resolve().parent != expected:
        raise SystemExit(f"imported mgtnet from {mgtnet.__file__}, expected {expected}")


def blas_threads() -> int:
    """Thread count of the OpenBLAS this process loaded, or 0 if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return 0


class WorkloadRun:
    """The loaded inputs and nets of one workload process."""

    def __init__(self, workload, workdir: Path, tracer: Tracer | None):
        self.workload = workload
        self.tracer = tracer
        self.rc = mgtnet.cli.resolve_run_config(None, str(workdir / "config.txt"), None)
        self.dataset = mgtnet.data.load_dataset(workdir / "poses.mgtp")
        samples = self.dataset.samples[: workload.train_samples]
        self.train_set = mgtnet.data.PoseDataset(
            self.dataset.skeleton, self.dataset.frames, samples, self.dataset.unit
        )
        self.train_config = self.rc.train_config()
        self.trained_path = workdir / "trained.mgtc"
        self.infer_net = None
        self.stats = None
        self.spare_net = None
        # operations (training batches, poses lifted) whose call returned
        self.completed = 0
        if workload.given_checkpoint:
            self.infer_net, extra = mgtnet.model.load_checkpoint(workdir / "given.mgtc")
            self.stats = self._standardizer(extra)
            self._instrument(self.infer_net)
        else:
            self.spare_net = self.build_net()

    def _instrument(self, net):
        if self.tracer is not None and self.tracer.recording:
            self.tracer.instrument(net)
        return net

    @staticmethod
    def _standardizer(extra: dict):
        block = extra["standardizer"]
        return mgtnet.data.Standardizer(np.asarray(block["mean"]), np.asarray(block["std"]))

    def build_net(self):
        config = self.rc.model_config(self.dataset.n_joints)
        return self._instrument(mgtnet.model.MgtNet(config, self.dataset.skeleton, seed=self.rc.seed))

    def take_net(self):
        """The net built during set-up the first time, a fresh one afterwards."""
        net, self.spare_net = self.spare_net, None
        return net if net is not None else self.build_net()

    def eval_net(self):
        """The net and standardizer the eval path uses, as ``mgt eval`` loads them."""
        if self.workload.given_checkpoint:
            return self._instrument(self.infer_net), self.stats
        net, extra = mgtnet.model.load_checkpoint(self.trained_path)
        return self._instrument(net), self._standardizer(extra)

    def span(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(name, fn, *args, **kwargs)

    def batches_per_epoch(self) -> int:
        return math.ceil(len(self.train_set) / self.train_config.batch_size)

    def round_operations(self) -> int:
        """Operations one round attempts: training batches, then poses lifted."""
        w = self.workload
        return self.batches_per_epoch() * w.epochs + w.eval_passes * (w.samples + SINGLE_CALLS)

    def run_round(self) -> dict:
        """Train once, then run the eval path ``eval_passes`` times on the checkpoint."""
        net = self.take_net()
        start = perf_counter()
        history = self.span(
            "bench.train", mgtnet.training.train, net, self.train_set, self.train_config,
            checkpoint_path=self.trained_path,
        )
        train_s = perf_counter() - start
        self.completed += len(history) * self.batches_per_epoch()
        infer_net, stats = self.eval_net()
        passes = [self.eval_pass(infer_net, stats) for _ in range(self.workload.eval_passes)]
        return {
            "net": net,
            "infer_net": infer_net,
            "stats": stats,
            "train_s": train_s,
            "history": [dict(vars(row)) for row in history],
            "passes": passes,
        }

    def eval_pass(self, net, stats) -> dict:
        """``predict_dataset`` and ``metric_report`` over the set, then single-pose forwards."""
        start = perf_counter()
        preds = self.span("bench.predict", _predict_dataset, net, self.dataset, stats)
        predict_s = perf_counter() - start
        self.completed += len(preds)
        report = self.span(
            "bench.metric_report", mgtnet.metrics.metric_report,
            preds, [s.target for s in self.dataset], [s.action for s in self.dataset],
        )
        ready = mgtnet.data.standardize(self.dataset, stats)
        singles, latencies = [], []
        for i in range(SINGLE_CALLS):
            x = mgtnet.linalg.Tensor(ready.samples[i % len(ready)].inputs)
            start = perf_counter()
            y = self.span("bench.single", net.forward, x)
            latencies.append(perf_counter() - start)
            self.completed += 1
            singles.append(y.data)
        return {
            "predict_s": predict_s,
            "latencies": latencies,
            "report": [report.overall.mpjpe, report.overall.pa_mpjpe],
            "preds": np.stack(preds),
            "singles": np.stack(singles),
        }


def gradient_check(bench: WorkloadRun, inputs: np.ndarray, targets: np.ndarray, seed: int) -> dict:
    """Tape gradient of one batch's loss along a random direction, and a finite difference of it.

    The check runs on a net of its own, built like the trained one and then
    moved by a small random step: freshly built, biases are exactly zero, so
    a ReLU whose inputs are all zero sits exactly on its kink, where the loss
    has no derivative to compare with.  The direction spans every parameter
    tensor by position, not by name.  Dropout draws from a generator reseeded
    for each evaluation, so all three evaluations see the same masks.
    """
    la = mgtnet.linalg
    net = bench.build_net()
    config = bench.train_config
    params = [p for _, p in net.parameters()]
    offset = np.random.default_rng([seed, 9])
    for p in params:
        p.data = p.data + 1e-3 * offset.normal(size=p.shape)
    rng = np.random.default_rng([seed, 7])
    direction = [rng.normal(size=p.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction))
    direction = [d / norm for d in direction]
    batch = slice(0, config.batch_size)
    x, y = inputs[batch], targets[batch]

    def loss():
        dropout_rng = np.random.default_rng([seed, 8])
        preds = la.stack([net.forward(la.Tensor(xi), train=True, rng=dropout_rng) for xi in x])
        return mgtnet.training.elastic_loss(preds, y, config.alpha, config.loss_mode)

    with la.Tape() as tape:
        value = loss()
    la.zero_grads(params)
    tape.backward(value)
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, direction))
    la.zero_grads(params)
    originals = [p.data for p in params]

    def shifted(step: float) -> float:
        for p, o, d in zip(params, originals, direction):
            p.data = o + step * d
        try:
            return loss().item()
        finally:
            for p, o in zip(params, originals):
                p.data = o

    # The loss is only piecewise smooth (ReLU): the tape gives the derivative
    # of the piece that holds the point, and a difference that reaches across
    # a kink does not.  So the estimate is a second-order one-sided
    # difference, taken on the first side and step (largest first) where it
    # agrees with the same difference at half the step; where the loss is
    # smooth the two agree to O(step^2).  Both are chosen from the loss
    # alone, before the tape is looked at.
    values = {0.0: shifted(0.0)}

    def at(shift: float) -> float:
        if shift not in values:
            values[shift] = shifted(shift)
        return values[shift]

    def one_sided(side: int, step: float) -> float:
        return side * (4.0 * at(side * step) - at(2 * side * step) - 3.0 * at(0.0)) / (2.0 * step)

    for step in KINK_FREE_STEPS:
        rounding = ROUNDING_ULPS * np.finfo(float).eps * abs(at(0.0)) / step
        for side in (1, -1):
            numeric, halved = one_sided(side, step), one_sided(side, step / 2)
            if abs(numeric - halved) <= ONE_SIDED_TOL * abs(numeric) + rounding:
                break
        else:
            continue
        break
    return {"analytic": analytic, "numeric": numeric, "loss": value.item(), "batch": len(x),
            "step": side * step, "halved": halved, "rounding": rounding}


def differing_outputs(first: dict, out: dict) -> int:
    """How many of a round's history and eval passes differ from the first round's."""
    reference = first["passes"][0]
    count = json.dumps(out["history"]) != json.dumps(first["history"])
    for p in out["passes"]:
        count += not (
            p["report"] == reference["report"]
            and np.array_equal(p["preds"], reference["preds"])
            and np.array_equal(p["singles"], reference["singles"])
        )
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    check_program_source()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mgtnet)
    bench = WorkloadRun(workload, workdir, tracer)
    setup_s = time.monotonic() - SETUP_START
    if args.setup_only:
        (workdir / "setup.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.uninstall()

    std_train = np.load(workdir / "std_train.npy")
    targets = np.load(workdir / "targets.npy")
    result = {"setup_s": setup_s, "blas_threads": blas_threads(), "numpy": np.__version__}
    result["gradcheck"] = gradient_check(bench, std_train, targets, args.seed)

    rounds, first, mismatched = [], None, 0
    attempted, measured, error = 0, 0.0, None
    while True:
        # Free the previous round's cyclic garbage (tape records) untimed, so
        # that neither the round's time nor the peak resident set depends on
        # when the collector last ran.
        gc.collect()
        # the first round is the warm-up; a traced run traces every other
        # timed round and leaves the rest exactly as untraced runs are
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.phase = len(rounds)
            tracer.install(mgtnet)
        attempted += bench.round_operations()
        start = perf_counter()
        try:
            out = bench.run_round()
        except Exception as exc:  # an operation failed: stop, and report what completed
            error = f"round {len(rounds) + 1}: {type(exc).__name__}: {exc}"
            break
        finally:
            if traced:
                tracer.uninstall()
        wall = perf_counter() - start
        if rounds:
            measured += wall
        rounds.append({
            "wall_s": wall, "traced": traced, "train_s": out["train_s"],
            "predict_s": [p["predict_s"] for p in out["passes"]],
            "latencies": [p["latencies"] for p in out["passes"]],
        })
        if first is None:
            own = [out["net"].forward(mgtnet.linalg.Tensor(x)).data for x in std_train]
            mgtnet.model.save_checkpoint(workdir / "roundtrip.mgtc", out["infer_net"])
            again, _ = mgtnet.model.load_checkpoint(workdir / "roundtrip.mgtc")
            round_trip = _predict_dataset(again, bench.dataset, out["stats"])
            reference = out["passes"][0]
            np.savez(
                workdir / "outputs.npz", preds=reference["preds"], singles=reference["singles"],
                own_train_preds=np.stack(own), round_trip_preds=np.stack(round_trip),
            )
            del again, round_trip, own
            first = {"history": out["history"], "passes": out["passes"][:1]}
        mismatched += differing_outputs(first, out)
        del out
        # Stop before a timed round that would overrun the run's seconds.  A
        # traced run needs a traced and an untraced timed round.
        timed = len(rounds) - 1
        if timed >= (2 if tracer else 1) and measured * (timed + 1) / timed > args.seconds:
            break

    result.update(
        rounds=rounds,
        history=first and first["history"],
        report=first and first["passes"][0]["report"],
        mismatched_outputs=mismatched,
        attempted=attempted,
        completed=bench.completed,
        error=error,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        tracer.write(workdir / "spans.csv")
        result["trace_totals"] = tracer.totals()
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
