"""Benchmark of mgtnet, run from the root of a checkout.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 24 --trace 0

Makes the workload's inputs from ``--seed``, runs the program in a separate
process (``worker.py``) for about ``--seconds`` seconds of timed rounds,
checks every output against computations made here apart from the program,
and prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, from traced
rounds, with the tracing overhead.  Everything it writes goes under
``.perfbench_out/`` in the checkout.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracle
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# every worker process must have ended this many seconds after the run began
RUN_DEADLINE_S = 170
# largest relative difference allowed between two float64 computations of
# the same forward pass or metric in different summation orders
FLOAT64_TOL = 1e-9
GRADCHECK_TOL = 1e-5


def spawn(workdir: Path, args, deadline: float, setup_only: bool = False) -> float:
    """Run one worker process to its end; returns its set-up time in seconds."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--workdir", str(workdir), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run(command, env=env, stdout=sys.stderr, check=True, timeout=max(deadline - time.monotonic(), 1.0))
    name = "setup.json" if setup_only else "result.json"
    return json.loads((workdir / name).read_text())["setup_s"]


def make_inputs(workload, workdir: Path, seed: int) -> dict:
    """Write the pose file, config and (for a given checkpoint) weights; return what checks need."""
    sys.path.insert(0, str(SRC))
    from mgtnet.cli import resolve_run_config

    (workdir / "config.txt").write_text(workload.config_text(seed))
    rc = resolve_run_config(None, str(workdir / "config.txt"), None)
    rng = np.random.default_rng([seed, 0])
    poses, targets, actions = inputs.make_poses(rng, workload.samples, rc.frames)
    inputs.write_poses(workdir / "poses.mgtp", poses, targets, actions)
    train = slice(0, workload.train_samples)
    mean, std = inputs.standardizer(poses[train])
    np.save(workdir / "std_train.npy", inputs.standardize(poses[train], mean, std))
    np.save(workdir / "targets.npy", targets[train])
    if workload.given_checkpoint:
        model = dataclasses.asdict(rc.model_config(len(inputs.JOINTS)))
        one_hop = oracle.hop_adjacencies(len(inputs.JOINTS), inputs.EDGES, 1)[1]
        weights = inputs.draw_weights(model, one_hop, np.random.default_rng([seed, 1]))
        mean, std = inputs.standardizer(poses)
        extra = {"standardizer": {"mean": mean.tolist(), "std": std.tolist()},
                 "unit": inputs.UNIT, "root_relative": True}
        inputs.write_checkpoint(workdir / "given.mgtc", model, weights, extra)
    return {"poses": poses, "targets": targets, "train": train, "mean": mean, "std": std}


def check(workload, workdir: Path, made: dict, result: dict) -> list[str]:
    """Every correctness check; returns the failures, empty when all pass."""
    problems = []

    def expect(ok, message):
        print(f"check {'ok' if ok else 'FAILED'}: {message}", file=sys.stderr)
        if not ok:
            problems.append(message)

    outputs = np.load(workdir / "outputs.npz")
    targets = made["targets"]
    history = result["history"]
    train_targets = targets[made["train"]]

    grad = result["gradcheck"]
    # the tolerance plus what rounding the loss leaves in a difference over the step
    allowed = GRADCHECK_TOL * abs(grad["numeric"]) + grad["rounding"]
    error = abs(grad["analytic"] - grad["numeric"])
    expect(error <= allowed, f"gradient check on a batch of {grad['batch']}: tape {grad['analytic']!r}, "
           f"one-sided difference {grad['numeric']!r} at step {grad['step']:g} ({grad['halved']!r} at half of it), "
           f"error {error:.3g} of {allowed:.3g} allowed")
    expect(all(np.isfinite(v) for row in history for v in row.values()), f"{len(history)} history rows finite")
    mean_pose = oracle.mpjpe(np.broadcast_to(train_targets.mean(axis=0), train_targets.shape), train_targets)
    print(f"training: train loss {history[0]['train_loss']:.6g} -> {history[-1]['train_loss']:.6g}, "
          f"eval MPJPE {history[-1]['eval_mpjpe']:.4g}, mean-pose MPJPE {mean_pose:.4g}", file=sys.stderr)
    own_mpjpe = oracle.mpjpe(outputs["own_train_preds"], train_targets)
    expect(abs(own_mpjpe - history[-1]["eval_mpjpe"]) <= FLOAT64_TOL * own_mpjpe,
           f"last eval_mpjpe {history[-1]['eval_mpjpe']!r}, recomputed {own_mpjpe!r}")
    if workload.converges:
        expect(history[-1]["train_loss"] < history[0]["train_loss"],
               f"train loss falls: {history[0]['train_loss']:.6g} -> {history[-1]['train_loss']:.6g}")
        expect(own_mpjpe < mean_pose, f"trained MPJPE {own_mpjpe:.4f} below mean-pose MPJPE {mean_pose:.4f}")
    expect(result["mismatched_outputs"] == 0,
           f"{result['mismatched_outputs']} histories or eval passes differ from the first round's")

    path = workdir / ("given.mgtc" if workload.given_checkpoint else "trained.mgtc")
    header, weights = inputs.read_checkpoint(path)
    stats = header["extra"]["standardizer"]
    for key, own in (("mean", made["mean"]), ("std", made["std"])):
        error = oracle.relative_error(np.asarray(stats[key]), own)
        expect(error <= FLOAT64_TOL, f"checkpoint standardizer {key}: relative error {error:.2e}")
    ready = inputs.standardize(made["poses"], made["mean"], made["std"])
    expected = oracle.forward(header["model"], weights, inputs.EDGES, ready)
    singles = outputs["singles"]
    for key, actual, reference in (
        ("preds", outputs["preds"], expected),
        ("singles", singles, expected[np.arange(len(singles)) % len(expected)]),
    ):
        error = oracle.relative_error(actual, reference)
        expect(error <= FLOAT64_TOL, f"{key}: relative error {error:.2e} against the reference forward")
    expect(np.array_equal(outputs["preds"], outputs["round_trip_preds"]),
           "predictions bitwise equal after a save_checkpoint/load_checkpoint round trip")
    for name, reported, own in zip(("mpjpe", "pa_mpjpe"), result["report"],
                                   (oracle.mpjpe(outputs["preds"], targets), oracle.pa_mpjpe(outputs["preds"], targets))):
        expect(abs(reported - own) <= FLOAT64_TOL * own, f"metric_report {name} {reported!r}, recomputed {own!r}")
    return problems


def end_to_end(workload, result: dict, setups: list[float]) -> dict:
    """Figures over the timed rounds, those after the warm-up round.

    Each figure is a median over the timed part of the run: of the
    throughput of each ``train()`` and of each ``predict_dataset`` pass, of
    every single-pose call for p50, so that a slow spell of the host within
    one pass moves that pass's figure and not the run's.
    """
    rounds = result["rounds"][1:]
    passes_ms = [[1e3 * t for t in calls] for r in rounds for calls in r["latencies"]]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "train.samples_per_s": (statistics.median(
            workload.train_samples * workload.epochs / r["train_s"] for r in rounds), "samples/s"),
        "infer.samples_per_s": (statistics.median(
            workload.samples / s for r in rounds for s in r["predict_s"]), "samples/s"),
        "infer.latency_p50_ms": (float(np.percentile(np.concatenate(passes_ms), 50)), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    # p95 is printed, not reported: it follows the host's contention, not the program
    p95 = statistics.median(float(np.percentile(p, 95)) for p in passes_ms)
    print(f"timed rounds {len(rounds)}, single-pose calls {sum(map(len, passes_ms))}, "
          f"p95 {p95:.3f} ms (median over eval passes), setups "
          + ", ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(workload, result: dict) -> dict:
    """Per-layer figures from the traced rounds, each time with its call count."""
    totals = result["trace_totals"]
    rounds = result["rounds"]
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds[1:] if not r["traced"]]
    n_traced = len(traced)
    forwards = totals["model.forward"]["work"]
    trained = n_traced * workload.train_samples * workload.epochs
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def row(span):
        return totals.get(span, {"ns": 0, "calls": 0, "work": 0, "setup_calls": 0})

    backward = row("linalg.backward")
    put("linalg.tape_records_per_sample", backward["work"] / trained, "count")
    put("linalg.backward_ms_per_sample", backward["ns"] / 1e6 / trained, "ms")
    put("linalg.backward_calls_per_round", backward["calls"] / n_traced, "count")
    put("model.forward_ms_per_sample", row("model.forward")["ns"] / 1e6 / forwards, "ms")
    put("model.forward_calls_per_round", row("model.forward")["calls"] / n_traced, "count")
    layer_calls = 0
    for span in ("layers.dilated_conv", "layers.attention", "layers.multihop_gconv",
                 "layers.lam_gconv", "layers.layer_norm", "model.embedding", "model.head",
                 "model.attention_block", "model.conv_block"):
        r = row(span)
        put(f"{span}_ms_per_sample", r["ns"] / 1e6 / forwards, "ms")
        put(f"{span}_calls_per_sample", r["calls"] / forwards, "count")
        layer_calls += r["calls"] if span.startswith("layers.") else 0
    put("layers.calls_per_sample", layer_calls / forwards, "count")
    per_call = (
        ("model.build", "s", 1e9), ("model.checkpoint_load", "s", 1e9),
        ("model.checkpoint_save", "s", 1e9), ("training.optimizer_step", "ms", 1e6),
        ("training.loss", "ms", 1e6), ("data.load_dataset", "s", 1e9),
        ("data.standardize", "ms", 1e6),
    )
    # call counts: those made during set-up plus those of one traced round
    for span, unit, scale in per_call:
        r = row(span)
        put(f"{span}_{unit}", r["ns"] / scale / max(r["calls"], 1), unit)
        put(f"{span}_calls", r["setup_calls"] + (r["calls"] - r["setup_calls"]) / n_traced, "count")
    for span in ("training.epoch_eval", "metrics.pa_mpjpe"):
        r = row(span)
        put(f"{span}_ms_per_sample", r["ns"] / 1e6 / max(r["work"], 1), "ms")
        put(f"{span}_calls_per_round", r["calls"] / n_traced, "count")
    overhead = statistics.mean(r["wall_s"] for r in traced) / statistics.mean(r["wall_s"] for r in plain) - 1.0
    put("trace.overhead_pct", 100.0 * overhead, "%")
    print(f"tracing overhead {100 * overhead:+.1f}% over {len(plain)} untraced and {n_traced} traced rounds"
          " after the warm-up round",
          file=sys.stderr)
    print(f"{'span':34s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s}", file=sys.stderr)
    for span, r in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"{span:34s} {r['calls']:8d} {r['ns'] / 1e6:10.1f} {r['self_ns'] / 1e6:10.1f}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "mgtnet" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'mgtnet'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # one directory per workload and mode, replaced by the next such run
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    deadline = time.monotonic() + RUN_DEADLINE_S
    made = make_inputs(workload, workdir, args.seed)
    setups = [] if args.trace else [
        spawn(workdir, args, deadline, setup_only=True) for _ in range(SETUP_REPEATS - 1)
    ]
    setups.append(spawn(workdir, args, deadline))
    result = json.loads((workdir / "result.json").read_text())
    failed = result["attempted"] - result["completed"]
    problems = []
    if result["error"]:
        print(f"{failed} of {result['attempted']} operations failed; stopped at {result['error']}", file=sys.stderr)
        problems.append(result["error"])
    # the warm-up round, then one timed round, or a traced and an untraced one
    if len(result["rounds"]) < 2 + args.trace:
        print("too few rounds completed to give any figure", file=sys.stderr)
        return 1
    problems += check(workload, workdir, made, result)
    print(f"{args.workload}: blas threads {result['blas_threads']}, numpy {result['numpy']}, "
          f"nproc {os.cpu_count()}", file=sys.stderr)
    metrics = per_layer(workload, result) if args.trace else end_to_end(workload, result, setups)
    for path in workdir.iterdir():
        if path.suffix in (".mgtc", ".mgtp", ".npy"):
            path.unlink()
    print(json.dumps({"correct": not problems, "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
