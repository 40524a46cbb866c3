"""Command-line harness: train, eval, graph, gradcheck, ablate, synth.

Run configuration resolves in three layers: a named preset, then a flat
``key = value`` config file, then explicit flags.  Machine-readable output is
CSV with a header row; when ``--csv`` is passed the CSV goes to stdout and
human tables move to stderr.  MGT_LOG controls log verbosity (debug also
enables internal finiteness checks).

Exit codes: 0 success, 1 validation failure, 2 divergence, 3 check failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import linalg as la
from .data import (
    DataFormatError,
    load_dataset,
    save_dataset,
    synthesize,
)
from .layers import ConfigurationError
from .linalg import Tensor
from .metrics import DEFAULT_PCK_THRESHOLD, metric_report
from .model import CheckpointError, MgtNet, ModelConfig, load_checkpoint
from .skeleton import (
    SkeletonError,
    human36m_skeleton,
    hop_distances,
    k_adjacency,
    load_skeleton,
    normalize_adjacency,
    sparsity_report,
)
from .training import (
    DivergenceError,
    Standardizer,
    TrainConfig,
    elastic_loss,
    history_csv,
    predict_dataset,
    train,
)

__all__ = ["RunConfig", "ValidationError", "PRESETS", "main", "entrypoint"]

log = logging.getLogger("mgtnet.cli")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_CHECK = 3


class ValidationError(ValueError):
    """Bad invocation: flags, config, or data that cannot be used."""


def _model_config(self, n_joints: int) -> ModelConfig:
    fields = dataclasses.fields(ModelConfig)
    return ModelConfig(
        n_joints=n_joints,
        **{f.name: getattr(self, f.name) for f in fields if f.name != "n_joints"},
    )


def _train_config(self) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(TrainConfig)})


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, dataclasses.field(default=f.default))
        for cls in (ModelConfig, TrainConfig)
        for f in dataclasses.fields(cls)
        if f.name != "n_joints"
    ],
    namespace={
        "__doc__": (
            "Resolved model plus training settings for one command invocation.\n\n"
            "Its fields are those of ``ModelConfig`` (but ``n_joints``, which comes\n"
            "from the data) and of ``TrainConfig``, with the same defaults."
        ),
        "__module__": __name__,
        "model_config": _model_config,
        "train_config": _train_config,
    },
    frozen=True,
)


PRESETS: dict[str, dict] = {
    "paper-default": {},
    "gt-ablation": {"hidden": 128},
    "toy": {
        "frames": 3,
        "hidden": 8,
        "depth": 2,
        "heads": 2,
        "dropout": 0.0,
        "alpha": 1.0,
        "lr0": 0.05,
        "decay": 0.85,
        "decay_every": 30,
        "epochs": 300,
        "batch_size": 8,
    },
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; unknown keys and bad values error."""
    casters = {"int": int, "float": float, "str": str, "bool": _parse_bool}
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key == "preset":
            values["preset"] = raw_value
            continue
        if key not in _FIELD_TYPES:
            raise ValidationError(f"{source}:{lineno}: unknown config key {key!r}")
        caster = casters[_FIELD_TYPES[key]]
        try:
            values[key] = caster(raw_value)
        except ValueError as exc:
            raise ValidationError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return values


def resolve_run_config(
    preset: str | None,
    config_path: str | None,
    seed: int | None,
    default_preset: str = "paper-default",
) -> RunConfig:
    file_values: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ValidationError(f"config file not found: {config_path}")
        file_values = parse_config_text(path.read_text(encoding="utf-8"), str(config_path))
    chosen = preset or file_values.pop("preset", None) or default_preset
    if chosen not in PRESETS:
        raise ValidationError(f"unknown preset {chosen!r}; available: {sorted(PRESETS)}")
    file_values.pop("preset", None)
    merged = dict(PRESETS[chosen])
    merged.update(file_values)
    if seed is not None:
        merged["seed"] = seed
    try:
        rc = RunConfig(**merged)
        rc.model_config(n_joints=1)  # field validation only; joints come from data
        rc.train_config()
        return rc
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise ValidationError(f"invalid configuration: {exc}") from None


def run_config_text(rc: RunConfig, preset: str | None = None) -> str:
    lines = []
    if preset:
        lines.append(f"preset = {preset}")
    for field in dataclasses.fields(RunConfig):
        value = getattr(rc, field.name)
        rendered = str(value).lower() if isinstance(value, bool) else value
        lines.append(f"{field.name} = {rendered}")
    return "\n".join(lines) + "\n"


def _emit(human: str, csv_text: str | None, csv_mode: bool) -> None:
    if csv_mode and csv_text is not None:
        sys.stdout.write(csv_text)
        sys.stderr.write(human)
    else:
        sys.stdout.write(human)


def _load_graph(skeleton_path: str | None):
    return load_skeleton(skeleton_path) if skeleton_path else human36m_skeleton()


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    rc = resolve_run_config(args.preset, args.config, args.seed)
    dataset = load_dataset(args.data)
    if dataset.frames != rc.frames:
        raise ValidationError(
            f"config expects {rc.frames} frames but dataset has {dataset.frames}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    net = MgtNet(rc.model_config(dataset.n_joints), dataset.skeleton, seed=rc.seed)
    log.info("training %d parameters on %d samples", net.param_count(), len(dataset))
    history = train(net, dataset, rc.train_config(), checkpoint_path=out_dir / "checkpoint.mgtc")
    csv_text = history_csv(history)
    (out_dir / "history.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / "config.txt").write_text(run_config_text(rc, args.preset), encoding="utf-8")
    last = history[-1]
    human = (
        f"trained {net.param_count()} parameters for {rc.epochs} epochs on {len(dataset)} samples\n"
        f"final train loss {last.train_loss:.6f}, mpjpe {last.eval_mpjpe:.6f}, "
        f"pa-mpjpe {last.eval_pa_mpjpe:.6f}\n"
        f"artifacts in {out_dir}: checkpoint.mgtc, history.csv, config.txt\n"
    )
    _emit(human, csv_text, args.csv)
    return EXIT_OK


def cmd_eval(args) -> int:
    net, extra = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    cfg = net.config
    if dataset.n_joints != cfg.n_joints or dataset.frames != cfg.frames:
        raise ValidationError(
            f"checkpoint expects ({cfg.n_joints} joints, {cfg.frames} frames) but dataset "
            f"has ({dataset.n_joints} joints, {dataset.frames} frames)"
        )
    stats_block = extra.get("standardizer")
    stats = (
        Standardizer(np.asarray(stats_block["mean"]), np.asarray(stats_block["std"]))
        if stats_block
        else Standardizer.identity(cfg.n_joints)
    )
    preds = predict_dataset(net, dataset, stats)
    report = metric_report(preds, dataset.targets, dataset.actions, threshold=args.pck_threshold)
    if args.dump_poses:
        _write_pose_dump(args.dump_poses, dataset, preds)
    _emit(report.table(), report.to_csv(), args.csv)
    return EXIT_OK


def _write_pose_dump(path, dataset, preds) -> None:
    names = dataset.skeleton.joint_names
    lines = ["sample,action,joint,joint_name,pred_x,pred_y,pred_z,gt_x,gt_y,gt_z"]
    for i, (action, pred, target) in enumerate(zip(dataset.actions, preds, dataset.targets)):
        for j, name in enumerate(names):
            px, py, pz = pred[j]
            gx, gy, gz = target[j]
            lines.append(f"{i},{action},{j},{name},{px!r},{py!r},{pz!r},{gx!r},{gy!r},{gz!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_graph(args) -> int:
    graph = _load_graph(args.skeleton)
    if args.k_max < 1:
        raise ValidationError(f"--k-max must be at least 1, got {args.k_max}")
    hops = hop_distances(graph)
    # per k: nnz of (A+I)^k, nnz of the hop-k adjacency (both the identity at
    # k = 0), and the eigenvalue range of the normalized hop-k adjacency
    counts = [(graph.n_joints, graph.n_joints)]
    counts += [(row.nnz_power, row.nnz_k_adjacency) for row in sparsity_report(graph, args.k_max)]
    stats = []
    for k, (power, hop_nnz) in enumerate(counts):
        eigenvalues = np.linalg.eigvalsh(normalize_adjacency(k_adjacency(hops, k)))
        stats.append((k, power, hop_nnz, float(eigenvalues.min()), float(eigenvalues.max())))

    csv_lines = ["k,nnz_dense_power,nnz_hop_adjacency,eig_min,eig_max"]
    csv_lines += [f"{k},{power},{hop_nnz},{lo!r},{hi!r}" for k, power, hop_nnz, lo, hi in stats]
    csv_text = "\n".join(csv_lines) + "\n"

    human_lines = [
        f"joints: {graph.n_joints}, edges: {len(graph.edges)}, root: "
        f"{graph.joint_names[graph.root]} ({graph.root})",
        f"connected: {hops.is_connected}, max hop from root: "
        f"{int(hops.distances[graph.root].max())}, diameter: {hops.max_finite()}",
        "",
        "k   nnz((A+I)^k)  nnz(hop-k)  eig range of normalized hop-k",
    ]
    human_lines += [
        f"{k:<3} {power:>12}  {hop_nnz:>10}  [{lo:+.4f}, {hi:+.4f}]"
        for k, power, hop_nnz, lo, hi in stats
    ]
    human_lines.append("")
    human_lines.append("hop distance matrix:")
    human_lines.append(np.array2string(hops.distances, max_line_width=200))
    human = "\n".join(human_lines) + "\n"
    _emit(human, csv_text, args.csv)
    return EXIT_OK


_GRADCHECK_PARAM_BUDGET = 50_000


def cmd_gradcheck(args) -> int:
    rc = resolve_run_config(args.preset, args.config, args.seed, default_preset="toy")
    graph = _load_graph(args.skeleton)
    net = MgtNet(rc.model_config(graph.n_joints), graph, seed=rc.seed)
    if net.param_count() > _GRADCHECK_PARAM_BUDGET:
        raise ValidationError(
            f"model has {net.param_count()} parameters; finite differences are "
            f"only tractable up to {_GRADCHECK_PARAM_BUDGET}"
        )
    rng = np.random.default_rng(rc.seed)
    sample = rng.standard_normal((graph.n_joints, 2, rc.frames))
    target = rng.standard_normal((graph.n_joints, 3))

    def loss_fn():
        return elastic_loss(net.forward(Tensor(sample), train=False), target, rc.alpha)

    reports = la.grad_check_params(loss_fn, net.parameters(), step=args.step, tol=args.tolerance)
    csv_lines = ["parameter,max_rel_error,passed"]
    human_lines = [f"gradient check: {len(reports)} parameter groups, tolerance {args.tolerance}"]
    failed = []
    for name, report in reports.items():
        csv_lines.append(f"{name},{report.max_rel_error!r},{str(report.passed).lower()}")
        if not report.passed:
            failed.append((name, report))
    worst_name = max(reports, key=lambda n: reports[n].max_rel_error)
    worst = reports[worst_name]
    human_lines.append(f"worst group: {worst_name} (max rel error {worst.max_rel_error:.3e})")
    human_lines.append(f"{len(reports) - len(failed)}/{len(reports)} groups passed")
    _emit("\n".join(human_lines) + "\n", "\n".join(csv_lines) + "\n", args.csv)
    if failed:
        sys.stderr.write(
            f"gradient check FAILED for {len(failed)} group(s); worst offender "
            f"{worst_name} at {worst.max_rel_error:.3e} (tolerance {args.tolerance})\n"
        )
        return EXIT_CHECK
    return EXIT_OK


_ABLATION_AXES = ("hops", "frames", "dcl", "highorder")


def _ablation_variants(axis: str, rc: RunConfig, frames: int):
    # the parser's ``choices`` limits ``axis`` to ``_ABLATION_AXES``
    if axis == "hops":
        for k in (0, 1, 2):
            yield f"hops-{k}", dataclasses.replace(rc, max_hop=k), frames
    elif axis == "frames":
        for t in (1, 3, 9, 27, 81, 243):
            if t <= frames:
                yield f"frames-{t}", dataclasses.replace(rc, frames=t), t
    elif axis == "dcl":
        yield "without-dcl", dataclasses.replace(rc, use_dcl=False), frames
        yield "with-dcl", dataclasses.replace(rc, use_dcl=True), frames
    elif axis == "highorder":
        yield "highorder", dataclasses.replace(rc, gconv_mode="highorder"), frames
        yield "multihop", dataclasses.replace(rc, gconv_mode="multihop"), frames


def cmd_ablate(args) -> int:
    rc = resolve_run_config(args.preset, args.config, args.seed, default_preset="toy")
    dataset = load_dataset(args.data)
    if dataset.frames != rc.frames:
        raise ValidationError(
            f"config expects {rc.frames} frames but dataset has {dataset.frames}"
        )
    results = []
    for label, variant_rc, frames in _ablation_variants(args.axis, rc, dataset.frames):
        variant_data = dataset.with_frames(frames) if frames != dataset.frames else dataset
        net = MgtNet(variant_rc.model_config(dataset.n_joints), dataset.skeleton, seed=variant_rc.seed)
        history = train(net, variant_data, variant_rc.train_config())
        last = history[-1]
        results.append((label, net.param_count(), last.train_loss, last.eval_mpjpe))
        log.info("ablation %s: params %d loss %.6f", label, net.param_count(), last.train_loss)
    csv_lines = ["variant,params,final_train_loss,final_mpjpe"]
    human_lines = [f"ablation over {args.axis} ({rc.epochs} epochs each):"]
    for label, count, loss, err in results:
        csv_lines.append(f"{label},{count},{loss!r},{err!r}")
        human_lines.append(f"  {label:<14} params {count:>10}  loss {loss:.6f}  mpjpe {err:.6f}")
    csv_text = "\n".join(csv_lines) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "ablation.csv").write_text(csv_text, encoding="utf-8")
    _emit("\n".join(human_lines) + "\n", csv_text, args.csv)
    return EXIT_OK


def cmd_synth(args) -> int:
    graph = _load_graph(args.skeleton)
    dataset = synthesize(
        graph,
        count=args.count,
        frames=args.frames,
        seed=args.seed if args.seed is not None else 0,
        noise_sigma=args.noise_sigma,
        amplitude=args.amplitude,
    )
    save_dataset(dataset, args.out)
    sys.stdout.write(
        f"wrote {len(dataset)} samples ({graph.n_joints} joints, {args.frames} frames) "
        f"to {args.out}\n"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgt", description="2D-to-3D pose lifting with multi-hop graph convolutions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv=True):
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if csv:
            p.add_argument("--csv", action="store_true", help="CSV to stdout, tables to stderr")

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    p_train.add_argument("--data", required=True, help="pose dataset file")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--config", help="key = value config file")
    p_train.add_argument("--preset", choices=sorted(PRESETS), help="base preset")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("checkpoint", help="checkpoint file from train")
    p_eval.add_argument("--data", required=True, help="pose dataset file")
    p_eval.add_argument("--pck-threshold", type=float, default=DEFAULT_PCK_THRESHOLD)
    p_eval.add_argument("--dump-poses", help="write per-joint predicted/target CSV here")
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_graph = sub.add_parser("graph", help="inspect skeleton hop structure")
    p_graph.add_argument("--skeleton", help="skeleton document (default: built-in body)")
    p_graph.add_argument("--k-max", type=int, default=4, dest="k_max")
    common(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_gc = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    p_gc.add_argument("--config", help="key = value config file")
    p_gc.add_argument("--preset", choices=sorted(PRESETS), help="base preset (default toy)")
    p_gc.add_argument("--skeleton", help="skeleton document (default: built-in body)")
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.add_argument("--step", type=float, default=1e-5)
    common(p_gc)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_ab = sub.add_parser("ablate", help="train variants along one axis")
    p_ab.add_argument("--axis", required=True, choices=_ABLATION_AXES)
    p_ab.add_argument("--data", required=True, help="pose dataset file")
    p_ab.add_argument("--out", help="directory for ablation.csv")
    p_ab.add_argument("--config", help="key = value config file")
    p_ab.add_argument("--preset", choices=sorted(PRESETS), help="base preset (default toy)")
    common(p_ab)
    p_ab.set_defaults(func=cmd_ablate)

    p_synth = sub.add_parser("synth", help="write a synthetic pose dataset")
    p_synth.add_argument("--out", required=True, help="output pose file")
    p_synth.add_argument("--count", type=int, default=32)
    p_synth.add_argument("--frames", type=int, default=3)
    p_synth.add_argument("--noise-sigma", type=float, default=0.0, dest="noise_sigma")
    p_synth.add_argument("--amplitude", type=float, default=0.3)
    p_synth.add_argument("--skeleton", help="skeleton document (default: built-in body)")
    common(p_synth, csv=False)
    p_synth.set_defaults(func=cmd_synth)

    return parser


_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def _setup_logging() -> None:
    level_name = os.environ.get("MGT_LOG", "warning").lower()
    level = _LOG_LEVELS.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")
    if level_name == "debug":
        la.set_debug(True)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the validation code
        return EXIT_OK if not exc.code else EXIT_VALIDATION
    try:
        return args.func(args)
    except (
        ValidationError,
        DataFormatError,
        SkeletonError,
        CheckpointError,
        ConfigurationError,
        la.ShapeError,
        la.ContractError,
        ValueError,
        OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except DivergenceError as exc:
        sys.stderr.write(f"diverged: {exc}\n")
        return EXIT_DIVERGENCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
