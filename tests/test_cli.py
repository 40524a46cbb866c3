"""Command-line behavior: config resolution, subcommands, exit codes."""
import dataclasses

import numpy as np
import pytest

from mgtnet.cli import (
    EXIT_CHECK,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    PRESETS,
    RunConfig,
    ValidationError,
    main,
    parse_config_text,
    resolve_run_config,
    run_config_text,
)
from mgtnet.data import load_dataset
from mgtnet.model import ModelConfig
from mgtnet.training import TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# config plumbing


def test_parse_config_text_basics():
    values = parse_config_text(
        """
        # comment line
        epochs = 12
        lr0 = 0.5   # trailing comment
        gconv_mode = highorder
        use_dcl = false
        preset = toy
        """
    )
    assert values == {
        "epochs": 12,
        "lr0": 0.5,
        "gconv_mode": "highorder",
        "use_dcl": False,
        "preset": "toy",
    }


def test_parse_config_text_bool_spellings():
    for raw, expected in (("yes", True), ("on", True), ("0", False), ("No", False)):
        assert parse_config_text(f"use_dcl = {raw}")["use_dcl"] is expected
    with pytest.raises(ValidationError):
        parse_config_text("use_dcl = maybe")


def test_parse_config_text_unknown_key_names_line():
    with pytest.raises(ValidationError, match=r"cfg:3: unknown config key 'learning_rate'"):
        parse_config_text("epochs = 1\n\nlearning_rate = 0.1\n", source="cfg")


def test_parse_config_text_bad_value_and_missing_equals():
    with pytest.raises(ValidationError, match=":1: bad value for epochs"):
        parse_config_text("epochs = soon")
    with pytest.raises(ValidationError, match="expected 'key = value'"):
        parse_config_text("epochs 5")


def test_run_config_fields_are_the_model_and_train_fields():
    expected = [
        (f.name, f.default)
        for cls in (ModelConfig, TrainConfig)
        for f in dataclasses.fields(cls)
        if f.name != "n_joints"
    ]
    assert [(f.name, f.default) for f in dataclasses.fields(RunConfig)] == expected
    rc = RunConfig(**PRESETS["toy"])
    converted = {**dataclasses.asdict(rc.model_config(17)), **dataclasses.asdict(rc.train_config())}
    assert converted == {"n_joints": 17, **dataclasses.asdict(rc)}


def test_run_config_text_round_trips(tmp_path):
    rc = RunConfig(frames=3, hidden=8, epochs=7, use_dcl=False, alpha=0.25)
    parsed = parse_config_text(run_config_text(rc))
    assert RunConfig(**parsed) == rc


def test_resolve_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset = toy\nepochs = 5\n", encoding="utf-8")
    rc = resolve_run_config(None, str(path), seed=42)
    assert rc.hidden == PRESETS["toy"]["hidden"]  # from preset
    assert rc.epochs == 5  # file overrides preset
    assert rc.seed == 42  # flag overrides file
    # explicit preset argument beats the file's preset line
    rc2 = resolve_run_config("gt-ablation", str(path), seed=None)
    assert rc2.hidden == 128 and rc2.epochs == 5


def test_resolve_errors(tmp_path):
    with pytest.raises(ValidationError, match="unknown preset"):
        resolve_run_config("huge", None, None)
    with pytest.raises(ValidationError, match="config file not found"):
        resolve_run_config(None, str(tmp_path / "absent.cfg"), None)
    bad = tmp_path / "bad.cfg"
    bad.write_text("hidden = 10\nheads = 4\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="invalid configuration"):
        resolve_run_config("toy", str(bad), None)


# ---------------------------------------------------------------------------
# end-to-end through main()


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "poses.mgtp"
    assert run("synth", "--out", path, "--count", 6, "--frames", 3, "--seed", 5) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def train_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text("preset = toy\nepochs = 2\nbatch_size = 3\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_path, train_cfg):
    out = tmp_path_factory.mktemp("run")
    assert run("train", "--data", synth_path, "--out", out, "--config", train_cfg) == EXIT_OK
    return out


def test_synth_writes_loadable_dataset(synth_path):
    data = load_dataset(synth_path)
    assert len(data) == 6 and data.frames == 3


def test_train_writes_artifacts(trained):
    for name in ("checkpoint.mgtc", "history.csv", "config.txt"):
        assert (trained / name).exists(), name
    history = (trained / "history.csv").read_text(encoding="utf-8").strip().split("\n")
    assert history[0].startswith("epoch,") and len(history) == 3
    recorded = parse_config_text((trained / "config.txt").read_text(encoding="utf-8"))
    recorded.pop("preset", None)
    assert recorded["epochs"] == 2 and recorded["hidden"] == 8


def test_train_is_reproducible(tmp_path, synth_path, train_cfg, trained):
    again = tmp_path / "again"
    assert run("train", "--data", synth_path, "--out", again, "--config", train_cfg) == EXIT_OK
    for name in ("checkpoint.mgtc", "history.csv"):
        assert (again / name).read_bytes() == (trained / name).read_bytes(), name


def test_eval_reports_metrics(capsys, trained, synth_path):
    assert run("eval", trained / "checkpoint.mgtc", "--data", synth_path, "--csv") == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    header = out[0].split(",")
    assert header[0] == "action"
    assert {"mpjpe", "pa_mpjpe", "pck", "auc"} <= set(header)
    assert out[-1].startswith("all,")  # overall row present
    i_mpjpe, i_pa = header.index("mpjpe"), header.index("pa_mpjpe")
    for line in out[1:]:
        cells = line.split(",")
        assert float(cells[i_pa]) <= float(cells[i_mpjpe]) + 1e-9


def test_eval_matches_final_history_row(capsys, trained, synth_path):
    # the checkpoint was trained on this split, so eval must reproduce the
    # last history row's error
    assert run("eval", trained / "checkpoint.mgtc", "--data", synth_path, "--csv") == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    header = out[0].split(",")
    overall = dict(zip(header, out[-1].split(",")))
    last = (trained / "history.csv").read_text(encoding="utf-8").strip().split("\n")[-1]
    final_mpjpe = float(last.split(",")[3])
    assert abs(float(overall["mpjpe"]) - final_mpjpe) < 1e-9


def test_eval_dump_poses(tmp_path, trained, synth_path):
    dump = tmp_path / "poses.csv"
    assert (
        run("eval", trained / "checkpoint.mgtc", "--data", synth_path, "--dump-poses", dump)
        == EXIT_OK
    )
    lines = dump.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 1 + 6 * 17
    assert lines[0].startswith("sample,action,joint,joint_name")


def test_eval_empty_dataset_exits_validation(tmp_path, trained):
    from mgtnet.data import PoseDataset, save_dataset
    from mgtnet.skeleton import human36m_skeleton

    empty = tmp_path / "empty.mgtp"
    save_dataset(PoseDataset(human36m_skeleton(), 3, []), empty)
    assert run("eval", trained / "checkpoint.mgtc", "--data", empty) == EXIT_VALIDATION


def test_graph_k_max_one_columns_agree(capsys):
    # at hop 1 the dense power and the hop matrix coincide
    assert run("graph", "--k-max", 1, "--csv") == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    for line in lines[1:]:
        _, power, hop_nnz, _, _ = line.split(",")
        assert power == hop_nnz


def test_graph_csv_is_parseable(capsys):
    assert run("graph", "--k-max", 3, "--csv") == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,nnz_dense_power,nnz_hop_adjacency,eig_min,eig_max"
    assert len(lines) == 5  # k = 0..3 plus header
    for line in lines[1:]:
        k, power, hop_nnz, lo, hi = line.split(",")
        assert -1.0 - 1e-9 <= float(lo) <= float(hi) <= 1.0 + 1e-9


def test_gradcheck_passes_on_toy(capsys):
    assert run("gradcheck", "--preset", "toy", "--csv") == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "parameter,max_rel_error,passed"
    assert all(line.endswith(",true") for line in lines[1:])


def test_gradcheck_rejects_oversized_model():
    assert run("gradcheck", "--preset", "paper-default") == EXIT_VALIDATION


def test_gradcheck_failure_exit_code(monkeypatch):
    # correct forward, halved backward: the check must catch it and exit 3
    import mgtnet.linalg as la

    def broken_relu(t):
        mask = t.data > 0
        return la._emit(np.maximum(t.data, 0.0), (t,), lambda g: (g * 0.5 * mask,), "relu")

    monkeypatch.setattr("mgtnet.linalg.relu", broken_relu)
    assert run("gradcheck", "--preset", "toy") == EXIT_CHECK


def test_ablate_hops_axis(capsys, tmp_path, synth_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("preset = toy\nepochs = 1\nbatch_size = 6\n", encoding="utf-8")
    assert run("ablate", "--axis", "hops", "--data", synth_path, "--config", cfg, "--csv") == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "variant,params,final_train_loss,final_mpjpe"
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["hops-0", "hops-1", "hops-2"]
    params = [int(line.split(",")[1]) for line in lines[1:]]
    assert params[0] < params[1] < params[2]


def test_exit_validation_on_missing_data(tmp_path):
    assert run("train", "--data", tmp_path / "nope.mgtp", "--out", tmp_path / "o") == EXIT_VALIDATION


def test_exit_validation_on_frame_mismatch(tmp_path, train_cfg):
    wide = tmp_path / "wide.mgtp"
    assert run("synth", "--out", wide, "--count", 2, "--frames", 5) == EXIT_OK
    assert run("train", "--data", wide, "--out", tmp_path / "o", "--config", train_cfg) == EXIT_VALIDATION


def test_exit_validation_on_corrupt_checkpoint(tmp_path, synth_path):
    fake = tmp_path / "fake.mgtc"
    fake.write_bytes(b"not a checkpoint at all")
    assert run("eval", fake, "--data", synth_path) == EXIT_VALIDATION


def test_exit_validation_on_bad_flags():
    assert run("train", "--data") == EXIT_VALIDATION  # missing value
    assert run("frobnicate") == EXIT_VALIDATION  # unknown command
    assert run("graph", "--k-max", 0) == EXIT_VALIDATION


def test_exit_divergence(tmp_path, synth_path):
    # absurd learning rate reliably blows up float64 within a few epochs
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(
        "preset = toy\nepochs = 40\nbatch_size = 6\nlr0 = 1e12\nalpha = 0.0\n",
        encoding="utf-8",
    )
    code = run("train", "--data", synth_path, "--out", tmp_path / "o", "--config", cfg)
    assert code == EXIT_DIVERGENCE


def test_help_exits_zero(capsys):
    assert run("--help") == EXIT_OK
    assert "train" in capsys.readouterr().out
