"""What the benchmark in ``perfbench/`` relies on: its tracer's patch table and its reference forward.

The tracer replaces program functions by dotted name, and the oracle
re-implements the forward pass from parameter names.  A rename or a change to
the forward graph would otherwise surface only as a crashed traced benchmark
run or as a benchmark check that fails.  Both files are loaded by path and
only read.
"""
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mgtnet
import mgtnet.data
import mgtnet.layers
import mgtnet.linalg
import mgtnet.metrics
import mgtnet.model
import mgtnet.training
from mgtnet.cli import PRESETS, RunConfig
from mgtnet.linalg import Tensor
from mgtnet.model import MgtNet
from mgtnet.skeleton import human36m_skeleton

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
oracle = load("oracle")


def resolve(path: str):
    owner = mgtnet
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_patches_resolve_and_uninstall_restores_them():
    originals = [(resolve(path), attr, getattr(resolve(path), attr)) for _, path, attr, _ in spans._PATCHES]
    tracer = spans.Tracer()
    try:
        tracer.install(mgtnet)
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


@pytest.mark.parametrize("preset", ["toy", "gt-ablation"])
def test_oracle_forward_matches_the_net(preset):
    skeleton = human36m_skeleton()
    config = RunConfig(**PRESETS[preset]).model_config(skeleton.n_joints)
    net = MgtNet(config, skeleton, seed=0)
    rng = np.random.default_rng(3)
    # freshly built biases are exactly zero; move every parameter off its init
    for _, p in net.parameters():
        p.data = p.data + 1e-3 * rng.standard_normal(p.shape)
    x = rng.standard_normal((4, skeleton.n_joints, 2, config.frames))
    weights = {name: p.data for name, p in net.parameters()}
    expected = oracle.forward(dataclasses.asdict(config), weights, skeleton.edges, x)
    actual = net.forward(Tensor(x), train=False).data
    assert oracle.relative_error(actual, expected) <= 1e-12
