"""Acceptance gate: one test per shipped requirement.

Every test registers a PASS/FAIL line with the terminal summary (see
conftest), so a full run ends with one line per criterion.  Criteria 7 and
8a train the toy preset for its full 300-epoch budget and take most of the
run's wall time; every bound is asserted as stated.
"""
import contextlib
import dataclasses
import struct
import time

import numpy as np
import pytest

import mgtnet.linalg as la
from conftest import record_criterion
from mgtnet.cli import PRESETS, RunConfig
from mgtnet.data import (
    DataFormatError,
    load_dataset,
    save_dataset,
    synthesize,
)
from mgtnet.layers import DilatedConvLayer, MultiHeadSelfAttention, MultiHopGConvLayer
from mgtnet.linalg import Tensor
from mgtnet.metrics import auc, mpjpe, pa_mpjpe, pck
from mgtnet.model import MgtNet, ModelConfig
from mgtnet.skeleton import (
    hop_distances,
    human36m_skeleton,
    k_adjacency,
    sparsity_report,
)
from mgtnet.training import elastic_loss, train
from test_layers import (
    body_adjacencies,
    dilated_conv_reference,
    msa_reference,
    multi_hop_reference,
)
from test_metrics import random_rotation
from test_skeleton import INF, floyd_warshall, random_connected_graph


@contextlib.contextmanager
def criterion(tag, label):
    passed = False
    try:
        yield
        passed = True
    finally:
        record_criterion(tag, label, passed)


def toy_config(**overrides):
    base = ModelConfig(
        n_joints=17, frames=3, hidden=8, depth=2, heads=2, max_hop=2, dropout=0.0
    )
    return dataclasses.replace(base, **overrides)


# ---------------------------------------------------------------------------
# 1. hop-indexed adjacency vs shortest-path oracle


def test_criterion_1_graph_oracle_equivalence():
    with criterion("1", "hop adjacency matches shortest-path oracle, partitions pairs"):
        start = time.perf_counter()
        graphs = [human36m_skeleton()]
        rng = np.random.default_rng(2024)
        graphs.extend(
            random_connected_graph(rng, int(rng.integers(2, 21))) for _ in range(50)
        )
        for g in graphs:
            hops = hop_distances(g)
            oracle = floyd_warshall(g)
            diameter = int(oracle.max())
            assert diameter < INF  # generator promises connectivity
            union = np.zeros((g.n_joints, g.n_joints))
            for k in range(diameter + 1):
                mat = k_adjacency(hops, k)
                expected = (oracle == k).astype(float)
                np.fill_diagonal(expected, 1.0)
                np.testing.assert_array_equal(mat, expected)
                off = mat - np.diag(np.diag(mat))
                assert not ((union > 0) & (off > 0)).any()
                union += off
            connected = (oracle > 0) & (oracle < INF)
            np.testing.assert_array_equal(union > 0, connected)
        assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. sparsity of hop-indexed matrices vs dense powers


def test_criterion_2_sparsity_regression():
    with criterion("2", "hop matrices stay sparser than dense adjacency powers"):
        rows = sparsity_report(human36m_skeleton(), 4)
        frozen = [(1, 49, 49), (2, 87, 55), (3, 131, 61), (4, 181, 67)]
        assert [(r.k, r.nnz_power, r.nnz_k_adjacency) for r in rows] == frozen
        for r in rows[1:]:
            assert r.nnz_k_adjacency <= r.nnz_power
        assert rows[3].nnz_k_adjacency < rows[3].nnz_power


# ---------------------------------------------------------------------------
# 3. whole-network gradient integrity


def test_criterion_3_gradient_integrity():
    with criterion("3", "full-network gradients match central differences < 1e-4"):
        start = time.perf_counter()
        net = MgtNet(toy_config(), human36m_skeleton(), seed=0)
        rng = np.random.default_rng(0)
        sample = rng.standard_normal((17, 2, 3))
        target = rng.standard_normal((17, 3))

        def loss_fn():
            return elastic_loss(net.forward(Tensor(sample), train=False), target, 0.5)

        reports = la.grad_check_params(loss_fn, net.parameters(), step=1e-5, tol=1e-4)
        worst = max(r.max_rel_error for r in reports.values())
        assert worst < 1e-4, f"worst relative error {worst:.3e}"
        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 4. layer forward passes vs brute-force references


def test_criterion_4_layer_oracle_equivalence():
    with criterion("4", "layer forwards match brute-force references within 1e-12"):
        rng = np.random.default_rng(41)
        mats = body_adjacencies(2)
        for trial in range(20):
            layer = MultiHopGConvLayer(mats, 6, 4, rng, relu=trial % 2 == 1)
            h = rng.standard_normal((17, 6))
            expected = multi_hop_reference(
                [m.data for m in layer.adjacencies],
                h,
                [w.data for w in layer.weights],
                layer.bias.data,
                layer.relu,
            )
            np.testing.assert_allclose(layer(Tensor(h)).data, expected, atol=1e-12)
        for trial in range(20):
            layer = MultiHeadSelfAttention(8, 2, rng)
            x = rng.standard_normal((6, 8))
            expected = msa_reference(
                x,
                [w.data for w in layer.w_query],
                [w.data for w in layer.w_key],
                [w.data for w in layer.w_value],
                layer.w_out.data,
            )
            np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)
        for trial in range(20):
            half_width, dilation = (trial % 2 + 1, trial % 3 + 1)
            layer = DilatedConvLayer(rng, half_width, dilation)
            x = rng.standard_normal((7, 9))
            expected = dilated_conv_reference(x, layer.kernel.data, dilation)
            np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# 5. loss limit cases and convexity


def test_criterion_5_loss_limits_and_convexity():
    with criterion("5", "loss reduces to MSE/MAE at alpha 0/1; midpoint convexity"):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pred = rng.standard_normal((4, 17, 3))
            target = rng.standard_normal((4, 17, 3))
            diff = pred - target
            mse = (diff**2).sum(axis=(1, 2)).mean()
            mae = np.abs(diff).sum(axis=(1, 2)).mean()
            assert abs(elastic_loss(pred, target, 0.0).item() - mse) < 1e-12
            assert abs(elastic_loss(pred, target, 1.0).item() - mae) < 1e-12
        for _ in range(100):
            a = rng.standard_normal((17, 3))
            b = rng.standard_normal((17, 3))
            target = rng.standard_normal((17, 3))
            alpha = float(rng.uniform())
            mid = elastic_loss((a + b) / 2, target, alpha).item()
            avg = (
                elastic_loss(a, target, alpha).item()
                + elastic_loss(b, target, alpha).item()
            ) / 2
            assert mid <= avg + 1e-12


# ---------------------------------------------------------------------------
# 6. metric identities


def test_criterion_6_metric_identities():
    with criterion("6", "aligned-copy error ~0; aligned <= raw; PCK/AUC hand cases"):
        rng = np.random.default_rng(6)
        for _ in range(20):
            gt = rng.standard_normal((17, 3)) * 50.0
            rot = random_rotation(rng)
            scale = float(rng.uniform(0.2, 5.0))
            shift = rng.standard_normal(3) * 10.0
            transformed = scale * gt @ rot.T + shift
            assert pa_mpjpe(transformed, gt) < 1e-9
        for _ in range(1000):
            pred = rng.standard_normal((17, 3)) * 100.0
            gt = rng.standard_normal((17, 3)) * 100.0
            assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt) + 1e-9
        gt = np.zeros((4, 3))
        pred = np.zeros((4, 3))
        pred[0, 0] = 10.0
        pred[1, 0] = 150.0
        pred[2, 0] = 151.0
        assert pck(pred, gt) == 0.75
        assert auc(np.array([[37.0, 0.0, 0.0]]), np.zeros((1, 3))) == 23.0 / 31.0


# ---------------------------------------------------------------------------
# 7. small-dataset overfit convergence
#
# The error is read at the last of the 300 epochs, not at the best one.
# This criterion depends on the residual form of MultiHopConvBlock: without
# the skip, the input has to pass five narrow ReLU graph convs that nothing
# bypasses, most of their units go dead, and the net stalls just below the
# mean-pose error (about 11% of the epoch-1 error instead of under 5%).


def test_criterion_7_overfit_convergence():
    label = "train error after 300 epochs < 5% of epoch-1 error"
    with criterion("7", label):
        start = time.perf_counter()
        rc = RunConfig(**PRESETS["toy"])
        dataset = synthesize(human36m_skeleton(), count=32, frames=3, seed=7)
        net = MgtNet(rc.model_config(17), human36m_skeleton(), seed=rc.seed)
        history = train(net, dataset, rc.train_config())
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0
        assert len(history) == 300
        first = history[0].eval_mpjpe
        final = history[-1].eval_mpjpe
        assert final < 0.05 * first, (
            f"epoch-1 error {first:.4f}, final {final:.4f}, "
            f"ratio {final / first:.4f} (bound 0.05)"
        )


# ---------------------------------------------------------------------------
# 8. ablation trends at toy scale
#
# (a) runs the toy preset at its full 300-epoch budget for five seeds per
# variant.  It depends on both the residual form of MultiHopConvBlock and
# the fan-in of MultiHopGConvLayer's init: a K-hop layer sums K+1 terms, so
# drawing each hop weight for fan-in f_in instead of (K+1)*f_in inflates
# the 2-hop net's activations and not the 0-hop net's, which tilts the
# comparison against extra hops.  The 2-hop median leads by only about 3%,
# so this is the criterion most sensitive to init changes.


def test_criterion_8a_hop_trend():
    with criterion("8a", "median final train loss over 5 seeds: 2-hop <= 0-hop"):
        rc = RunConfig(**PRESETS["toy"])
        dataset = synthesize(human36m_skeleton(), count=32, frames=3, seed=7)
        finals = {}
        for max_hop in (2, 0):
            losses = []
            for seed in range(5):
                net = MgtNet(
                    dataclasses.replace(rc.model_config(17), max_hop=max_hop),
                    human36m_skeleton(),
                    seed=seed,
                )
                config = dataclasses.replace(rc.train_config(), seed=seed)
                losses.append(train(net, dataset, config)[-1].train_loss)
            losses.sort()
            finals[max_hop] = losses[len(losses) // 2]
        assert finals[2] <= finals[0], f"medians: 2-hop {finals[2]:.4f}, 0-hop {finals[0]:.4f}"


def test_criterion_8b_frame_growth_closed_form():
    with criterion("8b", "param growth with frames = 2*dT*F*(K+1) exactly"):
        skel = human36m_skeleton()
        for t1, t2 in ((1, 3), (3, 9), (9, 27)):
            small = MgtNet(toy_config(frames=t1), skel, seed=0).param_count()
            large = MgtNet(toy_config(frames=t2), skel, seed=0).param_count()
            assert large - small == 2 * (t2 - t1) * 8 * 3


def test_criterion_8c_dcl_adds_parameters():
    with criterion("8c", "with-DCL variant has strictly more parameters"):
        skel = human36m_skeleton()
        with_dcl = MgtNet(toy_config(), skel, seed=0).param_count()
        without = MgtNet(toy_config(use_dcl=False), skel, seed=0).param_count()
        assert with_dcl > without


# ---------------------------------------------------------------------------
# 9. parameter-count soft check (documented, not gated)


def test_criterion_9_parameter_count_documented():
    count = MgtNet(
        RunConfig(**PRESETS["gt-ablation"]).model_config(17), human36m_skeleton(), seed=0
    ).param_count()
    label = f"gt-ablation preset counts {count:,} vs reported 1.65M (recorded)"
    with criterion("9", label):
        assert count == 1_176_487  # regression pin; the deviation is documented


# ---------------------------------------------------------------------------
# 10. pose file robustness


def _stomp(path, offset, new_bytes):
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(new_bytes)] = new_bytes
    path.write_bytes(bytes(raw))


def _stomp_skeleton_doc(path):
    raw = bytearray(path.read_bytes())
    unit_len = struct.unpack("<I", raw[20:24])[0]
    doc_at = 24 + unit_len + 4
    raw[doc_at : doc_at + 5] = b"#####"
    path.write_bytes(bytes(raw))


CORRUPTIONS = [
    ("bad magic", lambda p: _stomp(p, 0, b"WHAT"), "magic"),
    ("bad version", lambda p: _stomp(p, 4, struct.pack("<I", 99)), "version 99"),
    ("truncated header", lambda p: p.write_bytes(p.read_bytes()[:10]), "unexpected end of file"),
    ("truncated record", lambda p: p.write_bytes(p.read_bytes()[:-8]), "record 3"),
    (
        "nan payload",
        lambda p: p.write_bytes(
            p.read_bytes()[:-4] + struct.pack("<f", float("nan"))
        ),
        "non-finite values in record 3",
    ),
    ("zero joints", lambda p: _stomp(p, 8, struct.pack("<I", 0)), "joint count"),
    (
        "joint count lie",
        lambda p: _stomp(p, 8, struct.pack("<I", 16)),
        "does not match skeleton",
    ),
    (
        "trailing garbage",
        lambda p: p.write_bytes(p.read_bytes() + b"\x00\x01\x02"),
        "trailing data",
    ),
    ("stomped skeleton doc", _stomp_skeleton_doc, "invalid skeleton document"),
    ("empty file", lambda p: p.write_bytes(b""), "unexpected end of file"),
]


def test_criterion_10_format_robustness(tmp_path):
    with criterion("10", "10 corruptions rejected with diagnostics; round-trip exact"):
        dataset = synthesize(human36m_skeleton(), count=4, frames=3, seed=11)
        for name, mutate, pattern in CORRUPTIONS:
            path = tmp_path / "poses.mgtp"
            save_dataset(dataset, path)
            mutate(path)
            with pytest.raises(DataFormatError, match=pattern):
                load_dataset(path)
        first = tmp_path / "a.mgtp"
        second = tmp_path / "b.mgtp"
        save_dataset(dataset, first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()
