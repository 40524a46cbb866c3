"""Metrics against an independent alignment solver and hand-built cases."""
import numpy as np
import pytest

from mgtnet.metrics import (
    DEFAULT_AUC_GRID,
    DEFAULT_PCK_THRESHOLD,
    AlignmentError,
    auc,
    metric_report,
    mpjpe,
    pa_mpjpe,
    pck,
    procrustes_align,
)


def align_reference(pred, gt):
    """Second Procrustes solver: quaternion-free, solved on the other covariance side.

    Finds s, R, t minimizing ||gt - (s R pred + t)||_F with det(R) = +1 by the
    classical Umeyama construction, written independently of the library code.
    """
    p = np.asarray(pred, float)
    g = np.asarray(gt, float)
    n = p.shape[0]
    mp = p.mean(axis=0)
    mg = g.mean(axis=0)
    cov = (g - mg).T @ (p - mp) / n
    var_p = ((p - mp) ** 2).sum() / n
    u, d, vt = np.linalg.svd(cov)
    s_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s_fix[2, 2] = -1.0
    rotation = u @ s_fix @ vt
    scale = np.trace(np.diag(d) @ s_fix) / var_p
    translation = mg - scale * rotation @ mp
    return scale * p @ rotation.T + translation


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng, n=17, spread=100.0):
    return rng.standard_normal((n, 3)) * spread


# ---------------------------------------------------------------------------
# mpjpe


def test_mpjpe_hand_values():
    gt = np.zeros((2, 3))
    pred = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
    assert mpjpe(pred, gt) == pytest.approx(3.5)  # (5 + 2) / 2
    assert mpjpe(gt, gt) == 0.0


def test_mpjpe_batch_averages_over_samples():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((4, 5, 3))
    g = rng.standard_normal((4, 5, 3))
    per_sample = [mpjpe(p[i], g[i]) for i in range(4)]
    assert mpjpe(p, g) == pytest.approx(np.mean(per_sample))


def test_mpjpe_shape_validation():
    with pytest.raises(ValueError):
        mpjpe(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        mpjpe(np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# procrustes alignment


def test_alignment_recovers_similarity_transform():
    rng = np.random.default_rng(1)
    for trial in range(20):
        gt = random_pose(rng)
        rotation = random_rotation(rng)
        scale = float(rng.uniform(0.2, 5.0))
        translation = rng.standard_normal(3) * 50
        pred = scale * gt @ rotation.T + translation
        aligned = procrustes_align(pred, gt)
        np.testing.assert_allclose(aligned, gt, atol=1e-8)


def test_alignment_matches_independent_solver():
    rng = np.random.default_rng(2)
    for trial in range(20):
        pred = random_pose(rng)
        gt = random_pose(rng)
        ours = procrustes_align(pred, gt)
        reference = align_reference(pred, gt)
        np.testing.assert_allclose(ours, reference, atol=1e-9)


def test_alignment_beats_random_similarity_transforms():
    # optimality spot-check: no sampled transform does better
    rng = np.random.default_rng(3)
    pred = random_pose(rng, spread=1.0)
    gt = random_pose(rng, spread=1.0)
    best = mpjpe(procrustes_align(pred, gt), gt)
    for _ in range(300):
        s = float(rng.uniform(0.1, 3.0))
        r = random_rotation(rng)
        t = rng.standard_normal(3)
        candidate = mpjpe(s * pred @ r.T + t, gt)
        assert candidate >= best - 1e-9


def test_alignment_rotation_is_proper_by_default():
    rng = np.random.default_rng(4)
    gt = random_pose(rng)
    mirrored = gt.copy()
    mirrored[:, 2] = -mirrored[:, 2]
    aligned = procrustes_align(mirrored, gt)
    # a reflection cannot be undone by a proper rotation
    assert mpjpe(aligned, gt) > 1.0


def test_alignment_degenerate_poses_raise():
    flat = np.zeros((5, 3))
    sphere = np.random.default_rng(5).standard_normal((5, 3))
    with pytest.raises(AlignmentError):
        procrustes_align(sphere, flat)
    with pytest.raises(AlignmentError):
        procrustes_align(flat, sphere)
    with pytest.raises(ValueError):
        procrustes_align(np.zeros((4, 3)), np.zeros((5, 3)))


@pytest.mark.parametrize("count", [1, 7, 256])
def test_batched_metrics_equal_the_per_pose_loop(count):
    rng = np.random.default_rng(count)
    pred = rng.standard_normal((count, 17, 3)) * 100.0
    gt = rng.standard_normal((count, 17, 3)) * 100.0
    pred[-1] = gt[-1] * np.array([1.0, 1.0, -1.0])  # a reflection: takes the det < 0 flip
    aligned = procrustes_align(pred, gt)
    per_pose = [procrustes_align(p, g) for p, g in zip(pred, gt)]
    np.testing.assert_array_equal(aligned, np.stack(per_pose))
    errors = [pa_mpjpe(p, g) for p, g in zip(pred, gt)]
    assert pa_mpjpe(pred, gt) == np.mean(errors)
    assert mpjpe(pred, gt) == np.mean([mpjpe(p, g) for p, g in zip(pred, gt)])
    # auc counts every joint error against the whole grid at once; the
    # reference is the mean of one pck per threshold, bit for bit
    assert auc(pred, gt) == float(np.mean([pck(pred, gt, t) for t in DEFAULT_AUC_GRID]))


def test_batched_alignment_with_one_degenerate_pose_raises():
    rng = np.random.default_rng(10)
    pred = rng.standard_normal((5, 17, 3))
    gt = rng.standard_normal((5, 17, 3))
    gt[3] = 0.0
    with pytest.raises(AlignmentError, match="target pose 3"):
        procrustes_align(pred, gt)
    with pytest.raises(AlignmentError):
        pa_mpjpe(pred, gt)
    with pytest.raises(AlignmentError, match="predicted pose 3"):
        pa_mpjpe(gt + 1.0, pred)  # every joint of pose 3 at (1, 1, 1)


def test_pa_mpjpe_invariant_to_similarity_and_bounded_by_mpjpe():
    rng = np.random.default_rng(6)
    gt = random_pose(rng)
    transformed = 2.0 * gt @ random_rotation(rng).T + 10.0
    assert pa_mpjpe(transformed, gt) < 1e-9
    for trial in range(50):
        pred = random_pose(rng)
        target = random_pose(rng)
        assert pa_mpjpe(pred, target) <= mpjpe(pred, target) + 1e-9


# ---------------------------------------------------------------------------
# pck and auc


def test_pck_hand_case():
    gt = np.zeros((4, 3))
    pred = np.zeros((4, 3))
    pred[0, 0] = 10.0    # error 10
    pred[1, 0] = 150.0   # exactly at threshold, counts (inclusive)
    pred[2, 0] = 151.0   # just outside
    assert pck(pred, gt) == pytest.approx(0.75)
    assert pck(pred, gt, threshold=9.0) == pytest.approx(0.25)
    assert pck(pred, gt, threshold=0.0) == pytest.approx(0.25)  # only the exact joint
    with pytest.raises(ValueError):
        pck(pred, gt, threshold=-1.0)


def test_auc_hand_case():
    gt = np.zeros((1, 3))
    pred = np.array([[37.0, 0.0, 0.0]])
    # error 37: thresholds 40..150 pass, 0..35 fail -> 23 of 31
    assert auc(pred, gt) == pytest.approx(23.0 / 31.0)
    # an error on a grid point passes there, as pck counts it (inclusive):
    # error 35 passes thresholds 35..150 -> 24 of 31
    pred[0, 0] = 35.0
    assert auc(pred, gt) == pytest.approx(24.0 / 31.0)


def test_default_grid_is_paper_protocol():
    assert DEFAULT_PCK_THRESHOLD == 150.0
    assert DEFAULT_AUC_GRID[0] == 0.0
    assert DEFAULT_AUC_GRID[-1] == 150.0
    assert len(DEFAULT_AUC_GRID) == 31
    steps = np.diff(DEFAULT_AUC_GRID)
    np.testing.assert_allclose(steps, 5.0)


def test_auc_is_mean_of_pck_over_grid():
    rng = np.random.default_rng(7)
    pred = random_pose(rng, spread=80.0)
    gt = random_pose(rng, spread=80.0)
    expected = np.mean([pck(pred, gt, t) for t in DEFAULT_AUC_GRID])
    assert auc(pred, gt) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# report assembly


def test_metric_report_groups_by_action():
    rng = np.random.default_rng(8)
    preds = [random_pose(rng) for _ in range(6)]
    gts = [random_pose(rng) for _ in range(6)]
    actions = ["walk", "sit", "walk", "sit", "walk", "eat"]
    report = metric_report(preds, gts, actions)
    assert [r.action for r in report.rows] == ["eat", "sit", "walk"]
    assert [r.n for r in report.rows] == [1, 2, 3]
    assert report.overall.action == "all" and report.overall.n == 6
    walk = next(r for r in report.rows if r.action == "walk")
    stacked_p = np.stack([preds[i] for i in (0, 2, 4)])
    stacked_g = np.stack([gts[i] for i in (0, 2, 4)])
    assert walk.mpjpe == pytest.approx(mpjpe(stacked_p, stacked_g))
    assert walk.auc == pytest.approx(auc(stacked_p, stacked_g))


def test_metric_report_output_formats():
    rng = np.random.default_rng(9)
    preds = [random_pose(rng) for _ in range(2)]
    gts = [random_pose(rng) for _ in range(2)]
    report = metric_report(preds, gts, ["a", "b"])
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "action,mpjpe,pa_mpjpe,pck,auc,n"
    assert len(lines) == 4  # header + 2 actions + overall
    assert lines[-1].startswith("all,")
    # csv floats round-trip exactly
    value = float(lines[1].split(",")[1])
    assert value == report.rows[0].mpjpe
    table = report.table()
    assert "action" in table and "all" in table


def test_metric_report_validation():
    with pytest.raises(ValueError):
        metric_report([], [], [])
    with pytest.raises(ValueError):
        metric_report([np.zeros((2, 3))], [], ["a"])
