"""Loss properties, learning-rate schedule, optimizer oracle, training loop."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

import mgtnet.linalg as la
from mgtnet.data import synthesize
from mgtnet.linalg import Tape, Tensor
from mgtnet.model import MgtNet, ModelConfig, load_checkpoint, save_checkpoint
from mgtnet.skeleton import human36m_skeleton
from mgtnet.training import (
    BLOCK,
    PREDICT_CHUNK,
    AmsGrad,
    DivergenceError,
    HistoryRow,
    TrainConfig,
    elastic_loss,
    history_csv,
    lr_at,
    predict_dataset,
    train,
)
from test_model import assert_one_flat_buffer


def toy_model(seed=0):
    config = ModelConfig(
        n_joints=17, frames=3, hidden=8, depth=2, heads=2, max_hop=2, dropout=0.0
    )
    return MgtNet(config, human36m_skeleton(), seed=seed)


# ---------------------------------------------------------------------------
# elastic loss


def test_loss_hand_value():
    # one pose, one joint off by (3, 4, 0): squared term 25, absolute term 7
    pred = np.zeros((2, 3))
    target = np.zeros((2, 3))
    target[1] = (3.0, 4.0, 0.0)
    assert elastic_loss(pred, target, 0.0).item() == pytest.approx(25.0)
    assert elastic_loss(pred, target, 1.0).item() == pytest.approx(7.0)
    assert elastic_loss(pred, target, 0.5).item() == pytest.approx(16.0)


def test_loss_limits_match_component_sums():
    rng = np.random.default_rng(0)
    pred = rng.standard_normal((4, 17, 3))
    target = rng.standard_normal((4, 17, 3))
    diff = pred - target
    mse_sum = (diff**2).sum() / 4
    mae_sum = np.abs(diff).sum() / 4
    assert elastic_loss(pred, target, 0.0).item() == pytest.approx(mse_sum, abs=1e-12)
    assert elastic_loss(pred, target, 1.0).item() == pytest.approx(mae_sum, abs=1e-12)
    blended = elastic_loss(pred, target, 0.3).item()
    assert blended == pytest.approx(0.7 * mse_sum + 0.3 * mae_sum, abs=1e-10)


def test_loss_joint_mean_mode_rescales():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((2, 17, 3))
    target = rng.standard_normal((2, 17, 3))
    a = elastic_loss(pred, target, 0.25, mode="pose_sum").item()
    b = elastic_loss(pred, target, 0.25, mode="joint_mean").item()
    assert b == pytest.approx(a / 17.0)


def test_loss_is_convex_in_pred():
    rng = np.random.default_rng(2)
    for _ in range(25):
        alpha = float(rng.uniform(0.0, 1.0))
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 3))
        mid = elastic_loss((a + b) / 2.0, target, alpha).item()
        avg = (
            elastic_loss(a, target, alpha).item() + elastic_loss(b, target, alpha).item()
        ) / 2.0
        assert mid <= avg + 1e-12


def test_loss_zero_at_perfect_prediction():
    pose = np.random.default_rng(3).standard_normal((17, 3))
    assert elastic_loss(pose, pose.copy(), 0.37).item() == 0.0


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    target = rng.standard_normal((3, 5, 3))
    pred = Tensor(rng.standard_normal((3, 5, 3)), requires_grad=True)
    for alpha in (0.0, 0.5, 1.0):
        report = la.grad_check(lambda t: elastic_loss(t, target, alpha), pred)
        assert report.passed, f"alpha={alpha}: {report.max_rel_error:.3e}"


def test_loss_validation():
    good = np.zeros((2, 3))
    with pytest.raises(ValueError):
        elastic_loss(good, good, -0.1)
    with pytest.raises(ValueError):
        elastic_loss(good, good, 0.5, mode="nonsense")
    with pytest.raises(la.ShapeError):
        elastic_loss(np.zeros((2, 3)), np.zeros((3, 3)), 0.5)
    with pytest.raises(la.ShapeError):
        elastic_loss(np.zeros((2, 2)), np.zeros((2, 2)), 0.5)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_schedule_steps():
    config = TrainConfig(lr0=0.005, decay=0.9, decay_every=4)
    assert lr_at(config, 0) == pytest.approx(0.005)
    assert lr_at(config, 3) == pytest.approx(0.005)
    assert lr_at(config, 4) == pytest.approx(0.0045)
    assert lr_at(config, 7) == pytest.approx(0.0045)
    assert lr_at(config, 8) == pytest.approx(0.005 * 0.81)
    with pytest.raises(ValueError):
        lr_at(config, -1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=1.5)
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay_every=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(loss_mode="other")


# ---------------------------------------------------------------------------
# optimizer


def scalar_amsgrad_oracle(x0, lr, steps, grad_fn, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook recursion on one scalar, written independently of the class."""
    x, m, v, v_max = x0, 0.0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        v_max = max(v_max, v_hat)
        x = x - lr * m_hat / (np.sqrt(v_max) + eps)
    return x


def test_amsgrad_matches_scalar_oracle_on_quadratic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AmsGrad([("p", p)])
    for _ in range(100):
        with Tape() as tape:
            loss = la.tensor_sum(la.mul(p, p))
        p.grad = None
        tape.backward(loss)
        opt.step(0.1)
    expected = scalar_amsgrad_oracle(1.0, 0.1, 100, lambda x: 2.0 * x)
    assert expected == pytest.approx(-0.0030725570911140886, abs=1e-15)  # frozen
    np.testing.assert_allclose(p.data, expected, atol=1e-12)
    assert abs(p.data[0]) < 0.05  # actually converged toward the minimum


def test_amsgrad_first_step_size_is_lr():
    # with a fresh optimizer, |update| = lr * |g| / (|g| + eps), close to lr
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = AmsGrad([("p", p)])
    p.grad = np.array([100.0, -0.001])
    opt.step(0.25)
    np.testing.assert_allclose(p.data, [5.0 - 0.25, -3.0 + 0.25], atol=1e-5)


def test_amsgrad_vmax_never_decreases():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AmsGrad([("p", p)])
    p.grad = np.array([10.0])
    opt.step(0.01)
    high = opt.v_max["p"].copy()
    for _ in range(5):
        p.grad = np.array([0.01])
        opt.step(0.01)
        assert opt.v_max["p"][0] >= high[0]


def test_amsgrad_contract_errors():
    plain = Tensor(np.ones(2))
    with pytest.raises(la.ContractError):
        AmsGrad([("p", plain)])
    p = Tensor(np.ones(2), requires_grad=True)
    opt = AmsGrad([("p", p)])
    with pytest.raises(la.ContractError):
        opt.step(0.1)  # no gradient yet
    p.grad = np.array([1.0, np.inf])
    with pytest.raises(DivergenceError, match="'p'"):
        opt.step(0.1)
    p.grad = np.ones(2)
    with pytest.raises(ValueError):
        opt.step(0.0)
    with pytest.raises(la.ContractError):
        AmsGrad([])


def test_amsgrad_second_moment_overflow_names_the_parameter():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    opt = AmsGrad([("a", a), ("b", b)])
    a.grad = np.ones(2)
    b.grad = np.array([1.0, 1e200, 1.0])  # finite, but its square is not
    with pytest.raises(DivergenceError, match="second-moment overflow in parameter 'b'"):
        opt.step(0.1)


def test_amsgrad_divergence_leaves_state_untouched():
    rng = np.random.default_rng(6)
    a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(7), requires_grad=True)
    opt = AmsGrad([("a", a), ("b", b)])
    a.grad = rng.standard_normal((4, 5))
    b.grad = rng.standard_normal(7)
    opt.step(0.1)
    before = [x.copy() for x in (a.data, opt.m["a"], opt.v["a"], opt.v_max["a"])]
    a.grad = rng.standard_normal((4, 5))
    b.grad = np.full(7, 2.0)
    b.grad[3] = np.inf
    with pytest.raises(DivergenceError, match="non-finite gradient in parameter 'b'"):
        opt.step(0.1)
    assert opt.steps == 1
    for old, new in zip(before, (a.data, opt.m["a"], opt.v["a"], opt.v_max["a"])):
        np.testing.assert_array_equal(old, new)


def test_amsgrad_second_moment_overflow_leaves_state_untouched():
    # the overflow sits in the second block, after a whole first block
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal(BLOCK), requires_grad=True)
    b = Tensor(rng.standard_normal(10), requires_grad=True)
    opt = AmsGrad([("a", a), ("b", b)])
    a.grad = rng.standard_normal(BLOCK)
    b.grad = rng.standard_normal(10)
    opt.step(0.1)

    def state():
        return [
            x.copy()
            for name, p in (("a", a), ("b", b))
            for x in (p.data, opt.m[name], opt.v[name], opt.v_max[name])
        ]

    before = state()
    a.grad = np.ones(BLOCK)
    b.grad = np.ones(10)
    b.grad[4] = 1e200  # finite, but its square is not
    with pytest.raises(DivergenceError, match="second-moment overflow in parameter 'b'"):
        opt.step(0.1)
    assert opt.steps == 1
    for old, new in zip(before, state()):
        np.testing.assert_array_equal(old, new)


def test_amsgrad_steps_when_only_the_overflow_bound_overflows():
    # the largest second moment (in a) plus the largest gradient's term (in
    # b) overflows, but no single element's sum does: the check pass must
    # find no overflow and let the step go through.  This late in training
    # 1 - 0.999**t rounds to 1, so the bias correction leaves v as it is.
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    opt = AmsGrad([("a", a), ("b", b)])
    opt.steps = 100_000
    big = ((1.0 - 0.999) * 3.8e155) * 3.8e155
    opt.v["a"][0] = big
    a.grad = np.zeros(3)
    b.grad = np.array([1.0, 3.8e155, 1.0])
    opt.step(0.1)
    assert opt.steps == 100_001
    assert opt.v["a"][0] == big * 0.999
    assert opt.v["b"][1] == big
    assert opt.v_max["b"][1] == big


def test_amsgrad_bias_corrected_overflow_leaves_state_untouched():
    # on the first step the second moment (1 - 0.999) * g * g is finite, but
    # its bias-corrected value, divided by 1 - 0.999 once more, is not
    rng = np.random.default_rng(9)
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    opt = AmsGrad([("a", a), ("b", b)])

    def state():
        return [
            x.copy()
            for name, p in (("a", a), ("b", b))
            for x in (p.data, opt.m[name], opt.v[name], opt.v_max[name])
        ]

    before = state()
    a.grad = np.array([1.0, 3.8e155, 1.0])
    b.grad = np.ones(3)
    with pytest.raises(DivergenceError, match="second-moment overflow in parameter 'a'"):
        opt.step(0.1)
    assert opt.steps == 0
    for old, new in zip(before, state()):
        np.testing.assert_array_equal(old, new)


def test_amsgrad_rejects_a_rebound_parameter():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    opt = AmsGrad([("a", a), ("b", b)])
    b.data = b.data + 1.0  # the optimizer would keep training the old buffer
    a.grad = np.ones(2)
    b.grad = np.ones(3)
    with pytest.raises(la.ContractError, match="'b'"):
        opt.step(0.1)


def test_amsgrad_rejects_a_parameter_listed_twice():
    a = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(la.ContractError, match="'again'"):
        AmsGrad([("a", a), ("again", a)])


def test_amsgrad_flat_blocked_update_equals_the_per_tensor_update():
    # mixed shapes over more than one block; the second tensor straddles the
    # first block boundary
    shapes = [(40000,), (150, 200), (7, 11, 13), (3,), (1, 1)]
    assert sum(np.prod(s) for s in shapes) > BLOCK
    rng = np.random.default_rng(8)
    params = [(f"p{i}", Tensor(rng.standard_normal(s), requires_grad=True)) for i, s in enumerate(shapes)]
    ref = {name: p.data.copy() for name, p in params}
    ref_m = {name: np.zeros(p.shape) for name, p in params}
    ref_v = {name: np.zeros(p.shape) for name, p in params}
    ref_v_max = {name: np.zeros(p.shape) for name, p in params}
    opt = AmsGrad(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 21):
        lr = 0.01 * 0.9**t
        correct1 = 1.0 - beta1**t
        correct2 = 1.0 - beta2**t
        for name, p in params:
            grad = rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-3.0, 3.0, p.shape)
            p.grad = grad
            # the per-tensor update, operation for operation
            m, v = ref_m[name], ref_v[name]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            np.maximum(ref_v_max[name], v / correct2, out=ref_v_max[name])
            ref[name] = ref[name] - lr * (m / correct1) / (np.sqrt(ref_v_max[name]) + eps)
        opt.step(lr)
    # every parameter is a view of one buffer, not an array of its own
    buffer = params[0][1].data.base
    assert buffer is not None and buffer.size == sum(p.size for _, p in params)
    for name, p in params:
        assert np.shares_memory(p.data, buffer)
        np.testing.assert_array_equal(p.data, ref[name])
        np.testing.assert_array_equal(opt.m[name], ref_m[name])
        np.testing.assert_array_equal(opt.v[name], ref_v[name])
        np.testing.assert_array_equal(opt.v_max[name], ref_v_max[name])


@pytest.mark.parametrize("source", ("built", "loaded"))
def test_amsgrad_adopts_the_net_buffer(tmp_path, source):
    config = ModelConfig(n_joints=17, frames=9, hidden=32, depth=2, heads=2, dropout=0.0)
    net = MgtNet(config, human36m_skeleton(), seed=1)
    if source == "loaded":
        save_checkpoint(tmp_path / "net.mgtc", net)
        net, _ = load_checkpoint(tmp_path / "net.mgtc")
    buffer = assert_one_flat_buffer(net)
    arrays = [p.data for _, p in net.parameters()]
    tracemalloc.start()
    try:
        opt = AmsGrad(net.parameters())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(opt._flat, buffer) and opt._flat.size == buffer.size
    assert all(p.data is a for (_, p), a in zip(net.parameters(), arrays))
    # at most a gradient buffer, the three moments and two scratch blocks,
    # with no buffer for a copy of the parameters
    scratch = 2 * min(BLOCK, buffer.size) * buffer.itemsize
    assert peak - 4 * buffer.nbytes - scratch < buffer.nbytes / 2


def five_steps(nets, opts):
    """Five training steps of each net with its optimizer, on one fixed batch."""
    x = np.random.default_rng(7).standard_normal((4, 17, 2, 3))
    y = np.random.default_rng(8).standard_normal((4, 17, 3))
    for step in range(5):
        for n, opt in zip(nets, opts):
            la.zero_grads(n.parameters())
            with Tape() as tape:
                loss = elastic_loss(n.forward(Tensor(x)), y, 0.3)
            tape.backward(loss)
            opt.step(0.01 * 0.9**step)


def test_amsgrad_steps_on_an_adopted_buffer_equal_the_copy_path(tmp_path):
    net = toy_model(seed=6)
    save_checkpoint(tmp_path / "net.mgtc", net)
    nets = [load_checkpoint(tmp_path / "net.mgtc")[0] for _ in range(2)]
    for _, p in nets[1].parameters():
        p.data = p.data.copy()  # separate arrays, so the optimizer copies them
    opts = [AmsGrad(n.parameters()) for n in nets]
    assert np.shares_memory(opts[0]._flat, assert_one_flat_buffer(nets[0]))
    assert nets[1].parameters()[0][1].data.base is opts[1]._flat
    five_steps(nets, opts)
    assert opts[0]._flat.tobytes() == opts[1]._flat.tobytes()
    for buf in ("_m", "_v", "_v_max"):
        assert getattr(opts[0], buf).tobytes() == getattr(opts[1], buf).tobytes()


def test_amsgrad_steps_on_the_net_gradient_buffer_equal_the_copy_path(tmp_path):
    net = toy_model(seed=6)
    save_checkpoint(tmp_path / "net.mgtc", net)
    nets = [load_checkpoint(tmp_path / "net.mgtc")[0] for _ in range(2)]
    for _, p in nets[1].parameters():
        # separate arrays with no gradient buffer, so the optimizer copies the
        # parameters and then copies each gradient into a buffer of its own
        p.data = p.data.copy()
        p._grad_view = None
    opts = [AmsGrad(n.parameters()) for n in nets]
    five_steps(nets, opts)
    assert np.shares_memory(opts[0]._grad, assert_one_flat_buffer(nets[0], "grad"))
    assert not any(np.shares_memory(opts[1]._grad, p.grad) for _, p in nets[1].parameters())
    for buf in ("_flat", "_grad", "_m", "_v", "_v_max"):
        assert getattr(opts[0], buf).tobytes() == getattr(opts[1], buf).tobytes(), buf


def test_amsgrad_allocates_no_gradient_buffer():
    config = ModelConfig(n_joints=17, frames=9, hidden=256, depth=1, heads=2, dropout=0.0)
    net = MgtNet(config, human36m_skeleton(), seed=1)
    buffer = assert_one_flat_buffer(net)
    views = [p._grad_view for _, p in net.parameters()]
    tracemalloc.start()
    try:
        opt = AmsGrad(net.parameters())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opt._grad.size == buffer.size
    assert all(np.shares_memory(opt._grad, v) for v in views)
    # the three moments and two scratch blocks, with no gradient buffer
    assert peak < 3.5 * buffer.nbytes


def test_amsgrad_state_tracks_parameters():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    opt = AmsGrad([("a", a), ("b", b)])
    assert opt.m["a"].shape == (3, 3) and opt.v_max["b"].shape == (3,)
    a.grad = np.ones((3, 3))
    b.grad = np.ones(3)
    before = a.data.copy()
    opt.step(0.1)
    assert opt.steps == 1
    assert np.abs(a.data - before).max() > 0


# ---------------------------------------------------------------------------
# history


def test_history_csv_round_trips_floats():
    rows = [
        HistoryRow(1, 0.005, 525.125, 1.23456789012345678, 0.9),
        HistoryRow(2, 0.0045, 3.5, 0.7, 0.6),
    ]
    text = history_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,lr,train_loss,eval_mpjpe,eval_pa_mpjpe"
    fields = lines[1].split(",")
    assert int(fields[0]) == 1
    assert float(fields[3]) == rows[0].eval_mpjpe  # repr round-trip


# ---------------------------------------------------------------------------
# the training loop


@pytest.fixture(scope="module")
def tiny_run():
    data = synthesize(human36m_skeleton(), count=6, frames=3, seed=21)
    net = toy_model()
    config = TrainConfig(alpha=0.01, lr0=0.01, decay=0.9, decay_every=4,
                         epochs=3, batch_size=2, seed=1)
    history = train(net, data, config)
    return net, data, config, history


def test_train_returns_one_row_per_epoch(tiny_run):
    net, data, config, history = tiny_run
    assert len(history) == config.epochs
    assert [r.epoch for r in history] == [1, 2, 3]
    for row in history:
        assert row.lr == pytest.approx(config.lr0)  # decay not reached in 3 epochs
        assert np.isfinite(row.train_loss)
        assert np.isfinite(row.eval_mpjpe)


def test_train_makes_progress(tiny_run):
    _, _, _, history = tiny_run
    assert history[-1].train_loss < history[0].train_loss


def test_train_is_deterministic(tiny_run):
    net, data, config, history = tiny_run
    net2 = toy_model()
    history2 = train(net2, data, config)
    assert [r.train_loss for r in history2] == [r.train_loss for r in history]
    for (_, p1), (_, p2) in zip(net.parameters(), net2.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


def test_train_seed_changes_trajectory(tiny_run):
    net, data, config, history = tiny_run
    net3 = toy_model()
    other = TrainConfig(alpha=config.alpha, lr0=config.lr0, decay=config.decay,
                        decay_every=config.decay_every, epochs=config.epochs,
                        batch_size=config.batch_size, seed=99)
    history3 = train(net3, data, other)
    assert history3[-1].train_loss != history[-1].train_loss


def test_train_writes_loadable_checkpoint(tmp_path):
    data = synthesize(human36m_skeleton(), count=4, frames=3, seed=22)
    net = toy_model()
    config = TrainConfig(epochs=2, batch_size=4, lr0=0.01, seed=0)
    path = tmp_path / "out.mgtc"
    train(net, data, config, checkpoint_path=path)
    restored, extra = load_checkpoint(path)
    for (_, p1), (_, p2) in zip(net.parameters(), restored.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)
    assert extra["train"] == dataclasses.asdict(config)
    assert extra["root_relative"] is True
    assert np.asarray(extra["standardizer"]["mean"]).shape == (17, 2)
    # restored net predicts identically
    stats_mean = np.asarray(extra["standardizer"]["mean"])
    x = data.samples[0].inputs
    from mgtnet.data import Standardizer

    stats = Standardizer(stats_mean, np.asarray(extra["standardizer"]["std"]))
    a = net.forward(Tensor(stats.apply(x)), train=False).data
    b = restored.forward(Tensor(stats.apply(x)), train=False).data
    np.testing.assert_array_equal(a, b)


def test_train_rejects_mismatched_dataset():
    data = synthesize(human36m_skeleton(), count=2, frames=5, seed=23)
    net = toy_model()  # expects 3 frames
    with pytest.raises(la.ShapeError):
        train(net, data, TrainConfig(epochs=1))


def test_train_rejects_empty_dataset():
    from mgtnet.data import PoseDataset

    empty = PoseDataset(human36m_skeleton(), 3, [])
    with pytest.raises(ValueError):
        train(toy_model(), empty, TrainConfig(epochs=1))


def test_predict_dataset_matches_manual_forward():
    from mgtnet.data import Standardizer

    count = PREDICT_CHUNK + 3  # one full chunk and a partial one
    data = synthesize(human36m_skeleton(), count=count, frames=3, seed=24)
    net = toy_model()
    stats = Standardizer.identity(17)
    preds = predict_dataset(net, data, stats)
    assert preds.shape == (count, 17, 3)
    for sample, pred in zip(data, preds):
        np.testing.assert_array_equal(
            pred, net.forward(Tensor(sample.inputs), train=False).data
        )


def test_predict_dataset_on_an_empty_set():
    from mgtnet.data import PoseDataset, Standardizer

    empty = PoseDataset(human36m_skeleton(), 3, [])
    preds = predict_dataset(toy_model(), empty, Standardizer.identity(17))
    assert preds.shape == (0, 17, 3)


def test_epoch_pa_mpjpe_is_nan_when_a_pose_cannot_be_aligned():
    from mgtnet.data import PoseDataset

    data = synthesize(human36m_skeleton(), count=4, frames=3, seed=25)
    targets = data.targets.copy()
    targets[2] = 0.0  # all joints coincide: no similarity alignment exists
    data = PoseDataset.from_arrays(data.skeleton, data.inputs, targets, data.actions, data.unit)
    history = train(toy_model(), data, TrainConfig(epochs=2, batch_size=2, lr0=0.01))
    for row in history:
        assert np.isnan(row.eval_pa_mpjpe)
        assert np.isfinite(row.eval_mpjpe)


def test_train_memorizes_single_sample():
    # one pose, 200 epochs: the net should drive its error on that pose
    # well under one unit
    data = synthesize(human36m_skeleton(), count=1, frames=3, seed=7)
    net = toy_model()
    config = TrainConfig(
        alpha=0.01, lr0=0.02, decay=0.85, decay_every=30, epochs=200,
        batch_size=1, seed=0,
    )
    history = train(net, data, config)
    assert history[-1].eval_mpjpe < 1.0
