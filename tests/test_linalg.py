"""Autodiff core: forward values against numpy, gradients against finite differences."""
import gc
import weakref

import numpy as np
import pytest

import mgtnet.linalg as la
from mgtnet.linalg import Tape, Tensor


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check(f, x, tol=1e-6):
    report = la.grad_check(f, x)
    assert report.max_rel_error < tol, (
        f"gradient mismatch {report.max_rel_error:.3e} at index {report.worst_index}"
    )


# ---------------------------------------------------------------------------
# tensor basics


def test_tensor_coerces_to_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)
    assert t.ndim == 2 and t.size == 4
    assert not t.requires_grad and t.grad is None


def test_item_requires_single_element():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(la.ContractError):
        Tensor([1.0, 2.0]).item()


def test_repr_mentions_grad_flag():
    assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
    assert "requires_grad" not in repr(Tensor(1.0))


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_reaches_leaves_through_shared_subexpression():
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        y = la.mul(x, x)      # x^2
        z = la.add(y, y)      # 2 x^2
    tape.backward(z)
    assert z.item() == 8.0
    np.testing.assert_allclose(x.grad, 8.0)  # d 2x^2 = 4x


def test_repeated_backward_accumulates():
    x = Tensor(3.0, requires_grad=True)
    with Tape() as tape:
        y = la.mul(x, x)
    tape.backward(y)
    tape.backward(y)
    np.testing.assert_allclose(x.grad, 12.0)
    la.zero_grads([x])
    assert x.grad is None


def test_backward_needs_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = la.scale(x, 2.0)
    with pytest.raises(la.ContractError):
        tape.backward(y)


def test_backward_rejects_foreign_loss():
    x = Tensor(1.0, requires_grad=True)
    with Tape():
        y = la.mul(x, x)
    with Tape() as other:
        la.mul(x, x)
    with pytest.raises(la.ContractError):
        other.backward(y)


def test_no_grad_tensor_stays_untouched():
    x = Tensor(2.0, requires_grad=True)
    c = Tensor(5.0)
    with Tape() as tape:
        y = la.mul(x, c)
    tape.backward(y)
    assert c.grad is None
    np.testing.assert_allclose(x.grad, 5.0)


def test_no_tape_means_no_recording():
    x = Tensor(2.0, requires_grad=True)
    y = la.mul(x, x)
    assert y._tape is None
    assert y.item() == 4.0


def test_nested_tapes_record_independently():
    x = Tensor(2.0, requires_grad=True)
    with Tape() as outer:
        y = la.mul(x, x)
        with Tape() as inner:
            z = la.mul(x, x)
        inner.backward(z)
    inner_grad = x.grad.copy()
    la.zero_grads([x])
    outer.backward(y)
    np.testing.assert_allclose(inner_grad, 4.0)
    np.testing.assert_allclose(x.grad, 4.0)
    assert len(inner) == 1 and len(outer) == 1


def test_finished_tape_is_freed_without_the_cycle_collector():
    x = Tensor(np.ones(3), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            loss = la.tensor_sum(la.mul(x, x))
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape
        assert ref() is None  # freed by refcounting, though ``loss`` is alive
        assert loss.item() == 3.0
    finally:
        gc.enable()


def test_zero_grads_accepts_named_pairs():
    a = Tensor(1.0, requires_grad=True)
    b = Tensor(2.0, requires_grad=True)
    a.grad = np.ones(())
    b.grad = np.ones(())
    la.zero_grads([("a", a), ("b", b)])
    assert a.grad is None and b.grad is None


# ---------------------------------------------------------------------------
# forward values


def test_matmul_matches_numpy():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 5)))
    b = Tensor(rng.standard_normal((5, 2)))
    np.testing.assert_allclose(la.matmul(a, b).data, a.data @ b.data)


def test_matmul_shape_errors():
    a = Tensor(np.zeros((3, 4)))
    with pytest.raises(la.ShapeError):
        la.matmul(a, Tensor(np.zeros((3, 4))))
    with pytest.raises(la.ShapeError):
        la.matmul(a, Tensor(np.zeros(4)))


def test_broadcast_add_and_shape_error():
    a = Tensor(np.ones((3, 4)))
    b = Tensor(np.arange(4.0))
    np.testing.assert_allclose(la.add(a, b).data, a.data + b.data)
    with pytest.raises(la.ShapeError):
        la.add(a, Tensor(np.ones(5)))


def test_softmax_rows_values():
    x = Tensor(np.array([[0.0, 0.0], [1000.0, 1000.0], [0.0, np.log(3.0)]]))
    out = la.softmax_rows(x).data
    np.testing.assert_allclose(out[0], [0.5, 0.5])
    np.testing.assert_allclose(out[1], [0.5, 0.5])  # max-shift keeps huge logits finite
    np.testing.assert_allclose(out[2], [0.25, 0.75])
    np.testing.assert_allclose(out.sum(axis=1), np.ones(3))
    with pytest.raises(la.ShapeError):
        la.softmax_rows(Tensor(np.zeros(3)))


def test_layer_norm_values():
    gain = Tensor(np.ones(3))
    bias = Tensor(np.zeros(3))
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    out = la.layer_norm(x, gain, bias).data
    np.testing.assert_allclose(out.mean(), 0.0, atol=1e-12)
    # population variance, so norm is sqrt(2/3) scaled
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0 + 1e-5)
    np.testing.assert_allclose(out[0], expected, rtol=1e-9)
    # constant row collapses to the bias
    shifted = la.layer_norm(Tensor(np.full((1, 3), 7.0)), gain, Tensor(np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(shifted.data, [[1.0, 2.0, 3.0]])


def test_layer_norm_shape_errors():
    gain = Tensor(np.ones(3))
    bias = Tensor(np.zeros(3))
    with pytest.raises(la.ShapeError):
        la.layer_norm(Tensor(np.zeros((2, 4))), gain, bias)
    with pytest.raises(la.ShapeError):
        la.layer_norm(Tensor(np.zeros(3)), gain, bias)


def test_dilated_conv2d_shape_errors():
    grid = Tensor(np.zeros((4, 5)))
    with pytest.raises(la.ShapeError):
        la.dilated_conv2d(grid, Tensor(np.zeros((3, 2))), 1)
    with pytest.raises(la.ShapeError):
        la.dilated_conv2d(grid, Tensor(np.zeros((2, 2))), 1)
    with pytest.raises(la.ShapeError):
        la.dilated_conv2d(grid, Tensor(np.zeros((3, 3))), 0)
    with pytest.raises(la.ShapeError):
        la.dilated_conv2d(Tensor(np.zeros(5)), Tensor(np.zeros((3, 3))), 1)


def test_concat_and_stack_values():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros((2, 1)))
    np.testing.assert_allclose(la.concat([a, b]).data, np.concatenate([a.data, b.data], axis=-1))
    np.testing.assert_allclose(la.stack([a, a]).data, np.stack([a.data, a.data]))
    with pytest.raises(la.ShapeError):
        la.concat([a, Tensor(np.ones((3, 1)))])
    with pytest.raises(la.ShapeError):
        la.stack([a, b])
    with pytest.raises(la.ShapeError):
        la.concat([])


def test_reshape_permute_values():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    np.testing.assert_allclose(la.reshape(x, (6, 4)).data, x.data.reshape(6, 4))
    np.testing.assert_allclose(la.permute(x, (2, 0, 1)).data, np.transpose(x.data, (2, 0, 1)))
    with pytest.raises(la.ShapeError):
        la.reshape(x, (5, 5))
    with pytest.raises(la.ShapeError):
        la.permute(x, (0, 1))
    np.testing.assert_array_equal(la.transpose(x).data, np.swapaxes(x.data, 1, 2))
    with pytest.raises(la.ShapeError):
        la.transpose(Tensor(np.arange(3.0)))


def test_reductions_match_numpy():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 5)))
    np.testing.assert_allclose(la.tensor_sum(x).data, x.data.sum())
    np.testing.assert_allclose(la.tensor_sum(x, axis=1).data, x.data.sum(axis=1))


def test_dropout_modes():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    assert la.dropout(x, 0.0, train=True) is x
    assert la.dropout(x, 0.5, train=False) is x
    out = la.dropout(x, 0.5, rng=np.random.default_rng(5), train=True)
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 2.0)  # inverted scaling by 1/(1-p)
    # same seed, same mask
    again = la.dropout(x, 0.5, rng=np.random.default_rng(5), train=True)
    np.testing.assert_allclose(out.data, again.data)
    with pytest.raises(la.ContractError):
        la.dropout(x, 0.5, train=True)  # rng required
    with pytest.raises(la.ContractError):
        la.dropout(x, 1.0, rng=rng, train=True)


def test_debug_mode_catches_nonfinite():
    la.set_debug(True)
    try:
        with pytest.raises(la.EvaluationError):
            la.scale(Tensor(np.array([1.0, np.inf])), 2.0)
    finally:
        la.set_debug(False)
    assert not la.debug_enabled()


# ---------------------------------------------------------------------------
# gradients, each op against central differences


def test_grad_add_broadcast():
    rng = np.random.default_rng(10)
    a = rand(rng, 3, 4)
    b = rand(rng, 4)
    check(lambda t: la.tensor_sum(la.mul(la.add(t, b), la.add(t, b))), a)
    check(lambda t: la.tensor_sum(la.mul(la.add(a, t), la.add(a, t))), b)


def test_grad_sub_mul_neg():
    rng = np.random.default_rng(11)
    a = rand(rng, 2, 3)
    b = rand(rng, 2, 3)
    check(lambda t: la.tensor_sum(la.mul(la.sub(t, b), t)), a)
    check(lambda t: la.tensor_sum(la.mul(a, la.sub(a, t))), b)


def test_grad_scale_shift():
    rng = np.random.default_rng(12)
    a = rand(rng, 5)
    check(lambda t: la.tensor_sum(la.mul(la.scale(t, -1.7), la.add(t, Tensor(0.3)))), a)


def test_grad_matmul():
    rng = np.random.default_rng(13)
    a = rand(rng, 3, 4)
    b = rand(rng, 4, 2)
    check(lambda t: la.tensor_sum(la.mul(la.matmul(t, b), la.matmul(t, b))), a)
    check(lambda t: la.tensor_sum(la.matmul(a, t)), b)


def test_grad_relu_and_abs_away_from_kinks():
    rng = np.random.default_rng(14)
    # keep all entries well away from zero so the finite difference is clean
    data = rng.standard_normal((4, 4))
    data = np.where(np.abs(data) < 0.3, 0.5, data)
    x = Tensor(data, requires_grad=True)
    check(lambda t: la.tensor_sum(la.relu(t)), x)
    check(lambda t: la.tensor_sum(la.absolute(t)), x)


def test_grad_concat_stack():
    rng = np.random.default_rng(15)
    a = rand(rng, 2, 3)
    b = rand(rng, 2, 2)
    check(lambda t: la.tensor_sum(la.mul(la.concat([t, b]), la.concat([t, b]))), a)
    check(lambda t: la.tensor_sum(la.mul(la.stack([t, t]), la.stack([t, t]))), a)


def test_grad_reshape_permute():
    rng = np.random.default_rng(16)
    a = rand(rng, 2, 6)
    check(lambda t: la.tensor_sum(la.mul(la.reshape(t, (3, 4)), la.reshape(t, (3, 4)))), a)
    check(lambda t: la.tensor_sum(la.mul(la.permute(t, (1, 0)), la.permute(t, (1, 0)))), a)


def test_grad_reductions():
    rng = np.random.default_rng(17)
    a = rand(rng, 3, 4)
    check(lambda t: la.mul(la.tensor_sum(t), la.tensor_sum(t)), a)
    check(lambda t: la.tensor_sum(la.mul(la.tensor_sum(t, axis=1), la.tensor_sum(t, axis=1))), a)


def test_grad_softmax_rows():
    rng = np.random.default_rng(18)
    a = rand(rng, 4, 5)
    w = Tensor(rng.standard_normal((4, 5)))
    check(lambda t: la.tensor_sum(la.mul(la.softmax_rows(t), w)), a)


def test_grad_layer_norm_all_inputs():
    rng = np.random.default_rng(19)
    x = rand(rng, 4, 6)
    gain = Tensor(rng.standard_normal(6), requires_grad=True)
    bias = Tensor(rng.standard_normal(6), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 6)))
    check(lambda t: la.tensor_sum(la.mul(la.layer_norm(t, gain, bias), w)), x)
    check(lambda t: la.tensor_sum(la.mul(la.layer_norm(x, t, bias), w)), gain)
    check(lambda t: la.tensor_sum(la.mul(la.layer_norm(x, gain, t), w)), bias)


def test_grad_dilated_conv2d_all_inputs():
    rng = np.random.default_rng(23)
    x = rand(rng, 5, 4)
    kernel = rand(rng, 3, 3)
    w = Tensor(rng.standard_normal((5, 4)))
    check(lambda t: la.tensor_sum(la.mul(la.dilated_conv2d(t, kernel, 2), w)), x)
    check(lambda t: la.tensor_sum(la.mul(la.dilated_conv2d(x, t, 2), w)), kernel)
    # a constant grid sends gradient to the kernel only
    grid = Tensor(x.data)
    check(lambda t: la.tensor_sum(la.mul(la.dilated_conv2d(grid, t, 2), w)), kernel)
    with Tape() as tape:
        loss = la.tensor_sum(la.dilated_conv2d(grid, kernel, 2))
    kernel.grad = None
    tape.backward(loss)
    assert grid.grad is None and kernel.grad is not None


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(20)
    a = rand(rng, 4, 4)
    # freeze the mask by reseeding inside f so both evaluations agree
    check(lambda t: la.tensor_sum(
        la.mul(la.dropout(t, 0.4, rng=np.random.default_rng(9), train=True), t)
    ), a)


def test_grad_random_compositions():
    rng = np.random.default_rng(21)
    for trial in range(10):
        a = rand(rng, 3, 4)
        b = rand(rng, 4, 3)

        def f(t):
            y = la.matmul(t, b)                      # (3, 3)
            y = la.add(y, la.transpose(y))
            y = la.softmax_rows(y)
            return la.tensor_sum(la.mul(y, la.matmul(t, b)))

        check(f, a)


# ---------------------------------------------------------------------------
# grad_check machinery itself


def test_grad_check_report_fields():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    report = la.grad_check(lambda t: la.tensor_sum(la.mul(t, t)), x)
    assert report.passed
    assert report.tol == 1e-5
    assert isinstance(report.worst_index, tuple)


def test_grad_check_rejects_plain_tensor():
    with pytest.raises(la.ContractError):
        la.grad_check(lambda t: la.tensor_sum(t), Tensor(np.ones(3)))


def test_grad_check_rejects_vector_output():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(la.ContractError):
        la.grad_check(lambda t: la.scale(t, 2.0), x)


def test_grad_check_flags_wrong_gradient():
    # an op whose recorded rule is deliberately off by a factor of two
    def broken_double(t):
        return la._emit(t.data * 2.0, (t,), lambda g: (g * 4.0,), "broken")

    x = Tensor(np.array([0.7, -1.3]), requires_grad=True)
    report = la.grad_check(lambda t: la.tensor_sum(broken_double(t)), x)
    assert not report.passed
    assert report.max_rel_error > 0.1


def test_grad_check_params_covers_every_parameter():
    rng = np.random.default_rng(22)
    w1 = rand(rng, 3, 3)
    w2 = rand(rng, 3, 1)
    x = Tensor(rng.standard_normal((2, 3)))

    def loss():
        return la.tensor_sum(la.matmul(la.relu(la.matmul(x, w1)), w2))

    reports = la.grad_check_params(loss, [("w1", w1), ("w2", w2)])
    assert set(reports) == {"w1", "w2"}
    assert all(r.passed for r in reports.values())


# ---------------------------------------------------------------------------
# batched forms: bit for bit equal to per-sample ops joined by ``stack``


def assert_batch_matches_samples(op, batched, shared):
    """``op`` on a batch equals ``op`` per sample, forward and every gradient, bit for bit.

    ``op`` takes the tensors of ``batched`` (arrays with a leading batch axis)
    followed by those of ``shared`` (arrays without one).  The per-sample side
    runs one ``op`` per sample on one tape and joins them with ``stack``, so
    shared operands accumulate their gradient last sample first.
    """
    batch = batched[0].shape[0]
    whole = [Tensor(x.copy(), requires_grad=True) for x in batched]
    params = [Tensor(p.copy(), requires_grad=True) for p in shared]
    with Tape() as tape:
        out = op(*whole, *params)
        weights = Tensor(np.random.default_rng(0).standard_normal(out.shape))
        loss = la.tensor_sum(la.mul(out, weights))
    tape.backward(loss)
    shared_grads = [p.grad for p in params]

    la.zero_grads(params)
    samples = [[Tensor(x[i].copy(), requires_grad=True) for x in batched] for i in range(batch)]
    with Tape() as tape:
        stacked = la.stack([op(*sample, *params) for sample in samples])
        loss = la.tensor_sum(la.mul(stacked, weights))
    tape.backward(loss)

    np.testing.assert_array_equal(out.data, stacked.data)
    for j, t in enumerate(whole):
        np.testing.assert_array_equal(t.grad, np.stack([sample[j].grad for sample in samples]))
    for p, grad in zip(params, shared_grads):
        np.testing.assert_array_equal(grad, p.grad)


BATCHES = (1, 3, 9, 33)


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_matmul_with_shared_right_operand(batch):
    rng = np.random.default_rng(30 + batch)
    for n, k, m in ((17, 8, 3), (17, 6, 8), (17, 486, 3), (17, 486, 64), (17, 128, 3), (17, 8, 1)):
        x = rng.standard_normal((batch, n, k))
        w = rng.standard_normal((k, m))
        assert_batch_matches_samples(la.matmul, [x], [w])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_matmul_with_shared_left_operand(batch):
    rng = np.random.default_rng(40 + batch)
    for n, k in ((17, 8), (17, 486), (5, 1)):
        a = rng.standard_normal((n, n))
        h = rng.standard_normal((batch, n, k))
        assert_batch_matches_samples(lambda h, a: la.matmul(a, h), [h], [a])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_matmul_of_two_batches(batch):
    rng = np.random.default_rng(50 + batch)
    for n, d in ((17, 4), (17, 64)):
        q = rng.standard_normal((batch, n, d))
        k = rng.standard_normal((batch, n, d))
        assert_batch_matches_samples(lambda q, k: la.matmul(q, la.transpose(k)), [q, k], [])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_bias_add(batch):
    rng = np.random.default_rng(60 + batch)
    for width in (1, 3, 8):
        x = rng.standard_normal((batch, 17, width))
        bias = rng.standard_normal(width)
        assert_batch_matches_samples(la.add, [x], [bias])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_softmax_and_layer_norm(batch):
    rng = np.random.default_rng(70 + batch)
    scores = rng.standard_normal((batch, 17, 17))
    assert_batch_matches_samples(la.softmax_rows, [scores], [])
    for width in (1, 8, 128):
        x = rng.standard_normal((batch, 17, width))
        gain = rng.standard_normal(width)
        bias = rng.standard_normal(width)
        assert_batch_matches_samples(la.layer_norm, [x], [gain, bias])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_dilated_conv2d(batch):
    rng = np.random.default_rng(80 + batch)
    for taps, dilation, shape in ((3, 2, (17, 8)), (1, 2, (17, 8)), (5, 3, (4, 6)), (3, 3, (2, 3))):
        x = rng.standard_normal((batch,) + shape)
        kernel = rng.standard_normal((taps, taps))
        assert_batch_matches_samples(
            lambda x, kernel: la.dilated_conv2d(x, kernel, dilation), [x], [kernel]
        )


def test_batched_shape_errors():
    with pytest.raises(la.ShapeError):
        la.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(la.ShapeError):
        la.matmul(Tensor(np.zeros((1, 2, 3, 4))), Tensor(np.zeros((4, 5))))
    with pytest.raises(la.ShapeError):
        la.layer_norm(Tensor(np.zeros((1, 2, 3, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(la.ShapeError):
        la.dilated_conv2d(Tensor(np.zeros((1, 2, 3, 4))), Tensor(np.zeros((3, 3))), 1)
