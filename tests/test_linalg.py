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
# batched forms: per-sample ops joined by ``stack``, within a tolerance

# A batched product folds its samples into one GEMM, and a shared operand's
# gradient is one reduction over the batch, so the batch sums in another
# order than per-sample ops do.  The bound scales with each array's largest
# magnitude, not with each element: near-zero gradient entries move by far
# more than 1e-12 of themselves.
BATCH_TOL = 1e-12


def assert_close_at_scale(actual, expected, err_msg=""):
    """``actual`` equals ``expected`` within ``BATCH_TOL`` of its largest magnitude."""
    atol = BATCH_TOL * np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=atol, err_msg=err_msg)


def assert_batch_close_to_samples(op, batched, shared):
    """``op`` on a batch matches ``op`` per sample, forward and every gradient.

    ``op`` takes the tensors of ``batched`` (arrays with a leading batch axis)
    followed by those of ``shared`` (arrays without one).  The per-sample side
    runs one ``op`` per sample on one tape and joins them with ``stack``.
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

    assert_close_at_scale(out.data, stacked.data)
    for j, t in enumerate(whole):
        assert_close_at_scale(t.grad, np.stack([sample[j].grad for sample in samples]))
    for p, grad in zip(params, shared_grads):
        assert_close_at_scale(grad, p.grad)


BATCHES = (1, 3, 9, 33)


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_matmul_with_shared_right_operand(batch):
    rng = np.random.default_rng(30 + batch)
    for n, k, m in ((17, 8, 3), (17, 6, 8), (17, 486, 3), (17, 486, 64), (17, 128, 3), (17, 8, 1)):
        x = rng.standard_normal((batch, n, k))
        w = rng.standard_normal((k, m))
        assert_batch_close_to_samples(la.matmul, [x], [w])


@pytest.mark.parametrize("batch", (3, 33))
def test_shared_right_operand_is_one_gemm_over_the_folded_rows(batch):
    """Forward and both gradients are exactly the 2-d GEMMs over all B*n rows."""
    rng = np.random.default_rng(90 + batch)
    for n, k, m in ((17, 8, 3), (17, 486, 64), (17, 128, 128)):
        x = rand(rng, batch, n, k)
        w = rand(rng, k, m)
        g = rng.standard_normal((batch, n, m))
        with Tape() as tape:
            out = la.matmul(x, w)
            loss = la.tensor_sum(la.mul(out, Tensor(g)))
        tape.backward(loss)
        rows, g_rows = x.data.reshape(batch * n, k), g.reshape(batch * n, m)
        np.testing.assert_array_equal(out.data, (rows @ w.data).reshape(batch, n, m))
        np.testing.assert_array_equal(x.grad, (g_rows @ w.data.T).reshape(batch, n, k))
        np.testing.assert_array_equal(w.grad, rows.T @ g_rows)


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_matmul_with_shared_left_operand(batch):
    rng = np.random.default_rng(40 + batch)
    for n, k in ((17, 8), (17, 486), (5, 1)):
        a = rng.standard_normal((n, n))
        h = rng.standard_normal((batch, n, k))
        assert_batch_close_to_samples(lambda h, a: la.matmul(a, h), [h], [a])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_matmul_of_two_batches(batch):
    rng = np.random.default_rng(50 + batch)
    for n, d in ((17, 4), (17, 64)):
        q = rng.standard_normal((batch, n, d))
        k = rng.standard_normal((batch, n, d))
        assert_batch_close_to_samples(lambda q, k: la.matmul(q, la.transpose(k)), [q, k], [])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_bias_add(batch):
    rng = np.random.default_rng(60 + batch)
    for width in (1, 3, 8):
        x = rng.standard_normal((batch, 17, width))
        bias = rng.standard_normal(width)
        assert_batch_close_to_samples(la.add, [x], [bias])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_softmax_and_layer_norm(batch):
    rng = np.random.default_rng(70 + batch)
    scores = rng.standard_normal((batch, 17, 17))
    assert_batch_close_to_samples(la.softmax_rows, [scores], [])
    for width in (1, 8, 128):
        x = rng.standard_normal((batch, 17, width))
        gain = rng.standard_normal(width)
        bias = rng.standard_normal(width)
        assert_batch_close_to_samples(la.layer_norm, [x], [gain, bias])


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_dilated_conv2d(batch):
    rng = np.random.default_rng(80 + batch)
    for taps, dilation, shape in ((3, 2, (17, 8)), (1, 2, (17, 8)), (5, 3, (4, 6)), (3, 3, (2, 3))):
        x = rng.standard_normal((batch,) + shape)
        kernel = rng.standard_normal((taps, taps))
        assert_batch_close_to_samples(
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


# ---------------------------------------------------------------------------
# fused layers: one tape record each, bit for bit the primitive composition


def graph_conv_composition(h, adjacencies, weights, bias=None, relu=False):
    """``la.graph_conv`` written with the primitives it replaces."""
    out = None
    for a, w in zip(adjacencies, weights):
        term = la.matmul(la.matmul(a, h), w)
        out = term if out is None else la.add(out, term)
    if bias is not None:
        out = la.add(out, bias)
    return la.relu(out) if relu else out


def self_attention_composition(x, wq, wk, wv, wo, factor):
    """``la.self_attention`` written with the primitives it replaces."""
    outputs = []
    for w_q, w_k, w_v in zip(wq, wk, wv):
        q, k, v = la.matmul(x, w_q), la.matmul(x, w_k), la.matmul(x, w_v)
        scores = la.scale(la.matmul(q, la.transpose(k)), factor)
        outputs.append(la.matmul(la.softmax_rows(scores), v))
    return la.matmul(la.concat(outputs), wo)


def assert_bits_equal(actual, expected, err_msg=""):
    """Same shape and the same float64 bytes, so signed zeros count too."""
    assert actual.shape == expected.shape, err_msg
    assert actual.tobytes() == expected.tobytes(), err_msg


def leaves_of(arrays, trainable):
    """Fresh tensors for ``arrays`` (lists of arrays allowed), one flag per entry."""

    def build(item, grad):
        if isinstance(item, list):
            return [build(a, grad) for a in item]
        return None if item is None else Tensor(item.copy(), requires_grad=grad)

    return [build(a, g) for a, g in zip(arrays, trainable)]


def flat_leaves(leaves):
    for leaf in leaves:
        yield from (leaf if isinstance(leaf, list) else [leaf])


def assert_fused_matches_composition(fused, composition, arrays, trainable, seed=0):
    """``fused`` and ``composition`` agree bit for bit, forward and every gradient.

    Both are called as ``op(x, *rest)`` on tensors built from ``arrays``, with
    one requires-grad flag per entry of ``trainable``.  A trainable ``x``
    reaches the op through a scale that also feeds the loss directly, so its
    gradients from the op add to one already pending on the tape, in the
    order the composition adds them.  The fused op writes one tape record.
    """
    rng = np.random.default_rng(seed)
    sides = []
    for op in (fused, composition):
        leaves = leaves_of(arrays, trainable)
        with Tape() as tape:
            x = la.scale(leaves[0], 1.5) if trainable[0] else leaves[0]
            before = len(tape)
            out = op(x, *leaves[1:])
            records = len(tape) - before
            if not sides:
                weights = rng.standard_normal(out.shape)
                x_weights = rng.standard_normal(x.shape)
            loss = la.tensor_sum(la.mul(out, Tensor(weights)))
            if trainable[0]:
                loss = la.add(loss, la.tensor_sum(la.mul(x, Tensor(x_weights))))
        tape.backward(loss)
        sides.append((out.data, [t.grad for t in flat_leaves(leaves) if t is not None], records))
    (out, grads, records), (ref_out, ref_grads, _) = sides
    assert records == 1
    assert_bits_equal(out, ref_out, "forward")
    for i, (grad, ref) in enumerate(zip(grads, ref_grads)):
        if ref is None:
            assert grad is None, f"leaf {i}"
        else:
            assert_bits_equal(grad, ref, f"gradient of leaf {i}")


LEADS = ((), (1,), (3,), (9,), (33,))


def lead_id(lead):
    return f"B{lead[0]}" if lead else "2d"


@pytest.mark.parametrize("lead", LEADS, ids=lead_id)
@pytest.mark.parametrize("hops", (0, 1, 2))
@pytest.mark.parametrize("relu", (True, False), ids=("relu", "identity"))
def test_graph_conv_is_the_composition_bit_for_bit(lead, hops, relu):
    rng = np.random.default_rng(100 + 10 * hops + len(lead) + 5 * relu)
    n, f_in, f_out = 17, 8, 6
    h = rng.standard_normal(lead + (n, f_in))
    adjacencies = [rng.standard_normal((n, n)) for _ in range(hops + 1)]
    weights = [rng.standard_normal((f_in, f_out)) for _ in range(hops + 1)]
    bias = rng.standard_normal(f_out)
    for with_bias in (True, False):
        for trains_h in (True, False):
            assert_fused_matches_composition(
                lambda h, a, w, b: la.graph_conv(h, a, w, b, relu=relu),
                lambda h, a, w, b: graph_conv_composition(h, a, w, b, relu=relu),
                [h, adjacencies, weights, bias if with_bias else None],
                [trains_h, False, True, True],
            )


@pytest.mark.parametrize("lead", LEADS, ids=lead_id)
def test_graph_conv_with_a_trainable_adjacency_is_the_composition(lead):
    rng = np.random.default_rng(150 + len(lead))
    h = rng.standard_normal(lead + (17, 8))
    adjacency = rng.standard_normal((17, 17))
    weight = rng.standard_normal((8, 8))
    for trainable in ([True, True, True], [False, True, False], [True, False, True]):
        assert_fused_matches_composition(
            lambda h, a, w: la.graph_conv(h, a, w, relu=True),
            lambda h, a, w: graph_conv_composition(h, a, w, relu=True),
            [h, [adjacency], [weight]],
            trainable,
        )


@pytest.mark.parametrize("lead", LEADS, ids=lead_id)
@pytest.mark.parametrize("heads", (1, 2, 4))
def test_self_attention_is_the_composition_bit_for_bit(lead, heads):
    rng = np.random.default_rng(200 + 10 * heads + len(lead))
    width, dim = 8, 8 // heads
    x = rng.standard_normal(lead + (17, width))
    wq, wk, wv = ([rng.standard_normal((width, dim)) for _ in range(heads)] for _ in range(3))
    wo = rng.standard_normal((width, width))
    factor = 1.0 / np.sqrt(dim)
    for trainable in ([True] * 5, [False] + [True] * 4, [True] + [False] * 4):
        assert_fused_matches_composition(
            lambda *args: la.self_attention(*args, factor),
            lambda *args: self_attention_composition(*args, factor),
            [x, wq, wk, wv, wo],
            trainable,
        )


def test_fused_layers_record_nothing_without_a_tape():
    rng = np.random.default_rng(250)
    x = rand(rng, 3, 17, 8)
    w = [rand(rng, 8, 4) for _ in range(6)]
    out = la.self_attention(x, w[:2], w[2:4], w[4:], rand(rng, 8, 8), 0.5)
    assert out.requires_grad and out._tape is None
    out = la.graph_conv(x, [Tensor(np.eye(17))], [rand(rng, 8, 8)], relu=True)
    assert out.requires_grad and out._tape is None


def test_fused_layer_shape_errors():
    h = Tensor(np.zeros((17, 8)))
    with pytest.raises(la.ShapeError):
        la.graph_conv(h, [np.eye(17)], [])
    with pytest.raises(la.ShapeError):
        la.graph_conv(h, [np.eye(16)], [np.zeros((8, 4))])
    with pytest.raises(la.ShapeError):
        la.graph_conv(h, [np.eye(17), np.eye(17)], [np.zeros((8, 4)), np.zeros((8, 3))])
    with pytest.raises(la.ShapeError):
        la.graph_conv(h, [np.eye(17)], [np.zeros((8, 4))], bias=np.zeros(3))
    with pytest.raises(la.ShapeError):
        la.graph_conv(Tensor(np.zeros((1, 1, 17, 8))), [np.eye(17)], [np.zeros((8, 4))])
    w = np.zeros((8, 4))
    with pytest.raises(la.ShapeError):
        la.self_attention(h, [w], [w], [], np.zeros((4, 8)), 1.0)
    with pytest.raises(la.ShapeError):
        la.self_attention(h, [w], [w], [np.zeros((8, 3))], np.zeros((4, 8)), 1.0)
    with pytest.raises(la.ShapeError):
        la.self_attention(h, [w], [w], [w], np.zeros((8, 8)), 1.0)


def conv_on_tape(x, kernel, dilation, g):
    """``dilated_conv2d`` forward, and its input and kernel gradients for output gradient ``g``."""
    x, kernel = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)
    with Tape() as tape:
        out = la.dilated_conv2d(x, kernel, dilation)
        loss = la.tensor_sum(la.mul(out, Tensor(g)))
    tape.backward(loss)
    return out.data, x.grad, kernel.grad


CONV_CASES = (((64, 17, 256), 3, 2), ((7, 17, 8), 3, 2), ((130, 130), 5, 3))


def test_dilated_conv2d_is_the_per_tap_sum_within_tolerance():
    # the per-tap sum over shifted windows of the padded grid, forward and
    # both gradients, agrees with the banded products to 1e-12 of scale
    rng = np.random.default_rng(260)
    for shape, taps, dilation in CONV_CASES:
        x = rng.standard_normal(shape)
        x[..., 0, 0] = -0.0
        kernel = rng.standard_normal((taps, taps))
        g = rng.standard_normal(shape)
        rows, cols = shape[-2:]
        pad = dilation * (taps // 2)
        padded = np.zeros(shape[:-2] + (rows + 2 * pad, cols + 2 * pad))
        padded[..., pad : pad + rows, pad : pad + cols] = x
        expected = np.zeros(shape)
        d_padded = np.zeros_like(padded)
        d_kernel = np.zeros((taps, taps))
        for r in range(taps):
            for s in range(taps):
                window = np.s_[..., dilation * r : dilation * r + rows, dilation * s : dilation * s + cols]
                expected += kernel[r, s] * padded[window]
                d_padded[window] += kernel[r, s] * g
                d_kernel[r, s] = np.sum(g * padded[window])
        out, d_x, d_k = conv_on_tape(x, kernel, dilation, g)
        assert out.shape == d_x.shape == shape and d_k.shape == (taps, taps)
        assert_close_at_scale(out, expected, f"forward {shape}")
        assert_close_at_scale(d_x, d_padded[..., pad : pad + rows, pad : pad + cols], f"input {shape}")
        assert_close_at_scale(d_k, d_kernel, f"kernel {shape}")


def test_dilated_conv2d_is_the_band_times_the_column_stack_bit_for_bit():
    rng = np.random.default_rng(261)
    for shape, taps, dilation in CONV_CASES + (((5, 2, 3), 3, 3), ((4, 17, 8), 1, 2)):
        x = rng.standard_normal(shape)
        kernel = rng.standard_normal((taps, taps))
        g = rng.standard_normal(shape)
        rows, cols = shape[-2:]
        grids, g3 = x.reshape(-1, rows, cols), g.reshape(-1, rows, cols)
        shifts = [dilation * (t - taps // 2) for t in range(taps)]
        # block s of the band mixes rows, block s of the stack shifts columns
        band = np.concatenate(
            [sum(kernel[r, s] * np.eye(rows, k=shifts[r]) for r in range(taps)) for s in range(taps)],
            axis=1,
        )
        reach = max(shifts)
        wide = np.pad(grids, ((0, 0), (0, 0), (reach, reach)))
        stack = np.concatenate([wide[..., reach + d : reach + d + cols] for d in shifts], axis=1)
        d_stack = np.matmul(band.T, g3)
        d_x = np.zeros(grids.shape)
        d_kernel = np.zeros((taps, taps))
        for s, d in enumerate(shifts):
            # output columns lo:hi read input columns lo + d : hi + d
            lo, hi = max(0, -d), min(cols, cols - d)
            if lo >= hi:
                continue
            d_x[..., lo + d : hi + d] += d_stack[:, s * rows : (s + 1) * rows, lo:hi]
            block = np.matmul(g3[..., lo:hi], grids[..., lo + d : hi + d].transpose(0, 2, 1)).sum(axis=0)
            for r in range(taps):
                acc = 0.0
                for i in range(max(0, -shifts[r]), min(rows, rows - shifts[r])):
                    acc += block[i, i + shifts[r]]
                d_kernel[r, s] = acc
        out, d_a, d_k = conv_on_tape(x, kernel, dilation, g)
        assert_bits_equal(out, np.matmul(band, stack).reshape(shape), f"forward {shape}")
        assert_bits_equal(d_a, d_x.reshape(shape), f"input {shape}")
        assert_bits_equal(d_k, d_kernel, f"kernel {shape}")
