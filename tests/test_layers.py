"""Layers against brute-force reference forwards and finite differences."""
import numpy as np
import pytest

import mgtnet.linalg as la
from mgtnet.layers import (
    ConfigurationError,
    DilatedConvLayer,
    HighOrderGConvLayer,
    LamGConvLayer,
    LayerNorm,
    MultiHeadSelfAttention,
    MultiHopGConvLayer,
    glorot,
)
from mgtnet.linalg import Tensor
from mgtnet.skeleton import disentangled_adjacencies, human36m_skeleton, normalize_adjacency


# ---------------------------------------------------------------------------
# reference implementations, written as plainly as possible


def multi_hop_reference(adjacencies, h, weights, bias, relu):
    """Entry-by-entry loops; no vectorized matmul shortcuts."""
    n, f_in = h.shape
    f_out = weights[0].shape[1]
    out = np.zeros((n, f_out))
    for k, (a, w) in enumerate(zip(adjacencies, weights)):
        for j in range(n):
            for i in range(n):
                if a[j, i] == 0.0:
                    continue
                for c in range(f_out):
                    for d in range(f_in):
                        out[j, c] += a[j, i] * h[i, d] * w[d, c]
    out = out + bias
    if relu:
        out = np.maximum(out, 0.0)
    return out


def msa_reference(x, w_q, w_k, w_v, w_out):
    """Per-head attention with explicit softmax, then concat and mix."""
    heads = []
    d_k = w_q[0].shape[1]
    for wq, wk, wv in zip(w_q, w_k, w_v):
        q = x @ wq
        k = x @ wk
        v = x @ wv
        scores = q @ k.T / np.sqrt(d_k)
        scores = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights = weights / weights.sum(axis=1, keepdims=True)
        heads.append(weights @ v)
    return np.concatenate(heads, axis=1) @ w_out


def dilated_conv_reference(x, kernel, dilation):
    """Direct double loop over output cells and kernel taps with zero padding."""
    rows, cols = x.shape
    taps = kernel.shape[0]
    m = (taps - 1) // 2
    out = np.zeros_like(x)
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for r in range(-m, m + 1):
                for s in range(-m, m + 1):
                    ii = i + dilation * r
                    jj = j + dilation * s
                    if 0 <= ii < rows and 0 <= jj < cols:
                        acc += kernel[r + m, s + m] * x[ii, jj]
            out[i, j] = acc
    return out


def body_adjacencies(max_hop=2):
    return disentangled_adjacencies(human36m_skeleton(), max_hop)


# ---------------------------------------------------------------------------
# glorot


def test_glorot_bounds_and_determinism():
    sample = glorot(np.random.default_rng(7), 30, 50, (30, 50))
    bound = np.sqrt(6.0 / 80.0)
    assert np.abs(sample).max() <= bound
    assert sample.std() > bound / 4  # actually spread out, not collapsed
    again = glorot(np.random.default_rng(7), 30, 50, (30, 50))
    np.testing.assert_array_equal(sample, again)


# ---------------------------------------------------------------------------
# multi-hop graph convolution; with one adjacency it is the plain A @ H @ W + b


def test_gconv_forward_matches_dense_formula():
    rng = np.random.default_rng(1)
    a = normalize_adjacency(np.ones((4, 4)))
    layer = MultiHopGConvLayer([a], 5, 3, rng, relu=False)
    h = rng.standard_normal((4, 5))
    out = layer(Tensor(h))
    expected = a @ h @ layer.weights[0].data + layer.bias.data
    np.testing.assert_allclose(out.data, expected, atol=1e-14)


def test_gconv_rejects_wrong_input_shape():
    layer = MultiHopGConvLayer([np.eye(4)], 5, 3, np.random.default_rng(2))
    with pytest.raises(la.ShapeError):
        layer(Tensor(np.zeros((4, 6))))
    with pytest.raises(la.ShapeError):
        layer(Tensor(np.zeros((3, 5))))
    with pytest.raises(ConfigurationError):
        MultiHopGConvLayer([np.zeros((3, 4))], 5, 3, np.random.default_rng(2))


def test_multi_hop_forward_matches_brute_force():
    rng = np.random.default_rng(3)
    mats = body_adjacencies(2)
    for relu in (False, True):
        for trial in range(5):
            layer = MultiHopGConvLayer(mats, 6, 4, rng, relu=relu)
            h = rng.standard_normal((17, 6))
            expected = multi_hop_reference(
                [m.data for m in layer.adjacencies],
                h,
                [w.data for w in layer.weights],
                layer.bias.data,
                relu,
            )
            np.testing.assert_allclose(layer(Tensor(h)).data, expected, atol=1e-12)


def test_multi_hop_parameter_names():
    layer = MultiHopGConvLayer(body_adjacencies(2), 6, 4, np.random.default_rng(4))
    assert [name for name, _ in layer.parameters()] == ["w0", "w1", "w2", "b"]
    assert layer.max_hop == 2
    one_hop = MultiHopGConvLayer(body_adjacencies(1), 6, 4, np.random.default_rng(4))
    assert [name for name, _ in one_hop.parameters()] == ["w0", "w1", "b"]
    # the K+1 hop terms feed one sum, so Glorot uses the fan-in (K+1) * f_in
    for hop_layer in (layer, one_hop):
        bound = np.sqrt(6.0 / ((hop_layer.max_hop + 1) * 6 + 4))
        for w in hop_layer.weights:
            assert np.abs(w.data).max() <= bound


def test_multi_hop_config_errors():
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigurationError):
        MultiHopGConvLayer([], 4, 4, rng)
    with pytest.raises(ConfigurationError):
        MultiHopGConvLayer([np.eye(3), np.eye(4)], 4, 4, rng)


def test_multi_hop_gradients():
    rng = np.random.default_rng(6)
    layer = MultiHopGConvLayer(body_adjacencies(2), 3, 2, rng)
    h = rng.standard_normal((17, 3))
    target = rng.standard_normal((17, 2))

    def loss():
        d = la.sub(layer(Tensor(h)), target)
        return la.tensor_sum(la.mul(d, d))

    reports = la.grad_check_params(loss, layer.parameters(), tol=1e-5)
    for name, report in reports.items():
        assert report.passed, f"{name}: {report.max_rel_error:.3e}"


def test_high_order_uses_adjacency_powers():
    rng = np.random.default_rng(7)
    base = normalize_adjacency(human36m_skeleton().adjacency() + np.eye(17))
    layer = HighOrderGConvLayer(base, 2, 4, 4, rng, relu=False)
    np.testing.assert_allclose(layer.adjacencies[0].data, np.eye(17))
    np.testing.assert_allclose(layer.adjacencies[1].data, base)
    np.testing.assert_allclose(layer.adjacencies[2].data, base @ base)
    with pytest.raises(ConfigurationError):
        HighOrderGConvLayer(base, -1, 4, 4, rng)


def test_high_order_differs_from_multi_hop_beyond_one_hop():
    # powers reuse 1-hop pairs at k=2; the hop-2 matrix excludes them
    rng = np.random.default_rng(8)
    mats = body_adjacencies(2)
    base = normalize_adjacency(human36m_skeleton().adjacency() + np.eye(17))
    high = HighOrderGConvLayer(base, 2, 3, 3, rng, relu=False)
    multi = MultiHopGConvLayer(mats, 3, 3, rng, relu=False)
    for w_high, w_multi in zip(high.weights, multi.weights):
        w_multi.data = w_high.data.copy()
    multi.bias.data = high.bias.data.copy()
    h = rng.standard_normal((17, 3))
    assert np.abs(high(Tensor(h)).data - multi(Tensor(h)).data).max() > 1e-3


# ---------------------------------------------------------------------------
# trainable-adjacency convolution


def test_lam_gconv_forward_and_adjacency_gradient():
    rng = np.random.default_rng(9)
    init = normalize_adjacency(human36m_skeleton().adjacency() + np.eye(17))
    layer = LamGConvLayer(init, 4, rng)
    np.testing.assert_array_equal(layer.adjacency.data, init)
    assert layer.adjacency.requires_grad
    h = rng.standard_normal((17, 4))
    expected = np.maximum(init @ h @ layer.weight.data, 0.0)
    np.testing.assert_allclose(layer(Tensor(h)).data, expected, atol=1e-13)
    assert [name for name, _ in layer.parameters()] == ["adj", "w"]

    def loss():
        return la.tensor_sum(la.mul(layer(Tensor(h)), layer(Tensor(h))))

    reports = la.grad_check_params(loss, layer.parameters(), tol=1e-5)
    assert all(r.passed for r in reports.values())
    # the adjacency itself accumulates gradient, so training can move it
    layer.adjacency.grad = None
    with la.Tape() as tape:
        value = loss()
    tape.backward(value)
    assert np.abs(layer.adjacency.grad).max() > 0


def test_lam_gconv_shape_errors():
    rng = np.random.default_rng(10)
    with pytest.raises(ConfigurationError):
        LamGConvLayer(np.zeros((3, 4)), 4, rng)
    layer = LamGConvLayer(np.eye(4), 5, rng)
    with pytest.raises(la.ShapeError):
        layer(Tensor(np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# multi-head self-attention


def test_msa_forward_matches_reference():
    rng = np.random.default_rng(11)
    for trial in range(5):
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


def test_msa_head_configuration():
    rng = np.random.default_rng(12)
    layer = MultiHeadSelfAttention(8, 4, rng)
    assert layer.head_dim == 2
    assert len(layer.parameters()) == 4 * 3 + 1
    names = [name for name, _ in layer.parameters()]
    assert names[0] == "wq0" and names[-1] == "wo"
    with pytest.raises(ConfigurationError):
        MultiHeadSelfAttention(8, 3, rng)
    with pytest.raises(ConfigurationError):
        MultiHeadSelfAttention(8, 0, rng)
    with pytest.raises(la.ShapeError):
        layer(Tensor(np.zeros((4, 6))))


def test_msa_permutation_equivariance():
    # no positional encoding, so shuffling rows shuffles outputs identically
    rng = np.random.default_rng(13)
    layer = MultiHeadSelfAttention(6, 3, rng)
    x = rng.standard_normal((9, 6))
    perm = rng.permutation(9)
    out = layer(Tensor(x)).data
    out_permuted = layer(Tensor(x[perm])).data
    np.testing.assert_allclose(out_permuted, out[perm], atol=1e-12)


def test_msa_gradients():
    rng = np.random.default_rng(14)
    layer = MultiHeadSelfAttention(4, 2, rng)
    x = rng.standard_normal((5, 4))

    def loss():
        out = layer(Tensor(x))
        return la.tensor_sum(la.mul(out, out))

    reports = la.grad_check_params(loss, layer.parameters(), tol=1e-5)
    for name, report in reports.items():
        assert report.passed, f"{name}: {report.max_rel_error:.3e}"


def test_msa_rows_mix_information():
    rng = np.random.default_rng(15)
    layer = MultiHeadSelfAttention(4, 2, rng)
    x = rng.standard_normal((5, 4))
    bumped = x.copy()
    bumped[0] += 1.0
    delta = layer(Tensor(bumped)).data - layer(Tensor(x)).data
    assert np.abs(delta[1:]).max() > 1e-6  # other rows feel the change


# ---------------------------------------------------------------------------
# dilated convolution


def test_dilated_conv_matches_reference():
    rng = np.random.default_rng(16)
    # the 2 x 3 grid is smaller than the dilation reach, so some views lie
    # entirely in the zero padding
    for half_width, dilation, shape in ((1, 1, (7, 9)), (1, 2, (7, 9)), (2, 3, (7, 9)), (1, 3, (2, 3))):
        for trial in range(3):
            layer = DilatedConvLayer(rng, half_width, dilation)
            x = rng.standard_normal(shape)
            expected = dilated_conv_reference(x, layer.kernel.data, dilation)
            np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)


def test_dilated_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(17)
    layer = DilatedConvLayer(rng, 1, 2)
    layer.kernel.data = np.zeros((3, 3))
    layer.kernel.data[1, 1] = 1.0
    x = rng.standard_normal((5, 8))
    np.testing.assert_allclose(layer(Tensor(x)).data, x, atol=1e-14)
    layer.kernel.data = np.zeros((3, 3))
    np.testing.assert_allclose(layer(Tensor(x)).data, np.zeros_like(x))


def test_dilated_conv_preserves_shape_and_validates():
    rng = np.random.default_rng(18)
    layer = DilatedConvLayer(rng, 1, 2)
    assert layer(Tensor(np.zeros((17, 8)))).shape == (17, 8)
    with pytest.raises(la.ShapeError):
        layer(Tensor(np.zeros(5)))
    with pytest.raises(ConfigurationError):
        DilatedConvLayer(rng, -1, 2)
    with pytest.raises(ConfigurationError):
        DilatedConvLayer(rng, 1, 0)


def test_dilated_conv_gradients():
    rng = np.random.default_rng(19)
    for half_width, dilation, shape in ((1, 1, (4, 6)), (1, 2, (4, 6)), (2, 3, (4, 6)), (1, 3, (2, 3))):
        layer = DilatedConvLayer(rng, half_width, dilation)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)

        def f(t):
            out = layer(t)
            return la.tensor_sum(la.mul(out, out))

        assert la.grad_check(f, x).passed, (half_width, dilation, shape)
        reports = la.grad_check_params(lambda: f(x), layer.parameters())
        assert reports["kernel"].passed, (half_width, dilation, shape)


def test_dilated_conv_is_one_tape_record():
    rng = np.random.default_rng(21)
    layer = DilatedConvLayer(rng, 1, 2)
    x = Tensor(rng.standard_normal((17, 8)), requires_grad=True)
    with la.Tape() as tape:
        layer(x)
    assert len(tape) == 1


@pytest.mark.parametrize("lead", ((), (3,)), ids=("2d", "B3"))
def test_graph_and_attention_layers_are_one_tape_record(lead):
    rng = np.random.default_rng(22)
    one_hop = normalize_adjacency(human36m_skeleton().adjacency() + np.eye(17))
    layers = [
        MultiHopGConvLayer(body_adjacencies(2), 8, 8, rng),
        MultiHopGConvLayer(body_adjacencies(0), 8, 8, rng, relu=False),
        HighOrderGConvLayer(one_hop, 3, 8, 8, rng),
        LamGConvLayer(one_hop, 8, rng),
        MultiHeadSelfAttention(8, 4, rng),
    ]
    for layer in layers:
        x = Tensor(rng.standard_normal(lead + (17, 8)), requires_grad=True)
        with la.Tape() as tape:
            layer(x)
        assert len(tape) == 1, type(layer).__name__


# ---------------------------------------------------------------------------
# layer norm wrapper


def test_layer_norm_module():
    layer = LayerNorm(4)
    np.testing.assert_array_equal(layer.gain.data, np.ones(4))
    np.testing.assert_array_equal(layer.bias.data, np.zeros(4))
    x = np.random.default_rng(20).standard_normal((3, 4))
    out = layer(Tensor(x)).data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(3), atol=1e-12)
    assert [name for name, _ in layer.parameters()] == ["gain", "bias"]
