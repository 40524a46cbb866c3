"""Network assembly: config checks, wiring, parameter layout, checkpoints."""
import dataclasses
import hashlib
import json
import struct
import sys
import tracemalloc

import numpy as np
import pytest

import mgtnet.linalg as la
from mgtnet.cli import PRESETS, RunConfig
from mgtnet.layers import ConfigurationError
from mgtnet.linalg import Tape, Tensor
from mgtnet.model import (
    CheckpointError,
    MgtNet,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from mgtnet.skeleton import human36m_skeleton, skeleton_to_document
from mgtnet.training import AmsGrad, elastic_loss
from test_linalg import (
    assert_bits_equal,
    assert_close_at_scale,
    graph_conv_composition,
    self_attention_composition,
)

TOY = ModelConfig(
    n_joints=17, frames=3, hidden=8, depth=2, heads=2, max_hop=2, dropout=0.0
)


def toy_net(seed=0, **overrides):
    config = dataclasses.replace(TOY, **overrides) if overrides else TOY
    return MgtNet(config, human36m_skeleton(), seed=seed)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(n_joints=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(frames=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(hidden=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(depth=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(hidden=10, heads=4)  # not divisible
    with pytest.raises(ConfigurationError):
        ModelConfig(max_hop=-1)
    with pytest.raises(ConfigurationError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ConfigurationError):
        ModelConfig(dilation=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(gconv_mode="dense")


def test_config_skeleton_joint_mismatch():
    config = dataclasses.replace(TOY, n_joints=16)
    with pytest.raises(ConfigurationError):
        MgtNet(config, human36m_skeleton())


# ---------------------------------------------------------------------------
# forward pass


def test_forward_output_shape():
    net = toy_net()
    rng = np.random.default_rng(0)
    out = net.forward(rng.standard_normal((17, 2, 3)))
    assert out.shape == (17, 3)
    assert np.isfinite(out.data).all()


def test_forward_accepts_tensor_and_array():
    net = toy_net()
    x = np.random.default_rng(1).standard_normal((17, 2, 3))
    a = net.forward(x)
    b = net.forward(Tensor(x.copy()))
    np.testing.assert_array_equal(a.data, b.data)


def test_forward_rejects_wrong_shape():
    net = toy_net()
    bad_shapes = (
        (17, 2, 4), (16, 2, 3), (17, 3, 3),
        (4, 17, 2, 4), (4, 16, 2, 3), (2, 4, 17, 2, 3), (0, 17, 2, 3),
    )
    for bad in bad_shapes:
        with pytest.raises(la.ShapeError):
            net.forward(np.zeros(bad))
    assert net.forward(np.zeros((4, 17, 2, 3))).shape == (4, 17, 3)


def test_input_rows_interleave_xy_per_frame():
    # probe the embedding input: row j must read x(t0), y(t0), x(t1), y(t1), ...
    net = toy_net()
    captured = {}

    class Probe:
        def __call__(self, t):
            captured["flat"] = t.data.copy()
            return Tensor(np.zeros((17, 8)))

        def parameters(self):
            return []

    net.embedding = Probe()
    sample = np.zeros((17, 2, 3))
    for j in range(17):
        for c in range(2):
            for t in range(3):
                sample[j, c, t] = 100 * j + 10 * t + c
    net.forward(sample)
    np.testing.assert_array_equal(
        captured["flat"][5], [500.0, 501.0, 510.0, 511.0, 520.0, 521.0]
    )


def test_forward_is_deterministic_in_eval_mode():
    net = toy_net()
    x = np.random.default_rng(2).standard_normal((17, 2, 3))
    a = net.forward(x, train=False).data
    b = net.forward(x, train=False).data
    np.testing.assert_array_equal(a, b)


def test_construction_is_deterministic_in_seed():
    a = toy_net(seed=3)
    b = toy_net(seed=3)
    c = toy_net(seed=4)
    for (na, pa), (_, pb) in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)
    assert any(
        not np.array_equal(pa.data, pc.data)
        for (_, pa), (_, pc) in zip(a.parameters(), c.parameters())
    )


def test_permuting_frames_changes_output():
    # temporal order is encoded by position in the flattened row
    net = toy_net()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((17, 2, 3))
    swapped = x[:, :, [1, 0, 2]]
    a = net.forward(x).data
    b = net.forward(swapped).data
    assert np.abs(a - b).max() > 1e-8


def test_dropout_only_acts_in_train_mode():
    net = toy_net(dropout=0.5)
    x = np.random.default_rng(6).standard_normal((17, 2, 3))
    eval_out = net.forward(x, train=False).data
    np.testing.assert_array_equal(eval_out, net.forward(x, train=False).data)
    train_out = net.forward(x, train=True, rng=np.random.default_rng(0)).data
    assert np.abs(train_out - eval_out).max() > 1e-8


def test_attention_block_with_zero_weights_is_identity():
    net = toy_net()
    attn, conv = net.blocks[0]
    for _, p in attn.parameters() + conv.parameters():
        p.data = np.zeros_like(p.data)
    x = Tensor(np.random.default_rng(7).standard_normal((17, 8)))
    out = attn(x, train=False)
    np.testing.assert_array_equal(out.data, x.data)
    # the multi-hop conv block carries the same skip connection
    np.testing.assert_array_equal(conv(x).data, x.data)


def test_debug_mode_reports_nonfinite_stage():
    la.set_debug(True)
    try:
        with pytest.raises(la.EvaluationError, match="input"):
            toy_net().forward(np.full((17, 2, 3), np.nan))
        poisoned = toy_net()
        poisoned.embedding.weights[0].data[0, 0] = np.nan
        with pytest.raises(la.EvaluationError, match="embedding"):
            poisoned.forward(np.zeros((17, 2, 3)))
    finally:
        la.set_debug(False)


# ---------------------------------------------------------------------------
# parameters


def test_parameter_names_unique_and_prefixed():
    net = toy_net()
    names = [name for name, _ in net.parameters()]
    assert len(names) == len(set(names))
    prefixes = {name.split(".")[0] for name in names}
    assert prefixes == {"embed", "block0", "block1", "head"}
    assert any(".attn.msa." in n for n in names)
    assert any(".conv.s1.gconv." in n for n in names)


def test_param_count_frozen_values():
    assert toy_net().param_count() == 3019
    big = ModelConfig()  # defaults: F=256, T=243, L=5
    assert MgtNet(big, human36m_skeleton()).param_count() == 4316071
    ablation = dataclasses.replace(big, hidden=128)
    assert MgtNet(ablation, human36m_skeleton()).param_count() == 1176487


def test_param_count_matches_parameter_list():
    net = toy_net()
    assert net.param_count() == sum(t.size for _, t in net.parameters())


def assert_one_flat_buffer(net):
    """Each parameter is a view, in ``parameters()`` order, of one contiguous float64 buffer."""
    arrays = [p.data for _, p in net.parameters()]
    base = arrays[0].base
    assert base is not None and base.dtype == np.float64 and base.ndim == 1
    assert base.flags.c_contiguous and base.size == net.param_count()
    offset = 0
    for a in arrays:
        assert a.base is base and a.flags.c_contiguous
        assert a.ctypes.data == base.ctypes.data + offset * base.itemsize
        offset += a.size
    return base


def parameter_digest(net):
    digest = hashlib.sha256()
    for name, p in net.parameters():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "preset, overrides, seed, digest",
    (
        ("toy", {}, 0, "d8dd228d9c8c3a92"),
        ("toy", {"gconv_mode": "highorder"}, 5, "ea3e9f325d1f5e61"),
        ("toy", {"use_dcl": False}, 0, "f057123620a21a7d"),
        ("gt-ablation", {}, 0, "a4316c5c10917b14"),
    ),
    ids=("toy", "toy-highorder", "toy-no-dcl", "gt-ablation"),
)
def test_init_is_pinned_and_lies_in_one_flat_buffer(preset, overrides, seed, digest):
    # the net draws each parameter into its view of the flat buffer, with the
    # values and in the order of one Generator.uniform call per parameter
    config = dataclasses.replace(RunConfig(**PRESETS[preset]).model_config(17), **overrides)
    net = MgtNet(config, human36m_skeleton(), seed=seed)
    assert_one_flat_buffer(net)
    assert parameter_digest(net) == digest


def test_frames_only_scale_embedding():
    # count(T2) - count(T1) = 2 * (T2 - T1) * hidden * (max_hop + 1)
    counts = {t: toy_net(frames=t).param_count() for t in (1, 3, 9)}
    assert counts[3] - counts[1] == 2 * 2 * 8 * 3
    assert counts[9] - counts[3] == 2 * 6 * 8 * 3


def test_disabling_dilated_stage_removes_its_parameters():
    with_dcl = toy_net()
    without = toy_net(use_dcl=False)
    per_dcl = sum(t.size for _, t in with_dcl.blocks[0][1].dcls[0].parameters())
    assert per_dcl > 0
    assert with_dcl.param_count() - without.param_count() == TOY.depth * 2 * per_dcl
    assert not any(".dcl." in name for name, _ in without.parameters())


def test_highorder_mode_runs():
    net = toy_net(gconv_mode="highorder")
    out = net.forward(np.random.default_rng(8).standard_normal((17, 2, 3)))
    assert out.shape == (17, 3)


def test_every_parameter_reaches_the_loss():
    # each trainable tensor must get a nonzero gradient for some random input
    net = toy_net()
    params = net.parameters()
    rng = np.random.default_rng(9)
    peak = {name: 0.0 for name, _ in params}
    for _ in range(3):
        x = rng.standard_normal((17, 2, 3))
        with Tape() as tape:
            weights = Tensor(rng.standard_normal((17, 3)))
            loss = la.tensor_sum(la.mul(net.forward(Tensor(x)), weights))
        for _, p in params:
            p.grad = None
        tape.backward(loss)
        for name, p in params:
            if p.grad is not None:
                peak[name] = max(peak[name], float(np.abs(p.grad).max()))
    dead = sorted(name for name, high in peak.items() if high == 0.0)
    assert not dead, f"parameters with no gradient path: {dead}"


def assert_batched_step_matches_stacked(net, batch, seed):
    """Run one loss and backward as one batched forward and as per-sample
    forwards joined by ``stack``: outputs and every parameter gradient must
    agree within 1e-12 of each array's largest magnitude."""
    rng = np.random.default_rng(seed)
    cfg = net.config
    inputs = rng.standard_normal((batch, cfg.n_joints, 2, cfg.frames))
    targets = rng.standard_normal((batch, cfg.n_joints, 3))
    params = net.parameters()
    sides = []
    for batched in (True, False):
        la.zero_grads(params)
        with Tape() as tape:
            if batched:
                preds = net.forward(Tensor(inputs), train=True)
            else:
                preds = la.stack([net.forward(Tensor(x), train=True) for x in inputs])
            loss = elastic_loss(preds, targets, alpha=0.3)
        tape.backward(loss)
        sides.append((preds.data, [p.grad for _, p in params]))
    (out, grads), (ref_out, ref_grads) = sides
    assert_close_at_scale(out, ref_out)
    for (name, _), grad, ref in zip(params, grads, ref_grads):
        assert grad is not None, name
        assert_close_at_scale(grad, ref, err_msg=name)


@pytest.mark.parametrize("batch", (1, 3, 9))
@pytest.mark.parametrize(
    "overrides",
    ({}, {"kernel_half_width": 0, "gconv_mode": "highorder", "max_hop": 0}),
    ids=("toy", "toy-1x1-highorder-0hop"),
)
def test_batched_step_matches_stacked_samples(batch, overrides):
    net = toy_net(seed=batch, **overrides)
    assert_batched_step_matches_stacked(net, batch, seed=batch)


def test_batched_step_matches_stacked_samples_at_gt_ablation_width():
    config = ModelConfig(hidden=128, dropout=0.0)
    net = MgtNet(config, human36m_skeleton(), seed=3)
    assert_batched_step_matches_stacked(net, batch=8, seed=8)


def one_training_step(net, inputs, targets, seed):
    """Predictions, gradients and AMSGrad-stepped parameters of one training step."""
    params = net.parameters()
    saved = [p.data.copy() for _, p in params]
    la.zero_grads(params)
    with Tape() as tape:
        preds = net.forward(Tensor(inputs), train=True, rng=np.random.default_rng(seed))
        loss = elastic_loss(preds, targets, alpha=0.3)
    tape.backward(loss)
    grads = [p.grad for _, p in params]
    AmsGrad(params).step(0.01)
    stepped = [p.data.copy() for _, p in params]
    for (_, p), data in zip(params, saved):
        p.data = data
    return [preds.data, *grads, *stepped], len(tape)


@pytest.mark.parametrize(
    "config, lead",
    (
        (dataclasses.replace(TOY, dropout=0.2), ()),
        (dataclasses.replace(TOY, dropout=0.2), (9,)),
        (dataclasses.replace(TOY, gconv_mode="highorder", max_hop=3, heads=1), (3,)),
        (ModelConfig(hidden=128, dropout=0.1), (4,)),
    ),
    ids=("toy-2d", "toy-B9", "toy-highorder", "gt-ablation-width-B4"),
)
def test_fused_layers_step_is_the_composition_step_bit_for_bit(monkeypatch, config, lead):
    net = MgtNet(config, human36m_skeleton(), seed=5)
    rng = np.random.default_rng(6)
    for _, p in net.parameters():  # biases start at exactly zero
        p.data = p.data + 1e-2 * rng.standard_normal(p.shape)
    inputs = rng.standard_normal(lead + (17, 2, config.frames))
    targets = rng.standard_normal(lead + (17, 3))
    fused, fused_records = one_training_step(net, inputs, targets, seed=7)
    monkeypatch.setattr(la, "graph_conv", graph_conv_composition)
    monkeypatch.setattr(la, "self_attention", self_attention_composition)
    composed, composed_records = one_training_step(net, inputs, targets, seed=7)
    assert composed_records > fused_records
    for i, (actual, expected) in enumerate(zip(fused, composed)):
        assert_bits_equal(actual, expected, f"array {i}")


def test_gt_ablation_forward_tape_record_count():
    # per block: attention, two trainable-adjacency convs, layer norm,
    # dropout and the skip add, then two graph convs, two dilated convs and
    # three adds; plus the embedding and the head
    net = MgtNet(ModelConfig(hidden=128, dropout=0.1), human36m_skeleton(), seed=0)
    x = np.random.default_rng(8).standard_normal((2, 17, 2, 243))
    with Tape() as tape:
        net.forward(x, train=True, rng=np.random.default_rng(0))
    assert len(tape) == 67


def test_batch_of_one_draws_the_single_sample_dropout_masks():
    net = toy_net(dropout=0.5)
    x = np.random.default_rng(12).standard_normal((17, 2, 3))
    single = net.forward(x, train=True, rng=np.random.default_rng(4)).data
    batch = net.forward(x[None], train=True, rng=np.random.default_rng(4)).data
    np.testing.assert_array_equal(batch[0], single)
    assert np.abs(single - net.forward(x).data).max() > 1e-8


# ---------------------------------------------------------------------------
# checkpoints


@pytest.fixture()
def saved(tmp_path):
    net = toy_net(seed=11)
    path = tmp_path / "net.mgtc"
    save_checkpoint(path, net, extra={"note": "fixture", "nested": {"k": 1}})
    return net, path


def test_checkpoint_round_trip(saved):
    net, path = saved
    restored, extra = load_checkpoint(path)
    assert extra == {"note": "fixture", "nested": {"k": 1}}
    assert restored.config == net.config
    for (na, pa), (nb, pb) in zip(net.parameters(), restored.parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)
    x = np.random.default_rng(12).standard_normal((17, 2, 3))
    np.testing.assert_array_equal(net.forward(x).data, restored.forward(x).data)


@pytest.mark.parametrize(
    "preset, overrides, digest",
    (
        ("toy", {}, "2da26a7afe88b274"),
        ("toy", {"gconv_mode": "highorder"}, "2da26a7afe88b274"),
        ("toy", {"use_dcl": False}, "2d068b7bcc7cd86c"),
        ("toy", {"max_hop": 0}, "cf68825c8d964f8b"),
        ("gt-ablation", {}, "3f5bcf34d2a456ea"),
    ),
    ids=("toy", "toy-highorder", "toy-no-dcl", "toy-0-hop", "gt-ablation"),
)
def test_checkpoint_layout_is_pinned(preset, overrides, digest):
    # v1 checkpoints store each parameter by name and shape, in this order:
    # a rename or reshape stops old files from loading, and a reordering
    # changes the bytes new files are written with
    config = dataclasses.replace(RunConfig(**PRESETS[preset]).model_config(17), **overrides)
    net = MgtNet(config, human36m_skeleton(), seed=0)
    layout = repr([(name, tuple(p.shape)) for name, p in net.parameters()])
    assert hashlib.sha256(layout.encode()).hexdigest()[:16] == digest


def joined_v1_encoding(net, extra):
    """Checkpoint v1 bytes built as one joined blob of per-tensor ``tobytes`` copies."""
    header = {
        "model": dataclasses.asdict(net.config),
        "skeleton": json.loads(skeleton_to_document(net.graph)),
        "extra": extra,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    params = net.parameters()
    chunks = [b"MGTC", struct.pack("<I", 1), struct.pack("<I", len(blob)), blob]
    chunks.append(struct.pack("<I", len(params)))
    for name, tensor in params:
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", tensor.ndim)]
        chunks.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        chunks.append(tensor.data.astype("<f8").tobytes())
    return b"".join(chunks)


@pytest.mark.parametrize("preset", ("toy", "gt-ablation"))
def test_checkpoint_file_is_the_joined_v1_encoding(tmp_path, preset):
    # parameters adopted by the optimizer are views of its flat buffer, as
    # they are when a trained net is saved
    net = MgtNet(RunConfig(**PRESETS[preset]).model_config(17), human36m_skeleton(), seed=3)
    AmsGrad(net.parameters())
    extra = {"note": preset, "stats": [0.5, -1.25]}
    path = tmp_path / "net.mgtc"
    save_checkpoint(path, net, extra=extra)
    assert path.read_bytes() == joined_v1_encoding(net, extra)


def test_checkpoint_default_extra_is_empty_dict(tmp_path):
    path = tmp_path / "bare.mgtc"
    save_checkpoint(path, toy_net())
    _, extra = load_checkpoint(path)
    assert extra == {}


def corrupt_bytes(path, mutate):
    buf = bytearray(path.read_bytes())
    out = mutate(buf)
    path.write_bytes(bytes(out if out is not None else buf))


def test_checkpoint_bad_magic(saved):
    _, path = saved
    corrupt_bytes(path, lambda b: b"XXXX" + bytes(b[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(saved):
    _, path = saved
    corrupt_bytes(path, lambda b: bytes(b[:4]) + struct.pack("<I", 99) + bytes(b[8:]))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_checkpoint_truncated(saved):
    _, path = saved
    corrupt_bytes(path, lambda b: bytes(b[:-10]))
    with pytest.raises(CheckpointError, match="unexpected end"):
        load_checkpoint(path)


def test_checkpoint_trailing_data(saved):
    _, path = saved
    corrupt_bytes(path, lambda b: bytes(b) + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError, match="trailing data"):
        load_checkpoint(path)


def test_checkpoint_corrupt_header(saved):
    _, path = saved
    def stomp(b):
        b[12] = ord("?")  # first byte of the JSON header
    corrupt_bytes(path, stomp)
    with pytest.raises(CheckpointError, match="corrupt|inconsistent"):
        load_checkpoint(path)


def test_checkpoint_unknown_parameter(saved):
    _, path = saved
    old = struct.pack("<I", 8) + b"embed.w1"
    new = struct.pack("<I", 8) + b"embed.wZ"
    corrupt_bytes(path, lambda b: bytes(b).replace(old, new, 1))
    with pytest.raises(CheckpointError, match="unknown parameter 'embed.wZ'"):
        load_checkpoint(path)


def test_checkpoint_repeated_parameter(saved):
    _, path = saved
    old = struct.pack("<I", 8) + b"embed.w1"
    new = struct.pack("<I", 8) + b"embed.w0"
    corrupt_bytes(path, lambda b: bytes(b).replace(old, new, 1))
    with pytest.raises(CheckpointError, match="repeats parameter 'embed.w0'"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch(saved):
    _, path = saved
    # head bias is rank 1, length 3: lie and say 5
    old = struct.pack("<I", 6) + b"head.b" + struct.pack("<II", 1, 3)
    new = struct.pack("<I", 6) + b"head.b" + struct.pack("<II", 1, 5)
    corrupt_bytes(path, lambda b: bytes(b).replace(old, new, 1))
    with pytest.raises(CheckpointError, match="'head.b' has shape"):
        load_checkpoint(path)


def test_checkpoint_missing_parameter(saved):
    net, path = saved
    buf = bytearray(path.read_bytes())
    # drop the final record (head bias: 4 + 6 + 4 + 4 + 3 * 8 bytes)
    record = 4 + len(b"head.b") + 4 + 4 + 3 * 8
    header_len = struct.unpack_from("<I", buf, 8)[0]
    count_at = 12 + header_len
    count = struct.unpack_from("<I", buf, count_at)[0]
    struct.pack_into("<I", buf, count_at, count - 1)
    path.write_bytes(bytes(buf[:-record]))
    with pytest.raises(CheckpointError, match="missing parameters"):
        load_checkpoint(path)


def payload_offset(path, name):
    """Byte offset of ``name``'s float64 payload in a checkpoint file."""
    buf = path.read_bytes()
    encoded = name.encode()
    at = buf.index(struct.pack("<I", len(encoded)) + encoded) + 4 + len(encoded)
    ndim = struct.unpack_from("<I", buf, at)[0]
    return at + 4 + 4 * ndim


def test_checkpoint_truncated_inside_a_payload(saved):
    _, path = saved
    cut = payload_offset(path, "embed.w0") + 20
    corrupt_bytes(path, lambda b: bytes(b[:cut]))
    with pytest.raises(CheckpointError, match="unexpected end .* data of embed.w0"):
        load_checkpoint(path)


def test_checkpoint_huge_header_length_allocates_nothing(tmp_path):
    # a length the file cannot hold is refused before any read allocates it
    path = tmp_path / "lying.mgtc"
    path.write_bytes(b"MGTC" + struct.pack("<II", 1, 0xFFFFFFFF) + b"{}" * 8)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="unexpected end .* header"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_loaded_parameters_are_views_of_one_flat_buffer(saved):
    net, path = saved
    restored, _ = load_checkpoint(path)
    assert_one_flat_buffer(restored)
    assert parameter_digest(restored) == parameter_digest(net)


def test_checkpoint_load_draws_no_init(saved, monkeypatch):
    net, path = saved

    def no_draws(*_args, **_kwargs):
        raise AssertionError("an init was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(AssertionError, match="an init was drawn"):
        toy_net()
    restored, _ = load_checkpoint(path)
    assert parameter_digest(restored) == parameter_digest(net)


def test_checkpoint_load_swaps_bytes_on_a_big_endian_host(saved, monkeypatch):
    # the file is little-endian; a big-endian host must swap what it reads
    net, path = saved
    monkeypatch.setattr(sys, "byteorder", "big")
    restored, _ = load_checkpoint(path)
    for (name, want), (_, got) in zip(net.parameters(), restored.parameters()):
        assert got.data.tobytes() == want.data.byteswap().tobytes(), name


def test_gt_ablation_checkpoint_round_trip_is_byte_exact(tmp_path):
    config = RunConfig(**PRESETS["gt-ablation"]).model_config(17)
    net = MgtNet(config, human36m_skeleton(), seed=4)
    path = tmp_path / "gt.mgtc"
    save_checkpoint(path, net)
    restored, _ = load_checkpoint(path)
    assert_one_flat_buffer(restored).tobytes() == assert_one_flat_buffer(net).tobytes()
    x = np.random.default_rng(5).standard_normal((2, 17, 2, config.frames))
    assert restored.forward(x).data.tobytes() == net.forward(x).data.tobytes()


def test_failed_checkpoint_write_keeps_the_previous_file(saved):
    _, path = saved
    before = path.read_bytes()
    broken = toy_net(seed=2)
    # the last parameter cannot be encoded, so the write fails after the
    # header and every other parameter have gone to the file
    broken.parameters()[-1][1].data = np.array(["not a number"] * 3)
    with pytest.raises(ValueError):
        save_checkpoint(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]
