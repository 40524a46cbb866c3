"""Binary pose format round-trips, corruption diagnostics, synthesis, standardization."""
import errno
import logging
import os
import struct

import numpy as np
import pytest

import mgtnet.data
from mgtnet.data import (
    FORMAT_VERSION,
    MAGIC,
    DataFormatError,
    PoseDataset,
    PoseSample,
    Standardizer,
    compute_standardizer,
    load_dataset,
    save_dataset,
    standardize,
    synthesize,
)
from mgtnet.skeleton import SkeletonGraph, human36m_skeleton


@pytest.fixture
def small_dataset():
    return synthesize(human36m_skeleton(), count=4, frames=3, seed=11)


def corrupt(path, offset, new_bytes):
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(new_bytes)] = new_bytes
    path.write_bytes(bytes(raw))


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_validates_shapes():
    g = human36m_skeleton()
    good = PoseSample(np.zeros((17, 2, 3)), np.zeros((17, 3)), "a")
    ds = PoseDataset(g, 3, [good])
    assert len(ds) == 1 and ds.n_joints == 17 and ds.frames == 3
    with pytest.raises(DataFormatError, match="record 0"):
        PoseDataset(g, 3, [PoseSample(np.zeros((17, 2, 2)), np.zeros((17, 3)), "a")])
    with pytest.raises(DataFormatError, match="record 0"):
        PoseDataset(g, 3, [PoseSample(np.zeros((17, 2, 3)), np.zeros((16, 3)), "a")])
    bad = np.zeros((17, 3))
    bad[4, 1] = np.nan
    with pytest.raises(DataFormatError, match="non-finite"):
        PoseDataset(g, 3, [PoseSample(np.zeros((17, 2, 3)), bad, "a")])


def test_dataset_names_the_bad_record():
    g = human36m_skeleton()
    records = [PoseSample(np.zeros((17, 2, 3)), np.zeros((17, 3)), "a") for _ in range(4)]
    records[2] = PoseSample(np.zeros((17, 2, 3)), np.zeros((17, 2)), "a")
    with pytest.raises(DataFormatError, match="record 2: target"):
        PoseDataset(g, 3, records)
    inputs = np.zeros((4, 17, 2, 3))
    inputs[3, 5, 1, 2] = np.inf
    with pytest.raises(DataFormatError, match="non-finite values in record 3"):
        PoseDataset.from_arrays(g, inputs, np.zeros((4, 17, 3)), ["a"] * 4)


def test_dataset_holds_arrays(small_dataset):
    ds = small_dataset
    assert ds.inputs.shape == (4, 17, 2, 3) and ds.targets.shape == (4, 17, 3)
    assert ds.actions == ("synthetic",) * 4
    assert ds.samples is ds.samples  # built once
    for i, sample in enumerate(ds.samples):
        np.testing.assert_array_equal(sample.inputs, ds.inputs[i])
        np.testing.assert_array_equal(sample.target, ds.targets[i])
        assert sample.action == ds.actions[i]
    empty = PoseDataset(human36m_skeleton(), 3, [])
    assert empty.inputs.shape == (0, 17, 2, 3) and empty.targets.shape == (0, 17, 3)
    assert len(empty) == 0 and list(empty) == []


def test_dataset_centers_targets_at_root():
    g = human36m_skeleton()
    target = np.random.default_rng(0).standard_normal((17, 3)) + 40.0
    ds = PoseDataset(g, 1, [PoseSample(np.zeros((17, 2, 1)), target, "a")])
    stored = ds.samples[0].target
    np.testing.assert_allclose(stored[g.root], 0.0)
    np.testing.assert_allclose(stored, target - target[g.root])
    # idempotent: re-wrapping changes nothing
    again = PoseDataset(g, 1, list(ds), "units")
    np.testing.assert_allclose(again.samples[0].target, stored)


def test_dataset_rejects_disconnected_skeleton():
    g = SkeletonGraph(("a", "b", "c"), ((0, 1),), 0)
    with pytest.raises(DataFormatError, match="disconnected"):
        PoseDataset(g, 1, [])


def test_with_frames_keeps_most_recent(small_dataset):
    ds = small_dataset
    trimmed = ds.with_frames(2)
    assert trimmed.frames == 2
    for full, cut in zip(ds, trimmed):
        np.testing.assert_array_equal(cut.inputs, full.inputs[:, :, 1:])
        np.testing.assert_array_equal(cut.target, full.target)
    with pytest.raises(DataFormatError):
        ds.with_frames(0)
    with pytest.raises(DataFormatError):
        ds.with_frames(4)


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_is_deterministic():
    g = human36m_skeleton()
    a = synthesize(g, count=3, frames=5, seed=42)
    b = synthesize(g, count=3, frames=5, seed=42)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.inputs, sb.inputs)
        np.testing.assert_array_equal(sa.target, sb.target)
    c = synthesize(g, count=3, frames=5, seed=43)
    assert any(np.abs(sa.inputs - sc.inputs).max() > 1e-6 for sa, sc in zip(a, c))


def test_synthesize_inputs_project_the_motion():
    # the 2D input at the last frame is exactly the target's x, y
    ds = synthesize(human36m_skeleton(), count=5, frames=4, seed=1)
    for s in ds:
        np.testing.assert_allclose(s.inputs[:, :, -1], s.target[:, :2], atol=1e-12)


def test_synthesize_root_is_pinned():
    ds = synthesize(human36m_skeleton(), count=3, frames=4, seed=2)
    for s in ds:
        np.testing.assert_allclose(s.inputs[0], 0.0)
        np.testing.assert_allclose(s.target[0], 0.0)


def test_synthesize_depth_is_function_of_projection():
    # depth must be recoverable from observed 2D motion: per joint, the final
    # drift z is an exact linear function of drift x, y (that is the design)
    g = human36m_skeleton()
    ds = synthesize(g, count=64, frames=3, seed=3)
    targets = np.stack([s.target for s in ds])  # (S, N, 3)
    for j in range(1, g.n_joints):
        xy = targets[:, j, :2]
        z = targets[:, j, 2]
        design = np.column_stack([xy, np.ones(len(z))])
        coef, *_ = np.linalg.lstsq(design, z, rcond=None)
        residual = z - design @ coef
        assert np.sqrt((residual**2).mean()) < 1e-5  # f32 quantization noise only


def test_synthesize_noise_and_validation():
    g = human36m_skeleton()
    clean = synthesize(g, count=2, frames=3, seed=4)
    noisy = synthesize(g, count=2, frames=3, seed=4, noise_sigma=0.1)
    # same seed: targets agree, inputs differ by the injected noise
    np.testing.assert_array_equal(clean.samples[0].target, noisy.samples[0].target)
    delta = noisy.samples[0].inputs - clean.samples[0].inputs
    assert 0.01 < np.abs(delta).mean() < 0.5
    with pytest.raises(DataFormatError):
        synthesize(g, count=0, frames=3)
    with pytest.raises(DataFormatError):
        synthesize(g, count=1, frames=0)
    with pytest.raises(DataFormatError):
        synthesize(g, count=1, frames=3, noise_sigma=-0.1)


def test_synthesize_values_survive_f32_storage():
    ds = synthesize(human36m_skeleton(), count=2, frames=3, seed=5)
    for s in ds:
        np.testing.assert_array_equal(s.inputs, s.inputs.astype(np.float32).astype(np.float64))


# ---------------------------------------------------------------------------
# save / load round-trip


def test_round_trip_is_byte_identical(tmp_path, small_dataset):
    first = tmp_path / "a.mgtp"
    second = tmp_path / "b.mgtp"
    save_dataset(small_dataset, first)
    loaded = load_dataset(first)
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.unit == small_dataset.unit
    assert loaded.skeleton == small_dataset.skeleton
    for a, b in zip(small_dataset, loaded):
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.target, b.target)
        assert a.action == b.action


class FullDisk:
    """A file that takes ``room`` bytes and then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        taken = self.fh.write(data[: self.room])
        self.room -= taken
        if taken < len(data):
            raise OSError(errno.ENOSPC, "No space left on device")
        return taken


def disk_fills_up(monkeypatch, name, room):
    """Make an ``atomic_write`` of a file called ``name`` fail after ``room`` bytes."""

    def fake_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "x" in mode and os.path.basename(file).startswith(name + "."):
            return FullDisk(fh, room)
        return fh

    monkeypatch.setattr(mgtnet.data, "open", fake_open, raising=False)


def test_failed_dataset_write_keeps_the_previous_file(tmp_path, small_dataset, monkeypatch):
    path = tmp_path / "poses.mgtp"
    save_dataset(small_dataset, path)
    before = path.read_bytes()
    disk_fills_up(monkeypatch, "poses.mgtp", room=100)
    with pytest.raises(OSError, match="No space left"):
        save_dataset(synthesize(human36m_skeleton(), count=4, frames=3, seed=12), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["poses.mgtp"]


def test_round_trip_preserves_actions_and_unit(tmp_path):
    g = human36m_skeleton()
    samples = [
        PoseSample(np.ones((17, 2, 2)), np.ones((17, 3)), "walking"),
        PoseSample(np.zeros((17, 2, 2)), np.zeros((17, 3)), "sitting down"),
    ]
    ds = PoseDataset(g, 2, samples, unit="millimeters")
    path = tmp_path / "x.mgtp"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert [s.action for s in back] == ["walking", "sitting down"]
    assert back.unit == "millimeters"


# ---------------------------------------------------------------------------
# corruption diagnostics


def test_bad_magic(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    corrupt(path, 0, b"WHAT")
    with pytest.raises(DataFormatError, match="magic"):
        load_dataset(path)


def test_bad_version(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    corrupt(path, 4, struct.pack("<I", 99))
    with pytest.raises(DataFormatError, match="version 99"):
        load_dataset(path)


def test_truncated_header(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(DataFormatError, match="unexpected end of file"):
        load_dataset(path)


def test_truncated_record_names_the_record(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DataFormatError, match="record 3"):
        load_dataset(path)


def test_nan_in_record(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    raw = path.read_bytes()
    nan = struct.pack("<f", float("nan"))
    # last 4 bytes belong to the final record's target floats
    path.write_bytes(raw[:-4] + nan)
    with pytest.raises(DataFormatError, match="non-finite values in record 3"):
        load_dataset(path)


def test_zero_joints_header(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    corrupt(path, 8, struct.pack("<I", 0))
    with pytest.raises(DataFormatError, match="joint count"):
        load_dataset(path)


def test_header_skeleton_mismatch(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    corrupt(path, 8, struct.pack("<I", 16))  # header claims 16 joints, document says 17
    with pytest.raises(DataFormatError, match="does not match skeleton"):
        load_dataset(path)


def test_trailing_garbage(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(DataFormatError, match="trailing data"):
        load_dataset(path)


def test_invalid_skeleton_document(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    raw = bytearray(path.read_bytes())
    unit_len = struct.unpack("<I", raw[20:24])[0]
    doc_len_at = 24 + unit_len
    doc_at = doc_len_at + 4
    raw[doc_at : doc_at + 5] = b"#####"  # stomp the JSON
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="invalid skeleton document"):
        load_dataset(path)


def test_sample_count_beyond_the_file_is_rejected_before_allocating(tmp_path, small_dataset):
    path = tmp_path / "d.mgtp"
    save_dataset(small_dataset, path)
    corrupt(path, 16, struct.pack("<I", 2**31))
    with pytest.raises(DataFormatError, match="unexpected end of file"):
        load_dataset(path)


def test_empty_file(tmp_path):
    path = tmp_path / "d.mgtp"
    path.write_bytes(b"")
    with pytest.raises(DataFormatError, match="unexpected end of file"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# standardization


def test_standardizer_round_trip(small_dataset):
    stats = compute_standardizer(small_dataset)
    transformed = standardize(small_dataset, stats)
    mean, std = stats.mean[:, :, None], stats.std[:, :, None]
    for raw, cooked in zip(small_dataset, transformed):
        np.testing.assert_array_equal(cooked.inputs, (raw.inputs - mean) / std)
        np.testing.assert_array_equal(cooked.target, raw.target)  # targets untouched


def test_standardizer_normalizes_moving_coordinates(small_dataset):
    stats = compute_standardizer(small_dataset)
    transformed = standardize(small_dataset, stats)
    stacked = np.stack([s.inputs for s in transformed])
    mean = stacked.mean(axis=(0, 3))
    std = stacked.std(axis=(0, 3))
    moving = compute_standardizer(small_dataset).std != 1.0
    np.testing.assert_allclose(mean[moving], 0.0, atol=1e-12)
    np.testing.assert_allclose(std[moving], 1.0, atol=1e-12)


def test_standardizer_constant_coordinate_left_unscaled(caplog):
    # the root never moves in synthetic data; its std is zero and must not divide
    ds = synthesize(human36m_skeleton(), count=3, frames=3, seed=6)
    with caplog.at_level(logging.WARNING, logger="mgtnet.data"):
        stats = compute_standardizer(ds)
    assert np.all(stats.std[0] == 1.0)
    assert any("unscaled" in r.message for r in caplog.records)
    transformed = standardize(ds, stats)
    np.testing.assert_allclose(transformed.samples[0].inputs[0], 0.0)


def test_standardizer_identity():
    stats = Standardizer.identity(17)
    x = np.random.default_rng(7).standard_normal((17, 2, 3))
    np.testing.assert_array_equal(stats.apply(x), x)
    np.testing.assert_array_equal(stats.apply(x), (x - stats.mean[:, :, None]) / stats.std[:, :, None])


def test_standardize_shape_mismatch(small_dataset):
    with pytest.raises(DataFormatError):
        standardize(small_dataset, Standardizer.identity(5))


def test_compute_standardizer_empty():
    ds = PoseDataset(human36m_skeleton(), 3, [])
    with pytest.raises(DataFormatError):
        compute_standardizer(ds)


def test_format_constants():
    assert MAGIC == b"MGTP"
    assert FORMAT_VERSION == 1
