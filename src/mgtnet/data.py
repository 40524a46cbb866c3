"""Pose dataset container, binary file format, synthesis, and standardization.

File layout (all integers little-endian u32, all floats little-endian f32):

    magic b"MGTP" | version | joints N | frames T | sample count
    unit string   (u32 length + utf-8 bytes)
    skeleton doc  (u32 length + utf-8 JSON skeleton document)
    per sample:
        action label (u32 length + utf-8 bytes)
        inputs  N*2*T f32, row-major (joint, coordinate, frame)
        target  N*3  f32, row-major

Storage is 32-bit; everything is widened to float64 in memory.  Targets are
root-centered on load, which is idempotent for files written by
``save_dataset``.
"""
from __future__ import annotations

import logging
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .skeleton import SkeletonError, SkeletonGraph, skeleton_from_document, skeleton_to_document

__all__ = [
    "DataFormatError",
    "PoseSample",
    "PoseDataset",
    "Standardizer",
    "synthesize",
    "atomic_write",
    "save_dataset",
    "load_dataset",
    "compute_standardizer",
    "standardize",
]

log = logging.getLogger("mgtnet.data")

MAGIC = b"MGTP"
FORMAT_VERSION = 1


class DataFormatError(ValueError):
    """A pose file violates the format or carries unusable values."""


def _quantize(arr: np.ndarray) -> np.ndarray:
    """Round-trip through f32 so in-memory values match what files can hold."""
    return np.ascontiguousarray(arr, dtype="<f4").astype(np.float64)


@dataclass(frozen=True)
class PoseSample:
    """One training sample: 2D trajectories (N, 2, T) and a 3D target (N, 3)."""

    inputs: np.ndarray
    target: np.ndarray
    action: str


def _check_layout(skeleton: SkeletonGraph, frames) -> int:
    if not skeleton.is_connected():
        raise DataFormatError("skeleton is disconnected")
    frames = int(frames)
    if frames < 1:
        raise DataFormatError(f"frames must be positive, got {frames}")
    return frames


class PoseDataset:
    """Validated pose set over one skeleton, held as arrays.

    ``inputs`` is (S, N, 2, T), ``targets`` is (S, N, 3) and ``actions``
    holds S labels.  Every target is root-relative (the root joint sits at
    the origin); centering happens here so any constructor path yields the
    invariant.  ``samples`` gives per-pose ``PoseSample`` views into the
    arrays.
    """

    def __init__(self, skeleton: SkeletonGraph, frames: int, samples, unit: str = "millimeters"):
        samples = list(samples)
        frames = _check_layout(skeleton, frames)
        n = skeleton.n_joints
        for k, sample in enumerate(samples):
            for what, shape in (("inputs", (n, 2, frames)), ("target", (n, 3))):
                got = np.shape(getattr(sample, what))
                if got != shape:
                    raise DataFormatError(f"record {k}: {what} has shape {got}, expected {shape}")
        inputs = np.array([s.inputs for s in samples], dtype=np.float64).reshape(-1, n, 2, frames)
        targets = np.array([s.target for s in samples], dtype=np.float64).reshape(-1, n, 3)
        self._assign(skeleton, inputs, targets, [s.action for s in samples], unit)

    @classmethod
    def from_arrays(cls, skeleton: SkeletonGraph, inputs, targets, actions, unit: str = "millimeters"):
        """Wrap (S, N, 2, T) inputs, (S, N, 3) targets and S action labels."""
        dataset = cls.__new__(cls)
        dataset._assign(skeleton, inputs, targets, actions, unit)
        return dataset

    def _assign(self, skeleton, inputs, targets, actions, unit) -> None:
        """The one validation: shapes, finiteness naming the first bad record, root-centering."""
        inputs = np.ascontiguousarray(inputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        actions = tuple(map(str, actions))
        frames = _check_layout(skeleton, inputs.shape[-1] if inputs.ndim else 0)
        n = skeleton.n_joints
        for what, array, shape in (
            ("inputs", inputs, (len(actions), n, 2, frames)),
            ("targets", targets, (len(actions), n, 3)),
        ):
            if array.shape != shape:
                raise DataFormatError(f"{what} have shape {array.shape}, expected {shape}")
        finite = np.isfinite(inputs).all(axis=(1, 2, 3)) & np.isfinite(targets).all(axis=(1, 2))
        if not finite.all():
            raise DataFormatError(f"non-finite values in record {int(np.argmin(finite))}")
        self.skeleton = skeleton
        self.frames = frames
        self.unit = str(unit)
        self.inputs = inputs
        self.targets = targets - targets[:, skeleton.root, None]
        self.actions = actions

    @cached_property
    def samples(self) -> list[PoseSample]:
        return [PoseSample(*record) for record in zip(self.inputs, self.targets, self.actions)]

    @property
    def n_joints(self) -> int:
        return self.skeleton.n_joints

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.samples)

    def with_frames(self, frames: int) -> "PoseDataset":
        """Truncate every input trajectory to its most recent ``frames`` frames."""
        if not 1 <= frames <= self.frames:
            raise DataFormatError(
                f"cannot truncate {self.frames}-frame dataset to {frames} frames"
            )
        return PoseDataset.from_arrays(
            self.skeleton, self.inputs[..., self.frames - frames :], self.targets, self.actions, self.unit
        )


_N_HARMONICS = 2


def _canonical_generator(skeleton: SkeletonGraph) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic rest pose and per-joint motion directions.

    The rest pose is a root-anchored walk along the bones.  Each joint also
    gets one fixed unit 3-vector per harmonic; samples move joints along
    these directions, which ties depth to the observable 2D motion instead of
    leaving it statistically independent.
    """
    rng = np.random.default_rng(12021)
    n = skeleton.n_joints
    rest = np.zeros((n, 3))
    placed = {skeleton.root}
    adjacency = skeleton.neighbors()
    frontier = [skeleton.root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v in placed:
                    continue
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                rest[v] = rest[u] + direction
                placed.add(v)
                nxt.append(v)
        frontier = nxt
    # Resample each joint's harmonic axes until the xy block is well
    # conditioned and depth components are moderate, so depth is a
    # tame function of the projected motion.
    axes = np.zeros((n, _N_HARMONICS, 3))
    for j in range(n):
        while True:
            cand = rng.normal(size=(_N_HARMONICS, 3))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            xy = cand[:, :2].T
            if np.linalg.svd(xy, compute_uv=False).min() >= 0.45 and np.abs(cand[:, 2]).max() <= 0.6:
                axes[j] = cand
                break
    return rest, axes


def synthesize(
    skeleton: SkeletonGraph,
    count: int,
    frames: int,
    seed: int = 0,
    noise_sigma: float = 0.0,
    amplitude: float = 0.3,
) -> PoseDataset:
    """Seeded synthetic motion: smooth sinusoidal joint drift around a rest pose.

    Each sample moves every non-root joint along a two-harmonic sinusoid over
    ``frames`` frames; the 2D input is the orthographic (x, y) projection per
    frame with optional Gaussian noise, and the target is the final frame's
    3D pose.  The root stays pinned at the origin, so targets are born
    root-relative.  The set's unit is ``"units"``.
    """
    if count < 1:
        raise DataFormatError(f"count must be positive, got {count}")
    if frames < 1:
        raise DataFormatError(f"frames must be positive, got {frames}")
    if noise_sigma < 0:
        raise DataFormatError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    if not skeleton.is_connected():
        raise DataFormatError("skeleton is disconnected")
    rng = np.random.default_rng(seed)
    rest, axes = _canonical_generator(skeleton)
    n = skeleton.n_joints
    t_grid = np.arange(frames) / max(frames, 2)
    inputs = np.empty((count, n, 2, frames))
    targets = np.empty((count, n, 3))
    for k in range(count):
        amp = rng.uniform(0.3, 1.0, size=(n, _N_HARMONICS)) * amplitude
        freq = rng.uniform(0.5, 2.0, size=(n, _N_HARMONICS))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, _N_HARMONICS))
        # joint j drifts along its fixed axes: sum_h amp*sin(2 pi freq t + phase) * axes[j, h]
        waves = amp[..., None] * np.sin(
            2.0 * np.pi * freq[..., None] * t_grid + phase[..., None]
        )  # (N, H, T)
        drift = np.einsum("jht,jhc->jct", waves, axes)
        pose = rest[:, :, None] + drift
        pose[skeleton.root] = 0.0
        pose = _quantize(pose)
        targets[k] = pose[:, :, frames - 1]
        inputs[k] = pose[:, :2, :]
        if noise_sigma > 0:
            inputs[k] = _quantize(inputs[k] + rng.normal(0.0, noise_sigma, size=inputs[k].shape))
    return PoseDataset.from_arrays(skeleton, inputs, targets, ("synthetic",) * count, "units")


# ---------------------------------------------------------------------------
# binary serialization


@contextmanager
def atomic_write(path):
    """Open a binary file to write in place of ``path``, moved onto it when the block ends.

    The file is written under a temporary name in the target's directory and
    then renamed with ``os.replace``, so a block that raises leaves any
    previous file at ``path`` as it was, and no temporary file behind.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_dataset(dataset: PoseDataset, path) -> None:
    """Write the dataset in the binary pose format (quantizing to f32), atomically."""
    skeleton_doc = skeleton_to_document(dataset.skeleton).encode("utf-8")
    unit = dataset.unit.encode("utf-8")
    chunks = [
        MAGIC,
        struct.pack(
            "<IIII", FORMAT_VERSION, dataset.n_joints, dataset.frames, len(dataset)
        ),
        struct.pack("<I", len(unit)),
        unit,
        struct.pack("<I", len(skeleton_doc)),
        skeleton_doc,
    ]
    inputs = dataset.inputs.astype("<f4")
    targets = dataset.targets.astype("<f4")
    for k, action in enumerate(dataset.actions):
        label = action.encode("utf-8")
        chunks += [struct.pack("<I", len(label)), label, inputs[k].tobytes(), targets[k].tobytes()]
    with atomic_write(path) as fh:
        fh.write(b"".join(chunks))


class _Reader:
    """Byte cursor with format-error context (offset and record index)."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0
        self.record: int | None = None

    def fail(self, message: str):
        raise DataFormatError(message)

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.buf):
            if self.record is not None:
                self.fail(f"unexpected end of file at record {self.record}")
            self.fail(f"unexpected end of file while reading {what} at byte offset {self.pos}")
        piece = self.buf[self.pos : self.pos + count]
        self.pos += count
        return piece

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, what: str) -> str:
        length = self.u32(f"{what} length")
        raw = self.take(length, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            self.fail(f"{what} is not valid UTF-8: {exc}")

    def floats(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(4 * count, what), dtype="<f4")


def load_dataset(path) -> PoseDataset:
    """Read and strictly validate a binary pose file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf)
    if r.take(4, "magic") != MAGIC:
        raise DataFormatError(f"bad magic bytes: expected {MAGIC!r}")
    version = r.u32("version")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format version {version}")
    n = r.u32("joint count")
    frames = r.u32("frame count")
    count = r.u32("sample count")
    if n < 1:
        raise DataFormatError(f"header has invalid joint count {n}")
    if frames < 1:
        raise DataFormatError(f"header has invalid frame count {frames}")
    unit = r.text("unit string")
    skeleton_doc = r.text("skeleton document")
    try:
        skeleton = skeleton_from_document(skeleton_doc)
    except SkeletonError as exc:
        raise DataFormatError(f"invalid skeleton document: {exc}") from None
    if skeleton.n_joints != n:
        raise DataFormatError(
            f"header joint count {n} does not match skeleton joint count {skeleton.n_joints}"
        )
    # allocate for the header's count only once the file can hold that many records
    least = 4 + 4 * n * (2 * frames + 3)
    if count * least > len(buf) - r.pos:
        r.fail(
            f"unexpected end of file: header claims {count} records of at least {least} bytes, "
            f"{len(buf) - r.pos} bytes follow"
        )
    inputs = np.empty((count, n, 2, frames))
    targets = np.empty((count, n, 3))
    actions = []
    for k in range(count):
        r.record = k
        actions.append(r.text("action label"))
        inputs[k] = r.floats(n * 2 * frames, "inputs").reshape(n, 2, frames)
        targets[k] = r.floats(n * 3, "target").reshape(n, 3)
    r.record = None
    if r.pos != len(buf):
        raise DataFormatError(f"trailing data after record {count - 1} at byte offset {r.pos}")
    return PoseDataset.from_arrays(skeleton, inputs, targets, actions, unit)


# ---------------------------------------------------------------------------
# input standardization


@dataclass(frozen=True)
class Standardizer:
    """Per joint-coordinate affine input transform fitted on a training split.

    ``std`` holds 1.0 wherever the fitted deviation was zero; those
    coordinates pass through unscaled.
    """

    mean: np.ndarray
    std: np.ndarray

    def apply(self, inputs: np.ndarray) -> np.ndarray:
        """Standardize (N, 2, T) or (S, N, 2, T) inputs into a new array."""
        if not self.mean.shape == self.std.shape == inputs.shape[-3:-1]:
            raise DataFormatError(
                f"standardizer shape {self.mean.shape} does not match inputs of shape {inputs.shape}"
            )
        return (inputs - self.mean[:, :, None]) / self.std[:, :, None]

    @classmethod
    def identity(cls, n_joints: int) -> "Standardizer":
        return cls(np.zeros((n_joints, 2)), np.ones((n_joints, 2)))


def compute_standardizer(dataset: PoseDataset) -> Standardizer:
    """Fit per joint-coordinate mean and deviation over samples and frames."""
    if len(dataset) == 0:
        raise DataFormatError("cannot fit a standardizer on an empty dataset")
    mean = dataset.inputs.mean(axis=(0, 3))
    std = dataset.inputs.std(axis=(0, 3))
    flat = std == 0.0
    if flat.any():
        joints = sorted({int(j) for j, _ in np.argwhere(flat)})
        log.warning(
            "standardizer: %d constant coordinate(s) left unscaled (joints %s)",
            int(flat.sum()),
            joints,
        )
        std = np.where(flat, 1.0, std)
    return Standardizer(mean, std)


def standardize(dataset: PoseDataset, stats: Standardizer) -> PoseDataset:
    """Apply a fitted input transform; targets pass through untouched."""
    return PoseDataset.from_arrays(
        dataset.skeleton, stats.apply(dataset.inputs), dataset.targets, dataset.actions, dataset.unit
    )
