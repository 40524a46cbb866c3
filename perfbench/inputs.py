"""Seeded benchmark inputs, written in the program's own file formats.

Nothing here imports ``mgtnet``: poses come from this file's generator, not
from ``mgtnet.data.synthesize``, so a change to the program's synthesizer
cannot change a workload.  Two formats are written and read:

* ``MGTP`` pose files, as documented at the top of ``src/mgtnet/data.py``;
* ``MGTC`` v1 checkpoints, as written by ``save_checkpoint`` in
  ``src/mgtnet/model.py``.
"""
from __future__ import annotations

import json
import struct

import numpy as np

JOINTS = (
    "pelvis", "right_hip", "right_knee", "right_foot", "left_hip", "left_knee",
    "left_foot", "spine", "thorax", "neck", "head", "left_shoulder", "left_elbow",
    "left_wrist", "right_shoulder", "right_elbow", "right_wrist",
)
EDGES = (
    (0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8),
    (8, 9), (9, 10), (8, 11), (11, 12), (12, 13), (8, 14), (14, 15), (15, 16),
)
ROOT = 0
ACTIONS = ("walk", "turn", "reach", "sit")

# Rest pose in decimetres: x to the subject's left, y up, z towards the
# camera.  Arms and head sit forward of the torso so that depth is not
# symmetric in the heading angle, and the heading can be read from the 2D
# layout.
REST = np.array([
    [0.0, 0.0, 0.0], [-1.3, 0.0, 0.0], [-1.3, -4.5, 0.4], [-1.3, -9.0, -0.2],
    [1.3, 0.0, 0.0], [1.3, -4.5, 0.4], [1.3, -9.0, -0.2], [0.0, 2.3, 0.2],
    [0.0, 4.8, 0.4], [0.0, 5.8, 0.7], [0.0, 7.0, 1.0], [1.8, 4.5, 0.3],
    [2.1, 2.0, 1.0], [2.2, 0.0, 2.0], [-1.8, 4.5, 0.3], [-2.1, 2.0, 1.0],
    [-2.2, 0.0, 2.0],
])
UNIT = "decimeters"

_CKPT_MAGIC = b"MGTC"
_POSE_MAGIC = b"MGTP"


def _f32(arr: np.ndarray) -> np.ndarray:
    """Round through float32, the precision the pose file stores."""
    return np.asarray(arr, dtype="<f4").astype(np.float64)


def make_poses(rng: np.random.Generator, count: int, frames: int):
    """Windows of 2D keypoints with the 3D pose of their last frame.

    Each sample swings every non-root joint along a sinusoid on that joint's
    axis (one axis per joint for the whole set, so that depth swing follows
    from the 2D swing), turns the pose by a heading that drifts over the
    window, projects
    orthographically onto (x, y) and moves the projection across the image.
    Returns float32-exact ``inputs`` (S, N, 2, T), root-relative ``targets``
    (S, N, 3) and one action label per sample.
    """
    n = len(JOINTS)
    t = np.arange(frames) / max(frames, 2)
    inputs = np.empty((count, n, 2, frames))
    targets = np.empty((count, n, 3))
    actions = []
    axis = rng.normal(size=(n, 3, 1))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    for s in range(count):
        amp = rng.uniform(1.0, 3.0, size=(n, 1, 1))
        freq = rng.uniform(0.5, 2.0, size=(n, 1, 1))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1, 1))
        pose = REST[:, :, None] + amp * axis * np.sin(2.0 * np.pi * freq * t + phase)
        pose[ROOT] = 0.0
        heading = rng.uniform(-0.5, 0.7) + rng.uniform(-0.2, 0.2) * t
        cos, sin = np.cos(heading), np.sin(heading)
        x, y, z = pose[:, 0], pose[:, 1], pose[:, 2]
        turned = np.stack([x * cos + z * sin, y, -x * sin + z * cos], axis=1)
        shift = rng.normal(0.0, 0.5, size=(2, 1)) + rng.normal(0.0, 0.2, size=(2, 1)) * t
        noise = rng.normal(0.0, 0.05, size=(n, 2, frames))
        inputs[s] = _f32(turned[:, :2, :] + shift + noise)
        targets[s] = _f32(turned[:, :, -1])
        actions.append(ACTIONS[int(rng.integers(len(ACTIONS)))])
    return inputs, targets, actions


def skeleton_document() -> dict:
    return {"joints": list(JOINTS), "edges": [list(e) for e in EDGES], "root": ROOT}


def write_poses(path, inputs, targets, actions) -> None:
    """Write an ``MGTP`` version 1 pose file."""
    count, n, _, frames = inputs.shape
    doc = json.dumps(skeleton_document()).encode("utf-8")
    chunks = [_POSE_MAGIC, struct.pack("<IIII", 1, n, frames, count)]
    for text in (UNIT.encode("utf-8"), doc):
        chunks += [struct.pack("<I", len(text)), text]
    for x, y, action in zip(inputs, targets, actions):
        label = action.encode("utf-8")
        chunks += [struct.pack("<I", len(label)), label]
        chunks += [np.ascontiguousarray(x, "<f4").tobytes(), np.ascontiguousarray(y, "<f4").tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def standardizer(inputs: np.ndarray):
    """Per (joint, coordinate) mean and deviation over samples and frames.

    A zero deviation becomes 1, so that coordinate passes through unscaled.
    """
    mean = inputs.mean(axis=(0, 3))
    std = inputs.std(axis=(0, 3))
    return mean, np.where(std == 0.0, 1.0, std)


def standardize(inputs: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (inputs - mean[None, :, :, None]) / std[None, :, :, None]


# ---------------------------------------------------------------------------
# checkpoints


def parameter_shapes(model: dict) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of every parameter, in the checkpoint's naming.

    Covers the multi-hop graph convolution with the dilated stage, the form
    every preset uses.
    """
    if model["gconv_mode"] != "multihop" or not model["use_dcl"]:
        raise ValueError("only multihop models with the dilated stage are covered")
    n, f, hops = model["n_joints"], model["hidden"], model["max_hop"] + 1
    head_dim = f // model["heads"]
    taps = 2 * model["kernel_half_width"] + 1

    def gconv(prefix, f_in, f_out):
        return [(f"{prefix}.w{k}", (f_in, f_out)) for k in range(hops)] + [(f"{prefix}.b", (f_out,))]

    shapes = gconv("embed", 2 * model["frames"], f)
    for i in range(model["depth"]):
        attn = f"block{i}.attn"
        for h in range(model["heads"]):
            shapes += [(f"{attn}.msa.w{kind}{h}", (f, head_dim)) for kind in "qkv"]
        shapes.append((f"{attn}.msa.wo", (f, f)))
        for conv in ("gc1", "gc2"):
            shapes += [(f"{attn}.{conv}.adj", (n, n)), (f"{attn}.{conv}.w", (f, f))]
        shapes += [(f"{attn}.norm.gain", (f,)), (f"{attn}.norm.bias", (f,))]
        for j in range(2):
            shapes += gconv(f"block{i}.conv.s{j}.gconv", f, f)
            shapes.append((f"block{i}.conv.s{j}.dcl.kernel", (taps, taps)))
    return shapes + gconv("head", f, 3)


def draw_weights(model: dict, one_hop: np.ndarray, rng: np.random.Generator) -> dict:
    """Random weights scaled so that activations stay of order one.

    ``one_hop`` is the normalized 1-hop adjacency; the trainable adjacencies
    start from it plus noise on its support.
    """
    hops = model["max_hop"] + 1
    weights = {}
    for name, shape in parameter_shapes(model):
        leaf = name.rsplit(".", 1)[1]
        if leaf == "adj":
            value = one_hop + 0.05 * rng.normal(size=shape) * (one_hop != 0)
        elif leaf == "gain":
            value = 1.0 + 0.1 * rng.normal(size=shape)
        elif leaf in ("b", "bias"):
            value = 0.05 * rng.normal(size=shape)
        elif leaf == "kernel":
            value = 0.2 * rng.normal(size=shape)
        else:
            fan_in = shape[0] * (hops if ".gconv." in name or name.startswith(("embed.", "head.")) else 1)
            value = rng.normal(size=shape) / np.sqrt(fan_in)
        weights[name] = value
    return weights


def write_checkpoint(path, model: dict, weights: dict, extra: dict) -> None:
    """Write an ``MGTC`` version 1 checkpoint."""
    header = {"model": model, "skeleton": skeleton_document(), "extra": extra}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [_CKPT_MAGIC, struct.pack("<II", 1, len(blob)), blob, struct.pack("<I", len(weights))]
    for name, value in weights.items():
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", value.ndim)]
        chunks += [struct.pack(f"<{value.ndim}I", *value.shape), value.astype("<f8").tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def read_checkpoint(path) -> tuple[dict, dict]:
    """Read an ``MGTC`` version 1 checkpoint into (header, weights by name)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint")
    version, header_len = struct.unpack_from("<II", buf, 4)
    if version != 1:
        raise ValueError(f"{path}: checkpoint version {version}, expected 1")
    pos = 12 + header_len
    header = json.loads(buf[12:pos].decode("utf-8"))
    (count,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    weights = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", buf, pos)
        name = buf[pos + 4 : pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (ndim,) = struct.unpack_from("<I", buf, pos)
        shape = struct.unpack_from(f"<{ndim}I", buf, pos + 4)
        pos += 4 + 4 * ndim
        size = int(np.prod(shape))
        weights[name] = np.frombuffer(buf, "<f8", size, pos).reshape(shape).astype(np.float64)
        pos += 8 * size
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes")
    return header, weights
