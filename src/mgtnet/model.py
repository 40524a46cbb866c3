"""The lifting network: embedding, stacked blocks, output head, checkpoints.

A forward pass maps one sample of per-joint 2D trajectories (N x 2 x T) to a
3D pose (N x 3), or a batch (B x N x 2 x T) to B poses (B x N x 3).  The net
is trained toward root-relative targets; nothing pins its root joint to the
origin.  The stack alternates attention blocks and multi-hop convolution
blocks, each wrapped in a skip connection; depth, width, heads, and hop order
all come from ``ModelConfig``.
"""
from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .layers import (
    ConfigurationError,
    DilatedConvLayer,
    HighOrderGConvLayer,
    LamGConvLayer,
    LayerNorm,
    MultiHeadSelfAttention,
    MultiHopGConvLayer,
)
from .linalg import Tensor
from .skeleton import (
    SkeletonGraph,
    disentangled_adjacencies,
    normalize_adjacency,
    skeleton_from_document,
    skeleton_to_document,
)

__all__ = [
    "ModelConfig",
    "GraphAttentionBlock",
    "MultiHopConvBlock",
    "MgtNet",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
]

GCONV_MODES = ("multihop", "highorder")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; parameter count is a pure function of these."""

    n_joints: int = 17
    frames: int = 243
    hidden: int = 256
    depth: int = 5
    heads: int = 4
    max_hop: int = 2
    dropout: float = 0.1
    dilation: int = 2
    kernel_half_width: int = 1
    gconv_mode: str = "multihop"
    use_dcl: bool = True

    def __post_init__(self):
        if self.n_joints < 1:
            raise ConfigurationError(f"n_joints must be positive, got {self.n_joints}")
        if self.frames < 1:
            raise ConfigurationError(f"frames must be positive, got {self.frames}")
        if self.hidden < 1 or self.depth < 1:
            raise ConfigurationError("hidden and depth must be positive")
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise ConfigurationError(
                f"hidden {self.hidden} must be divisible by heads {self.heads}"
            )
        if self.max_hop < 0:
            raise ConfigurationError(f"max_hop must be nonnegative, got {self.max_hop}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dilation < 1 or self.kernel_half_width < 0:
            raise ConfigurationError("dilation must be >= 1 and kernel_half_width >= 0")
        if self.gconv_mode not in GCONV_MODES:
            raise ConfigurationError(
                f"gconv_mode must be one of {GCONV_MODES}, got {self.gconv_mode!r}"
            )


def _make_gconv(config: ModelConfig, graph_mats, f_in: int, f_out: int, rng, relu: bool):
    """Hop-aware convolution in the configured flavor."""
    if config.gconv_mode == "multihop":
        return MultiHopGConvLayer(graph_mats["disentangled"], f_in, f_out, rng, relu)
    return HighOrderGConvLayer(graph_mats["one_hop"], config.max_hop, f_in, f_out, rng, relu)


class GraphAttentionBlock:
    """Self-attention refined by two trainable-adjacency convolutions.

    The residual form is x + dropout(norm(conv2(conv1(attention(x))))), so a
    block with all-zero internal weights is the identity map.
    """

    def __init__(self, config: ModelConfig, graph_mats, rng: np.random.Generator):
        width = config.hidden
        self.dropout_p = config.dropout
        self.attention = MultiHeadSelfAttention(width, config.heads, rng)
        self.gconv1 = LamGConvLayer(graph_mats["one_hop"], width, rng)
        self.gconv2 = LamGConvLayer(graph_mats["one_hop"], width, rng)
        self.norm = LayerNorm(width)

    def __call__(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        y = self.attention(x)
        y = self.gconv1(y)
        y = self.gconv2(y)
        y = self.norm(y)
        y = la.dropout(y, self.dropout_p, rng=rng, train=train)
        return la.add(x, y)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for prefix, part in (
            ("msa", self.attention),
            ("gc1", self.gconv1),
            ("gc2", self.gconv2),
            ("norm", self.norm),
        ):
            named.extend((f"{prefix}.{name}", t) for name, t in part.parameters())
        return named


class MultiHopConvBlock:
    """Two shape-preserving subblocks of hop-aware conv plus dilated refinement.

    Each subblock computes z = gconv(y) and, when the dilated stage is
    enabled, adds its correction: z + dcl(z).  The residual form is
    x + subblock2(subblock1(x)), so a block with all-zero internal weights is
    the identity map and the input always has a path that bypasses the ReLUs.
    """

    def __init__(self, config: ModelConfig, graph_mats, rng: np.random.Generator):
        width = config.hidden
        self.use_dcl = config.use_dcl
        self.gconvs = [
            _make_gconv(config, graph_mats, width, width, rng, relu=True) for _ in range(2)
        ]
        self.dcls = (
            [
                DilatedConvLayer(rng, config.kernel_half_width, config.dilation)
                for _ in range(2)
            ]
            if config.use_dcl
            else []
        )

    def __call__(self, x: Tensor) -> Tensor:
        y = x
        for i, gconv in enumerate(self.gconvs):
            y = gconv(y)
            if self.use_dcl:
                y = la.add(y, self.dcls[i](y))
        return la.add(x, y)

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, gconv in enumerate(self.gconvs):
            named.extend((f"s{i}.gconv.{name}", t) for name, t in gconv.parameters())
            if self.use_dcl:
                named.extend((f"s{i}.dcl.{name}", t) for name, t in self.dcls[i].parameters())
        return named


class _DeferredDraws:
    """Stands in for a net's Generator while its layers are built.

    Each ``uniform`` call returns a placeholder of the asked shape that holds
    no memory, and queues the draw.  ``MgtNet._build`` then replays the
    queue, in order, into the parameters' views of the net's flat buffer.
    """

    def __init__(self):
        self.queue = []

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        placeholder = np.broadcast_to(np.float64(0.0), size)
        self.queue.append((placeholder, low, high))
        return placeholder


class MgtNet:
    """Full 2D-to-3D pose lifting network over a fixed skeleton graph.

    Construction is deterministic in (config, graph, seed).  ``forward`` with
    ``train=False`` consumes no randomness.  Every parameter's ``data`` is a
    view of one contiguous float64 buffer, laid out in ``parameters()`` order.
    """

    def __init__(self, config: ModelConfig, graph: SkeletonGraph, seed: int = 0):
        self._build(config, graph, np.random.default_rng(seed))

    def _build(self, config: ModelConfig, graph: SkeletonGraph, rng: np.random.Generator | None):
        """Build the layers, then make every parameter a view of one new flat buffer.

        The layers draw through a ``_DeferredDraws``.  With ``rng``, the buffer
        then gets the values they asked for: their constants are copied in,
        and the queued draws are replayed in the order the layers made them,
        as ``Generator.uniform`` computes them, ``low + (high - low) * u``.
        Without it, the buffer is left unfilled for ``load_checkpoint``.
        """
        if graph.n_joints != config.n_joints:
            raise ConfigurationError(
                f"config says {config.n_joints} joints but skeleton has {graph.n_joints}"
            )
        self.config = config
        self.graph = graph
        draws = _DeferredDraws()
        graph_mats = {
            "disentangled": disentangled_adjacencies(graph, config.max_hop),
            "one_hop": normalize_adjacency(graph.adjacency() + np.eye(graph.n_joints)),
        }
        in_width = 2 * config.frames
        self.embedding = _make_gconv(config, graph_mats, in_width, config.hidden, draws, relu=True)
        self.blocks = []
        for _ in range(config.depth):
            attn = GraphAttentionBlock(config, graph_mats, draws)
            conv = MultiHopConvBlock(config, graph_mats, draws)
            self.blocks.append((attn, conv))
        self.head = _make_gconv(config, graph_mats, config.hidden, 3, draws, relu=False)

        params = [t for _, t in self.parameters()]
        flat = np.empty(sum(t.size for t in params))
        drawn = {id(placeholder): None for placeholder, _, _ in draws.queue}
        start = 0
        for t in params:
            view = flat[start : start + t.size].reshape(t.shape)
            start += t.size
            if id(t.data) in drawn:
                drawn[id(t.data)] = view
            elif rng is not None:
                view[...] = t.data
            t.data = view
        if rng is not None:
            for placeholder, low, high in draws.queue:
                view = drawn[id(placeholder)]
                rng.random(out=view)
                np.multiply(view, high - low, out=view)
                np.add(view, low, out=view)

    def forward(self, sample, train: bool = False, rng=None) -> Tensor:
        """Lift one sample (N, 2, T) to an (N, 3) pose, or a batch (B, N, 2, T) to (B, N, 3).

        A batch gives, to rounding, the poses of one forward per sample, and
        its backward the gradients of those forwards joined by ``la.stack``.
        With dropout, a batch draws one mask per layer for all its samples.
        Training fits the output to root-relative targets, but the root joint
        is not pinned to the origin.
        """
        x = sample if isinstance(sample, Tensor) else Tensor(sample)
        cfg = self.config
        if x.ndim not in (3, 4) or x.shape[-3:] != (cfg.n_joints, 2, cfg.frames) or x.size == 0:
            raise la.ShapeError(
                f"expected input of shape ([B,] {cfg.n_joints}, 2, {cfg.frames}), got {x.shape}"
            )
        # a debug-mode numeric failure is reported with the stage it arose in
        stage = "input"
        try:
            # row layout per joint: x, y interleaved per frame, frame 0 first
            h = la.reshape(la.transpose(x), x.shape[:-3] + (cfg.n_joints, 2 * cfg.frames))
            stage = "embedding"
            h = self.embedding(h)
            for i, (attn, conv) in enumerate(self.blocks):
                stage = f"block{i}.attention"
                h = attn(h, train=train, rng=rng)
                stage = f"block{i}.conv"
                h = conv(h)
            stage = "head"
            return self.head(h)
        except la.EvaluationError as exc:
            raise la.EvaluationError(f"{stage}: {exc}") from None

    __call__ = forward

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = [(f"embed.{name}", t) for name, t in self.embedding.parameters()]
        for i, (attn, conv) in enumerate(self.blocks):
            named.extend((f"block{i}.attn.{name}", t) for name, t in attn.parameters())
            named.extend((f"block{i}.conv.{name}", t) for name, t in conv.parameters())
        named.extend((f"head.{name}", t) for name, t in self.head.parameters())
        return named

    def param_count(self) -> int:
        return sum(t.size for _, t in self.parameters())


# ---------------------------------------------------------------------------
# checkpoint container

_CKPT_MAGIC = b"MGTC"
_CKPT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or inconsistent with its config."""


def save_checkpoint(path, net: MgtNet, extra: dict | None = None) -> None:
    """Write config, skeleton, and parameters to a versioned binary file.

    ``extra`` rides along in the config block; values must be JSON-encodable.
    The file is written under a temporary name in the target's directory and
    then moved into place, so a write that fails leaves any previous file as
    it was.
    """
    header = {
        "model": dataclasses.asdict(net.config),
        "skeleton": json.loads(skeleton_to_document(net.graph)),
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    params = net.parameters()
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        # each parameter's buffer goes to the file as it is, with no bytes copy
        with open(tmp, "xb") as fh:
            fh.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(params)))
            for name, tensor in params:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)) + encoded)
                fh.write(struct.pack(f"<{tensor.ndim + 1}I", tensor.ndim, *tensor.shape))
                fh.write(np.ascontiguousarray(tensor.data, dtype="<f8"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> tuple[MgtNet, dict]:
    """Rebuild a network from a checkpoint; returns (net, extra block).

    The net is built with no init drawn, and each parameter's payload is read
    straight into its view of the net's flat buffer.  Every length the file
    claims is checked against the bytes left in it before anything is read or
    allocated for it.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def short(what: str) -> CheckpointError:
            return CheckpointError(f"unexpected end of checkpoint while reading {what}")

        def take(count: int, what: str) -> bytes:
            nonlocal left
            piece = fh.read(count) if count <= left else b""
            if len(piece) != count:
                raise short(what)
            left -= count
            return piece

        def read_into(array: np.ndarray, what: str) -> None:
            nonlocal left
            if array.nbytes > left or fh.readinto(array) != array.nbytes:
                raise short(what)
            left -= array.nbytes

        if take(4, "magic") != _CKPT_MAGIC:
            raise CheckpointError("bad magic bytes: not a checkpoint file")
        version = struct.unpack("<I", take(4, "version"))[0]
        if version != _CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        header_len = struct.unpack("<I", take(4, "header length"))[0]
        try:
            header = json.loads(take(header_len, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"checkpoint header is corrupt: {exc}") from None
        try:
            config = ModelConfig(**header["model"])
            graph = skeleton_from_document(json.dumps(header["skeleton"]))
            extra = header["extra"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint header is inconsistent: {exc}") from None

        net = MgtNet.__new__(MgtNet)
        net._build(config, graph, None)
        expected = dict(net.parameters())
        n_params = struct.unpack("<I", take(4, "parameter count"))[0]
        seen = set()
        for _ in range(n_params):
            name_len = struct.unpack("<I", take(4, "name length"))[0]
            name = take(name_len, "parameter name").decode("utf-8")
            ndim = struct.unpack("<I", take(4, f"rank of {name}"))[0]
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name}"))
            if name not in expected:
                raise CheckpointError(f"checkpoint has unknown parameter {name!r}")
            if name in seen:
                raise CheckpointError(f"checkpoint repeats parameter {name!r}")
            target = expected[name]
            if tuple(shape) != target.shape:
                raise CheckpointError(
                    f"parameter {name!r} has shape {tuple(shape)}, expected {target.shape}"
                )
            read_into(target.data, f"data of {name}")
            if sys.byteorder == "big":
                target.data.byteswap(inplace=True)
            seen.add(name)
        if left:
            raise CheckpointError(f"trailing data after last parameter at byte offset {fh.tell()}")
    missing = set(expected) - seen
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {sorted(missing)[:3]}")
    return net, extra
