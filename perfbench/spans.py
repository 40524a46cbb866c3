"""Spans around the program's public calls, recorded from outside the program.

``Tracer.install`` replaces methods and module functions of ``mgtnet`` with
wrappers that record one span per call (name, start, end, parent span, work
count) into in-memory lists.  ``Tracer.instrument`` puts proxy objects in
place of a net's ``embedding`` and ``head``, so that those two graph
convolutions are timed apart from the ones inside the blocks.
``Tracer.uninstall`` puts every original back, so that untraced code runs
exactly as without the tracer.  Spans are written out once, when the run
ends.
"""
from __future__ import annotations

import csv
from time import perf_counter_ns

def _one(*_args, **_kwargs) -> int:
    return 1


def _samples(_net, sample, *_args, **_kwargs) -> int:
    """Samples in one forward: a (B, N, 2, T) batch counts B."""
    return sample.shape[0] if len(sample.shape) == 4 else 1


def _poses(pred, *_args, **_kwargs) -> int:
    return pred.shape[0] if getattr(pred, "ndim", 2) == 3 else 1


# (span name, owner path in mgtnet, attribute, work count of one call)
_PATCHES = (
    ("layers.attention", "layers.MultiHeadSelfAttention", "__call__", _one),
    ("layers.lam_gconv", "layers.LamGConvLayer", "__call__", _one),
    ("layers.layer_norm", "layers.LayerNorm", "__call__", _one),
    ("layers.multihop_gconv", "layers.MultiHopGConvLayer", "__call__", _one),
    ("layers.dilated_conv", "layers.DilatedConvLayer", "__call__", _one),
    ("model.attention_block", "model.GraphAttentionBlock", "__call__", _one),
    ("model.conv_block", "model.MultiHopConvBlock", "__call__", _one),
    ("model.forward", "model.MgtNet", "forward", _samples),
    ("model.forward", "model.MgtNet", "__call__", _samples),
    ("model.build", "model.MgtNet", "__init__", _one),
    ("model.checkpoint_load", "model", "load_checkpoint", _one),
    ("model.checkpoint_save", "training", "save_checkpoint", _one),
    ("linalg.backward", "linalg.Tape", "backward", lambda tape, *_: len(tape)),
    ("training.optimizer_step", "training.AmsGrad", "step", _one),
    ("training.loss", "training", "elastic_loss", _one),
    ("training.epoch_eval", "training", "predict_dataset", lambda _net, dataset, *_: len(dataset)),
    ("metrics.pa_mpjpe", "training", "pa_mpjpe", _poses),
    ("metrics.pa_mpjpe", "metrics", "pa_mpjpe", _poses),
    ("data.load_dataset", "data", "load_dataset", _one),
    ("data.standardize", "data", "compute_standardizer", _one),
    ("data.standardize", "data", "standardize", _one),
    ("data.standardize", "training", "compute_standardizer", _one),
    ("data.standardize", "training", "standardize", _one),
)


class Tracer:
    """In-memory span recorder; it records while installed."""

    def __init__(self):
        self.recording = False
        self.phase = 0
        self.names: list[str] = []
        self.phases: list[int] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.work: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._nets: list[tuple[object, object, object]] = []
        self._gconv_call = None

    def span(self, name: str, fn, *args, work: int = 1, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        idx = len(self.names)
        self.names.append(name)
        self.phases.append(self.phase)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.work.append(work)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter_ns()
            self._stack.pop()

    def install(self, mgtnet) -> None:
        """Wrap every call in the patch table and start recording."""
        self._gconv_call = mgtnet.layers.MultiHopGConvLayer.__call__
        for name, path, attr, count in _PATCHES:
            owner = mgtnet
            for part in path.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(name, original, count))
            self._patches.append((owner, attr, original))
        self.recording = True

    def uninstall(self) -> None:
        """Stop recording; put back every wrapped call and every instrumented net's layers."""
        self.recording = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        while self._nets:
            net, embedding, head = self._nets.pop()
            net.embedding, net.head = embedding, head

    def _wrapper(self, name, original, count):
        def wrapped(*args, **kwargs):
            return self.span(name, original, *args, work=count(*args, **kwargs), **kwargs)

        return wrapped

    def instrument(self, net) -> None:
        """Put span-recording proxies in place of the net's embedding and head, until ``uninstall``."""
        self._nets.append((net, net.embedding, net.head))
        net.embedding = _Proxy(self, "model.embedding", net.embedding, self._gconv_call)
        net.head = _Proxy(self, "model.head", net.head, self._gconv_call)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total and self nanoseconds, calls, work, and calls made in set-up."""
        out: dict[str, dict] = {}
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"ns": 0, "self_ns": 0, "calls": 0, "work": 0, "setup_calls": 0})
            duration = self.ends[i] - self.starts[i]
            row["ns"] += duration
            row["self_ns"] += duration - child_ns[i]
            row["calls"] += 1
            row["work"] += self.work[i]
            row["setup_calls"] += self.phases[i] == 0
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "phase", "parent", "start_ns", "end_ns", "work"])
            for i, name in enumerate(self.names):
                writer.writerow(
                    [i, name, self.phases[i], self.parents[i], self.starts[i], self.ends[i], self.work[i]]
                )


class _Proxy:
    """Stands in for one graph convolution of a net and records its calls under its own name.

    It calls the convolution's original ``__call__``, so the call is not also
    counted as an in-block multi-hop convolution.
    """

    def __init__(self, tracer: Tracer, name: str, inner, call):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._call = call

    def __call__(self, h):
        return self._tracer.span(self._name, self._call, self._inner, h)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)
