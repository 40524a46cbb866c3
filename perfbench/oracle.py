"""Independent float64 reference computations for the benchmark's checks.

The forward pass below is written from the architecture's description, not
from the program's layers: hop adjacencies come from a breadth-first search
over the edge list, and every sample of a batch is computed at once with
numpy broadcasting.  Nothing here imports ``mgtnet``.
"""
from __future__ import annotations

from collections import deque

import numpy as np


def _normalize(a: np.ndarray) -> np.ndarray:
    """D^-1/2 A D^-1/2 with row-sum degrees."""
    inv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv[:, None] * inv[None, :]


def hop_adjacencies(n: int, edges, max_hop: int) -> list[np.ndarray]:
    """Normalized adjacencies of the pairs exactly k hops apart plus self-loops, k = 0..max_hop."""
    neighbors = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    dist = np.full((n, n), -1)
    for start in range(n):
        dist[start, start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if dist[start, v] < 0:
                    dist[start, v] = dist[start, u] + 1
                    queue.append(v)
    return [_normalize((dist == k) | np.eye(n, dtype=bool)) for k in range(max_hop + 1)]


def forward(model: dict, weights: dict, edges, inputs: np.ndarray) -> np.ndarray:
    """Lift standardized inputs (S, N, 2, T) to poses (S, N, 3) in eval mode."""
    s, n, _, t = inputs.shape
    hops = hop_adjacencies(n, edges, model["max_hop"])

    def gconv(prefix, h, relu):
        out = sum(a @ h @ weights[f"{prefix}.w{k}"] for k, a in enumerate(hops))
        out = out + weights[f"{prefix}.b"]
        return np.maximum(out, 0.0) if relu else out

    def attention(prefix, x):
        heads = []
        d = model["hidden"] // model["heads"]
        for i in range(model["heads"]):
            q, k, v = (x @ weights[f"{prefix}.w{kind}{i}"] for kind in "qkv")
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(d)
            scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append(scores / scores.sum(axis=-1, keepdims=True) @ v)
        return np.concatenate(heads, axis=-1) @ weights[f"{prefix}.wo"]

    def layer_norm(prefix, x, eps=1e-5):
        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / np.sqrt(var + eps) * weights[f"{prefix}.gain"] + weights[f"{prefix}.bias"]

    def dilated(prefix, x):
        m, d = model["kernel_half_width"], model["dilation"]
        kernel = weights[f"{prefix}.kernel"]
        pad = d * m
        rows, cols = x.shape[1:]
        padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        out = np.zeros_like(x)
        for r in range(-m, m + 1):
            for c in range(-m, m + 1):
                r0, c0 = pad + d * r, pad + d * c
                out += kernel[r + m, c + m] * padded[:, r0 : r0 + rows, c0 : c0 + cols]
        return out

    # per joint, (x, y) interleaved frame by frame, frame 0 first
    h = gconv("embed", inputs.transpose(0, 1, 3, 2).reshape(s, n, 2 * t), relu=True)
    for i in range(model["depth"]):
        attn = f"block{i}.attn"
        y = attention(f"{attn}.msa", h)
        for conv in ("gc1", "gc2"):
            y = np.maximum(weights[f"{attn}.{conv}.adj"] @ y @ weights[f"{attn}.{conv}.w"], 0.0)
        h = h + layer_norm(f"{attn}.norm", y)
        y = h
        for j in range(2):
            y = gconv(f"block{i}.conv.s{j}.gconv", y, relu=True)
            y = y + dilated(f"block{i}.conv.s{j}.dcl", y)
        h = h + y
    return gconv("head", h, relu=False)


def mpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean joint distance over every joint of every sample."""
    return float(np.sqrt(((pred - gt) ** 2).sum(axis=-1)).mean())


def pa_mpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """MPJPE after the best similarity transform of each prediction onto its target.

    Closed form of Umeyama (1991): the rotation comes from the SVD of the
    centred cross-covariance, with the last axis flipped when it would
    otherwise be a reflection.
    """
    p = pred - pred.mean(axis=1, keepdims=True)
    g = gt - gt.mean(axis=1, keepdims=True)
    u, sing, vt = np.linalg.svd(g.transpose(0, 2, 1) @ p)
    flip = np.ones_like(sing)
    flip[:, -1] = np.sign(np.linalg.det(u @ vt))
    rotation = u @ (flip[:, :, None] * vt)
    scale = (sing * flip).sum(axis=1) / (p * p).sum(axis=(1, 2))
    aligned = scale[:, None, None] * p @ rotation.transpose(0, 2, 1)
    return mpjpe(aligned, g)


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference, relative to the largest expected magnitude."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return float(np.abs(actual - expected).max() / max(np.abs(expected).max(), 1e-300))
