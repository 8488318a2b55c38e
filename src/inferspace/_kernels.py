"""Vectorized numpy kernels shared across the package.

``interpolate``: multilinear interpolation over the spacing coordinates of a
1D or 2D grid.  Evaluating and pushing forward densities both interpolate one
table of node values at many points.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


def _locate(nodes: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left node index of each point's cell and its clipped fraction across it."""
    i = np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, nodes.size - 2)
    t = np.clip((u - nodes[i]) / (nodes[i + 1] - nodes[i]), 0.0, 1.0)
    return i, t


def interpolate(nodes, values, points) -> np.ndarray:
    """Interpolate ``values`` over the tensor grid ``nodes`` at ``points``.

    ``nodes`` holds one or two ascending node arrays and ``values`` has shape
    ``(len(n) for n in nodes)``.  ``points`` holds one coordinate array per
    axis; they broadcast together and the result has their broadcast shape, so
    scattered points ``(x, y)`` and a tensor product ``(x[:, None], y[None, :])``
    take the same path.  Points should already be clipped to the box.
    Interpolation is linear along each axis and exact at nodes.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    located = [
        _locate(np.asarray(n, dtype=np.float64), np.asarray(p, dtype=np.float64))
        for n, p in zip(nodes, points, strict=True)
    ]
    if len(located) == 1:
        (i, t), = located
        return (1.0 - t) * values.take(i) + t * values.take(i + 1)
    (i0, t0), (i1, t1) = located
    stride = len(nodes[1])
    flat = i0 * stride + i1
    return (
        (1.0 - t0) * (1.0 - t1) * values.take(flat)
        + t0 * (1.0 - t1) * values.take(flat + stride)
        + (1.0 - t0) * t1 * values.take(flat + 1)
        + t0 * t1 * values.take(flat + stride + 1)
    )
