"""Vectorized numpy kernels shared across the package.

Multilinear interpolation over the spacing coordinates of a 1D or 2D grid, in
two steps: ``locate`` finds each point's cell and its corner weights, and
``interpolate`` reads a table of node values through them.  Evaluating a
density does both once.  A push-forward locates the target nodes' preimages
once per map and target grid, then interpolates every density it pushes that
way through the same corners.  ``ranges`` lays integer ranges end to end: a
band's columns, or a frame's flat nodes.
"""

from __future__ import annotations

import numpy as np


def _cell(nodes: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left node index of each point's cell and its clipped fraction across it."""
    i = np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, nodes.size - 2)
    t = np.clip((u - nodes[i]) / (nodes[i + 1] - nodes[i]), 0.0, 1.0)
    return i, t


def locate(nodes, points) -> tuple[np.ndarray, tuple[tuple[int, np.ndarray], ...]]:
    """Where ``points`` sit on the tensor grid ``nodes``.

    ``nodes`` holds one or two ascending node arrays.  ``points`` holds one
    coordinate array per axis; they broadcast together, so scattered points
    ``(x, y)`` and a tensor product ``(x[:, None], y[None, :])`` take the same
    path.  Points should already be clipped to the box.  Returns the row-major
    flat index of each point's lower corner node and, per corner of its cell,
    that corner's offset from it and its weight.
    """
    cells = [
        _cell(np.asarray(n, dtype=np.float64), np.asarray(p, dtype=np.float64))
        for n, p in zip(nodes, points, strict=True)
    ]
    if len(cells) == 1:
        (i, t), = cells
        return i, ((0, 1.0 - t), (1, t))
    (i0, t0), (i1, t1) = cells
    stride = len(nodes[1])
    s0, s1 = 1.0 - t0, 1.0 - t1
    # The corner order fixes the summation order of ``interpolate``.
    return i0 * stride + i1, (
        (0, s0 * s1), (stride, t0 * s1), (1, s0 * t1), (stride + 1, t0 * t1)
    )


def interpolate(located, values) -> np.ndarray:
    """Interpolate ``values``, of shape ``(len(n) for n in nodes)``, at the
    points ``locate`` found.  The result has the points' broadcast shape;
    interpolation is linear along each axis and exact at nodes."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    flat, corners = located
    (offset, weight), *rest = corners
    out = weight * values[offset:].take(flat)
    for offset, weight in rest:
        out += weight * values[offset:].take(flat)
    return out


def ranges(first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The integers of each range ``[first[i], stop[i])``, laid end to end
    in the order of ``i``: a band's columns, or a frame's flat nodes.  The
    array is fresh and writable, as np.bincount copies a read-only index."""
    lengths = stop - first
    out = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.size)
    return out
