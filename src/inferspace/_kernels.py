"""Batched bilinear interpolation over the spacing coordinates of a 2D grid.

Evaluating and pushing forward 2D densities both interpolate one table at
many scattered points; this is the vectorized numpy kernel they share.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


def bilinear_many(ux, uy, values, px, py):
    """Interpolate ``values`` (over sorted coords ux, uy) at points (px, py).

    Points must already be clipped to the box; interpolation is linear along
    each axis and exact at nodes.
    """
    ux = np.ascontiguousarray(ux, dtype=np.float64)
    uy = np.ascontiguousarray(uy, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    nx = ux.size
    ny = uy.size
    ix = np.clip(np.searchsorted(ux, px, side="right") - 1, 0, nx - 2)
    iy = np.clip(np.searchsorted(uy, py, side="right") - 1, 0, ny - 2)
    tx = (px - ux[ix]) / (ux[ix + 1] - ux[ix])
    ty = (py - uy[iy]) / (uy[iy + 1] - uy[iy])
    tx = np.clip(tx, 0.0, 1.0)
    ty = np.clip(ty, 0.0, 1.0)
    v00 = values[ix, iy]
    v10 = values[ix + 1, iy]
    v01 = values[ix, iy + 1]
    v11 = values[ix + 1, iy + 1]
    return (
        (1.0 - tx) * (1.0 - ty) * v00
        + tx * (1.0 - ty) * v10
        + (1.0 - tx) * ty * v01
        + tx * ty * v11
    )
