"""Densities on grids: probability density values in working coordinates.

A :class:`Density` stores one nonnegative value per grid node.  Values are
densities with respect to the grid's own coordinates (``p(x)``, not the
volumetric density and not the log-frame density); masses come from the grid's
node-centered quadrature weights.  Instances are immutable: the value array is
frozen and every operation returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ._kernels import interpolate
from .errors import (
    GridMismatch,
    InvalidGrid,
    NegativeDensity,
    NonFinite,
    OutOfDomain,
    UnknownAxis,
    ZeroMass,
)
from .grids import Grid


def default_frame(grid: Grid) -> str:
    return ",".join(grid.names)


@dataclass(frozen=True, eq=False)
class Density:
    """Nonnegative density values over a grid, tagged with a frame label.

    ``frame`` identifies the working coordinates so that states pushed into a
    different frame are never combined with states that were not.
    ``normalized`` records whether the density was last normalized over the
    box; operations that break it reset the flag.
    """

    grid: Grid
    values: np.ndarray
    frame: str = ""
    normalized: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise InvalidGrid(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        # min and max see any NaN or infinity without a grid-sized temporary.
        lo, hi = vals.min(), vals.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFinite("density values must be finite")
        if lo < 0.0:
            raise NegativeDensity(f"density values must be >= 0, min is {lo!r}")
        # Own a frozen C-contiguous copy; arrays arriving already frozen are
        # shared (they came from another Density and cannot change).
        if vals.flags.writeable:
            vals = vals.copy() if vals.flags.c_contiguous else np.ascontiguousarray(vals)
            vals.setflags(write=False)
        elif not vals.flags.c_contiguous:
            vals = np.ascontiguousarray(vals)
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not self.frame:
            object.__setattr__(self, "frame", default_frame(self.grid))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_callable(grid: Grid, fn: Callable[..., np.ndarray]) -> "Density":
        """Evaluate ``fn`` on broadcastable node meshes and wrap the result."""
        vals = np.asarray(fn(*grid.meshes()), dtype=np.float64)
        vals = np.broadcast_to(vals, grid.shape).copy()
        # Frozen, so the Density shares this copy instead of making another.
        vals.setflags(write=False)
        return Density(grid, vals)

    # -- basics -------------------------------------------------------------

    def with_values(self, values: np.ndarray, normalized: bool = False) -> "Density":
        return Density(self.grid, values, frame=self.frame, normalized=normalized)

    def mass(self) -> float:
        return integrate(self)

    def max_value(self) -> float:
        return float(self.values.max())


def require_same_space(p: Density, q: Density) -> None:
    """Raise GridMismatch unless p and q share grid and frame."""
    if p.grid.axes != q.grid.axes:
        raise GridMismatch(
            f"operands on different grids: {p.grid.names}{p.grid.shape} "
            f"vs {q.grid.names}{q.grid.shape}"
        )
    if p.frame != q.frame:
        raise GridMismatch(f"operands in different frames: {p.frame!r} vs {q.frame!r}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate(
    d: Density,
    region: Mapping[str, tuple[float | None, float | None]] | None = None,
) -> float:
    """Quadrature of ``d`` over the box, or over a per-axis subregion.

    ``region`` maps axis names to (lower, upper) bounds; ``None`` inside a
    bound means the box edge.  Cells straddling a region edge contribute the
    exact measure of their overlap in the axis's spacing coordinate.
    """
    region = dict(region) if region else {}
    weights = []
    for ax in d.grid.axes:
        if ax.name in region:
            lo, hi = region.pop(ax.name)
            weights.append(ax.region_weights(lo, hi))
        else:
            weights.append(ax.weights)
    if region:
        raise UnknownAxis(f"region names {sorted(region)} not on grid {d.grid.names}")
    if d.grid.ndim == 1:
        return float(np.dot(d.values, weights[0]))
    return float(weights[0] @ d.values @ weights[1])


def normalize(d: Density) -> Density:
    """Scale ``d`` to unit mass over the box.

    Raises ZeroMass when the density carries no mass to scale, NonFinite if
    scaling overflows.
    """
    m = integrate(d)
    if not np.isfinite(m) or m <= 0.0:
        raise ZeroMass(f"cannot normalize density with mass {m!r}")
    vals = d.values / m
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    try:
        out = d.with_values(vals, normalized=True)
    except NonFinite as exc:
        raise NonFinite("normalization overflowed; mass too small") from exc
    # Contract check rather than belt-and-braces: quadrature is linear, so
    # the renormalized mass can only miss 1 through float rounding.
    if abs(integrate(out) - 1.0) > 1e-9:
        raise ZeroMass("normalization failed to reach unit mass within 1e-09")
    return out


def marginalize(d: Density, keep: str) -> Density:
    """Integrate out every axis except ``keep``."""
    idx = d.grid.axis_index(keep)
    if d.grid.ndim == 1:
        return d
    other = 1 - idx
    w = d.grid.axes[other].weights
    if idx == 0:
        vals = d.values @ w
    else:
        vals = w @ d.values
    out_grid = Grid.of(d.grid.axes[idx])
    return Density(out_grid, vals, frame=d.grid.axes[idx].name, normalized=d.normalized)


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def evaluate(d: Density, points: np.ndarray) -> np.ndarray:
    """Interpolate ``d`` at coordinate points inside the box.

    ``points`` is ``(M,)`` for 1D grids or ``(M, 2)`` for 2D grids (a single
    point may be passed bare).  Interpolation is linear in each axis's spacing
    coordinate and exact at nodes.  Points outside the box raise OutOfDomain.
    """
    pts = np.asarray(points, dtype=np.float64)
    scalar = pts.ndim == d.grid.ndim - 1
    if d.grid.ndim == 1:
        cols = (pts.reshape(1) if scalar else pts,)
    else:
        if scalar and pts.shape != (2,):
            raise OutOfDomain(f"a single 2D point needs 2 coordinates, got {pts.shape}")
        pts = pts.reshape(1, 2) if scalar else pts
        cols = (pts[:, 0], pts[:, 1])
    d.grid.require_inside(cols)
    axes = d.grid.axes
    out = interpolate(
        tuple(ax.param_nodes for ax in axes),
        d.values,
        tuple(ax.param_of(ax.clip(c)) for ax, c in zip(axes, cols)),
    )
    return float(out[0]) if scalar else out
