"""Densities on grids: probability density values in working coordinates.

A :class:`Density` stores one nonnegative value per grid node.  Values are
densities with respect to the grid's own coordinates (``p(x)``, not the
volumetric density and not the log-frame density); masses come from the grid's
node-centered quadrature weights.  The grid is the density's parameter space
(axis names, spacing, bounds and node count), and the algebra combines two
densities only on the same grid.  Instances are immutable: the value array is
frozen and every operation returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import interpolate, locate
from .errors import (
    GridMismatch,
    InvalidGrid,
    NegativeDensity,
    NonFinite,
    OutOfDomain,
    ZeroMass,
)
from .grids import Grid


@dataclass(frozen=True, eq=False)
class Density:
    """Nonnegative density values over a grid.

    The grid is the density's parameter space: two densities share a space
    exactly when their grids have the same axes.  A density carries no mass
    of its own: OR and AND never renormalize, and ``normalize`` is the one
    way to unit mass.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise InvalidGrid(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        _check_values(vals)
        object.__setattr__(self, "values", _frozen(vals))

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

    def with_values(self, values: np.ndarray) -> "Density":
        return Density(self.grid, values)


def _check_values(values: np.ndarray) -> None:
    """Refuse density values that are not all finite (NonFinite) or not all
    >= 0 (NegativeDensity)."""
    if values.size:
        # min and max see any NaN or infinity without a temporary of the
        # values' size.
        lo, hi = values.min(), values.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFinite("density values must be finite")
        if lo < 0.0:
            raise NegativeDensity(f"density values must be >= 0, min is {lo!r}")


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values`` as a frozen C-contiguous array: shared if it already is
    one (it came from another Density or a theory and cannot change),
    copied if not."""
    if values.flags.writeable or not values.flags.c_contiguous:
        values = np.array(values, order="C")
        values.setflags(write=False)
    return values


def require_same_space(p: Density, q: Density) -> None:
    """Raise GridMismatch unless p and q are on the same grid."""
    if p.grid.axes != q.grid.axes:
        raise GridMismatch(
            f"operands on different grids: {p.grid.names}{p.grid.shape} "
            f"vs {q.grid.names}{q.grid.shape}"
        )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate(d: Density) -> float:
    """Quadrature of ``d`` over the box."""
    return _mass(d.values, d.grid.weight_arrays())


def _mass(values: np.ndarray, weights) -> float:
    if values.ndim == 1:
        return float(np.dot(values, weights[0]))
    return float(weights[0] @ values @ weights[1])


def scale_to_unit_mass(values: np.ndarray, weights, out: np.ndarray) -> np.ndarray:
    """Write ``values`` divided by their mass under the per-axis ``weights``
    into ``out`` (which may be ``values``) and return it.

    Raises ZeroMass when the values carry no positive mass to scale,
    NonFinite if the mass or the scaling overflows.
    """
    # Overflow is refused below by name, not left to numpy's warning.
    with np.errstate(over="ignore"):
        m = _mass(values, weights)
        if not np.isfinite(m):
            raise NonFinite(f"cannot normalize density: its mass overflows float64 ({m!r})")
        if m <= 0.0:
            raise ZeroMass(f"cannot normalize density with mass {m!r}")
        np.divide(values, m, out=out)
        unit = _mass(out, weights)
    # The weights are positive, so the mass is finite exactly when every
    # scaled value is.
    if not np.isfinite(unit):
        raise NonFinite("normalization overflowed; mass too small")
    # Contract check rather than belt-and-braces: quadrature is linear, so
    # the renormalized mass can only miss 1 through float rounding.
    if abs(unit - 1.0) > 1e-9:
        raise ZeroMass("normalization failed to reach unit mass within 1e-09")
    return out


def normalize(d: Density) -> Density:
    """Scale ``d`` to unit mass over the box.

    Raises ZeroMass when the density carries no mass to scale, NonFinite if
    its mass or the scaling overflows.
    """
    vals = scale_to_unit_mass(d.values, d.grid.weight_arrays(), np.empty(d.values.shape))
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    return d.with_values(vals)


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
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    return Density(Grid.of(d.grid.axes[idx]), vals)


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
    out = interpolate(_locate_points(d.grid, cols), d.values)
    return float(out[0]) if scalar else out


def _locate_points(grid: Grid, cols) -> tuple:
    """``locate`` of the points whose coordinates per axis are ``cols`` on
    ``grid``'s nodes, each clipped to the box first."""
    return locate(
        tuple(ax.param_nodes for ax in grid.axes),
        tuple(ax.param_of(ax.clip(c)) for ax, c in zip(grid.axes, cols)),
    )
