"""Coordinate changes with analytic Jacobians.

All Jacobian bookkeeping lives here: a pushed density is the pull-back
``q(y) = p(x(y)) · |dx/dy|`` evaluated at the target grid's nodes, so states
keep their meaning as densities with respect to the coordinates of the grid
they live on: the target grid is the pushed density's frame.
Maps carry closed-form forward, inverse, and derivative callables; nothing in
the package differentiates numerically.

Strictly monotone decreasing 1D maps (reciprocal, negative affine) are
allowed; the Jacobian used for densities is the absolute derivative and the
image axis is reordered ascending.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from ._kernels import interpolate, locate
from .algebra import _rel_diff, and_combine, or_combine
from .density import Density
from .errors import DomainMismatch, GridMismatch, InvalidGrid, SingularJacobian
from .grids import LINEAR, LOGARITHMIC, Axis, Grid


# ---------------------------------------------------------------------------
# 1D maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoordinateMap:
    """A strictly monotone 1D coordinate change with analytic derivative.

    ``dforward`` is the signed derivative dy/dx; densities transform with its
    absolute value.  ``domain`` bounds where the map (and inverse) are valid.
    """

    kind: str
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    dforward: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float] = (-math.inf, math.inf)

    def check_domain(self, axis: Axis) -> None:
        lo, hi = self.domain
        if axis.lower < lo or axis.upper > hi:
            raise DomainMismatch(
                f"axis {axis.name!r} box [{axis.lower}, {axis.upper}] leaves the "
                f"{self.kind!r} map domain [{lo}, {hi}]"
            )

    def image_axis(self, axis: Axis, name: str = "") -> Axis:
        """The axis whose nodes are exactly the images of ``axis``'s nodes.

        The images must lie on a uniform linear or log lattice of
        ``axis.count`` nodes (``_lattice_axis``); other maps need an
        explicit target grid.
        """
        self.check_domain(axis)
        with np.errstate(all="ignore"):
            images = self.forward(axis.nodes)
        out = _lattice_axis(
            name or f"{self.kind}_{axis.name}", images, axis.spacing == LOGARITHMIC, axis.count
        )
        if out is None or out.count != axis.count:
            raise DomainMismatch(
                f"{self.kind!r} images of the nodes of axis {axis.name!r} lie on no "
                f"uniform linear or log lattice of {axis.count} nodes"
            )
        return out


def _lattice_axis(name: str, images, log_first: bool, most: int) -> Axis | None:
    """The axis ``name`` from the smallest image to the largest whose nodes
    form a uniform lattice, in its spacing coordinate, on which every image
    lies to 1e-6 steps, if one of at most ``most`` nodes exists; ``None``
    for images that are not all finite or that collapse to one value.

    Both spacings are tried, ln first when ``log_first`` and every image is
    > 0; the step is the smallest gap between distinct images.  The images
    are sorted once, into a copy; the log, the gaps, the lattice position
    k of each image and its distance from the nearest integer are then
    written into two work buffers the size of that copy.
    """
    s = np.sort(np.asarray(images, dtype=float).ravel())
    # The sort puts a NaN last and an infinity at an end.
    if not (np.isfinite(s[0]) and np.isfinite(s[-1]) and s[-1] > s[0]):
        return None
    work, k = np.empty_like(s), np.empty_like(s)
    spacings = [LINEAR]
    if s[0] > 0.0:
        spacings.insert(0 if log_first else 1, LOGARITHMIC)
    for spacing in spacings:
        t = np.log(s, out=work) if spacing == LOGARITHMIC else s
        lo, span = t[0], t[-1] - t[0]
        gaps = np.subtract(t[1:], t[:-1], out=k[:-1])
        # Gaps below this are rounding between images of one lattice point.
        step = gaps.min(where=gaps > 1e-9 * max(span, abs(t[0]), abs(t[-1])), initial=np.inf)
        if step == np.inf:
            continue
        steps = round(span / float(step))
        if steps < most:
            np.subtract(t, lo, out=k)
            k *= steps / span
            k -= np.round(k, out=work)
            if float(np.max(np.abs(k, out=k))) <= 1e-6:
                return Axis(name, spacing, float(s[0]), float(s[-1]), steps + 1)
    return None


def reciprocal_map() -> CoordinateMap:
    """y = 1/x on x > 0 (e.g. period vs frequency)."""
    return CoordinateMap(
        kind="reciprocal",
        forward=lambda x: 1.0 / x,
        inverse=lambda y: 1.0 / y,
        dforward=lambda x: -1.0 / (x * x),
        domain=(0.0, math.inf),
    )


def log_map(x0: float = 1.0) -> CoordinateMap:
    """y = ln(x / x0) on x > 0; x0 sets the unit the log is taken against."""
    if not (x0 > 0.0 and math.isfinite(x0)):
        raise InvalidGrid(f"log map reference x0 must be finite and > 0, got {x0!r}")
    return CoordinateMap(
        kind="log",
        forward=lambda x: np.log(x / x0),
        inverse=lambda y: x0 * np.exp(y),
        dforward=lambda x: 1.0 / x,
        domain=(0.0, math.inf),
    )


def exp_map(y0: float = 1.0) -> CoordinateMap:
    """y = y0 · e^x (inverse of the log map)."""
    if not (y0 > 0.0 and math.isfinite(y0)):
        raise InvalidGrid(f"exp map scale y0 must be finite and > 0, got {y0!r}")
    return CoordinateMap(
        kind="exp",
        forward=lambda x: y0 * np.exp(x),
        inverse=lambda y: np.log(y / y0),
        dforward=lambda x: y0 * np.exp(x),
    )


def affine_map(a: float, b: float = 0.0) -> CoordinateMap:
    """y = a·x + b with a ≠ 0."""
    if a == 0.0 or not (np.isfinite(a) and np.isfinite(b)):
        raise SingularJacobian(f"affine map needs finite a != 0, got a={a!r}, b={b!r}")
    return CoordinateMap(
        kind="affine",
        forward=lambda x: a * x + b,
        inverse=lambda y: (y - b) / a,
        dforward=lambda x: a * np.ones_like(np.asarray(x, dtype=float)),
    )


def power_map(k: float) -> CoordinateMap:
    """y = x^k on x > 0 with k ≠ 0."""
    if k == 0.0 or not np.isfinite(k):
        raise SingularJacobian(f"power map needs finite exponent k != 0, got {k!r}")
    return CoordinateMap(
        kind="power",
        forward=lambda x: np.power(x, k),
        inverse=lambda y: np.power(y, 1.0 / k),
        dforward=lambda x: k * np.power(x, k - 1.0),
        domain=(0.0, math.inf),
    )


# ---------------------------------------------------------------------------
# 2D maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Map2D:
    """A 2D coordinate change (x, y) ↦ (u, v) with analytic Jacobian
    determinant of the forward map.

    ``forward``, ``inverse`` and ``det_forward`` must broadcast their array
    arguments as numpy ufuncs do: the push-forward hands ``inverse`` a column
    of u and a row of v, and ``det_forward`` the preimages it returned, which
    may keep those shapes; the paradox demonstration probes ``forward`` with
    a column of x and a row of y.
    """

    kind: str
    forward: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    inverse: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    det_forward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    separable: tuple[CoordinateMap, CoordinateMap] | None = None


def product_map(mx: CoordinateMap, my: CoordinateMap) -> Map2D:
    """Axis-by-axis map (u, v) = (mx(x), my(y))."""
    return Map2D(
        kind=f"product({mx.kind},{my.kind})",
        forward=lambda x, y: (mx.forward(x), my.forward(y)),
        inverse=lambda u, v: (mx.inverse(u), my.inverse(v)),
        det_forward=lambda x, y: np.abs(mx.dforward(x)) * np.abs(my.dforward(y)),
        separable=(mx, my),
    )


def shear_map() -> Map2D:
    """(u, v) = (x, x·y) on x > 0: the second coordinate is sheared by the
    first, which makes horizontal slices of the first frame curved in the
    second.  |∂(u,v)/∂(x,y)| = x."""
    return Map2D(
        kind="shear",
        forward=lambda x, y: (x, x * y),
        inverse=lambda u, v: (u, v / u),
        det_forward=lambda x, y: np.abs(x) * np.ones_like(np.asarray(y, dtype=float)),
    )


def affine_map_2d(ax: float, bx: float, ay: float, by: float) -> Map2D:
    """(u, v) = (ax·x + bx, ay·y + by)."""
    return product_map(affine_map(ax, bx), affine_map(ay, by))


# ---------------------------------------------------------------------------
# push-forward
# ---------------------------------------------------------------------------

def push_forward(
    d: Density,
    m: CoordinateMap | Map2D,
    target_grid: Grid,
    outside: Literal["error", "zero"] = "error",
) -> Density:
    """Reexpress ``d`` on ``target_grid`` through map ``m``.

    Target node preimages are interpolated in the source density and weighted
    by the inverse-map Jacobian.  With ``outside="error"`` any preimage beyond
    the source box (past a relative slack of 1e-9) raises DomainMismatch; with
    ``outside="zero"`` such nodes get density zero, which is what nonlinear 2D
    maps of rectangles need, since their images are not rectangles.

    A 1D map is pushed as a one-axis inverse with |dy/dx| as its Jacobian
    determinant, through the same body as a 2D map.  This is ``pull_back``
    then ``PullBack.apply``; to push several densities on one grid through
    one map, build the pull-back once and apply it to each.
    """
    return pull_back(d.grid, m, target_grid, outside).apply(d)


@dataclass(frozen=True, eq=False)
class PullBack:
    """Where the push-forward of densities on ``source`` through one map
    reads them: the located preimages of nodes of ``target``, the forward
    Jacobian determinant there, and, with ``outside="zero"``, which
    preimages lie inside the source box (``None`` otherwise).
    ``pull_back`` locates every node of ``target``, and ``apply`` pushes a
    density onto them all; ``_pull_back_nodes`` locates some of them, and
    ``values`` gives a density's pushed values there."""

    source: Grid
    target: Grid
    located: tuple
    det: np.ndarray
    inside: np.ndarray | None

    def values(self, d: Density) -> np.ndarray:
        """The push-forward of ``d``, a density on ``source``, at the nodes
        pulled back, as a fresh array: 0 where a preimage is outside."""
        if d.grid.axes != self.source.axes:
            raise GridMismatch(
                f"a pull-back from {self.source.names}{self.source.shape} cannot push "
                f"a density on {d.grid.names}{d.grid.shape}"
            )
        vals = interpolate(self.located, d.values) / self.det
        if self.inside is not None:
            vals = np.where(self.inside, vals, 0.0)
        return vals

    def apply(self, d: Density) -> Density:
        """The push-forward of ``d``, a density on ``source``, onto every
        node of ``target``."""
        vals = self.values(d).reshape(self.target.shape)
        # Frozen, so the Density shares this fresh array instead of copying it.
        vals.setflags(write=False)
        return Density(self.target, vals)


def pull_back(
    source: Grid,
    m: CoordinateMap | Map2D,
    target_grid: Grid,
    outside: Literal["error", "zero"] = "error",
) -> PullBack:
    """Locate the preimages of ``target_grid``'s nodes under ``m`` on
    ``source``, as ``push_forward`` does, once for any number of densities."""
    points = [ax.nodes for ax in target_grid.axes]
    if len(points) == 2:
        # A column of u and a row of v: preimages, masks and Jacobians
        # broadcast from them, so a separable map keeps a column and a row
        # throughout.
        points = [points[0][:, None], points[1][None, :]]
    return _pull_back(source, m, target_grid, points, outside)


def _pull_back_nodes(
    source: Grid, m: Map2D, target_grid: Grid, flat: np.ndarray, outside: str
) -> PullBack:
    """``pull_back`` of only the target nodes at the row-major flat indices
    ``flat``, whose pushed values ``PullBack.values`` gives in that order."""
    rows, cols = np.unravel_index(flat, target_grid.shape)
    u, v = target_grid.axes
    return _pull_back(source, m, target_grid, [u.nodes[rows], v.nodes[cols]], outside)


def _pull_back(
    source: Grid,
    m: CoordinateMap | Map2D,
    target_grid: Grid,
    points: list,
    outside: str,
) -> PullBack:
    """Locate the preimages under ``m`` of target ``points``, one coordinate
    array per axis, broadcastable together, on ``source``: the target
    grid's nodes, or some of them."""
    ndim = 1 if isinstance(m, CoordinateMap) else 2
    if source.ndim != ndim or target_grid.ndim != ndim:
        raise InvalidGrid(f"{ndim}D maps push {ndim}D densities")
    axes = source.axes
    if ndim == 1:
        factors = (m,)
        inverse = lambda y: (m.inverse(y),)
        det_forward = lambda x: np.abs(m.dforward(x))
    else:
        factors, inverse, det_forward = m.separable or (), m.inverse, m.det_forward
    for factor, ax in zip(factors, axes):
        factor.check_domain(ax)
    pre, inside = zip(*(_clip_or_flag(ax, x, outside) for ax, x in zip(axes, inverse(*points))))
    det = np.asarray(det_forward(*pre), dtype=float)
    if not np.all(np.isfinite(det)) or np.any(det == 0.0):
        raise SingularJacobian(f"{m.kind!r} map has a singular Jacobian at some preimages")
    located = locate(
        tuple(ax.param_nodes for ax in axes),
        tuple(ax.param_of(x) for ax, x in zip(axes, pre)),
    )
    mask = functools.reduce(np.logical_and, inside) if outside == "zero" else None
    return PullBack(source, target_grid, located, det, mask)


# How far past the source box, relative to its largest |edge|, a preimage
# still counts as inside it.
_EDGE_RTOL = 1e-9


def _clip_or_flag(ax: Axis, x, outside: str):
    """Preimages clipped into the box, and which were inside it to a
    relative slack of ``_EDGE_RTOL``."""
    x = np.asarray(x, dtype=float)
    inside = ax.contains(x, rtol=_EDGE_RTOL)
    if outside == "error" and not np.all(inside):
        worst = float(np.max(np.maximum(ax.lower - x, x - ax.upper)))
        raise DomainMismatch(
            f"target nodes pull back outside axis {ax.name!r} box by up to {worst!r}; "
            "the map does not carry the source box onto the target box"
        )
    return ax.clip(x), inside


# ---------------------------------------------------------------------------
# invariance check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    map_kind: str
    or_discrepancy: float
    and_discrepancy: float

    def within(self, tol: float) -> bool:
        return self.or_discrepancy <= tol and self.and_discrepancy <= tol


def verify_invariance(
    p: Density,
    q: Density,
    mu: Density,
    m: CoordinateMap,
) -> InvarianceReport:
    """Measure how well OR and AND commute with the push-forward.

    Affine maps resample onto the node-matched image grid (exact up to float
    rounding); other kinds deliberately use an image grid with 3/4 as many
    nodes, so the discrepancy reports genuine interpolation error rather than
    zero.
    Discrepancies are max pointwise differences relative to the peak.
    """
    src = p.grid.axes[0]
    count = src.count if m.kind == "affine" else max(16, int(round(src.count * 0.75)))
    target = Grid.of(replace(m.image_axis(src), count=count))

    def push(d: Density) -> Density:
        return push_forward(d, m, target)

    both_or = _rel_diff(push(or_combine(p, q)), or_combine(push(p), push(q)))
    both_and = _rel_diff(
        push(and_combine(p, q, mu)), and_combine(push(p), push(q), push(mu))
    )
    return InvarianceReport(m.kind, both_or, both_and)

