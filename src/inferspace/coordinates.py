"""Coordinate changes with analytic Jacobians.

All Jacobian bookkeeping lives here: a pushed density is the pull-back
``q(y) = p(x(y)) · |dx/dy|`` evaluated at the target grid's nodes, so states
keep their meaning as densities with respect to whatever frame they live in.
Maps carry closed-form forward, inverse, and derivative callables; nothing in
the package differentiates numerically.

Strictly monotone decreasing 1D maps (reciprocal, negative affine) are
allowed; the Jacobian used for densities is the absolute derivative and the
image axis is reordered ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from ._kernels import interpolate
from .density import Density, default_frame, evaluate
from .errors import DomainMismatch, InvalidGrid, SingularJacobian
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

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """|dy/dx| at x; raises if it vanishes or is not finite."""
        j = np.abs(np.asarray(self.dforward(np.asarray(x, dtype=float)), dtype=float))
        if not np.all(np.isfinite(j)) or np.any(j == 0.0):
            raise SingularJacobian(f"{self.kind!r} map has a singular Jacobian on the domain")
        return j

    def check_domain(self, axis: Axis) -> None:
        lo, hi = self.domain
        if axis.lower < lo or axis.upper > hi:
            raise DomainMismatch(
                f"axis {axis.name!r} box [{axis.lower}, {axis.upper}] leaves the "
                f"{self.kind!r} map domain [{lo}, {hi}]"
            )

    def image_axis(self, axis: Axis, name: str = "", units: str = "") -> Axis:
        """The axis whose nodes are exactly the images of ``axis``'s nodes.

        Only kinds whose image of a linear/log axis is again a linear/log
        axis support this; composed and custom maps need an explicit target.
        """
        self.check_domain(axis)
        a = float(self.forward(np.asarray(axis.lower)))
        b = float(self.forward(np.asarray(axis.upper)))
        lo, hi = (a, b) if a < b else (b, a)
        spacing = _image_spacing(self.kind, axis.spacing, self)
        if spacing is None:
            raise DomainMismatch(
                f"{self.kind!r} map of a {axis.spacing} axis has no linear/log image axis; "
                "pass an explicit target grid"
            )
        out = Axis(name or f"{self.kind}_{axis.name}", spacing, lo, hi, axis.count, units)
        img = np.sort(self.forward(axis.nodes))
        scale = max(abs(lo), abs(hi))
        if np.max(np.abs(img - out.nodes)) > 1e-9 * scale:
            raise DomainMismatch(
                f"{self.kind!r} image of axis {axis.name!r} does not land on its "
                f"{spacing} image axis"
            )
        return out


def _image_spacing(kind: str, spacing: str, m: "CoordinateMap") -> str | None:
    if kind == "affine":
        if spacing == LINEAR:
            return LINEAR
        # only a pure positive rescale keeps geometric nodes geometric
        shift = float(m.forward(np.asarray(0.0)))
        return LOGARITHMIC if shift == 0.0 and float(m.forward(np.asarray(1.0))) > 0.0 else None
    if kind == "log" and spacing == LOGARITHMIC:
        return LINEAR
    if kind == "exp" and spacing == LINEAR:
        return LOGARITHMIC
    if kind in ("reciprocal", "power") and spacing == LOGARITHMIC:
        return LOGARITHMIC
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


def custom_map(
    forward: Callable,
    inverse: Callable,
    dforward: Callable,
    domain: tuple[float, float] = (-math.inf, math.inf),
) -> CoordinateMap:
    return CoordinateMap("custom", forward, inverse, dforward, domain)


def compose(m1: CoordinateMap, m2: CoordinateMap) -> CoordinateMap:
    """The map x ↦ m2(m1(x)); Jacobians multiply by the chain rule."""
    return CoordinateMap(
        kind="composed",
        forward=lambda x: m2.forward(m1.forward(x)),
        inverse=lambda y: m1.inverse(m2.inverse(y)),
        dforward=lambda x: m2.dforward(m1.forward(x)) * m1.dforward(x),
        domain=m1.domain,
    )


# ---------------------------------------------------------------------------
# 2D maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Map2D:
    """A 2D coordinate change (x, y) ↦ (u, v) with analytic Jacobian
    determinant of the forward map.

    ``inverse`` and ``det_forward`` must broadcast their array arguments as
    numpy ufuncs do: the push-forward hands ``inverse`` a column of u and a
    row of v, and ``det_forward`` the preimages it returned, which may keep
    those shapes.
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
    frame: str = "",
    outside: Literal["error", "zero"] = "error",
    match_tol: float = 1e-9,
) -> Density:
    """Reexpress ``d`` on ``target_grid`` through map ``m``.

    Target node preimages are interpolated in the source density and weighted
    by the inverse-map Jacobian.  With ``outside="error"`` any preimage beyond
    the source box (past a relative slack) raises DomainMismatch; with
    ``outside="zero"`` such nodes get density zero, which is what nonlinear 2D
    maps of rectangles need, since their images are not rectangles.
    """
    frame = frame or default_frame(target_grid)
    if isinstance(m, CoordinateMap):
        if d.grid.ndim != 1 or target_grid.ndim != 1:
            raise InvalidGrid("1D maps push 1D densities")
        return _push_1d(d, m, target_grid, frame, outside, match_tol)
    if d.grid.ndim != 2 or target_grid.ndim != 2:
        raise InvalidGrid("2D maps push 2D densities")
    return _push_2d(d, m, target_grid, frame, outside, match_tol)


def _clip_or_flag(ax: Axis, x: np.ndarray, outside: str, match_tol: float):
    scale = max(abs(ax.lower), abs(ax.upper))
    slack = match_tol * scale
    inside = (x >= ax.lower - slack) & (x <= ax.upper + slack)
    if outside == "error" and not np.all(inside):
        worst = float(np.max(np.maximum(ax.lower - x, x - ax.upper)))
        raise DomainMismatch(
            f"target nodes pull back outside axis {ax.name!r} box by up to {worst!r}; "
            "the map does not carry the source box onto the target box"
        )
    return np.clip(x, ax.lower, ax.upper), inside


def _push_1d(d, m, target_grid, frame, outside, match_tol):
    src_ax = d.grid.axes[0]
    m.check_domain(src_ax)
    y = target_grid.axes[0].nodes
    x = np.asarray(m.inverse(y), dtype=float)
    x, inside = _clip_or_flag(src_ax, x, outside, match_tol)
    jac = m.jacobian(x)  # |dy/dx| at the preimage
    vals = evaluate(d, x) / jac
    if outside == "zero":
        vals = np.where(inside, vals, 0.0)
    return Density(target_grid, vals, frame=frame)


def _push_2d(d, m, target_grid, frame, outside, match_tol):
    ax0, ax1 = d.grid.axes
    tu, tv = target_grid.axes
    if m.separable is not None:
        for factor, ax in zip(m.separable, d.grid.axes):
            factor.check_domain(ax)
    # A column of u and a row of v: preimages, masks and Jacobians broadcast
    # from them, so a separable map keeps a column and a row throughout.
    x, y = m.inverse(tu.nodes[:, None], tv.nodes[None, :])
    x, in_x = _clip_or_flag(ax0, np.asarray(x, dtype=float), outside, match_tol)
    y, in_y = _clip_or_flag(ax1, np.asarray(y, dtype=float), outside, match_tol)
    det = np.asarray(m.det_forward(x, y), dtype=float)
    if not np.all(np.isfinite(det)) or np.any(det == 0.0):
        raise SingularJacobian(f"{m.kind!r} map has a singular Jacobian at some preimages")
    vals = interpolate(
        (ax0.param_nodes, ax1.param_nodes), d.values, (ax0.param_of(x), ax1.param_of(y))
    ) / det
    if outside == "zero":
        vals = np.where(in_x & in_y, vals, 0.0)
    return Density(target_grid, np.broadcast_to(vals, target_grid.shape), frame=frame)


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
    count_scale: float = 0.75,
) -> InvarianceReport:
    """Measure how well OR and AND commute with the push-forward.

    Affine maps resample onto the node-matched image grid (exact up to float
    rounding); other kinds deliberately use a coarser image grid so the
    discrepancy reports genuine interpolation error rather than zero.
    Discrepancies are max pointwise differences relative to the peak.
    """
    from .algebra import and_combine, or_combine  # local import to avoid a cycle

    src = p.grid.axes[0]
    count = src.count if m.kind == "affine" else max(16, int(round(src.count * count_scale)))
    img = m.image_axis(src)
    target = Grid.of(Axis(img.name, img.spacing, img.lower, img.upper, count, img.units))

    def push(d: Density) -> Density:
        return push_forward(d, m, target)

    both_or = _peak_rel_diff(push(or_combine(p, q)), or_combine(push(p), push(q)))
    both_and = _peak_rel_diff(
        push(and_combine(p, q, mu)), and_combine(push(p), push(q), push(mu))
    )
    return InvarianceReport(m.kind, both_or, both_and)


def _peak_rel_diff(a: Density, b: Density) -> float:
    peak = max(float(np.max(a.values)), float(np.max(b.values)), 1e-300)
    return float(np.max(np.abs(a.values - b.values))) / peak
