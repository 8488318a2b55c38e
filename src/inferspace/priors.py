"""Noninformative priors and instrument measurement densities.

The null-information state for a positive quantity whose scale carries no
preferred unit is the reciprocal density 1/x (constant in the log frame); on
an unconstrained linear axis it is uniform.  Position in a spherical-shell
volume gets r²·sinθ.  Non-normalizable priors are truncated to the grid box.

Measurement models turn one instrument reading into a density over its
parameter's axis: ``gaussian`` (linear axes only — symmetric additive noise
is inconsistent with a positivity constraint), ``lognormal`` (multiplicative
noise; widens into the reciprocal prior as width → ∞), ``boxcar`` (the
noninformative prior restricted between two bounds), and ``noninformative``
(no reading at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Density
from .errors import ConfigInvalid, InvalidBounds, ModelAxisMismatch
from .grids import LOGARITHMIC, Axis, Grid

JEFFREYS = "jeffreys_reciprocal"
UNIFORM = "uniform"
SPHERICAL = "spherical_position"

GAUSSIAN = "gaussian"
LOGNORMAL = "lognormal"
BOXCAR = "boxcar"
NONINFORMATIVE = "noninformative"

_PRIOR_KINDS = (JEFFREYS, UNIFORM, SPHERICAL)
_MODEL_KINDS = (GAUSSIAN, LOGNORMAL, BOXCAR, NONINFORMATIVE)

# The narrowest lognormal float64 can represent.  Its width is a spread of
# ln x, and ln x is resolved only to float64's epsilon: a narrower profile is
# a spike between neighbouring doubles.
_LOGNORMAL_MIN_WIDTH = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSpec:
    """A noninformative prior kind plus optional per-axis support bounds.

    ``bounds`` is one (lower, upper) pair per axis; None means the grid box.
    """

    kind: str
    bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PRIOR_KINDS:
            raise InvalidBounds(f"unknown prior kind {self.kind!r}; expected one of {_PRIOR_KINDS}")
        if self.bounds is not None:
            object.__setattr__(self, "bounds", tuple(tuple(map(float, b)) for b in self.bounds))
            for lo, hi in self.bounds:
                if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                    raise InvalidBounds(f"degenerate prior bounds ({lo}, {hi})")


def noninformative_profile(axis: Axis) -> np.ndarray:
    """The per-axis null-information factor: 1/x on log axes, 1 on linear."""
    if axis.spacing == LOGARITHMIC:
        return 1.0 / axis.nodes
    return np.ones(axis.count)


def _overlap_fraction(axis: Axis, lo: float, hi: float) -> np.ndarray:
    """Fraction of each node's quadrature cell covered by [lo, hi].

    Wide intervals give the exact 0/1 indicator except at the two straddled
    edge cells; intervals thinner than a cell keep their full mass in that
    cell instead of vanishing between nodes.
    """
    edges = axis.cell_boundaries
    left = np.maximum(edges[:-1], lo)
    right = np.minimum(edges[1:], hi)
    return np.maximum(right - left, 0.0) / np.diff(edges)


def prior_factors(spec: PriorSpec, grid: Grid) -> tuple[np.ndarray, ...]:
    """The prior as one factor per axis, truncated to its bounds (or the box).

    Every prior kind here is separable: the prior on the grid is the outer
    product of these factors.
    """
    if spec.bounds is not None and len(spec.bounds) != grid.ndim:
        raise InvalidBounds(
            f"{len(spec.bounds)} bound pair(s) for a {grid.ndim}D grid"
        )
    if spec.kind == SPHERICAL:
        shapes = _spherical_shapes(grid)
    elif spec.kind == JEFFREYS:
        for ax in grid.axes:
            if ax.lower <= 0.0:
                raise InvalidBounds(
                    f"axis {ax.name!r}: the reciprocal prior needs a positive box"
                )
        shapes = [1.0 / ax.nodes for ax in grid.axes]
    else:
        shapes = [np.ones(ax.count) for ax in grid.axes]
    if spec.bounds is None:
        return tuple(shapes)
    return tuple(
        shape * _bounds_factor(spec, i, ax) for i, (shape, ax) in enumerate(zip(shapes, grid.axes))
    )


def outer_values(factors) -> np.ndarray:
    """The grid array of a separable density: the outer product of its factors."""
    return factors[0] if len(factors) == 1 else np.multiply.outer(factors[0], factors[1])


def make_prior(spec: PriorSpec, grid: Grid) -> Density:
    """Evaluate the prior on the grid, truncated to its bounds (or the box)."""
    return Density(grid, outer_values(prior_factors(spec, grid)))


def _bounds_factor(spec: PriorSpec, i: int, ax: Axis) -> np.ndarray:
    lo, hi = spec.bounds[i]
    if lo < ax.lower - 1e-12 * abs(ax.lower) or hi > ax.upper + 1e-12 * abs(ax.upper):
        raise InvalidBounds(
            f"prior bounds ({lo}, {hi}) leave the axis {ax.name!r} box "
            f"[{ax.lower}, {ax.upper}]"
        )
    return _overlap_fraction(ax, lo, hi)


def _spherical_shapes(grid: Grid) -> list[np.ndarray]:
    if grid.ndim != 2:
        raise InvalidBounds("the spherical position prior lives on a 2D (r, θ) grid")
    r_ax, th_ax = grid.axes
    if r_ax.lower < 0.0:
        raise InvalidBounds(f"radius axis {r_ax.name!r} must start at r >= 0")
    if th_ax.lower < 0.0 or th_ax.upper > math.pi + 1e-12:
        raise InvalidBounds(f"polar axis {th_ax.name!r} must stay inside [0, π]")
    return [r_ax.nodes**2, np.sin(th_ax.nodes)]


# ---------------------------------------------------------------------------
# measurement models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementModel:
    """One instrument reading: a density kind over one named parameter axis.

    ``center`` is the reading, ``width`` its scale: the standard deviation for
    gaussian, the log-standard-deviation for lognormal, the half-width for
    boxcar.  Infinite width degrades any kind to noninformative.
    """

    parameter: str
    kind: str
    center: float = math.nan
    width: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in _MODEL_KINDS:
            raise ModelAxisMismatch(
                f"unknown measurement kind {self.kind!r}; expected one of {_MODEL_KINDS}"
            )
        if not self.width > 0.0:
            raise InvalidBounds(f"measurement width must be > 0, got {self.width!r}")
        if self.kind != NONINFORMATIVE and math.isfinite(self.width):
            if not np.isfinite(self.center):
                raise InvalidBounds(f"{self.kind} measurement needs a finite center")
            if self.kind == LOGNORMAL and self.center <= 0.0:
                raise InvalidBounds(
                    f"lognormal measurement center must be > 0, got {self.center!r}"
                )
            if self.kind == LOGNORMAL and self.width < _LOGNORMAL_MIN_WIDTH:
                raise InvalidBounds(
                    f"the {self.parameter} lognormal width {self.width!r} cannot be "
                    f"represented in float64: it must be >= {_LOGNORMAL_MIN_WIDTH:.3g}"
                )


def measurement_profile(model: MeasurementModel, axis: Axis) -> np.ndarray:
    """Unnormalized density values of the model on one axis."""
    if model.kind == BOXCAR and math.isfinite(model.width):
        lo = model.center - model.width
        hi = model.center + model.width
        if hi <= axis.lower or lo >= axis.upper:
            raise InvalidBounds(
                f"boxcar [{lo}, {hi}] does not meet the axis {axis.name!r} box"
            )
    return measurement_profiles(model, axis, model.center)


def measurement_profiles(model: MeasurementModel, axis: Axis, centers) -> np.ndarray:
    """The model's unnormalized profile on one axis at each of ``centers``.

    ``model.center`` is ignored.  An array of k centers gives one row per
    center, shape (k, count); a scalar gives one profile.  A boxcar that
    misses the box gives a row of zeros.  A node many widths from a center
    overflows (x − c)/width on the way; its value is then the 0 it rounds
    to, without a warning.
    """
    kind = model.kind if math.isfinite(model.width) else NONINFORMATIVE
    x = axis.nodes
    c = np.asarray(centers, dtype=float)[..., None]
    if kind == NONINFORMATIVE:
        return np.broadcast_to(noninformative_profile(axis), c.shape[:-1] + x.shape).copy()
    if kind == GAUSSIAN and axis.spacing == LOGARITHMIC:
        raise ModelAxisMismatch(
            f"axis {axis.name!r}: a gaussian cannot model a positivity-"
            "constrained quantity; use lognormal"
        )
    if kind == LOGNORMAL and axis.lower <= 0.0:
        raise ModelAxisMismatch(f"axis {axis.name!r}: lognormal needs a positive box")
    with np.errstate(over="ignore"):
        if kind == GAUSSIAN:
            t = (x - c) / model.width
            return np.exp(-0.5 * t * t)
        if kind == LOGNORMAL:
            # one log per node and one per center, not one per (center, node) pair
            t = (np.log(x) - np.log(c)) / model.width
            return np.exp(-0.5 * t * t) / x
        # boxcar: the noninformative prior restricted between the bounds
        return noninformative_profile(axis) * _overlap_fraction(
            axis, c - model.width, c + model.width
        )


def null_information_density(grid: Grid) -> Density:
    """μ matched to the grid's working coordinates: 1/x on logarithmic axes,
    flat on linear ones.  This is the density carrying no information in the
    coordinates the grid itself uses."""
    factors = [noninformative_profile(ax) for ax in grid.axes]
    return Density(grid, outer_values(factors))


def measurement_density(model: MeasurementModel, grid: Grid, frame: str = "") -> Density:
    """The model's density on ``grid``.

    On the model's own axis the measurement profile applies; any other axis
    carries the noninformative factor, so on a joint grid the result is ready
    to intersect with a theory.
    """
    idx = grid.axis_index(model.parameter)
    factors = [
        measurement_profile(model, ax) if i == idx else noninformative_profile(ax)
        for i, ax in enumerate(grid.axes)
    ]
    return Density(grid, outer_values(factors), frame=frame)


# ---------------------------------------------------------------------------
# digit statistics and sampling
# ---------------------------------------------------------------------------

def benford_digit_probabilities() -> np.ndarray:
    """First-digit probabilities log10((n+1)/n) implied by scale invariance."""
    n = np.arange(1, 10, dtype=float)
    return np.log10(1.0 + 1.0 / n)


def jeffreys_ppf(u: np.ndarray, lower: float, upper: float) -> np.ndarray:
    """Inverse CDF of the truncated reciprocal density on [lower, upper]."""
    return lower * np.power(upper / lower, u)


def sample_prior(spec: PriorSpec, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` samples from a truncated prior by inverse-CDF.

    Requires explicit bounds on the PriorSpec.  Returns shape (n,) for one
    axis and (n, k) for k axes.
    """
    if spec.bounds is None:
        raise InvalidBounds("sampling needs explicit bounds on the PriorSpec")
    if seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if spec.kind == SPHERICAL:
        if len(spec.bounds) != 2:
            raise InvalidBounds("spherical sampling needs (r, θ) bounds")
        (r_lo, r_hi), (t_lo, t_hi) = spec.bounds
        if r_lo < 0.0 or t_lo < 0.0 or t_hi > math.pi + 1e-12:
            raise InvalidBounds("spherical bounds must satisfy r >= 0 and θ in [0, π]")
        u = rng.uniform(size=n)
        r = np.cbrt(r_lo**3 + (r_hi**3 - r_lo**3) * u)
        v = rng.uniform(size=n)
        c_lo, c_hi = math.cos(t_lo), math.cos(t_hi)
        theta = np.arccos(c_lo - v * (c_lo - c_hi))
        return np.column_stack([r, theta])

    cols = []
    for lo, hi in spec.bounds:
        u = rng.uniform(size=n)
        if spec.kind == JEFFREYS:
            if lo <= 0.0:
                raise InvalidBounds("the reciprocal prior needs positive bounds")
            cols.append(jeffreys_ppf(u, lo, hi))
        else:
            cols.append(lo + (hi - lo) * u)
    return cols[0] if len(cols) == 1 else np.column_stack(cols)
