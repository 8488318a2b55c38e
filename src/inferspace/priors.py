"""The noninformative prior and instrument measurement models.

The null-information state for a positive quantity whose scale carries no
preferred unit is the reciprocal (Jeffreys) density 1/x, constant in the log
frame; on an unconstrained linear axis it is uniform.  The reciprocal prior is
not normalizable, so it is truncated to the grid box, or for sampling to
explicit bounds.

Measurement models turn one instrument reading into a density over its
parameter's axis: ``gaussian`` (linear axes only — symmetric additive noise
is inconsistent with a positivity constraint), ``lognormal`` (multiplicative
noise; widens into the reciprocal prior as width → ∞), ``boxcar`` (the
noninformative prior restricted between two bounds), and ``noninformative``
(no reading at all).  A reading's density on its axis is a centre factor,
which depends on the reading (``reading_centre_factor``,
``profile_centre_factors``), times a node factor, which does not
(``profile_node_factor``).  The node factor of a boxcar or noninformative
reading is the μ it is taken against: a theory's own μ, so a boxcar is μ
restricted to its interval and weighs each node by the share of its cell
inside the interval, and a noninformative reading is μ itself, which ANDs
to nothing.  ``null_information_density`` is the μ of a bare grid, for the
generic algebra, and the one place where an axis's spacing picks a null
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ranges
from .density import Density
from .errors import ConfigInvalid, InvalidBounds, ModelAxisMismatch
from .grids import LOGARITHMIC, Axis, Grid

GAUSSIAN = "gaussian"
LOGNORMAL = "lognormal"
BOXCAR = "boxcar"
NONINFORMATIVE = "noninformative"

_MODEL_KINDS = (GAUSSIAN, LOGNORMAL, BOXCAR, NONINFORMATIVE)

# The narrowest lognormal float64 can represent.  Its width is a spread of
# ln x, and ln x is resolved only to float64's epsilon: a narrower profile is
# a spike between neighbouring doubles.
_LOGNORMAL_MIN_WIDTH = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

def _null_factor(axis: Axis) -> np.ndarray:
    """A bare axis's null-information factor: 1/x on log axes, 1 on linear."""
    if axis.spacing == LOGARITHMIC:
        return 1.0 / axis.nodes
    return np.ones(axis.count)


def _overlap_fraction(axis: Axis, lo, hi, window: slice, out: np.ndarray) -> np.ndarray:
    """Fraction of each node's quadrature cell covered by [lo, hi], for the
    nodes in ``window``, written into ``out`` and returned.

    Wide intervals give the exact 0/1 indicator except at the two straddled
    edge cells; intervals thinner than a cell keep their full mass in that
    cell instead of vanishing between nodes.
    """
    edges = axis.cell_boundaries
    left, right = edges[:-1][window], edges[1:][window]
    out = np.maximum(left, lo, out=out)
    np.subtract(np.minimum(right, hi), out, out=out)
    np.maximum(out, 0.0, out=out)
    out /= right - left
    return out


def jeffreys_factors(grid: Grid) -> tuple[np.ndarray, ...]:
    """The reciprocal prior on the grid box, one factor 1/x per axis: the
    prior is their outer product."""
    for ax in grid.axes:
        if ax.lower <= 0.0:
            raise InvalidBounds(f"axis {ax.name!r}: the reciprocal prior needs a positive box")
    return tuple(1.0 / ax.nodes for ax in grid.axes)


def outer_values(factors) -> np.ndarray:
    """The grid array of a separable density: the outer product of its factors."""
    return factors[0] if len(factors) == 1 else np.multiply.outer(factors[0], factors[1])


# ---------------------------------------------------------------------------
# measurement models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementModel:
    """One instrument reading: a density kind over one named parameter axis.

    ``center`` is the reading, ``width`` its scale: the standard deviation for
    gaussian, the log-standard-deviation for lognormal, the half-width for
    boxcar.  Infinite width degrades any kind to noninformative: ``kind``
    is then ``NONINFORMATIVE``.
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
        if math.isinf(self.width):
            object.__setattr__(self, "kind", NONINFORMATIVE)
        if self.kind != NONINFORMATIVE:
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


def reading_centre_factor(model: MeasurementModel, axis: Axis) -> np.ndarray:
    """The model's centre factor at ``model.center`` on every node of
    ``axis``: 0 everywhere for a boxcar whose interval misses the box."""
    return profile_centre_factors(
        model, axis, np.array([model.center]), slice(None), np.empty((1, axis.count))
    )[0]


def _profile_kind(model: MeasurementModel, axis: Axis) -> str:
    """The model's kind as profiled on ``axis``, refusing a kind the axis
    cannot carry."""
    kind = model.kind
    if kind == GAUSSIAN and axis.spacing == LOGARITHMIC:
        raise ModelAxisMismatch(
            f"axis {axis.name!r}: a gaussian cannot model a positivity-"
            "constrained quantity; use lognormal"
        )
    if kind == LOGNORMAL and axis.lower <= 0.0:
        raise ModelAxisMismatch(f"axis {axis.name!r}: lognormal needs a positive box")
    return kind


def _profile_coordinate(kind: str, axis: Axis, window: slice = slice(None)) -> np.ndarray:
    """The nodes in ``window`` in the coordinate a profile of ``kind`` is
    gaussian in: ln x for lognormal, x otherwise."""
    if kind != LOGNORMAL:
        return axis.nodes[window]
    if axis.spacing == LOGARITHMIC:
        return axis.param_nodes[window]
    return np.log(axis.nodes[window])


def profile_node_factor(model: MeasurementModel, axis: Axis, mu: np.ndarray) -> np.ndarray:
    """The factor of the model's profile that does not depend on the
    reading, over the nodes of ``axis``: 1/x for lognormal, 1 for gaussian,
    and for boxcar and noninformative the noninformative factor ``mu`` on
    the axis, which it returns as it is."""
    kind = _profile_kind(model, axis)
    if kind == GAUSSIAN:
        return np.ones(axis.count)
    if kind == LOGNORMAL:
        return 1.0 / axis.nodes
    return mu


def profile_centre_factors(
    model: MeasurementModel, axis: Axis, centers: np.ndarray, window: slice, out: np.ndarray
) -> np.ndarray:
    """The factor of the model's profile that depends on the reading, at
    each of the k ``centers``, on the nodes of ``axis`` in ``window``,
    written into ``out``, C-contiguous of shape (k, nodes in window), and
    returned.

    It is exp(−½t²) for gaussian and lognormal, with t = (x − c)/width in x
    or in ln x; the overlap fraction of each node's cell with
    [c − width, c + width] for boxcar, 0 where the interval misses the box;
    and 1 for noninformative.  The profile is this factor times
    ``profile_node_factor``.  It is one block of
    ``profile_centre_factor_blocks``, which a campaign runs for a block of
    readings at a time; ``intersect`` takes one reading at a time
    (``reading_centre_factor``), whose profile it divides by the theory's
    μ, and one reading's gaussian factor is bit for bit the direct
    evaluation of exp(−½t²).  ``model.center`` is ignored.  A node many
    widths from a center has the factor 0, without a warning.
    """
    lo, hi, _ = window.indices(axis.count)
    block = profile_centre_factor_blocks(
        model, axis, centers, np.array([0]), np.array([lo]), np.array([hi]), out.reshape(-1)
    )
    with np.errstate(over="ignore"):
        next(block)
    return out


def profile_centre_factor_blocks(model: MeasurementModel, axis: Axis, centers: np.ndarray,
                                 starts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                                 scratch: np.ndarray):
    """Yield the centre factors (``profile_centre_factors``) of each block
    of ``centers``, those from ``starts[b]`` up to the next start, on the
    nodes ``lo[b]:hi[b]`` of ``axis``: each a (k × nodes) view of the flat
    ``scratch``, which the next block overwrites.

    A gaussian or lognormal model's nodes are taken to its coordinate, x or
    ln x, once, and its centres once each, ``_GROUP_BLOCKS`` blocks at a
    time; each group of blocks is one ``gaussian_factor_blocks``, whose
    work arrays then stay a few times the size of a block's.  Overflow on
    the way is warned about unless the caller ignores it.
    """
    kind = _profile_kind(model, axis)
    stops = [*starts[1:].tolist(), centers.size]
    if kind in (GAUSSIAN, LOGNORMAL):
        nodes = _profile_coordinate(kind, axis)
        for g in range(0, starts.size, _GROUP_BLOCKS):
            group = slice(g, g + _GROUP_BLOCKS)
            first, stop = int(starts[g]), stops[min(g + _GROUP_BLOCKS, starts.size) - 1]
            c = np.log(centers[first:stop]) if kind == LOGNORMAL else centers[first:stop]
            yield from gaussian_factor_blocks(nodes, c, model.width, starts[group] - first,
                                              lo[group], hi[group], scratch)
        return
    for s, e, l, h in zip(starts.tolist(), stops, lo.tolist(), hi.tolist()):
        out = scratch[:(e - s) * (h - l)].reshape(e - s, h - l)
        if kind == NONINFORMATIVE:
            out.fill(1.0)
        else:
            c = centers[s:e, None]
            _overlap_fraction(axis, c - model.width, c + model.width, slice(l, h), out)
        yield out


def _gaussian_kernel(u: np.ndarray, width: float) -> np.ndarray:
    """exp(−½(u/width)²), computed in place over ``u`` and returned: divide
    by the width, square, multiply by −½, exp, rounded in that order.  It is
    the fall ridge of ``theory.analytic_fall_theory``, with u = ζ, and the
    direct evaluation of ``gaussian_factor_blocks`` for a single centre or
    a block of centres too spread out to share a reference, with u = x − c.  A u many widths
    out overflows u² to inf, and numpy warns about that unless the caller
    ignores it; the factor there is the 0 it rounds to."""
    u /= width
    np.square(u, out=u)
    u *= -0.5
    return np.exp(u, out=u)


# The widest half-spread of a block of centres, in widths from its midpoint,
# for which ``gaussian_factor_blocks`` expands the square: its rounding is
# then below (6·8² + 10·8 + 4)·2⁻⁵³ ≈ 5e-14 of the factor's largest value, 1.
_EXPAND_MAX_WIDTHS = 8.0
# Node distances, in widths, are clamped to this: exp(−½d²) is 0 past it,
# and a clamped d times a centre's e stays finite.
_FAR_WIDTHS = 1e100
# Blocks of gaussian centre factors whose rows and columns are built at once.
_GROUP_BLOCKS = 16


def gaussian_factor_blocks(nodes: np.ndarray, centers: np.ndarray, width: float,
                           starts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                           scratch: np.ndarray):
    """Yield exp(−½((x − c)/width)²) for each block of ``centers``, those
    from ``starts[b]`` up to the next start (rows), on the ``nodes`` x in
    ``lo[b]:hi[b]`` (columns): each a (k × nodes) view of the flat
    ``scratch``, which the next block overwrites.  Nodes and centres are in
    the profile's coordinate, x or ln x.

    With the block's reference m, the midpoint of its centres,
    d = (x − m)/width and e = (c − m)/width, the exponent −½(d − e)² is
    −½d² + d·e − ½e²: one (k×3)·(3×n) product of the rows [1, e, e²] and
    the columns [−½d², d, −½], then one exp in place, where the direct
    evaluation takes five passes over the k×n factors.  The rows and
    columns of every block are built before the first, in a few passes
    over the centres and the windows' nodes (``_expanded_terms``).  The
    rounding grows with E, the block's half-spread in widths, as the three
    terms reach 2E² where their sum is near 0: a factor is within
    (6E² + 10E + 4)·2⁻⁵³ of
    exp(−½t²) at the exact t = (x − c)/width, against 2.3·2⁻⁵³ for the
    direct evaluation, and within (2E² + 2)·2⁻⁵³ in the sweep of
    ``tools/oracles/campaign_exponent.py``, which derives the bound.  So a block whose E exceeds
    ``_EXPAND_MAX_WIDTHS`` takes each centre as its own reference, e = 0,
    which is the direct evaluation (``_gaussian_kernel``).  So does a block
    of one centre, such as a single reading: there e = 0, and the product
    would give −½d², the direct evaluation bit for bit, only after
    building its rows and columns.

    d is clamped to ±``_FAR_WIDTHS``, so a node or centre many widths out
    has the factor 0, never NaN.  Overflow on the way is warned about
    unless the caller ignores it.
    """
    stops = [*starts[1:].tolist(), centers.size]
    low = np.minimum.reduceat(centers, starts)
    spread = np.maximum.reduceat(centers, starts) - low
    sizes = np.subtract(stops, starts)
    expand = (spread <= 2.0 * _EXPAND_MAX_WIDTHS * width) & (sizes > 1)
    if expand.any():
        ref = np.where(expand, low + 0.5 * spread, 0.0)
        rows, cols = _expanded_terms(nodes, centers, width, ref, sizes, lo, hi)
    ends = np.cumsum(hi - lo).tolist()
    for s, t, l, h, end, expanded in zip(starts.tolist(), stops, lo.tolist(), hi.tolist(),
                                         ends, expand.tolist()):
        out = scratch[:(t - s) * (h - l)].reshape(t - s, h - l)
        if expanded:
            np.matmul(rows[s:t], cols[:, end - (h - l):end], out=out)
            np.exp(out, out=out)
        else:
            np.subtract(nodes[l:h], centers[s:t, None], out=out)
            _gaussian_kernel(out, width)
        yield out


def _expanded_terms(nodes, centers, width, ref, sizes, lo, hi):
    """The rows [1, e, e²] of every centre and the columns [−½d², d, −½] of
    every block's window, laid end to end, for the blocks of ``sizes``
    centres and their references ``ref`` (``gaussian_factor_blocks``); d
    is clamped to ±``_FAR_WIDTHS``."""
    rows = np.empty((centers.size, 3))
    rows[:, 0] = 1.0
    e = np.subtract(centers, np.repeat(ref, sizes), out=rows[:, 1])
    e /= width
    np.square(e, out=rows[:, 2])
    cols = np.empty((3, int((hi - lo).sum())))
    d = np.take(nodes, ranges(lo, hi), out=cols[1])
    d -= np.repeat(ref, hi - lo)
    d /= width
    np.clip(d, -_FAR_WIDTHS, _FAR_WIDTHS, out=d)
    np.square(d, out=cols[0])
    cols[0] *= -0.5
    cols[2] = -0.5
    return rows, cols


# 2·ln 2⁵³: a gaussian factor exp(−t²/2) falls below 2⁻⁵³ of exp(−t₀²/2)
# once t² exceeds t₀² by this much.
_WINDOW_T2 = 106.0 * math.log(2.0)


def profile_window_keys(model: MeasurementModel, axis: Axis, centers) -> tuple[np.ndarray, np.ndarray]:
    """The keys ``low``, ``high`` of each center's profile window: c ∓ reach
    in x (gaussian) or ln x (lognormal), c ∓ width for boxcar, and ∓∞ for
    noninformative.

    Outside the nodes of a window (``profile_window_bounds`` of its keys)
    the model's profile at that center is below 2⁻⁵³ of its largest value
    on the axis's nodes, so dropping it changes no float64 sum that the
    largest value enters.  The largest value sits at the node nearest the
    center, which is the box edge for a center past it; so an off-box
    reading keeps its mass on the edge nodes.  With t the distance from the
    center in widths and t₀ that of the nearest node:

    - gaussian keeps t² ≤ t₀² + 2 ln 2⁵³, with t in x;
    - lognormal does the same in ln x, plus 2 ln(upper/lower) for its 1/x
      factor, which varies by at most upper/lower over the box;
    - boxcar keeps exactly the cells its interval [c − w, c + w] overlaps;
    - noninformative keeps the whole axis.

    ``tools/oracles/campaign_window.py`` derives the half-widths.

    ``profile_window_bounds`` turns keys into node bounds by a binary
    search, which is monotone in its key.  So the union of several centers'
    windows is the window of their least ``low`` and greatest ``high``, and
    a campaign searches once per block of readings, not once per reading.
    """
    kind = _profile_kind(model, axis)
    c = np.asarray(centers, dtype=float)
    w = model.width
    if kind == NONINFORMATIVE:
        return np.full(c.shape, -math.inf), np.full(c.shape, math.inf)
    if kind == BOXCAR:
        return c - w, c + w
    slack = _WINDOW_T2
    u, uc = _profile_coordinate(kind, axis), c
    if kind == LOGNORMAL:
        slack += 2.0 * math.log(axis.upper / axis.lower)
        uc = np.log(uc)
    j = np.clip(np.searchsorted(u, uc), 1, axis.count - 1)
    with np.errstate(over="ignore"):
        t0 = np.minimum(np.abs(uc - u[j - 1]), np.abs(u[j] - uc)) / w
        reach = w * np.sqrt(t0 * t0 + slack)
    return uc - reach, uc + reach


def profile_window_bounds(
    model: MeasurementModel, axis: Axis, low: np.ndarray, high: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Node index bounds ``lo``, ``hi`` of the windows with keys ``low``,
    ``high`` from ``profile_window_keys``: the nodes within [low, high] in
    the profile's coordinate, or for boxcar the cells that [low, high]
    overlaps."""
    kind = _profile_kind(model, axis)
    if kind == BOXCAR:
        edges = axis.cell_boundaries
        return (
            np.searchsorted(edges[1:], low, side="right"),
            np.searchsorted(edges[:-1], high, side="left"),
        )
    u = _profile_coordinate(kind, axis)
    return np.searchsorted(u, low, side="left"), np.searchsorted(u, high, side="right")


def null_information_density(grid: Grid) -> Density:
    """The μ of a bare grid, matched to its working coordinates: 1/x on
    logarithmic axes, flat on linear ones.  This is the density carrying no
    information in the coordinates the grid itself uses.  A theory carries
    its own μ, which need not be this one."""
    factors = [_null_factor(ax) for ax in grid.axes]
    return Density(grid, outer_values(factors))


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


def sample_prior(lower: float, upper: float, n: int, seed: int) -> np.ndarray:
    """``n`` draws from the reciprocal prior truncated to [lower, upper], by
    inverse-CDF: ``jeffreys_ppf`` of ``n`` uniforms from ``default_rng(seed)``.

    Bounds that are not finite with lower < upper, a negative seed and a
    bound that is not positive are refused, in that order.
    """
    lower, upper = float(lower), float(upper)
    if not (np.isfinite(lower) and np.isfinite(upper) and lower < upper):
        raise InvalidBounds(f"degenerate prior bounds ({lower}, {upper})")
    if seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {seed}")
    if lower <= 0.0:
        raise InvalidBounds("the reciprocal prior needs positive bounds")
    return jeffreys_ppf(np.random.default_rng(seed).random(n), lower, upper)
