"""Inference as conjunction: posteriors, predictions, and conditioning.

Inference here is one operation: AND the theory with whatever is known, then
read off the axis of interest.  The AND of a state of information with
another is itself a state of information, so ``intersect`` returns the
posterior as a plain normalized ``Density``.  ``predict``, which the CLI's
``infer`` and ``predict`` both call, gives only its marginal on one axis,
ready for ``summarize``; it takes it from the theory's row bands by one
contraction, without building the joint or the 2D posterior.  Conditioning
on an exact value is the degenerate limit of ANDing with an ever-thinner
band, and keeping that limit honest across coordinate changes is what the
curved-slice demonstration at the bottom of this module is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import interpolate
from .algebra import _and_values, total_variation
from .coordinates import _EDGE_RTOL, Map2D, _lattice_axis, _pull_back_nodes
from .density import (
    Density,
    _locate_points,
    evaluate,
    marginalize,
    normalize,
    require_same_space,
    scale_to_unit_mass,
)
from .errors import InvalidGrid, OutOfDomain, ZeroMass, ZeroSlice
from .grids import LINEAR, LOGARITHMIC, Axis, Grid
from .priors import (
    BOXCAR,
    LOGNORMAL,
    NONINFORMATIVE,
    MeasurementModel,
    _profile_coordinate,
    profile_node_factor,
    reading_centre_factor,
)
from .theory import TheoryDensity, _ranges


# ---------------------------------------------------------------------------
# the AND of a theory with readings
# ---------------------------------------------------------------------------

def _no_mass(m: MeasurementModel, ax: Axis) -> ZeroMass:
    """The error for a reading in the box whose profile has no mass on its
    axis: it is too narrow for the nodes there."""
    j = min(max(int(np.searchsorted(ax.nodes, m.center)), 1), ax.count - 1)
    lo, hi = _profile_coordinate(m.kind, ax, slice(j - 1, j + 1))
    unit = f"ln {m.parameter}" if m.kind == LOGNORMAL else m.parameter
    return ZeroMass(
        f"the reading {m.parameter}={m.center!r} ({m.kind}, width {m.width!r}) is "
        f"under-resolved: its profile underflows to zero at every node of {m.parameter}, "
        f"whose spacing at {m.center!r} is {hi - lo:.3g} in {unit}, against the width {m.width!r}"
    )


# The least share of a reading's mass that must lie on the box when its centre
# is outside: 1% keeps readings centred up to 2.33 widths past the edge, and
# boxcars up to 0.98 half-widths past it.
_MIN_SHARE_ON_BOX = 0.01


def _share_on_box(m: MeasurementModel, ax: Axis) -> float:
    """The share of a reading's mass on its axis's box, for a centre outside
    the box: a boxcar's overlap with the box over its length 2w, in x; a
    gaussian's mass, in x; a lognormal's, in ln x.  A lognormal reading has
    no mass at x <= 0, where a linear box may reach."""
    c, edges = m.center, (ax.lower, ax.upper)
    if m.kind == BOXCAR:
        inside = min(c + m.width, ax.upper) - max(c - m.width, ax.lower)
        return max(inside, 0.0) / (2.0 * m.width)
    if m.kind == LOGNORMAL:
        c, edges = math.log(c), [math.log(x) if x > 0.0 else -math.inf for x in edges]
    near, far = sorted(abs(x - c) for x in edges)
    scale = m.width * math.sqrt(2.0)
    # Φ of both edges, through erfc, which keeps the far tail's digits.
    return 0.5 * (math.erfc(near / scale) - math.erfc(far / scale))


def _reading_factors(theory: TheoryDensity, models) -> list[np.ndarray]:
    """fₖ = ∏ₘ ρₘ,ₖ/μₖ on each axis k of the theory, over the readings m of
    axis k.

    A reading says nothing about the axes it does not measure: its density
    there is μ, which cancels, so an axis that no reading measures keeps
    fₖ = 1.  A noninformative reading, or one of infinite width, is no
    reading.  Any other reading's ρ is its centre factor times its node
    factor against μₖ, and node/μₖ is exactly 1 for a boxcar (its node
    factor is μₖ) and for a lognormal on a Jeffreys theory (both are 1/x).
    μ is positive at every node (``TheoryDensity`` refuses a zero).  The
    checks here are the whole failure diagnosis of the readings, on 1D
    arrays: a reading centred off its axis, a reading without mass, and
    readings whose product on one axis has none.
    """
    grid = theory.grid
    factors = [np.ones(ax.count) for ax in grid.axes]
    for m in models:
        k = grid.axis_index(m.parameter)
        ax, mu = grid.axes[k], theory.mu_factors[k]
        if m.kind == NONINFORMATIVE:
            continue
        f = reading_centre_factor(m, ax)
        f *= profile_node_factor(m, ax, mu) / mu
        if not ax.lower <= m.center <= ax.upper:
            share = _share_on_box(m, ax)
            if share < _MIN_SHARE_ON_BOX:
                # Only the reading's far tail, or a sliver of its interval,
                # reaches the box, and the posterior would pile up at the
                # box's edge.
                raise OutOfDomain(
                    f"the reading {m.parameter}={m.center!r} ({m.kind}, width {m.width!r}) "
                    f"lies off the grid: its centre is outside {m.parameter} in "
                    f"[{ax.lower!r}, {ax.upper!r}], with {share:.2g} of its mass on the box"
                )
        if not np.dot(f, ax.weights) > 0.0:
            raise _no_mass(m, ax)
        factors[k] *= f
    for ax, f in zip(grid.axes, factors):
        if not np.dot(f, ax.weights) > 0.0:
            raise ZeroMass("the measurements contradict each other: their AND has no mass")
    return factors


def _support(f: np.ndarray) -> slice:
    """The nodes from the first to the last nonzero entry of ``f``."""
    nonzero = np.flatnonzero(f)
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else slice(0, 0)


def intersect(
    theory: TheoryDensity, reading: MeasurementModel, *more: MeasurementModel
) -> Density:
    """The theory ANDed with one or more readings, at unit mass.

    With μ = ⊗ₖ μₖ, ANDing the theory with readings m is a scaling of the
    joint by one factor per axis,

        σ = joint · (f₀ ⊗ f₁),   fₖ = ∏ₘ ρₘ,ₖ / μₖ,

    over the readings m of axis k (``_reading_factors``), and fₖ = 1 on an
    axis that no reading measures.  This is exactly the dense fold
    joint · ∏ₘ ρₘ / μᴹ, where each ρₘ is μ on the axes m does not measure.
    σ is one broadcast over the theory's grid, scaled to unit mass
    (``_scale_posterior``).  ``predict`` takes σ's marginal on one axis
    from the same factors and the same scaling, without σ.

    Raises OutOfDomain for a reading centred off the grid with under 1% of
    its mass on the box, ZeroMass for a reading in the box that no node
    resolves, ZeroMass when the readings contradict each other or the
    theory, and NonFinite when the AND's mass overflows.
    """
    joint = theory.joint
    f0, f1 = _reading_factors(theory, [reading, *more])
    vals = joint.values * f0[:, None]
    vals *= f1
    _scale_posterior(vals, joint.grid.weight_arrays(), out=vals)
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    return joint.with_values(vals)


def _scale_posterior(values: np.ndarray, weights, out: np.ndarray) -> None:
    """``scale_to_unit_mass`` of the theory ANDed with readings, where no
    mass means the readings contradict the theory."""
    try:
        scale_to_unit_mass(values, weights, out=out)
    except ZeroMass as exc:
        raise ZeroMass(f"the measurement contradicts the theory: {exc}") from exc


def predict(
    theory: TheoryDensity, reading: MeasurementModel, *more: MeasurementModel, query: str
) -> Density:
    """What the theory says about ``query`` given one or more readings: the
    marginal on that axis of ``intersect(theory, reading, *more)``, without
    the posterior joint.

    It takes the readings as ``intersect`` does, through the same per-axis
    factors fₖ (``_reading_factors``).  σ = joint · ⊗ₖ fₖ, so its marginal
    on axis q is

        f_q ⊙ (joint · (f_o ⊙ w_o)),

    o the other axis and w_o its quadrature weights, scaled to unit mass
    over the nodes from the first to the last nonzero entry of f_q (zeros
    elsewhere), as ``intersect`` scales σ (``_scale_posterior``).  The
    contraction runs over the band values of a window of whole rows alone:
    a sum over each row's band for q = 0, a sum over each column's values
    for q = 1.  For q = 0 the window is the rows within f_q's nonzero span
    from the first to the last whose band meets the span of f_1 ⊙ w_1
    (``TheoryDensity._rows_meeting``); for q = 1 it is the span of
    f_0 ⊙ w_0.  Every row outside it adds an exact +0.0 or lies where the
    marginal is not taken, so the marginal is bit for bit that of the
    whole band.  On the default 1401² theory a T reading of width 0.005
    centred in [0.6, 1.3] keeps 371 to 513 of the 1401 rows, 26–37% of the
    band's values.  It raises what ``intersect`` raises, and UnknownAxis
    for a ``query`` the theory lacks.
    """
    grid = theory.grid
    q = grid.axis_index(query)
    factors = _reading_factors(theory, [reading, *more])
    ax, wq = grid.axes[q], _support(factors[q])
    # An overflow here leaves a mass that is not finite, which scaling refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        if q == 0:
            g = factors[1] * grid.axes[1].weights
            src = theory._row_sums(g, theory._rows_meeting(wq, _support(g)))
        else:
            h = factors[0] * grid.axes[0].weights
            src = theory._column_sums(h, _support(h))
        vals = np.zeros(ax.count)
        sub = vals[wq]
        np.multiply(src[wq], factors[q][wq], out=sub)
    _scale_posterior(sub, [ax.weights[wq]], out=sub)
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    return Density(Grid.of(ax), vals)


def conditional_density(joint: Density, fixed_axis: str, fixed_value: float) -> Density:
    """The normalized slice of a joint density at an exact coordinate value.

    This is naive conditioning: interpolate along the fixed axis, renormalize
    what remains.  It is frame-dependent by construction, which is exactly
    what the curved-slice demonstration exploits.
    """
    if joint.grid.ndim != 2:
        raise InvalidGrid("conditioning needs a 2D joint density")
    idx = joint.grid.axis_index(fixed_axis)
    fax = joint.grid.axes[idx]
    if not (fax.lower <= fixed_value <= fax.upper):
        raise OutOfDomain(
            f"{fixed_axis}={fixed_value!r} outside [{fax.lower}, {fax.upper}]"
        )
    free_ax = joint.grid.axes[1 - idx]
    fixed_col = np.full(free_ax.count, float(fixed_value))
    if idx == 0:
        pts = np.column_stack([fixed_col, free_ax.nodes])
    else:
        pts = np.column_stack([free_ax.nodes, fixed_col])
    return _normalized_slice(
        evaluate(joint, pts), free_ax, f"joint density vanishes along {fixed_axis}={fixed_value!r}"
    )


def _normalized_slice(vals: np.ndarray, free_ax: Axis, empty: str) -> Density:
    """``vals``, a fresh array of one value per node of ``free_ax``, scaled
    in place to unit mass over ``free_ax`` (``scale_to_unit_mass``):
    ZeroSlice with the message ``empty`` if they have no mass there."""
    try:
        scale_to_unit_mass(vals, [free_ax.weights], out=vals)
    except ZeroMass as exc:
        raise ZeroSlice(empty) from exc
    # Frozen, so the Density shares this array instead of copying it.
    vals.setflags(write=False)
    return Density(Grid.of(free_ax), vals)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Summary:
    """Point and interval summaries of a 1D density.

    ``mode`` maximizes the density in the working coordinate; ``mode_log``
    maximizes the log-frame density x·p(x) and is reported for logarithmic
    axes only (NaN otherwise).  The two modes differ for skewed densities,
    which is why both are reported.
    """

    axis: str
    mean: float
    sd: float
    median: float
    mode: float
    mode_log: float
    intervals: dict[float, tuple[float, float]]

    def as_dict(self) -> dict:
        return {
            "axis": self.axis,
            "mean": self.mean,
            "sd": self.sd,
            "median": self.median,
            "mode": self.mode,
            "mode_log": None if math.isnan(self.mode_log) else self.mode_log,
            "intervals": {str(k): list(v) for k, v in self.intervals.items()},
        }


def _quantiles(ax: Axis, vals: np.ndarray, qs) -> np.ndarray:
    """Invert the piecewise-linear CDF of cell-constant density values."""
    masses = vals * ax.weights
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum /= cum[-1]
    b = ax.cell_boundaries
    out = np.empty(len(qs))
    for i, q in enumerate(qs):
        k = int(np.searchsorted(cum, q, side="left"))
        k = min(max(k, 1), len(cum) - 1)
        c0, c1 = cum[k - 1], cum[k]
        t = 0.0 if c1 <= c0 else (q - c0) / (c1 - c0)
        out[i] = b[k - 1] + t * (b[k] - b[k - 1])
    return out


def _refined_argmax(ax: Axis, vals: np.ndarray) -> float:
    """Argmax with parabolic refinement in the axis's spacing coordinate."""
    j = int(np.argmax(vals))
    u = ax.param_nodes
    if 0 < j < len(vals) - 1:
        y0, y1, y2 = float(vals[j - 1]), float(vals[j]), float(vals[j + 1])
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            shift = 0.5 * (y0 - y2) / denom
            shift = min(max(shift, -0.5), 0.5)
            h = u[1] - u[0]
            ustar = u[j] + shift * h
            return float(np.exp(ustar)) if ax.spacing == LOGARITHMIC else float(ustar)
    return float(ax.nodes[j])


def summarize(d: Density) -> Summary:
    """Mean, spread, median, modes, and the central 68% and 95% intervals of
    a 1D density of any positive mass (ZeroMass for none): the mean and sd
    are moments of ``normalize(d)``, and the rest does not depend on scale."""
    if d.grid.ndim != 1:
        raise InvalidGrid("summaries are for 1D densities; marginalize first")
    ax = d.grid.axes[0]
    x = ax.nodes
    w = ax.weights
    pn = normalize(d).values
    mean = float(np.sum(x * pn * w))
    var = float(np.sum((x - mean) ** 2 * pn * w))
    sd = math.sqrt(max(var, 0.0))
    central = (0.68, 0.95)
    qs = [0.5]
    for c in central:
        qs += [0.5 * (1.0 - c), 0.5 * (1.0 + c)]
    quts = _quantiles(ax, d.values, qs)
    median = float(quts[0])
    intervals = {
        c: (float(quts[1 + 2 * i]), float(quts[2 + 2 * i])) for i, c in enumerate(central)
    }
    mode = _refined_argmax(ax, d.values)
    if ax.spacing == LOGARITHMIC:
        mode_log = _refined_argmax(ax, d.values * x)
    else:
        mode_log = math.nan
    return Summary(
        axis=ax.name,
        mean=mean,
        sd=sd,
        median=median,
        mode=mode,
        mode_log=mode_log,
        intervals=intervals,
    )


# ---------------------------------------------------------------------------
# conditioning across coordinate changes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParadoxReport:
    """Outcome of the curved-slice conditioning demonstration.

    ``tv_naive`` measures how far naive slice conditioning in the mapped
    frame drifts from the same conditioning in the original frame —
    this is the coordinate-dependence of conditioning on a measure-zero
    event.  ``tv_band`` measures the agreement of band conditioning (AND
    with a thin boxcar) computed independently in both frames, which is the
    coordinate-free replacement.
    """

    map_kind: str
    slice_axis: str
    slice_value: float
    band_width: float
    tv_naive: float
    tv_band: float
    native_conditional: Density
    band_native: Density

    def as_dict(self) -> dict:
        return {
            "map_kind": self.map_kind,
            "slice_axis": self.slice_axis,
            "slice_value": self.slice_value,
            "band_width": self.band_width,
            "tv_naive": self.tv_naive,
            "tv_band": self.tv_band,
        }


def _mapped_grid(joint: Density, m: Map2D) -> Grid:
    """The joint's first axis and an axis ``v`` over the image of the second.

    One probe of ``m.forward`` over the joint's nodes finds the image of the
    node lattice.  If those images land on a uniform lattice in v or ln v
    (``_lattice_axis``, ln v first when both axes are logarithmic), ``v`` is
    that lattice.  Every target node then pulls back onto a source node, up
    to rounding, so pushes are interpolation free and the band comparison
    measures pure frame equivariance.  This is ``image_axis`` for a separable
    map, and for the shear (x, x·y) on log–log axes of equal steps it is a
    log axis of 2n − 1 nodes.  A map whose images miss every lattice, or
    whose lattice would be larger, gets 4·(n₀ + n₁) nodes over the range of
    its images.

    The search returns no lattice for images that are not all finite or
    that collapse to one value, so only then are the images checked for
    those two faults, each an InvalidGrid.
    """
    ax0, ax1 = joint.grid.axes
    with np.errstate(all="ignore"):
        _, v = m.forward(ax0.nodes[:, None], ax1.nodes[None, :])
    v = np.asarray(v, dtype=float)
    both_log = ax0.spacing == LOGARITHMIC and ax1.spacing == LOGARITHMIC
    count = 4 * (ax0.count + ax1.count)
    axis = _lattice_axis("v", v, both_log, count)
    if axis is None:
        if not np.all(np.isfinite(v)):
            raise InvalidGrid(f"{m.kind!r} map sends some nodes of the box to a non-finite v")
        vlo, vhi = float(v.min()), float(v.max())
        if not vhi > vlo:
            raise InvalidGrid(f"map collapses the second coordinate: range [{vlo}, {vhi}]")
        spacing = LOGARITHMIC if both_log and vlo > 0.0 else LINEAR
        axis = Axis("v", spacing, vlo, vhi, count)
    return Grid.of(ax0, axis)


def borel_kolmogorov_demo(
    joint: Density,
    mu: Density,
    maps: Sequence[Map2D],
    slice_value: float,
    width_cells: float = 2.0,
) -> list[ParadoxReport]:
    """Condition on the second axis two ways, in the original frame and in
    the frame of each map of ``maps``; one report per map, in their order.

    The event is {y = slice_value}.  Naive conditioning slices the density
    along the event and renormalizes; done in the original frame and again in
    the mapped frame (where the event is a curve, sampled along the first
    coordinate), the two disagree whenever the map's Jacobian varies along the
    event — same event, same density, different answers.  Band conditioning
    replaces the exact event by AND with a thin boxcar of finite width; pushed
    through the same map, its marginal agrees between frames, because a
    conjunction of states is frame-covariant while a zero-width slice is not.
    On a map whose image of the node lattice is itself a lattice
    (``_mapped_grid``), such as the shear on log–log axes of equal steps, the
    pushes are interpolation free and the agreement is to round-off, except
    where the band reaches a y-box edge node: that node has half a cell in
    y but is an interior node of the v axis with a full cell, so the frames
    weigh it differently; elsewhere the agreement is up to interpolation
    error.

    The original frame's slice, band and band conditional are computed once
    and shared by every report.  In each mapped frame the joint, μ and the
    band are pushed to only the nodes that the band and the slice read
    (``_read_nodes``): one run of v-nodes per row where the pushed band can
    be nonzero, and the corners around each point of the image curve.  They
    are ANDed there, as the original frame's band is ANDed on its columns
    (``_and_marginal``).  The pushed band is an exact 0 at every other
    node, so the AND is too, and the slice does not read it: the reports
    are bit for bit those of pulling back and ANDing every node.

    Each map must keep the first coordinate fixed (u = x), so the two frames
    share an axis along which the conditionals can be compared.
    """
    require_same_space(joint, mu)
    if joint.grid.ndim != 2:
        raise InvalidGrid("the demonstration needs a 2D joint density")
    ax0, ax1 = joint.grid.axes
    if not (ax1.lower <= slice_value <= ax1.upper):
        raise OutOfDomain(
            f"slice value {slice_value!r} outside axis {ax1.name!r} box"
        )

    # Each map must act as (x, y) -> (x, v(x, y)); its mapped frame.
    probe_y = np.full(3, float(slice_value))
    probe_x = np.array([ax0.lower, ax0.nodes[ax0.count // 2], ax0.upper])
    scale = max(abs(ax0.lower), abs(ax0.upper))
    targets = []
    for map2d in maps:
        u_probe, _ = map2d.forward(probe_x, probe_y)
        if np.max(np.abs(u_probe - probe_x)) > 1e-9 * scale:
            raise InvalidGrid("the demonstration needs a map that fixes the first coordinate")
        targets.append(_mapped_grid(joint, map2d))

    # The original frame: naive conditioning slices at y = y0, band
    # conditioning ANDs with a thin boxcar around y0.
    native = conditional_density(joint, ax1.name, slice_value)
    band_native, band_rho, width, cols = _band(joint, mu, slice_value, width_cells)

    x_nodes = ax0.nodes
    reports = []
    for map2d, target in zip(maps, targets):
        # The event's image curve v = v(x, y0) in the mapped frame, and the
        # pushes to the frame's nodes that the band and the curve read.
        _, v_curve = map2d.forward(x_nodes, np.full(ax0.count, float(slice_value)))
        curve = (x_nodes, v_curve)
        target.require_inside(curve)
        read, at, along = _read_nodes(target, map2d, joint.grid, cols, curve)
        push = _pull_back_nodes(joint.grid, map2d, target, read, "zero")
        pushed, mu_pushed, band_pushed = (push.values(d) for d in (joint, mu, band_rho))

        # Naive conditioning, mapped frame: the pushed density along the
        # image curve, renormalized over the shared axis.
        mapped_cond = _normalized_slice(
            interpolate(along, pushed[at]), ax0, "pushed density vanishes along the image curve"
        )

        # Band conditioning, mapped frame: the AND at the read nodes.
        band_mapped = _and_marginal(target, np.unravel_index(read, target.shape),
                                    pushed, band_pushed, mu_pushed)

        reports.append(ParadoxReport(
            map_kind=map2d.kind,
            slice_axis=ax1.name,
            slice_value=float(slice_value),
            band_width=width,
            tv_naive=total_variation(native, mapped_cond),
            tv_band=total_variation(band_native, band_mapped),
            native_conditional=native,
            band_native=band_native,
        ))
    return reports


def band_conditional(
    joint: Density, mu: Density, slice_value: float, width_cells: float
) -> tuple[Density, Density, float]:
    """Condition a 2D joint on a band of its second axis around ``slice_value``.

    The band is a boxcar reading ``width_cells`` cells wide, the cell being
    that of the second axis's node nearest ``slice_value``: ``mu``
    restricted to the band, each node weighed by the share of its cell
    inside it.  The joint is ANDed with it, marginalized onto the first
    axis and normalized.  Returns the conditional, the band as a density on
    the joint's grid, and the band's width.  As the band thins, the
    conditional approaches the exact slice ``conditional_density``.  A
    band so thin that it covers no node of the second axis raises ZeroMass.
    """
    require_same_space(joint, mu)
    return _band(joint, mu, slice_value, width_cells)[:3]


def _band(
    joint: Density, mu: Density, slice_value: float, width_cells: float
) -> tuple[Density, Density, float, slice]:
    """``band_conditional``'s conditional, band and width, and the columns
    from the first to the last where the band's cell-overlap factor on the
    second axis is nonzero: the band is an exact 0 in every other column,
    so it is built and ANDed (``_and_marginal``) on those columns alone."""
    ax1 = joint.grid.axes[1]
    j = int(np.argmin(np.abs(ax1.nodes - slice_value)))
    bnd = ax1.cell_boundaries
    width = width_cells * (bnd[j + 1] - bnd[j])
    band_model = MeasurementModel(
        parameter=ax1.name, kind=BOXCAR, center=float(slice_value), width=width
    )
    factor = reading_centre_factor(band_model, ax1)
    cols = _support(factor)
    if cols.start == cols.stop:
        # The AND would be 0 at every node, which has no mass to normalize.
        raise ZeroMass(f"the band of width {float(width)!r} around {ax1.name} = "
                       f"{float(slice_value)!r} covers no node of the {ax1.name} axis")
    on_band = (slice(None), cols)
    rho = mu.values[on_band] * factor[cols]
    vals = np.zeros(mu.values.shape)
    vals[on_band] = rho
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    cond = _and_marginal(joint.grid, on_band, joint.values[on_band], rho, mu.values[on_band])
    return cond, mu.with_values(vals), float(width), cols


def _read_nodes(target: Grid, m: Map2D, grid: Grid, cols: slice, curve) -> tuple:
    """The nodes of ``target``, the mapped frame of ``grid`` under ``m``,
    that the demonstration reads: where the pushed band, an exact 0 outside
    the columns ``cols`` of ``grid`` (``_band``), can be nonzero, and the
    corners that evaluating the pushed joint along ``curve`` (x and v per
    point) reads.

    Returns their sorted flat indices, built from each row's run and the
    corners with no mask of the frame; ``at``, the place among them of
    each point's corners, one row per point; and ``along``, the curve's
    location over the table ``values[at]``, for ``values`` pushed to those
    nodes.  Through it ``interpolate`` reads the same corners, with the
    same weights and in the same order, as ``evaluate`` of the whole
    pushed frame does.

    The band is nonzero only on the run ``cols`` of y-nodes.  Its push at a target
    node reads the two source nodes of the cell that holds the node's
    preimage, so it can be nonzero only where that preimage lies between
    the y-nodes just outside the run.  The map fixes x, so v(x, ·) is
    monotone along each target row, and these nodes form one run per row,
    between the images v(x, ·) of those two y-nodes; it is widened by one
    node on each side, so that rounding in the inverse map cannot leave a
    node out.  If one of the two is a box-edge node, the run ends instead at
    the image of that edge moved out by the box's relative slack
    (``_EDGE_RTOL``, as ``_clip_or_flag`` applies it), widened by one node
    in the same way: a target node within the slack is clipped onto the
    edge node, and one past it pulls back outside the box, where its value
    is 0.  Where the map gives no finite image past the edge, the row is
    read whole.
    """
    x, y = grid.axes
    v = target.axes[1]
    flat, corners = _locate_points(target, curve)
    nodes = flat[:, None] + np.array([offset for offset, _ in corners])
    read = nodes.ravel()
    if cols.start < cols.stop:
        lo, hi = max(cols.start - 1, 0), min(cols.stop, y.count - 1)
        y_ends = y.nodes[[lo, hi]]
        slack = _EDGE_RTOL * max(abs(y.lower), abs(y.upper))
        if lo == 0:
            y_ends[0] = y.lower - slack
        if hi == y.count - 1:
            y_ends[1] = y.upper + slack
        with np.errstate(all="ignore"):
            _, ends = m.forward(x.nodes[:, None], y_ends[None, :])
        v_lo, v_hi = np.broadcast_to(ends, (x.count, 2)).T
        low, high = np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi)
        # A NaN end, past an edge where the map is undefined, is NaN in both.
        whole = np.isnan(low)
        low[whole], high[whole] = -np.inf, np.inf
        first = np.maximum(np.searchsorted(v.nodes, low, side="left") - 1, 0)
        stop = np.minimum(np.searchsorted(v.nodes, high, side="right") + 1, v.count)
        row_starts = np.arange(x.count) * v.count
        read = np.concatenate([_ranges(row_starts + first, row_starts + stop), read])
    # Sorted, then each repeat dropped: np.unique takes ten times as long
    # here, as it hashes first.
    read = np.sort(read)
    read = read[np.concatenate(([True], read[1:] != read[:-1]))]
    at = np.searchsorted(read, nodes)
    along = (np.arange(0, at.size, at.shape[1]), tuple(enumerate(w for _, w in corners)))
    return read, at, along


def _and_marginal(grid: Grid, index, joint, rho, mu) -> Density:
    """joint AND rho, marginalized onto the first axis of ``grid`` and
    normalized, for the values ``joint``, ``rho`` and ``mu`` of three
    densities on ``grid`` at its nodes ``index``, where rho is an exact 0
    at every other node: ``(slice(None), cols)`` for a band on the columns
    ``cols``, or the flat nodes a mapped frame reads, unravelled.

    ``and_combine``'s rule (``_and_values``) runs at those nodes alone, and
    its result is written into one zeroed frame, the one array of the
    grid's size, which is marginalized.  At every other node joint·rho is
    0, so the AND there is the 0 written and NeutralZero cannot fire: the
    marginal sums the same frame as that of ``and_combine`` over the grid.
    """
    frame = np.zeros(grid.shape)
    frame[index] = _and_values(joint, rho, mu)
    # Frozen, so the Density shares this array instead of copying it.
    frame.setflags(write=False)
    return normalize(marginalize(Density(grid, frame), grid.names[0]))
