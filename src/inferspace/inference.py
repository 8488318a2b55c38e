"""Inference as conjunction: posteriors, predictions, and conditioning.

Inference here is one operation: AND the theory with whatever is known, then
read off the axis of interest.  The AND of a state of information with
another is itself a state of information, so ``intersect`` returns the
posterior as a plain normalized ``Density``, and ``predict`` returns its
marginal on one axis, ready for ``summarize``.  Conditioning on an exact
value is the degenerate limit of ANDing with an ever-thinner band, and
keeping that limit honest across coordinate changes is what the
curved-slice demonstration at the bottom of this module is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import and_combine, total_variation
from .coordinates import Map2D, push_forward
from .density import (
    Density,
    evaluate,
    marginalize,
    normalize,
    require_same_space,
)
from .errors import (
    DomainMismatch,
    EnvelopeFailure,
    InvalidGrid,
    NeutralZero,
    OutOfDomain,
    ZeroMass,
    ZeroSlice,
)
from .grids import LOGARITHMIC, Axis, Grid
from .priors import (
    BOXCAR,
    GAUSSIAN,
    LOGNORMAL,
    MeasurementModel,
    measurement_density,
    measurement_profile,
    noninformative_profile,
)
from .theory import TheoryDensity


# ---------------------------------------------------------------------------
# the AND of a theory with readings
# ---------------------------------------------------------------------------

def _no_mass(m: MeasurementModel, ax: Axis) -> ZeroMass:
    """The error for a reading in the box whose profile has no mass on its
    axis: it is too narrow for the nodes there."""
    j = min(max(int(np.searchsorted(ax.nodes, m.center)), 1), ax.count - 1)
    lo, hi = ax.nodes[j - 1], ax.nodes[j]
    if m.kind == LOGNORMAL:
        spacing, unit = math.log(hi / lo), f"ln {m.parameter}"
    else:
        spacing, unit = hi - lo, m.parameter
    return ZeroMass(
        f"the reading {m.parameter}={m.center!r} ({m.kind}, width {m.width!r}) is "
        f"under-resolved: its profile underflows to zero at every node of {m.parameter}, "
        f"whose spacing at {m.center!r} is {spacing:.3g} in {unit}, against the width {m.width!r}"
    )


def _reading_factors(theory: TheoryDensity, models) -> list[np.ndarray]:
    """fₖ = ∏ₘ ρₘ,ₖ/μₖ on each axis k of the theory, over the readings m.

    ρₘ,ₖ is reading m's profile if it measures axis k, else the
    noninformative profile of axis k.  The checks here are the whole failure
    diagnosis of the readings, all but the last on 1D arrays: a reading
    centred off its axis, a profile without mass, readings whose product on
    one axis has none, and μ = 0
    where the joint times the readings is positive (NeutralZero).
    """
    grid = theory.joint.grid
    on_axis = [[] for _ in grid.axes]
    for m in models:
        k = grid.axis_index(m.parameter)
        ax = grid.axes[k]
        profile = measurement_profile(m, ax)
        centred_off = not ax.lower <= m.center <= ax.upper
        if m.kind in (GAUSSIAN, LOGNORMAL) and math.isfinite(m.width) and centred_off:
            # Only the reading's far tail reaches the box, and the posterior
            # would pile up at the box's edge.
            raise OutOfDomain(
                f"the reading {m.parameter}={m.center!r} ({m.kind}, width {m.width!r}) lies "
                f"off the grid: its centre is outside {m.parameter} in "
                f"[{ax.lower!r}, {ax.upper!r}]"
            )
        if not np.dot(profile, ax.weights) > 0.0:
            raise _no_mass(m, ax)
        on_axis[k].append(profile)
    rhos = [
        profiles + [noninformative_profile(ax)] * (len(models) - len(profiles))
        for ax, profiles in zip(grid.axes, on_axis)
    ]
    products = [np.prod(r, axis=0) for r in rhos]
    for ax, product in zip(grid.axes, products):
        if not np.dot(product, ax.weights) > 0.0:
            raise ZeroMass("the measurements contradict each other: their AND has no mass")
    undefined = _undefined_nodes(theory, products)
    if undefined:
        raise NeutralZero(
            f"the theory times the readings is positive on {undefined} node(s) where μ vanishes"
        )
    factors = []
    for mu_k, r in zip(theory.mu_factors, rhos):
        f = np.ones(mu_k.size)
        for rho in r:
            f *= np.divide(rho, mu_k, out=np.zeros(mu_k.size), where=mu_k > 0.0)
        factors.append(f)
    return factors


def _undefined_nodes(theory: TheoryDensity, products) -> int:
    """How many nodes have μ = 0 but joint · ⊗ₖ productₖ > 0.

    Only the slices where some μₖ vanishes are read, so a μ without zeros
    costs no pass over the joint.
    """
    ndim = theory.joint.grid.ndim
    count = 0
    for k, mu_k in enumerate(theory.mu_factors):
        idx = np.flatnonzero(mu_k == 0.0)
        if idx.size == 0:
            continue
        num = np.take(theory.joint.values, idx, axis=k)
        for a, (mu_a, p) in enumerate(zip(theory.mu_factors, products)):
            if a == k:
                p = p[idx]
            elif a < k:
                p = p * (mu_a > 0.0)  # those nodes were counted on axis a
            num = num * p.reshape((-1,) + (1,) * (ndim - 1 - a))
        count += int(np.count_nonzero(num > 0.0))
    return count


def _scaled(d: Density, factors) -> Density:
    """``d`` times the outer product of ``factors``, one per axis.  A factor
    of all ones, such as an unmeasured axis under its noninformative μ,
    costs no pass over the grid."""
    vals = d.values
    for k, f in enumerate(factors):
        if np.all(f == 1.0):
            continue
        f = f.reshape((-1,) + (1,) * (d.grid.ndim - 1 - k))
        vals = np.multiply(vals, f, out=vals) if vals.flags.writeable else vals * f
    if vals is d.values:
        return d
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    return d.with_values(vals)


def intersect(
    theory: TheoryDensity, reading: MeasurementModel, *more: MeasurementModel
) -> Density:
    """The theory ANDed with one or more readings, normalized.

    With μ = ⊗ₖ μₖ, ANDing the theory with readings m is one broadcast
    scaling of the joint,

        σ = joint · ⊗ₖ fₖ,   fₖ = ∏ₘ ρₘ,ₖ / μₖ,

    where ρₘ,ₖ is reading m's profile on axis k, or the noninformative
    profile of axis k if m measures another axis.  This is exactly the dense
    fold joint · ∏ₘ ρₘ / μᴹ.  A measurement given as a density on the
    theory's grid is ANDed by ``and_combine(theory.joint, rho, theory.mu)``.

    Raises OutOfDomain for a gaussian or lognormal reading centred off the
    grid, ZeroMass for a reading in the box that no node resolves, ZeroMass
    when the readings contradict each other or the theory, and NeutralZero
    where μ vanishes but the theory times the readings does not.
    """
    sigma = _scaled(theory.joint, _reading_factors(theory, [reading, *more]))
    try:
        return sigma if sigma.normalized else normalize(sigma)
    except ZeroMass as exc:
        raise ZeroMass(f"the measurement contradicts the theory: {exc}") from exc


def predict(theory: TheoryDensity, known: MeasurementModel, query: str) -> Density:
    """What the theory says about ``query`` given one known reading: the
    normalized marginal of their AND on that axis."""
    return marginalize(intersect(theory, known), query)


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
        joint, free_ax, pts, f"joint density vanishes along {fixed_axis}={fixed_value!r}"
    )


def _normalized_slice(d: Density, free_ax: Axis, pts: np.ndarray, empty: str) -> Density:
    """``d`` at ``pts``, one point per node of ``free_ax``, normalized as a
    density over ``free_ax``; ZeroSlice with the message ``empty`` if it has
    no mass there."""
    vals = evaluate(d, pts)
    mass = float(np.dot(vals, free_ax.weights))
    if mass <= 0.0:
        raise ZeroSlice(empty)
    return Density(Grid.of(free_ax), vals / mass, frame=free_ax.name, normalized=True)


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
    a 1D density."""
    if d.grid.ndim != 1:
        raise InvalidGrid("summaries are for 1D densities; marginalize first")
    dn = d if d.normalized else normalize(d)
    ax = dn.grid.axes[0]
    x = ax.nodes
    w = ax.weights
    pv = dn.values
    mean = float(np.sum(x * pv * w))
    var = float(np.sum((x - mean) ** 2 * pv * w))
    sd = math.sqrt(max(var, 0.0))
    central = (0.68, 0.95)
    qs = [0.5]
    for c in central:
        qs += [0.5 * (1.0 - c), 0.5 * (1.0 + c)]
    quts = _quantiles(ax, pv, qs)
    median = float(quts[0])
    intervals = {
        c: (float(quts[1 + 2 * i]), float(quts[2 + 2 * i])) for i, c in enumerate(central)
    }
    mode = _refined_argmax(ax, pv)
    if ax.spacing == LOGARITHMIC:
        mode_log = _refined_argmax(ax, pv * x)
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
# sampling
# ---------------------------------------------------------------------------

def sample_posterior(
    d: Density,
    n: int,
    seed: int,
    chunk: int = 65536,
    min_acceptance: float = 1e-6,
) -> np.ndarray:
    """Draw exact samples by rejection against the node-max envelope.

    Interpolated values never exceed the largest node value, so proposing
    uniformly over the box and accepting with probability p/max is exact.
    Raises EnvelopeFailure when the acceptance rate is too low to be useful
    (density far too peaked for its box).
    """
    if n <= 0:
        raise InvalidGrid(f"need a positive sample count, got {n}")
    dn = d if d.normalized else normalize(d)
    top = dn.max_value()
    rng = np.random.default_rng(seed)
    axes = dn.grid.axes
    ndim = dn.grid.ndim
    out: list[np.ndarray] = []
    got = 0
    proposed = 0
    budget = max(10 * chunk, int(math.ceil(n / min_acceptance)))
    while got < n:
        if proposed >= budget:
            raise EnvelopeFailure(
                f"acceptance rate below {min_acceptance}: {got} of {n} samples "
                f"after {proposed} proposals"
            )
        cols = [rng.uniform(ax.lower, ax.upper, chunk) for ax in axes]
        pts = cols[0] if ndim == 1 else np.column_stack(cols)
        pv = evaluate(dn, pts)
        accept = rng.uniform(0.0, top, chunk) < pv
        out.append(pts[accept])
        got += int(accept.sum())
        proposed += chunk
    stacked = np.concatenate(out, axis=0)
    return stacked[:n]


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
    mapped_conditional: Density
    band_native: Density
    band_mapped: Density

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

    A separable map whose second factor has a representable image axis gets
    the exact node-for-node image: pushes are then interpolation free and the
    band comparison measures pure frame equivariance.  Any other map gets
    4·(n₀ + n₁) nodes over the range of v on the box's corners.
    """
    ax0, ax1 = joint.grid.axes
    if m.separable is not None:
        try:
            return Grid.of(ax0, m.separable[1].image_axis(ax1, name="v"))
        except DomainMismatch:
            pass
    vs = []
    for cx in (ax0.lower, ax0.upper):
        for cy in (ax1.lower, ax1.upper):
            _, v = m.forward(np.array([cx]), np.array([cy]))
            vs.append(float(v[0]))
    vlo, vhi = min(vs), max(vs)
    if not vhi > vlo:
        raise InvalidGrid(f"map collapses the second coordinate: range [{vlo}, {vhi}]")
    count = 4 * (ax0.count + ax1.count)
    if ax0.spacing == LOGARITHMIC and ax1.spacing == LOGARITHMIC and vlo > 0.0:
        v_axis = Axis.logarithmic("v", vlo, vhi, count)
    else:
        v_axis = Axis.linear("v", vlo, vhi, count)
    return Grid.of(ax0, v_axis)


def borel_kolmogorov_demo(
    joint: Density,
    mu: Density,
    map2d: Map2D,
    slice_value: float,
    width_cells: float = 2.0,
) -> ParadoxReport:
    """Condition on the second axis two ways, in two coordinate frames.

    The event is {y = slice_value}.  Naive conditioning slices the density
    along the event and renormalizes; done in the original frame and again in
    the mapped frame (where the event is a curve, sampled along the first
    coordinate), the two disagree whenever the map's Jacobian varies along the
    event — same event, same density, different answers.  Band conditioning
    replaces the exact event by AND with a thin boxcar of finite width; pushed
    through the same map, its marginal agrees between frames up to
    interpolation error, because a conjunction of states is frame-covariant
    while a zero-width slice is not.

    The map must keep the first coordinate fixed (u = x), so the two frames
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

    # The map must act as (x, y) -> (x, v(x, y)).
    probe_y = np.full(3, float(slice_value))
    probe_x = np.array([ax0.lower, ax0.nodes[ax0.count // 2], ax0.upper])
    u_probe, _ = map2d.forward(probe_x, probe_y)
    scale = max(abs(ax0.lower), abs(ax0.upper))
    if np.max(np.abs(u_probe - probe_x)) > 1e-9 * scale:
        raise InvalidGrid("the demonstration needs a map that fixes the first coordinate")

    tg = _mapped_grid(joint, map2d)
    lab = f"mapped:{map2d.kind}"
    pushed = push_forward(joint, map2d, tg, frame=lab, outside="zero")
    mu_pushed = push_forward(mu, map2d, tg, frame=lab, outside="zero")

    # Naive conditioning, original frame: slice at y = y0.
    native = conditional_density(joint, ax1.name, slice_value)

    # Naive conditioning, mapped frame: sample the pushed density along the
    # image curve v = v(x, y0) and renormalize over the shared axis.
    x_nodes = ax0.nodes
    _, v_curve = map2d.forward(x_nodes, np.full(ax0.count, float(slice_value)))
    mapped_cond = _normalized_slice(
        pushed,
        ax0,
        np.column_stack([x_nodes, v_curve]),
        "pushed density vanishes along the image curve",
    )
    tv_naive = total_variation(native, mapped_cond)

    # Band conditioning: AND with a thin boxcar around y0, in both frames.
    band_native, band_rho, width = band_conditional(joint, mu, slice_value, width_cells)
    band_rho_pushed = push_forward(band_rho, map2d, tg, frame=lab, outside="zero")
    band_mapped = _and_marginal(pushed, band_rho_pushed, mu_pushed)
    tv_band = total_variation(band_native, band_mapped)

    return ParadoxReport(
        map_kind=map2d.kind,
        slice_axis=ax1.name,
        slice_value=float(slice_value),
        band_width=width,
        tv_naive=tv_naive,
        tv_band=tv_band,
        native_conditional=native,
        mapped_conditional=mapped_cond,
        band_native=band_native,
        band_mapped=band_mapped,
    )


def band_conditional(
    joint: Density, mu: Density, slice_value: float, width_cells: float
) -> tuple[Density, Density, float]:
    """Condition a 2D joint on a band of its second axis around ``slice_value``.

    The band is a boxcar reading ``width_cells`` cells wide, the cell being
    that of the second axis's node nearest ``slice_value``.  The joint is
    ANDed with it, marginalized onto the first axis and normalized.  Returns
    the conditional, the band as a measurement density on the joint's grid,
    and the band's width.  As the band thins, the conditional approaches the
    exact slice ``conditional_density``.
    """
    ax1 = joint.grid.axes[1]
    j = int(np.argmin(np.abs(ax1.nodes - slice_value)))
    bnd = ax1.cell_boundaries
    width = width_cells * (bnd[j + 1] - bnd[j])
    band_model = MeasurementModel(
        parameter=ax1.name, kind=BOXCAR, center=float(slice_value), width=width
    )
    band_rho = measurement_density(band_model, joint.grid, frame=joint.frame)
    return _and_marginal(joint, band_rho, mu), band_rho, float(width)


def _and_marginal(joint: Density, rho: Density, mu: Density) -> Density:
    """joint AND rho, marginalized onto the first axis and normalized."""
    return normalize(marginalize(and_combine(joint, rho, mu), joint.grid.names[0]))
