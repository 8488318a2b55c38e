"""Building physical theories as states of information over a joint grid.

A theory over (independent, dependent) parameters is the OR-accumulation of
many single-experiment densities: run an experiment at some independent value,
record the instrument densities for what was observed, multiply them into a
joint density, normalize, and add.  Enough experiments drawn from the
noninformative prior reproduce — up to instrument blur — the analytic theory,
here the free-fall law L = ½gT² wrapped in a narrow lognormal ridge.

Theories carry their null-information density μ alongside the joint, because
every later conjunction needs the same μ the theory was built against.  Every
μ here is separable (the Jeffreys 1/(LT), the flat log-frame μ, μ(i)⊗μ(d)),
so a theory keeps it as one factor per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ._kernels import pcg64_states
from .density import Density, integrate, normalize, require_same_space
from .errors import (
    ConfigInvalid,
    EmptyInput,
    GridMismatch,
    InvalidGrid,
    NegativeDensity,
    NonFinite,
    OutOfDomain,
    SliceCountMismatch,
    UnnormalizedSlice,
    ZeroMass,
)
from .grids import LOGARITHMIC, Axis, Grid
from .priors import (
    BOXCAR,
    GAUSSIAN,
    JEFFREYS,
    LOGNORMAL,
    NONINFORMATIVE,
    MeasurementModel,
    PriorSpec,
    jeffreys_ppf,
    measurement_profile,
    measurement_profiles,
    noninformative_profile,
    outer_values,
    prior_factors,
)

SET_L = "set_L"
SET_T = "set_T"
# Bytes of one block of per-axis experiment profiles in ``run_campaign``.
# Evaluating a block holds a few such arrays at once: on a 300² grid, 1 MB
# blocks raised a campaign's peak memory by 5 MB, 256 KB blocks by 1 MB,
# and both ran equally fast.
_BLOCK_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# law and theory containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FallingBodyLaw:
    """Free fall from rest: L = ½ g T², with a lognormal theory width.

    ``sigma_theory`` is the log-space half-width of the ridge the analytic
    theory wraps around the law.  Axis names locate length and time on joint
    grids.
    """

    g: float = 9.81
    sigma_theory: float = 1e-3
    length_axis: str = "L"
    time_axis: str = "T"

    def __post_init__(self) -> None:
        if not (self.g > 0.0 and np.isfinite(self.g)):
            raise InvalidGrid(f"g must be finite and > 0, got {self.g!r}")
        if not (self.sigma_theory > 0.0 and np.isfinite(self.sigma_theory)):
            raise InvalidGrid(f"sigma_theory must be finite and > 0, got {self.sigma_theory!r}")

    def fall_time(self, length):
        return np.sqrt(2.0 * np.asarray(length, dtype=float) / self.g)

    def fall_length(self, time):
        t = np.asarray(time, dtype=float)
        return 0.5 * self.g * t * t


@dataclass(frozen=True)
class Provenance:
    kind: str  # empirical | analytic | from_conditional
    n_experiments: int | None = None
    master_seed: int | None = None

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.n_experiments is not None:
            out["n_experiments"] = self.n_experiments
        if self.master_seed is not None:
            out["master_seed"] = self.master_seed
        return out

    @staticmethod
    def from_dict(d: dict) -> "Provenance":
        return Provenance(
            kind=str(d["kind"]),
            n_experiments=None if d.get("n_experiments") is None else int(d["n_experiments"]),
            master_seed=None if d.get("master_seed") is None else int(d["master_seed"]),
        )


def _frozen_factor(axis: Axis, factor) -> np.ndarray:
    f = np.asarray(factor, dtype=np.float64)
    if f.shape != (axis.count,):
        raise InvalidGrid(
            f"μ factor of shape {f.shape} for axis {axis.name!r} of {axis.count} nodes"
        )
    if not np.all(np.isfinite(f)):
        raise NonFinite(f"the μ factor on axis {axis.name!r} must be finite")
    if np.any(f < 0.0):
        raise NegativeDensity(
            f"the μ factor on axis {axis.name!r} must be >= 0, min is {f.min()!r}"
        )
    if f.flags.writeable or not f.flags.c_contiguous:
        f = np.array(f)
        f.setflags(write=False)
    return f


@dataclass(frozen=True, eq=False)
class TheoryDensity:
    """A joint density over (independent, dependent), its μ and its origin.

    μ is kept as one factor per axis: ``mu_factors[k]`` is a frozen float64
    array over axis k, and μ on the grid is their outer product.
    """

    joint: Density
    mu_factors: tuple[np.ndarray, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        axes = self.joint.grid.axes
        if len(self.mu_factors) != len(axes):
            raise InvalidGrid(f"{len(self.mu_factors)} μ factor(s) for a {len(axes)}D grid")
        factors = tuple(_frozen_factor(ax, f) for ax, f in zip(axes, self.mu_factors))
        object.__setattr__(self, "mu_factors", factors)

    @property
    def mu(self) -> Density:
        """μ as a dense density on the joint's grid and frame, built on each
        access for the generic algebra."""
        values = outer_values(self.mu_factors)
        values.setflags(write=False)
        return Density(self.joint.grid, values, frame=self.joint.frame)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One simulated experiment: its joint density and what was drawn."""

    density: Density
    mode: str
    true_values: dict[str, float]
    observed: dict[str, float]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _locate_fall_axes(law: FallingBodyLaw, grid: Grid) -> tuple[int, int]:
    il = grid.axis_index(law.length_axis)
    it = grid.axis_index(law.time_axis)
    return il, it


def _instruments_by_axis(instruments: Sequence[MeasurementModel], grid: Grid) -> dict:
    by_axis = {m.parameter: m for m in instruments}
    missing = set(grid.names) - set(by_axis)
    if missing:
        raise GridMismatch(f"no instrument for axis(es) {sorted(missing)}")
    return by_axis


def _true_values(law: FallingBodyLaw, mode: str, i_value: np.ndarray) -> dict[str, np.ndarray]:
    if mode == SET_L:
        return {law.length_axis: i_value, law.time_axis: law.fall_time(i_value)}
    return {law.time_axis: i_value, law.length_axis: law.fall_length(i_value)}


def _independent_values(axis: Axis, u: np.ndarray) -> np.ndarray:
    """Independent values for uniforms ``u`` under the noninformative prior
    on their axis: reciprocal on logarithmic axes, uniform on linear ones."""
    if axis.spacing == LOGARITHMIC:
        return jeffreys_ppf(u, axis.lower, axis.upper)
    return axis.lower + (axis.upper - axis.lower) * u


def _noise_kind(model: MeasurementModel) -> str:
    return model.kind if math.isfinite(model.width) else NONINFORMATIVE


def _no_draw() -> float:
    return math.nan


def _noise_draw(model: MeasurementModel, rng: np.random.Generator):
    """The ``rng`` method that draws one raw variate of the instrument's noise:
    a standard normal for lognormal and gaussian, a uniform for boxcar.

    Noninformative instruments (including any with infinite width) observe
    nothing: their draw is NaN and consumes no randomness.
    """
    kind = _noise_kind(model)
    if kind == NONINFORMATIVE:
        return _no_draw
    return rng.random if kind == BOXCAR else rng.standard_normal


def _observe(model: MeasurementModel, true: np.ndarray, variate: np.ndarray) -> np.ndarray:
    """Readings around the true values, from raw variates of the instrument's noise.

    A reading that float64 cannot represent (one that overflows, or a
    lognormal one that underflows to 0) means the width is too wide to
    simulate: ConfigInvalid names the instrument and its width.
    """
    kind = _noise_kind(model)
    w = model.width
    if kind == NONINFORMATIVE:
        return np.full(np.shape(true), math.nan)
    with np.errstate(over="ignore"):
        if kind == LOGNORMAL:
            readings = true * np.exp(w * variate)
        elif kind == GAUSSIAN:
            readings = true + w * variate
        else:
            # boxcar: uniform within the instrument window, as rng.uniform(-w, w)
            readings = true + (-w + 2.0 * w * variate)
    bad = ~np.isfinite(readings) | ((readings <= 0.0) if kind == LOGNORMAL else False)
    if np.any(bad):
        raise ConfigInvalid(
            f"the {model.parameter} instrument ({kind}, width {w!r}) is too wide to "
            f"simulate: a reading comes out as {float(readings[bad][0])!r}"
        )
    return readings


def _raw_variates(bitgen: np.random.PCG64, draws, seeds: list[int]) -> np.ndarray:
    """One row per seed: the variates ``draws`` take in turn from the stream
    of ``default_rng(seed)``.

    ``draws`` are methods of a generator over ``bitgen``, which is put in each
    seed's starting state, so one generator serves every seed.
    """
    state = bitgen.state
    inner = state["state"]
    rows = []
    for s, inc in zip(*pcg64_states(seeds)):
        inner["state"] = s
        inner["inc"] = inc
        bitgen.state = state
        rows.append([draw() for draw in draws])
    return np.array(rows)


def simulate_experiment(
    law: FallingBodyLaw,
    instruments: Sequence[MeasurementModel],
    i_value: float,
    mode: str,
    seed: int | np.random.Generator,
    grid: Grid,
) -> ExperimentResult:
    """Run one fall experiment at the given independent value.

    ``mode`` fixes which parameter the experimenter sets: ``set_L`` drops from
    a chosen length, ``set_T`` exposes for a chosen time; the law supplies the
    other true value.  Instruments are matched to axes by their ``parameter``
    name; their ``center`` templates are ignored and replaced by the drawn
    observations.  Observations are drawn in grid-axis order.
    """
    if mode not in (SET_L, SET_T):
        raise InvalidGrid(f"mode must be {SET_L!r} or {SET_T!r}, got {mode!r}")
    il, it = _locate_fall_axes(law, grid)
    i_axis = grid.axes[il] if mode == SET_L else grid.axes[it]
    if not (i_axis.lower <= i_value <= i_axis.upper):
        raise OutOfDomain(
            f"independent value {i_value!r} outside axis {i_axis.name!r} box "
            f"[{i_axis.lower}, {i_axis.upper}]"
        )
    true = _true_values(law, mode, np.array([float(i_value)]))
    by_axis = _instruments_by_axis(instruments, grid)
    rng = np.random.default_rng(seed)
    observed = {}
    for ax in grid.axes:
        model = by_axis[ax.name]
        observed[ax.name] = float(_observe(model, true[ax.name], _noise_draw(model, rng)())[0])
    factors = [
        measurement_profile(replace(by_axis[ax.name], center=observed[ax.name]), ax)
        for ax in grid.axes
    ]
    density = Density(grid, outer_values(factors))
    return ExperimentResult(
        density=density,
        mode=mode,
        true_values={name: float(v[0]) for name, v in true.items()},
        observed=observed,
    )


# ---------------------------------------------------------------------------
# accumulation
# ---------------------------------------------------------------------------

def accumulate_theory(results: Iterable[ExperimentResult]) -> TheoryDensity:
    """OR-fold experiment densities into a theory, normalizing each first.

    Normalizing per experiment weights every experiment equally regardless of
    instrument sharpness; the theory's mass then counts experiments exactly.
    Accepts any iterable and accumulates streamingly.  The experiments share
    the first one's grid and frame, and the theory's μ is the Jeffreys
    1/(LT), as ``run_campaign``'s is.
    """
    densities = (normalize(r.density) for r in results)
    first = next(densities, None)
    if first is None:
        raise EmptyInput("no experiments to accumulate")
    acc, n = first.values.copy(), 1
    for d in densities:
        require_same_space(d, first)
        acc += d.values
        n += 1
    joint = Density(first.grid, acc, frame=first.frame)
    mu = prior_factors(PriorSpec(JEFFREYS), first.grid)
    return TheoryDensity(joint, mu, Provenance("empirical", n_experiments=n))


def run_campaign(
    law: FallingBodyLaw,
    instruments: Sequence[MeasurementModel],
    n_experiments: int,
    mode: str,
    master_seed: int,
    grid: Grid,
) -> TheoryDensity:
    """Simulate and accumulate a whole measurement campaign.

    Experiment i draws from the stream of ``default_rng(master_seed ⊕ i)``:
    first a uniform that picks the independent value from the noninformative
    prior on its axis, then one noise variate per informative instrument in
    grid-axis order.  Experiments are therefore independent and the campaign
    is reproducible from the master seed alone (and could be accumulated in
    any order or in parallel).  The streams are not built one generator per
    experiment: ``_kernels.pcg64_states`` computes a block's starting states
    in bulk and one generator is put in each in turn, which a test pins to
    ``default_rng`` bit for bit.  The readings are then computed as arrays.

    The result equals folding ``simulate_experiment`` through
    ``accumulate_theory``.  Every experiment density is separable, so a block
    of experiments adds ``Aᵀ·B`` to the joint, where the rows of ``A`` and
    ``B`` are the per-axis profiles, scaled so that each experiment carries
    unit mass.  An experiment whose density has no finite positive mass on
    the grid cannot be normalized; ``ZeroMass`` then reports how many.
    The theory's μ is the Jeffreys 1/(LT).
    """
    if n_experiments <= 0:
        raise EmptyInput(f"need at least one experiment, got {n_experiments}")
    if mode not in (SET_L, SET_T):
        raise InvalidGrid(f"mode must be {SET_L!r} or {SET_T!r}, got {mode!r}")
    if master_seed < 0:
        raise ConfigInvalid(f"master seed must be >= 0, got {master_seed}")
    _locate_fall_axes(law, grid)
    by_axis = _instruments_by_axis(instruments, grid)

    ax0, ax1 = grid.axes
    m0, m1 = by_axis[ax0.name], by_axis[ax1.name]
    i_axis = grid.axis(law.length_axis if mode == SET_L else law.time_axis)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    draws = [rng.random, _noise_draw(m0, rng), _noise_draw(m1, rng)]
    rows = max(1, _BLOCK_BYTES // (8 * max(grid.shape)))
    acc = np.zeros(grid.shape)
    dropped = 0
    for start in range(0, n_experiments, rows):
        seeds = [master_seed ^ i for i in range(start, min(start + rows, n_experiments))]
        u, z0, z1 = _raw_variates(bitgen, draws, seeds).T
        true = _true_values(law, mode, _independent_values(i_axis, u))
        a = measurement_profiles(m0, ax0, _observe(m0, true[ax0.name], z0))
        b = measurement_profiles(m1, ax1, _observe(m1, true[ax1.name], z1))
        mass = (a @ ax0.weights) * (b @ ax1.weights)
        kept = np.isfinite(mass) & (mass > 0.0)
        dropped += int(np.count_nonzero(~kept))
        a *= np.divide(1.0, mass, out=np.zeros_like(mass), where=kept)[:, None]
        acc += a.T @ b
    if dropped:
        raise ZeroMass(f"{dropped} of {n_experiments} experiment(s) have no mass on the grid")
    return TheoryDensity(
        Density(grid, acc),
        prior_factors(PriorSpec(JEFFREYS), grid),
        Provenance("empirical", n_experiments=n_experiments, master_seed=master_seed),
    )


# ---------------------------------------------------------------------------
# analytic theory
# ---------------------------------------------------------------------------

def _gaussian_ridge(zeta: np.ndarray, sigma: float) -> np.ndarray:
    """exp(−½(ζ/σ)²), computed in place over ``zeta``."""
    zeta /= sigma
    np.square(zeta, out=zeta)
    zeta *= -0.5
    return np.exp(zeta, out=zeta)


def analytic_fall_theory(
    law: FallingBodyLaw,
    grid: Grid,
    frame: str = "linear",
) -> TheoryDensity:
    """The lognormal ridge around L = ½gT², with μ = 1/(LT).

    ``frame="linear"`` expects axes named by the law (any spacing); the
    marginals are then proportional to 1/L and 1/T.  ``frame="log"`` expects
    linear axes carrying λ = ln L, τ = ln T in (length, time) order, and
    refuses a logarithmic axis with InvalidGrid; there the ridge is a plain
    Gaussian band and μ is constant.
    """
    sigma = law.sigma_theory
    # Built in place, with at most two grid-sized arrays live.  A g or sigma
    # so extreme that the ridge over- or underflows is not warned about: it
    # leaves no mass, which is refused below.
    if frame == "linear":
        il, it = _locate_fall_axes(law, grid)
        mesh = grid.meshes()
        lv, tv = mesh[il], mesh[it]
        with np.errstate(all="ignore"):
            vals = lv / (0.5 * law.g * tv * tv)
            _gaussian_ridge(np.log(vals, out=vals), sigma)
            scale = lv * tv
            vals *= np.divide(1.0, scale, out=scale)
        mu = prior_factors(PriorSpec(JEFFREYS), grid)
    elif frame == "log":
        if grid.ndim != 2:
            raise InvalidGrid("the log-frame theory lives on a 2D grid")
        for ax in grid.axes:
            if ax.spacing == LOGARITHMIC:
                # The ridge would be evaluated on raw L and T values.
                raise InvalidGrid(
                    f"the log-frame theory needs linear axes carrying λ = ln L and "
                    f"τ = ln T, but axis {ax.name!r} is logarithmic"
                )
        lam, tau = grid.meshes()
        with np.errstate(all="ignore"):
            vals = lam - math.log(0.5 * law.g) - 2.0 * tau
            _gaussian_ridge(vals, sigma)
        mu = tuple(np.ones(ax.count) for ax in grid.axes)
    else:
        raise InvalidGrid(f"frame must be 'linear' or 'log', got {frame!r}")
    # Frozen, so the Density shares this fresh array instead of copying it.
    vals.setflags(write=False)
    joint = Density(grid, vals)
    if not integrate(joint) > 0.0:
        box = ", ".join(f"{ax.name} in [{ax.lower}, {ax.upper}]" for ax in grid.axes)
        raise ZeroMass(
            f"the fall law {law.length_axis} = ½·g·{law.time_axis}² with g={law.g!r} and "
            f"sigma={sigma!r} puts no mass on the box {box}"
        )
    return TheoryDensity(joint, mu, Provenance("analytic"))


# ---------------------------------------------------------------------------
# theories from conditionals
# ---------------------------------------------------------------------------

def theory_from_conditional(
    cond: Sequence[Density],
    mu_i: Density,
    mu_d: Density | None = None,
) -> TheoryDensity:
    """Assemble θ(i, d) = θ(d | i) · μ(i) from per-node conditional slices.

    ``cond`` holds one 1D density over the dependent axis per node of
    ``mu_i``'s axis, each normalized to 1e-9.  The joint's μ is μ(i) ⊗ μ(d);
    by default μ(d) is the noninformative prior implied by the dependent
    axis's spacing.
    """
    if mu_i.grid.ndim != 1:
        raise InvalidGrid("mu_i must live on the 1D independent axis")
    i_axis = mu_i.grid.axes[0]
    if len(cond) != i_axis.count:
        raise SliceCountMismatch(
            f"{len(cond)} slices for {i_axis.count} independent-axis nodes"
        )
    first = cond[0]
    if first.grid.ndim != 1:
        raise InvalidGrid("conditional slices must live on the 1D dependent axis")
    d_axis = first.grid.axes[0]
    joint_vals = np.empty((i_axis.count, d_axis.count))
    for idx, sl in enumerate(cond):
        require_same_space(sl, first)
        m = integrate(sl)
        if abs(m - 1.0) > 1e-9:
            raise UnnormalizedSlice(f"slice {idx} has mass {m!r}, expected 1 ± 1e-09")
        joint_vals[idx, :] = mu_i.values[idx] * sl.values
    grid = Grid.of(i_axis, d_axis)
    frame = f"{i_axis.name},{d_axis.name}"
    joint = Density(grid, joint_vals, frame=frame)
    mu_d_vals = noninformative_profile(d_axis) if mu_d is None else mu_d.values
    if mu_d is not None and mu_d.grid.axes != (d_axis,):
        raise GridMismatch("mu_d must live on the dependent axis")
    return TheoryDensity(joint, (mu_i.values, mu_d_vals), Provenance("from_conditional"))
