"""Building physical theories as states of information over a joint grid.

A theory over (independent, dependent) parameters is the OR-accumulation of
many single-experiment densities: run an experiment at some independent value,
record the instrument densities for what was observed, multiply them into a
joint density, normalize, and add.  Enough experiments drawn from the
noninformative prior reproduce — up to instrument blur — the analytic theory,
here the free-fall law L = ½gT² wrapped in a narrow lognormal ridge.

Theories carry their null-information density μ alongside the joint, because
every later conjunction needs the same μ the theory was built against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .density import Density, integrate, normalize, require_same_space
from .errors import (
    ConfigInvalid,
    EmptyInput,
    GridMismatch,
    InvalidGrid,
    OutOfDomain,
    SliceCountMismatch,
    UnnormalizedSlice,
    ZeroMass,
)
from .grids import LOGARITHMIC, Grid
from .priors import (
    JEFFREYS,
    LOGNORMAL,
    NONINFORMATIVE,
    MeasurementModel,
    PriorSpec,
    jeffreys_ppf,
    make_prior,
    measurement_profile,
    measurement_profiles,
    noninformative_profile,
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
    theory wraps around the law; ``constant`` is the overall multiplicative
    factor, conventionally 1 (theory amplitudes carry no information here).
    Axis names locate length and time on joint grids.
    """

    g: float = 9.81
    sigma_theory: float = 1e-3
    constant: float = 1.0
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


@dataclass(frozen=True, eq=False)
class TheoryDensity:
    """A joint density over (independent, dependent) plus its μ and origin."""

    joint: Density
    mu: Density
    provenance: Provenance

    def __post_init__(self) -> None:
        require_same_space(self.joint, self.mu)


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


def _true_values(law: FallingBodyLaw, mode: str, i_value: float) -> dict[str, float]:
    if mode == SET_L:
        return {law.length_axis: float(i_value), law.time_axis: float(law.fall_time(i_value))}
    return {law.time_axis: float(i_value), law.length_axis: float(law.fall_length(i_value))}


def _draw_observation(model: MeasurementModel, true: float, rng: np.random.Generator) -> float:
    """Observed value around the true one under the instrument's noise.

    Noninformative instruments (including any with infinite width) observe
    nothing and consume no randomness.
    """
    kind = model.kind if math.isfinite(model.width) else NONINFORMATIVE
    if kind == NONINFORMATIVE:
        return math.nan
    if kind == LOGNORMAL:
        return float(true * math.exp(model.width * rng.standard_normal()))
    if kind == "gaussian":
        return float(true + model.width * rng.standard_normal())
    # boxcar: uniform within the instrument window
    return float(true + rng.uniform(-model.width, model.width))


def _draw_observations(
    grid: Grid, by_axis: dict, true: dict[str, float], rng: np.random.Generator
) -> dict[str, float]:
    """One instrument reading per axis, drawn in grid-axis order."""
    return {ax.name: _draw_observation(by_axis[ax.name], true[ax.name], rng) for ax in grid.axes}


def _draw_experiment(
    law: FallingBodyLaw, mode: str, grid: Grid, by_axis: dict, rng: np.random.Generator
) -> dict[str, float]:
    """The readings of one campaign experiment.

    The first draw is the independent value, from the noninformative prior on
    its axis: reciprocal on logarithmic axes, uniform on linear ones.
    """
    i_axis = grid.axis(law.length_axis if mode == SET_L else law.time_axis)
    u = rng.uniform()
    if i_axis.spacing == LOGARITHMIC:
        i_value = float(jeffreys_ppf(u, i_axis.lower, i_axis.upper))
    else:
        i_value = float(i_axis.lower + (i_axis.upper - i_axis.lower) * u)
    return _draw_observations(grid, by_axis, _true_values(law, mode, i_value), rng)


def simulate_experiment(
    law: FallingBodyLaw,
    instruments: Sequence[MeasurementModel],
    i_value: float,
    mode: str,
    seed: int | np.random.Generator,
    grid: Grid,
    frame: str = "",
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
    true = _true_values(law, mode, i_value)
    by_axis = _instruments_by_axis(instruments, grid)
    observed = _draw_observations(grid, by_axis, true, np.random.default_rng(seed))
    factors = [
        measurement_profile(replace(by_axis[ax.name], center=observed[ax.name]), ax)
        for ax in grid.axes
    ]
    vals = factors[0] if grid.ndim == 1 else np.multiply.outer(factors[0], factors[1])
    density = Density(grid, vals, frame=frame)
    return ExperimentResult(density=density, mode=mode, true_values=true, observed=observed)


# ---------------------------------------------------------------------------
# accumulation
# ---------------------------------------------------------------------------

def accumulate_theory(results: Iterable[ExperimentResult], mu: Density) -> TheoryDensity:
    """OR-fold experiment densities into a theory, normalizing each first.

    Normalizing per experiment weights every experiment equally regardless of
    instrument sharpness; the theory's mass then counts experiments exactly.
    Accepts any iterable and accumulates streamingly.
    """
    acc = np.zeros(mu.grid.shape)
    n = 0
    for r in results:
        require_same_space(r.density, mu)
        acc += normalize(r.density).values
        n += 1
    if n == 0:
        raise EmptyInput("no experiments to accumulate")
    joint = Density(mu.grid, acc, frame=mu.frame)
    return TheoryDensity(joint, mu, Provenance("empirical", n_experiments=n))


def run_campaign(
    law: FallingBodyLaw,
    instruments: Sequence[MeasurementModel],
    n_experiments: int,
    mode: str,
    master_seed: int,
    grid: Grid,
    mu: Density | None = None,
    frame: str = "",
) -> TheoryDensity:
    """Simulate and accumulate a whole measurement campaign.

    Experiment i runs from its own generator seeded ``master_seed ⊕ i``; the
    first draw picks the independent value from the noninformative prior on
    its axis, subsequent draws are the instrument noises.  Experiments are
    therefore independent and the campaign is reproducible from the master
    seed alone (and could be accumulated in any order or in parallel).

    The result equals folding ``simulate_experiment`` through
    ``accumulate_theory``.  Every experiment density is separable, so a block
    of experiments adds ``Aᵀ·B`` to the joint, where the rows of ``A`` and
    ``B`` are the per-axis profiles, scaled so that each experiment carries
    unit mass.  An experiment whose density has no finite positive mass on
    the grid cannot be normalized; ``ZeroMass`` then reports how many.
    """
    if n_experiments <= 0:
        raise EmptyInput(f"need at least one experiment, got {n_experiments}")
    if mode not in (SET_L, SET_T):
        raise InvalidGrid(f"mode must be {SET_L!r} or {SET_T!r}, got {mode!r}")
    if master_seed < 0:
        raise ConfigInvalid(f"master seed must be >= 0, got {master_seed}")
    if mu is None:
        mu = make_prior(PriorSpec(JEFFREYS), grid, frame=frame)
    elif mu.grid.axes != grid.axes:
        raise GridMismatch("mu must live on the campaign grid")
    _locate_fall_axes(law, grid)
    by_axis = _instruments_by_axis(instruments, grid)

    ax0, ax1 = grid.axes
    m0, m1 = by_axis[ax0.name], by_axis[ax1.name]
    rows = max(1, _BLOCK_BYTES // (8 * max(grid.shape)))
    acc = np.zeros(grid.shape)
    dropped = 0
    for start in range(0, n_experiments, rows):
        block = range(start, min(start + rows, n_experiments))
        observed = [
            _draw_experiment(law, mode, grid, by_axis, np.random.default_rng(master_seed ^ i))
            for i in block
        ]
        a = measurement_profiles(m0, ax0, [o[ax0.name] for o in observed])
        b = measurement_profiles(m1, ax1, [o[ax1.name] for o in observed])
        mass = (a @ ax0.weights) * (b @ ax1.weights)
        kept = np.isfinite(mass) & (mass > 0.0)
        dropped += int(np.count_nonzero(~kept))
        a *= np.divide(1.0, mass, out=np.zeros_like(mass), where=kept)[:, None]
        acc += a.T @ b
    if dropped:
        raise ZeroMass(f"{dropped} of {n_experiments} experiment(s) have no mass on the grid")
    return TheoryDensity(
        Density(grid, acc, frame=mu.frame),
        mu,
        Provenance("empirical", n_experiments=n_experiments, master_seed=master_seed),
    )


# ---------------------------------------------------------------------------
# analytic theory
# ---------------------------------------------------------------------------

def analytic_fall_theory(
    law: FallingBodyLaw,
    grid: Grid,
    frame: str = "linear",
    log_refs: tuple[float, float] = (1.0, 1.0),
    label: str = "",
) -> TheoryDensity:
    """The lognormal ridge around L = ½gT², with μ = 1/(LT).

    ``frame="linear"`` expects axes named by the law (any spacing); the
    marginals are then proportional to 1/L and 1/T.  ``frame="log"`` expects
    linear axes carrying λ = ln(L/L₀), τ = ln(T/T₀) in (length, time) order
    with ``log_refs = (L₀, T₀)``; there the ridge is a plain Gaussian band
    and μ is constant.
    """
    sigma = law.sigma_theory
    k = law.constant
    if frame == "linear":
        il, it = _locate_fall_axes(law, grid)
        mesh = grid.meshes()
        lv, tv = mesh[il], mesh[it]
        zeta = np.log(lv / (0.5 * law.g * tv * tv))
        vals = (k / (lv * tv)) * np.exp(-0.5 * (zeta / sigma) ** 2)
        vals = np.broadcast_to(vals, grid.shape)
        mu = make_prior(PriorSpec(JEFFREYS), grid, frame=label)
        joint = Density(grid, vals.copy(), frame=label)
    elif frame == "log":
        if grid.ndim != 2:
            raise InvalidGrid("the log-frame theory lives on a 2D grid")
        l0, t0 = log_refs
        lam, tau = grid.meshes()
        zeta = (lam + math.log(l0)) - math.log(0.5 * law.g) - 2.0 * (tau + math.log(t0))
        vals = k * np.exp(-0.5 * (zeta / sigma) ** 2)
        joint = Density(grid, np.broadcast_to(vals, grid.shape).copy(), frame=label)
        mu = Density(grid, np.ones(grid.shape), frame=label)
    else:
        raise InvalidGrid(f"frame must be 'linear' or 'log', got {frame!r}")
    return TheoryDensity(joint, mu, Provenance("analytic"))


# ---------------------------------------------------------------------------
# theories from conditionals
# ---------------------------------------------------------------------------

def theory_from_conditional(
    cond: Sequence[Density],
    mu_i: Density,
    mu_d: Density | None = None,
    norm_tol: float = 1e-9,
) -> TheoryDensity:
    """Assemble θ(i, d) = θ(d | i) · μ(i) from per-node conditional slices.

    ``cond`` holds one normalized 1D density over the dependent axis per node
    of ``mu_i``'s axis.  The joint's μ is μ(i) ⊗ μ(d); by default μ(d) is the
    noninformative prior implied by the dependent axis's spacing.
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
        if abs(m - 1.0) > norm_tol:
            raise UnnormalizedSlice(f"slice {idx} has mass {m!r}, expected 1 ± {norm_tol}")
        joint_vals[idx, :] = mu_i.values[idx] * sl.values
    grid = Grid.of(i_axis, d_axis)
    frame = f"{i_axis.name},{d_axis.name}"
    joint = Density(grid, joint_vals, frame=frame)
    mu_d_vals = noninformative_profile(d_axis) if mu_d is None else mu_d.values
    if mu_d is not None and mu_d.grid.axes != (d_axis,):
        raise GridMismatch("mu_d must live on the dependent axis")
    mu = Density(grid, np.multiply.outer(mu_i.values, mu_d_vals), frame=frame)
    return TheoryDensity(joint, mu, Provenance("from_conditional"))
