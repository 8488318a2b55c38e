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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .density import Density, default_frame
from .errors import (
    ConfigInvalid,
    EmptyInput,
    GridMismatch,
    InvalidGrid,
    NegativeDensity,
    NonFinite,
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
    outer_values,
    prior_factors,
    profile_centre_factors,
    profile_node_factor,
    profile_window_bounds,
    profile_window_keys,
)

SET_L = "set_L"
SET_T = "set_T"
# Bytes of one block of per-axis centre factors in ``run_campaign``, had they
# spanned a whole axis: a block holds as many experiments as that allows.
# Its factors span only the block's window, the union of its experiments'
# windows, which stays narrow because the experiments are sorted by reading:
# on the 300² build grid a block of 109 spans on average 70 L and 143 T
# nodes, a ninth of the grid.  Larger blocks widen the union a little and
# hold more memory: 1 MiB blocks (74 L and 149 T nodes) made the benchmark's
# 20000-experiment build-theory about 10% faster, but raised its peak RSS by
# about 0.5 MB.
_BLOCK_BYTES = 1 << 18
# Rows of the grid per block of ``analytic_fall_theory``'s ridge, evaluated on
# the union of the rows' bands of nonzero nodes.  On a slanted ridge that
# union widens with every row, while each block costs a few numpy calls: on
# the default 1401² grid at σ = 1e-3 one row's band is 49 of the 1401 T nodes
# and a block of 32 rows spans 80 (64 rows span 112 and measured 10% slower,
# 16 rows no faster).
_RIDGE_BLOCK_ROWS = 32


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
    kind: str  # empirical | analytic
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


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values`` as a frozen C-contiguous array: shared if it already is
    one, copied if not."""
    if values.flags.writeable or not values.flags.c_contiguous:
        values = np.array(values)
        values.setflags(write=False)
    return values


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
    return _frozen(f)


def _row_bands(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's first and one-past-the-last column whose value is not +0.0
    (bitwise, so a -0.0 is kept), ``lo == hi == 0`` for an all-zero row, and
    the values between them, row after row, interior zeros included."""
    ncols = rows.shape[1]
    nonzero = rows.view(np.int64) != 0
    found = nonzero.any(axis=1)
    lo = np.where(found, nonzero.argmax(axis=1), 0).astype(np.int64)
    hi = np.where(found, ncols - nonzero[:, ::-1].argmax(axis=1), 0).astype(np.int64)
    cols = np.arange(ncols)
    return lo, hi, rows[(cols >= lo[:, None]) & (cols < hi[:, None])]


@dataclass(frozen=True, eq=False)
class TheoryDensity:
    """A joint density over (independent, dependent), its μ and its origin.

    The joint is held as a theory file stores it, by its rows
    ``values.reshape(-1, shape[-1])`` (a 1-D theory is one row): ``lo`` and
    ``hi`` (int64) hold each row's first and one-past-the-last nonzero
    column, ``lo == hi == 0`` for an all-zero row, and ``band`` (float64,
    1-D) the values between them, row after row, interior zeros included.
    Every other node is an exact zero.  ``joint`` builds the dense
    ``Density`` on each access, for the generic algebra; ``from_joint``
    takes the bands of one.

    μ is kept as one factor per axis: ``mu_factors[k]`` is a frozen float64
    array over axis k, and μ on the grid is their outer product.
    """

    grid: Grid
    lo: np.ndarray
    hi: np.ndarray
    band: np.ndarray
    mu_factors: tuple[np.ndarray, ...]
    provenance: Provenance
    frame: str = ""
    normalized: bool = False

    def __post_init__(self) -> None:
        axes = self.grid.axes
        if len(self.mu_factors) != len(axes):
            raise InvalidGrid(f"{len(self.mu_factors)} μ factor(s) for a {len(axes)}D grid")
        factors = tuple(_frozen_factor(ax, f) for ax, f in zip(axes, self.mu_factors))
        object.__setattr__(self, "mu_factors", factors)
        ncols = axes[-1].count
        nrows = self.grid.node_count // ncols
        lo, hi = (np.asarray(a, dtype=np.int64) for a in (self.lo, self.hi))
        if lo.shape != (nrows,) or hi.shape != (nrows,):
            raise InvalidGrid(f"row bounds of shapes {lo.shape} and {hi.shape} for {nrows} rows")
        if not np.all((lo >= 0) & (lo <= hi) & (hi <= ncols)):
            raise InvalidGrid(f"row bands are not all 0 <= lo <= hi <= {ncols}")
        band = np.asarray(self.band, dtype=np.float64)
        if band.shape != (int((hi - lo).sum()),):
            raise InvalidGrid(f"band of shape {band.shape} for rows whose bands "
                              f"hold {int((hi - lo).sum())} values")
        # min and max see any NaN or infinity without a band-sized temporary.
        if band.size:
            least, most = band.min(), band.max()
            if not (np.isfinite(least) and np.isfinite(most)):
                raise NonFinite("density values must be finite")
            if least < 0.0:
                raise NegativeDensity(f"density values must be >= 0, min is {least!r}")
        for name, values in (("lo", lo), ("hi", hi), ("band", band)):
            object.__setattr__(self, name, _frozen(values))
        if not self.frame:
            object.__setattr__(self, "frame", default_frame(self.grid))

    @classmethod
    def from_joint(cls, joint: Density, mu_factors, provenance: Provenance) -> "TheoryDensity":
        """The theory whose joint is the dense ``joint``, held by its bands."""
        values = joint.values
        lo, hi, band = _row_bands(values.reshape(-1, values.shape[-1]))
        for a in (lo, hi, band):
            # Frozen, so the theory shares these fresh arrays instead of copying them.
            a.setflags(write=False)
        return cls(joint.grid, lo, hi, band, mu_factors, provenance,
                   frame=joint.frame, normalized=joint.normalized)

    @cached_property
    def _starts(self) -> np.ndarray:
        """Where each row's values start in ``band``, computed once per theory."""
        lengths = self.hi - self.lo
        return np.cumsum(lengths) - lengths

    @cached_property
    def _cols(self) -> np.ndarray:
        """The column of each band value, computed once per theory.  It is
        left writable, as np.bincount copies a read-only index array."""
        cols = np.repeat(self.lo - self._starts, self.hi - self.lo)
        cols += np.arange(cols.size)
        return cols

    def _nodes(self) -> np.ndarray:
        """The index of each band value's node in the flattened grid."""
        ncols = self.grid.shape[-1]
        nodes = np.repeat(np.arange(0, self.grid.node_count, ncols), self.hi - self.lo)
        nodes += self._cols
        return nodes

    def _row_sums(self, g: np.ndarray) -> np.ndarray:
        """Σ over each row's band of band · g[column]: joint · g, one entry per row."""
        product = g[self._cols]
        product *= self.band
        out = np.zeros(self.lo.size)
        if product.size:
            # reduceat's sum over an empty row would be the next row's first value.
            full = self.hi > self.lo
            out[full] = np.add.reduceat(product, self._starts[full])
        return out

    def _column_sums(self, h: np.ndarray) -> np.ndarray:
        """Σ over each column of band · h[row]: h · joint, one entry per
        column of the 2-D joint."""
        product = np.repeat(h, self.hi - self.lo)
        product *= self.band
        return np.bincount(self._cols, product, minlength=self.grid.shape[-1])

    @property
    def joint(self) -> Density:
        """The joint as a dense density on the grid, built on each access for
        the generic algebra."""
        if self.band.size == self.grid.node_count:
            # Every row is full, so the band is the joint, row after row; the
            # Density shares it, as it is frozen.
            values = self.band.reshape(self.grid.shape)
        else:
            values = np.zeros(self.grid.shape)
            values.ravel()[self._nodes()] = self.band
            # Frozen, so the Density shares this fresh array instead of copying it.
            values.setflags(write=False)
        return Density(self.grid, values, frame=self.frame, normalized=self.normalized)

    @property
    def mu(self) -> Density:
        """μ as a dense density on the theory's grid and frame, built on each
        access for the generic algebra."""
        values = outer_values(self.mu_factors)
        values.setflags(write=False)
        return Density(self.grid, values, frame=self.frame)


def _band_mass(theory: TheoryDensity) -> float:
    """Quadrature of the theory's joint over the box, from its bands: the
    weighted column sums, then their weighted sum, in ``integrate``'s order."""
    weights = theory.grid.weight_arrays()
    h = np.ones(1) if theory.grid.ndim == 1 else weights[0]
    return float(theory._column_sums(h) @ weights[-1])


# ---------------------------------------------------------------------------
# simulated campaigns
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


def _observe(model: MeasurementModel, true: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Readings around the true values, one noise variate each from ``rng``:
    a standard normal for lognormal and gaussian, a uniform for boxcar.

    Noninformative instruments (including any with infinite width) observe
    nothing: their readings are NaN and consume no randomness.  A reading
    that float64 cannot represent (one that overflows, or a lognormal one
    that underflows to 0) means the width is too wide to simulate:
    ConfigInvalid names the instrument and its width.
    """
    kind = _noise_kind(model)
    w = model.width
    if kind == NONINFORMATIVE:
        return np.full(true.shape, math.nan)
    variate = rng.random(true.size) if kind == BOXCAR else rng.standard_normal(true.size)
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


def run_campaign(
    law: FallingBodyLaw,
    instruments: Sequence[MeasurementModel],
    n_experiments: int,
    mode: str,
    master_seed: int,
    grid: Grid,
) -> TheoryDensity:
    """Simulate and accumulate a whole measurement campaign.

    The campaign draws from the one generator ``default_rng(master_seed)``:
    first ``n_experiments`` uniforms that pick the independent values from
    the noninformative prior on its axis, then, for each informative
    instrument in grid-axis order, one noise variate per experiment.  The
    experiments are therefore independent and identically distributed, and
    the campaign is reproducible from the master seed alone.  The readings
    are computed as arrays.

    The result equals the one-experiment-at-a-time OR-fold, which adds each
    experiment's joint density (the outer product of its instruments'
    ``measurement_profile`` at its readings), normalized, to within 2⁻⁵³ of
    each experiment's peak.  The experiments are sorted by their axis-0
    reading (OR is a sum, so the order is free) and added a block at a
    time.  Every experiment density is separable, and each per-axis
    profile is a centre factor, which depends on the reading, times a node
    factor, which does not (``profile_centre_factors``,
    ``profile_node_factor``).  So a block adds ``Aᵀ·B`` to the joint, where
    the rows of ``A`` and ``B`` are the centre factors, scaled so that each
    experiment has unit mass against the node factors times the weights;
    the node factors scale the finished joint, once per node.  The centre
    factors are evaluated only on the block's node window on each axis,
    the union of its experiments' ``profile_windows``, and the product
    lands on that window of the joint; outside it each profile is below
    2⁻⁵³ of its largest node value, and the joint keeps an exact zero where
    every experiment's window misses.  A block's window is found by one
    binary search of its least and greatest ``profile_window_keys``, which
    gives the same nodes as the union of one search per reading.  An
    experiment whose density has no finite positive mass on the grid cannot
    be normalized; ``ZeroMass`` then reports how many.  The theory's μ is
    the Jeffreys 1/(LT), which refuses a box that is not positive before
    anything is drawn.
    """
    if n_experiments <= 0:
        raise EmptyInput(f"need at least one experiment, got {n_experiments}")
    if mode not in (SET_L, SET_T):
        raise InvalidGrid(f"mode must be {SET_L!r} or {SET_T!r}, got {mode!r}")
    if master_seed < 0:
        raise ConfigInvalid(f"master seed must be >= 0, got {master_seed}")
    _locate_fall_axes(law, grid)
    by_axis = _instruments_by_axis(instruments, grid)
    mu = prior_factors(PriorSpec(JEFFREYS), grid)

    ax0, ax1 = grid.axes
    m0, m1 = by_axis[ax0.name], by_axis[ax1.name]
    i_axis = grid.axis(law.length_axis if mode == SET_L else law.time_axis)
    rng = np.random.default_rng(master_seed)
    true = _true_values(law, mode, _independent_values(i_axis, rng.random(n_experiments)))
    r0 = _observe(m0, true[ax0.name], rng)
    r1 = _observe(m1, true[ax1.name], rng)

    acc = _accumulate((r0, r1), (m0, m1), grid)
    # Frozen, so the Density shares it instead of copying it.
    acc.setflags(write=False)
    return TheoryDensity.from_joint(
        Density(grid, acc),
        mu,
        Provenance("empirical", n_experiments=n_experiments, master_seed=master_seed),
    )


def _accumulate(readings, instruments, grid: Grid) -> np.ndarray:
    """The OR of the experiments whose readings on the grid's two axes are
    ``readings``, taken by ``instruments`` (both in grid-axis order): the sum
    over the experiments of their joint densities, each of unit mass.

    The experiments are sorted by their axis-0 reading and added a block at
    a time, as ``Aᵀ·B`` on the block's node windows (see ``run_campaign``).
    The rows of ``A`` and ``B`` are the experiments' centre factors, scaled
    so that each experiment has unit mass against the node factors; the
    node factors are applied to the finished sum, once per node.
    """
    (m0, m1), (ax0, ax1) = instruments, grid.axes
    order = np.argsort(readings[0], kind="stable")
    r0, r1 = (r[order] for r in readings)
    n = r0.size
    rows = max(1, min(n, _BLOCK_BYTES // (8 * max(grid.shape))))
    f0, f1 = profile_node_factor(m0, ax0), profile_node_factor(m1, ax1)
    fw0, fw1 = f0 * ax0.weights, f1 * ax1.weights
    # One buffer per axis, which each block's centre factors are written into.
    buf0, buf1 = np.empty(rows * ax0.count), np.empty(rows * ax1.count)
    acc = np.zeros(grid.shape)
    starts = np.arange(0, n, rows)
    windows = zip(
        starts.tolist(),
        *_block_windows(m0, ax0, r0, starts),
        *_block_windows(m1, ax1, r1, starts),
    )
    dropped = 0
    for start, lo0, hi0, lo1, hi1 in windows:
        block, w0, w1 = slice(start, start + rows), slice(lo0, hi0), slice(lo1, hi1)
        k, n0, n1 = r0[block].size, hi0 - lo0, hi1 - lo1
        a = profile_centre_factors(m0, ax0, r0[block], w0, buf0[: k * n0].reshape(k, n0))
        b = profile_centre_factors(m1, ax1, r1[block], w1, buf1[: k * n1].reshape(k, n1))
        mass = (a @ fw0[w0]) * (b @ fw1[w1])
        # A mass of 0, or one so small that its reciprocal overflows, is none.
        with np.errstate(divide="ignore", over="ignore"):
            scale = 1.0 / mass
        kept = np.isfinite(scale) & (scale > 0.0)
        dropped += int(np.count_nonzero(~kept))
        a *= np.where(kept, scale, 0.0)[:, None]
        acc[w0, w1] += a.T @ b
    if dropped:
        raise ZeroMass(f"{dropped} of {n} experiment(s) have no mass on the grid")
    acc *= f0[:, None]
    acc *= f1
    return acc


def _block_windows(model: MeasurementModel, axis: Axis, centers: np.ndarray, starts: np.ndarray):
    """The node bounds ``lo``, ``hi`` of each block of ``centers`` starting at
    ``starts``: the union of the block's profile windows, found by one
    search of the block's least and greatest window key."""
    low, high = profile_window_keys(model, axis, centers)
    lo, hi = profile_window_bounds(
        model, axis, np.minimum.reduceat(low, starts), np.maximum.reduceat(high, starts)
    )
    return lo.tolist(), hi.tolist()


# ---------------------------------------------------------------------------
# analytic theory
# ---------------------------------------------------------------------------

def _gaussian_ridge(zeta: np.ndarray, sigma: float) -> np.ndarray:
    """exp(−½(ζ/σ)²), computed in place over ``zeta``."""
    zeta /= sigma
    np.square(zeta, out=zeta)
    zeta *= -0.5
    return np.exp(zeta, out=zeta)


def _ridge_blocks(coords, length_index: int, log_half_g: float, sigma: float):
    """The (rows, cols) slices of the grid where the ridge can be nonzero,
    one per block of ``_RIDGE_BLOCK_ROWS`` rows that has any such node.

    ``coords`` are the two axes' nodes as ln L and ln T (or λ and τ), and
    ζ = ln L − ln ½g − 2 ln T.  exp(−½(ζ/σ)²) is an exact float64 zero
    wherever |ζ| > σ·√(2·746), so each row's nonzero nodes lie in one range
    of the other axis, found by ``searchsorted`` and widened by one node on
    each side for the rounding between this separable ζ and the formula the
    values are computed with.  A block's columns are the union of its rows'.
    """
    rows, cols = coords
    p, q = (1.0, -2.0) if length_index == 0 else (-2.0, 1.0)
    reach = sigma * math.sqrt(2.0 * 746.0)  # inf for a σ above about 4.6e306
    centre = log_half_g - p * rows
    ends = ((centre - reach) / q, (centre + reach) / q)
    lo = np.searchsorted(cols, np.minimum(*ends), side="left") - 1
    hi = np.searchsorted(cols, np.maximum(*ends), side="right") + 1
    starts = np.arange(0, rows.size, _RIDGE_BLOCK_ROWS)
    first = np.maximum(np.minimum.reduceat(lo, starts), 0)
    last = np.minimum(np.maximum.reduceat(hi, starts), cols.size)
    for start, c0, c1 in zip(starts.tolist(), first.tolist(), last.tolist()):
        if c0 < c1:
            yield slice(start, start + _RIDGE_BLOCK_ROWS), slice(c0, c1)


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

    The ridge is evaluated only on blocks of nodes where float64 can hold a
    nonzero value (``_ridge_blocks``); every other node is an exact zero,
    as the formula would give there.  Each block is evaluated into an array
    of its own size, and only its rows' bands are kept, so no grid-sized
    array is built.  ``tools/oracles/ridge_support.py``
    locates float64's exp underflow and checks the bands over a σ sweep.
    """
    sigma = law.sigma_theory
    log_half_g = math.log(0.5 * law.g)
    if frame == "linear":
        il, _ = _locate_fall_axes(law, grid)
        # Refuses a box that is not positive, so every ln below is finite.
        mu = prior_factors(PriorSpec(JEFFREYS), grid)
        coords = [np.log(ax.nodes) for ax in grid.axes]

        def ridge(x0, x1):
            lv, tv = (x0, x1) if il == 0 else (x1, x0)
            vals = lv / (0.5 * law.g * tv * tv)
            _gaussian_ridge(np.log(vals, out=vals), sigma)
            scale = lv * tv
            vals *= np.divide(1.0, scale, out=scale)
            return vals

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
        il = 0
        mu = tuple(np.ones(ax.count) for ax in grid.axes)
        coords = [ax.nodes for ax in grid.axes]

        def ridge(lam, tau):
            return _gaussian_ridge(lam - log_half_g - 2.0 * tau, sigma)

    else:
        raise InvalidGrid(f"frame must be 'linear' or 'log', got {frame!r}")
    # A g or sigma so extreme that the ridge over- or underflows is not
    # warned about: it leaves no mass, which is refused below.
    (nodes0, nodes1), (w0, w1) = (ax.nodes for ax in grid.axes), grid.weight_arrays()
    lo, hi, bands = np.zeros(grid.shape[0], np.int64), np.zeros(grid.shape[0], np.int64), []
    mass = 0.0
    with np.errstate(all="ignore"):
        for rows, cols in _ridge_blocks(coords, il, log_half_g, sigma):
            block = ridge(nodes0[rows, None], nodes1[None, cols])
            mass += w0[rows] @ block @ w1[cols]
            a, b, band = _row_bands(block)
            found = b > 0
            lo[rows], hi[rows] = a + cols.start * found, b + cols.start * found
            bands.append(band)
    band = np.concatenate(bands) if bands else np.zeros(0)
    for a in (lo, hi, band):
        # Frozen, so the theory shares these fresh arrays instead of copying them.
        a.setflags(write=False)
    theory = TheoryDensity(grid, lo, hi, band, mu, Provenance("analytic"))
    if not mass > 0.0:
        box = ", ".join(f"{ax.name} in [{ax.lower}, {ax.upper}]" for ax in grid.axes)
        raise ZeroMass(
            f"the fall law {law.length_axis} = ½·g·{law.time_axis}² with g={law.g!r} and "
            f"sigma={sigma!r} puts no mass on the box {box}"
        )
    return theory
