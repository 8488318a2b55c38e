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
so a theory keeps it as one factor per axis, positive at every node, since
the AND divides by it.  A campaign's μ is its only noninformative density:
the independent values are drawn from it, and it is the node factor of a
boxcar or noninformative instrument, so an axis's spacing changes no theory.
A theory lives on a 2D grid, and that grid is its whole parameter space; a
fall theory's grid takes the length axis first, then time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._kernels import ranges
from .density import Density, _check_values, _frozen
from .errors import (
    ConfigInvalid,
    EmptyInput,
    GridMismatch,
    InvalidGrid,
    NegativeDensity,
    NeutralZero,
    NonFinite,
    ZeroMass,
)
from .grids import LOGARITHMIC, Axis, Grid, header_value
from .priors import (
    BOXCAR,
    GAUSSIAN,
    LOGNORMAL,
    NONINFORMATIVE,
    MeasurementModel,
    _gaussian_kernel,
    _profile_coordinate,
    jeffreys_factors,
    jeffreys_ppf,
    outer_values,
    profile_centre_factor_blocks,
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
# hold more memory.  With the products capped at ``_PRODUCT_MACS``, 1 MiB
# blocks (436 experiments) ran the 20000-experiment campaign no faster in
# process (29.9 against 29.4 ms, medians of 30) and raised its tracemalloc
# peak from 1.71 to 2.54 MB, past the 2.0 MB that its memory test allows.
_BLOCK_BYTES = 1 << 18
# Most multiply-adds in one block product of ``_accumulate``.  numpy's
# OpenBLAS 0.3.31 (scipy-openblas, two threads on a Haswell-class x86-64)
# runs a dgemm on one thread while M·N·K ≤ 1e6: the worker thread took no
# CPU time over thousands of 70 × k × 143, 100 × 100 × k and 30 × k × 300
# products up to M·N·K = 1.000M and 0.999M, and took some from 1.001M and
# 1.008M.  Threaded products are no faster at these sizes: uncapped, the
# 300² campaign took 34.3 ms in process against 29.4 ms (medians of 25),
# and the first threaded product after the process moves to another CPU
# stalls for milliseconds.  A quarter of the cap took 32.1 ms, half 30.0.
_PRODUCT_MACS = 1_000_000


# ---------------------------------------------------------------------------
# law and theory containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FallingBodyLaw:
    """Free fall from rest: L = ½ g T², with a lognormal theory width.

    ``sigma_theory`` is the log-space half-width of the ridge the analytic
    theory wraps around the law.  On a joint grid the law's roles go by
    position: axis 0 is length and axis 1 is time (``_fall_axes``).
    """

    g: float = 9.81
    sigma_theory: float = 1e-3

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
        n_experiments, master_seed = (None if d.get(key) is None else header_value(d, key, int)
                                      for key in ("n_experiments", "master_seed"))
        return Provenance(header_value(d, "kind", str), n_experiments, master_seed)


def _frozen_factor(axis: Axis, factor) -> np.ndarray:
    f = np.asarray(factor, dtype=np.float64)
    if f.shape != (axis.count,):
        raise InvalidGrid(
            f"μ factor of shape {f.shape} for axis {axis.name!r} of {axis.count} nodes"
        )
    if not np.all(np.isfinite(f)):
        raise NonFinite(f"the μ factor on axis {axis.name!r} must be finite")
    if not np.all(f > 0.0):
        # AND divides by μ, so a zero leaves it undefined.
        j = int(np.argmin(f))
        raise (NegativeDensity if f[j] < 0.0 else NeutralZero)(
            f"the μ factor on axis {axis.name!r} must be > 0, but is {float(f[j])!r} at "
            f"node {j} ({axis.name} = {float(axis.nodes[j])!r})"
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


def _run_bands(values: np.ndarray, first: np.ndarray, stop: np.ndarray):
    """``_row_bands`` of rows whose values on the columns ``[first[i],
    stop[i])`` are laid end to end in ``values``, every other node zero:
    each row is trimmed to its first and last value that is not +0.0
    bitwise, and ``values`` is the band when no row is trimmed."""
    run_stops = np.cumsum(stop - first)
    run_starts = run_stops - (stop - first)
    nonzero = np.flatnonzero(values.view(np.int64) != 0)
    i0, i1 = np.searchsorted(nonzero, run_starts), np.searchsorted(nonzero, run_stops)
    found = i1 > i0
    begin, end = nonzero[i0[found]], nonzero[i1[found] - 1] + 1
    del nonzero  # so that the band is gathered beside no more than its index
    lo, hi = np.zeros(first.size, np.int64), np.zeros(first.size, np.int64)
    shift = (first - run_starts)[found]
    lo[found], hi[found] = begin + shift, end + shift
    trimmed = int((end - begin).sum()) < values.size
    return lo, hi, values[ranges(begin, end)] if trimmed else values


@dataclass(frozen=True, eq=False)
class TheoryDensity:
    """A joint density over a 2D grid, its μ and its origin; any other grid
    raises InvalidGrid.

    The joint is held as a theory file stores it, by its rows: ``lo`` and
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

    def __post_init__(self) -> None:
        axes = self.grid.axes
        if len(axes) != 2 or len(self.mu_factors) != 2:
            raise InvalidGrid(f"a theory lives on a 2D grid with one μ factor per axis, "
                              f"not {len(axes)} axes and {len(self.mu_factors)} factors")
        factors = tuple(_frozen_factor(ax, f) for ax, f in zip(axes, self.mu_factors))
        object.__setattr__(self, "mu_factors", factors)
        nrows, ncols = self.grid.shape
        lo, hi = (np.asarray(a, dtype=np.int64) for a in (self.lo, self.hi))
        if lo.shape != (nrows,) or hi.shape != (nrows,):
            raise InvalidGrid(f"row bounds of shapes {lo.shape} and {hi.shape} for {nrows} rows")
        if not np.all((lo >= 0) & (lo <= hi) & (hi <= ncols)):
            raise InvalidGrid(f"row bands are not all 0 <= lo <= hi <= {ncols}")
        band = np.asarray(self.band, dtype=np.float64)
        if band.shape != (int((hi - lo).sum()),):
            raise InvalidGrid(f"band of shape {band.shape} for rows whose bands "
                              f"hold {int((hi - lo).sum())} values")
        _check_values(band)
        for name, values in (("lo", lo), ("hi", hi), ("band", band)):
            object.__setattr__(self, name, _frozen(values))

    @classmethod
    def from_joint(cls, joint: Density, mu_factors, provenance: Provenance) -> "TheoryDensity":
        """The theory whose joint is the dense ``joint``, held by its bands."""
        values = joint.values
        # Reshaped, so a joint that is not 2D reaches the grid check.
        lo, hi, band = _row_bands(values.reshape(-1, values.shape[-1]))
        for a in (lo, hi, band):
            # Frozen, so the theory shares these fresh arrays instead of copying them.
            a.setflags(write=False)
        return cls(joint.grid, lo, hi, band, mu_factors, provenance)

    @cached_property
    def _starts(self) -> np.ndarray:
        """Where each row's values start in ``band``, computed once per theory."""
        lengths = self.hi - self.lo
        return np.cumsum(lengths) - lengths

    @cached_property
    def _band_mass(self) -> float:
        """Quadrature of the joint over the box, from its bands, computed
        once per theory: the weighted column sums, then their weighted sum,
        in ``integrate``'s order."""
        w0, w1 = self.grid.weight_arrays()
        return float(self._column_sums(w0) @ w1)

    def _run(self, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The values of ``rows``, a slice of whole rows in steps of one,
        which are one run of ``band``; where each row's values start in that
        run; and the column of each value (``ranges``)."""
        starts = self._starts[rows]
        offset = int(starts[0]) if starts.size else 0
        cols = ranges(self.lo[rows], self.hi[rows])
        return self.band[offset:offset + cols.size], starts - offset, cols

    def _rows_meeting(self, rows: slice, cols: slice) -> slice:
        """The rows in ``rows`` from the first to the last whose band meets
        the columns ``cols`` or begins with -0.0.

        Over any other row of ``rows``, Σ band · g is +0.0 for a g that is
        +0.0 outside ``cols``: each product is ±0.0, and the first is +0.0,
        as a band begins with a value that is not +0.0 bitwise, a positive
        one unless it is -0.0.  A row of -0.0 alone sums to -0.0, so a row
        that begins with -0.0 is kept."""
        lo, hi = self.lo[rows], self.hi[rows]
        full = np.flatnonzero(lo < hi)
        keep = (lo[full] < cols.stop) & (hi[full] > cols.start)
        keep |= np.signbit(self.band[self._starts[rows][full]])
        kept = full[keep] + rows.indices(self.lo.size)[0]
        return slice(int(kept[0]), int(kept[-1]) + 1) if kept.size else slice(0, 0)

    def _row_sums(self, g: np.ndarray, rows: slice) -> np.ndarray:
        """Σ over each row's band of band · g[column] for the rows in
        ``rows``, a slice of whole rows: joint · g, one entry per row of the
        grid, 0 outside ``rows``."""
        values, starts, cols = self._run(rows)
        product = g[cols]
        product *= values
        out = np.zeros(self.lo.size)
        if product.size:
            # reduceat's sum over an empty row would be the next row's first value.
            full = self.hi[rows] > self.lo[rows]
            out[rows][full] = np.add.reduceat(product, starts[full])
        return out

    def _column_sums(self, h: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Σ over each column of band · h[row] for the rows in ``rows``, a
        slice of whole rows: h · joint over those rows, one entry per column."""
        values, _, cols = self._run(rows)
        product = np.repeat(h[rows], self.hi[rows] - self.lo[rows])
        product *= values
        return np.bincount(cols, product, minlength=self.grid.shape[-1])

    @property
    def joint(self) -> Density:
        """The joint as a dense density on the grid, built on each access for
        the generic algebra."""
        if self.band.size == self.grid.node_count:
            # Every row is full, so the band is the joint, row after row; the
            # Density shares it, as it is frozen.
            values = self.band.reshape(self.grid.shape)
        else:
            row_starts = np.arange(0, self.grid.node_count, self.grid.shape[-1])
            nodes = ranges(row_starts + self.lo, row_starts + self.hi)
            values = np.zeros(self.grid.shape)
            values.ravel()[nodes] = self.band
            # Frozen, so the Density shares this fresh array instead of copying it.
            values.setflags(write=False)
        return Density(self.grid, values)

    @property
    def mu(self) -> Density:
        """μ as a dense density on the theory's grid, built on each
        access for the generic algebra."""
        values = outer_values(self.mu_factors)
        values.setflags(write=False)
        return Density(self.grid, values)


# ---------------------------------------------------------------------------
# simulated campaigns
# ---------------------------------------------------------------------------

def _fall_axes(grid: Grid) -> tuple[Axis, Axis]:
    """The length and time axes of a fall grid: its two axes, the length axis
    first.  A first axis named T or a second named L would swap the law's
    roles, so InvalidGrid refuses it."""
    if grid.ndim != 2 or grid.names[0] == "T" or grid.names[1] == "L":
        raise InvalidGrid(f"the fall grid takes two axes, the length axis first, then "
                          f"time, but its axes are {', '.join(grid.names)}")
    return grid.axes


def _true_values(law: FallingBodyLaw, mode: str, i_value: np.ndarray):
    """The true (length, time) of experiments whose independent values are ``i_value``."""
    if mode == SET_L:
        return i_value, law.fall_time(i_value)
    return law.fall_length(i_value), i_value


def _observe(model: MeasurementModel, true: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Readings around the true values, one noise variate each from ``rng``:
    a standard normal for lognormal and gaussian, a uniform for boxcar.

    Noninformative instruments (including any with infinite width) observe
    nothing: their readings are NaN and consume no randomness.  A reading
    that float64 cannot represent (one that overflows, or a lognormal one
    that underflows to 0) means the width is too wide to simulate:
    ConfigInvalid names the instrument and its width.
    """
    kind, w = model.kind, model.width
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

    The grid takes the length axis first, then time (``_fall_axes``), and
    each axis needs exactly one instrument, matched to it by name as a
    reading is: UnknownAxis refuses an instrument for an axis the grid
    lacks, and GridMismatch a second instrument for an axis or none.  The
    campaign draws from the one generator ``default_rng(master_seed)``: first
    ``n_experiments`` uniforms that pick the independent values from the
    theory's μ on its axis, the Jeffreys 1/x on any spacing
    (``jeffreys_ppf``), then, for each informative instrument in grid-axis
    order, one noise variate per experiment.  The experiments are therefore
    independent and identically distributed, and the campaign is
    reproducible from the master seed alone.  The readings are computed as
    arrays.

    The result equals the one-experiment-at-a-time OR-fold, which adds each
    experiment's joint density (the outer product of its instruments'
    profiles at its readings), normalized, to within a few 2⁻⁵³ of each
    experiment's peak, and at most about 5e-14 of it where a block's
    gaussian centre factors expand the square (below).  The experiments are
    sorted by their axis-0 reading (OR is a sum, so the order is free;
    tied readings take an unspecified but deterministic order) and added a
    block at a time.  Every experiment density is separable, and each per-axis
    profile is a centre factor, which depends on the reading, times a node
    factor, which does not (``profile_centre_factors``,
    ``profile_node_factor``); a boxcar or noninformative instrument's node
    factor is μ's factor on its axis, so an axis's spacing changes no
    theory.  So a block adds ``Aᵀ·B`` to the joint, where the rows of ``A``
    and ``B`` are the centre factors, scaled so that each experiment has
    unit mass against the node factors times the weights; the node factors
    scale the finished joint, once per node.  A gaussian or lognormal
    block's centre factors on an axis are one (k×3)·(3×n) product and one
    exp: its exponents −½((x − c)/w)², expanded about the midpoint of its
    readings, unless they spread more than 8 widths each side of it, where
    the square's cancellation would cost more than about 5e-14
    (``gaussian_factor_blocks``).  The centre
    factors are evaluated only on the block's node window on each axis,
    the union of its experiments' profile windows, and the product
    lands on that window of the joint; outside it each profile is below
    2⁻⁵³ of its largest node value, and the joint keeps an exact zero where
    every experiment's window misses.  A block's window is found by one
    binary search of its least and greatest ``profile_window_keys``, which
    gives the same nodes as the union of one search per reading.  Each
    product is split into column chunks small enough that OpenBLAS runs it
    on the calling thread (``_PRODUCT_MACS``): a second BLAS thread buys
    nothing at these sizes and stalls after the process changes CPU.  An
    experiment whose density has no finite positive mass on the grid cannot
    be normalized; ``ZeroMass`` then reports how many, and for one of them
    its readings against the box and each width against the node spacing
    there, the two ways a density misses every node.  The theory's μ is
    the Jeffreys 1/(LT), which refuses a box that is not positive before
    anything is drawn.
    """
    if n_experiments <= 0:
        raise EmptyInput(f"need at least one experiment, got {n_experiments}")
    if mode not in (SET_L, SET_T):
        raise InvalidGrid(f"mode must be {SET_L!r} or {SET_T!r}, got {mode!r}")
    if master_seed < 0:
        raise ConfigInvalid(f"master seed must be >= 0, got {master_seed}")
    length, time = _fall_axes(grid)
    # Each instrument's axis by the rule readings use (``Grid.axis_index``).
    models = [None] * grid.ndim
    for m in instruments:
        k = grid.axis_index(m.parameter)
        if models[k] is not None:
            raise GridMismatch(f"two instruments for axis {m.parameter!r}")
        models[k] = m
    missing = [name for name, m in zip(grid.names, models) if m is None]
    if missing:
        raise GridMismatch(f"no instrument for axis(es) {sorted(missing)}")
    mu = jeffreys_factors(grid)

    i_axis = length if mode == SET_L else time
    rng = np.random.default_rng(master_seed)
    readings = _sorted_readings(law, mode, models, i_axis, n_experiments, rng)
    acc = _accumulate(readings, models, grid, mu)
    # Frozen, so the Density shares it instead of copying it.
    acc.setflags(write=False)
    return TheoryDensity.from_joint(
        Density(grid, acc),
        mu,
        Provenance("empirical", n_experiments=n_experiments, master_seed=master_seed),
    )


def _sorted_readings(law: FallingBodyLaw, mode: str, instruments, i_axis: Axis,
                     n_experiments: int, rng: np.random.Generator):
    """The campaign's readings on the grid's two axes, drawn as
    ``run_campaign`` describes and sorted by the axis-0 reading.  The sort
    is numpy's default kind, not a stable one, which is six times faster
    here: distinct readings come out in the one order they have, and tied
    ones, such as the NaN readings of a noninformative axis-0 instrument,
    in an order that is deterministic but unspecified.  The independent
    and true values, the unsorted readings and the order die on return,
    so none of them is alive while the blocks are added."""
    i_value = jeffreys_ppf(rng.random(n_experiments), i_axis.lower, i_axis.upper)
    true_length, true_time = _true_values(law, mode, i_value)
    r0, r1 = (_observe(m, true, rng) for m, true in zip(instruments, (true_length, true_time)))
    order = np.argsort(r0)
    return r0[order], r1[order]


def _accumulate(readings, instruments, grid: Grid, mu) -> np.ndarray:
    """The OR of the experiments whose readings on the grid's two axes are
    ``readings``, sorted by the axis-0 reading and taken by ``instruments``
    (both in grid-axis order): the sum over the experiments of their joint
    densities, each of unit mass.  ``mu`` holds the theory's μ factors, the
    node factors of boxcar and noninformative instruments.

    The experiments are added a block at a time, as ``Aᵀ·B`` on the block's
    node windows (see ``run_campaign``); sorted, a block's experiments lie
    close together on axis 0, so its windows stay narrow.  The rows of
    ``A`` and ``B`` are the experiments' centre factors, one block at a
    time from ``profile_centre_factor_blocks`` into a scratch array per
    axis, made once; they are scaled so that each experiment has unit mass
    against the node factors, and the node factors are applied to the
    finished sum, once per node.  The loop runs under one ``np.errstate``:
    a mass of 0, or one so small that its reciprocal overflows, is none,
    and a node many widths from a reading has the centre factor 0.

    Each ``Aᵀ·B`` is split along the block's axis-1 window into column
    chunks of at most ``_PRODUCT_MACS`` multiply-adds, so that OpenBLAS
    runs every product on the calling thread; whole, most products on the
    300² grids take 1–5M, past the size where it wakes a second thread.
    Each chunk adds into its own columns of the window, so every node
    still sums the same experiments.  ZeroMass names the first experiment
    without mass (``_no_mass_cause``).
    """
    (m0, m1), (ax0, ax1) = instruments, grid.axes
    r0, r1 = readings
    n = r0.size
    rows = max(1, min(n, _BLOCK_BYTES // (8 * max(grid.shape))))
    f0, f1 = (profile_node_factor(m, ax, f) for m, ax, f in zip(instruments, grid.axes, mu))
    fw0, fw1 = f0 * ax0.weights, f1 * ax1.weights
    starts = np.arange(0, n, rows)
    (lo0, hi0), (lo1, hi1) = (np.array(_block_windows(m, ax, r, starts))
                              for m, ax, r in zip(instruments, grid.axes, readings))
    # Allocated after the windows, so that their keys are not alive beside it.
    acc = np.zeros(grid.shape)
    dropped, first = 0, None
    with np.errstate(divide="ignore", over="ignore"):
        blocks = zip(
            starts.tolist(), lo0.tolist(), hi0.tolist(), lo1.tolist(), hi1.tolist(),
            profile_centre_factor_blocks(m0, ax0, r0, starts, lo0, hi0,
                                         np.empty(rows * int((hi0 - lo0).max()))),
            profile_centre_factor_blocks(m1, ax1, r1, starts, lo1, hi1,
                                         np.empty(rows * int((hi1 - lo1).max()))),
        )
        for s, l0, h0, l1, h1, a, b in blocks:
            w0 = slice(l0, h0)
            scale = 1.0 / ((a @ fw0[w0]) * (b @ fw1[l1:h1]))
            kept = np.isfinite(scale) & (scale > 0.0)
            if not kept.all():
                dropped += int(np.count_nonzero(~kept))
                if first is None:
                    first = s + int(np.argmin(kept))
            a *= np.where(kept, scale, 0.0)[:, None]
            step = max(1, _PRODUCT_MACS // max(1, a.size))
            for c in range(l1, h1, step):
                e = min(c + step, h1)
                acc[w0, c:e] += a.T @ b[:, c - l1:e - l1]
    if dropped:
        raise ZeroMass(f"{dropped} of {n} experiment(s) have no mass on the grid; "
                       + _no_mass_cause(instruments, grid.axes, (r0[first], r1[first])))
    acc *= f0[:, None]
    acc *= f1
    return acc


def _no_mass_cause(instruments, axes, readings) -> str:
    """Why the experiment with ``readings`` may have no mass on the grid:
    for each axis, its reading against the box, and its instrument's width
    against the node spacing at the reading (at the nearest box edge for a
    reading past it), in the coordinate the profile is taken in, ln x for
    lognormal.  A reading far past the box, or a width far below the
    spacing, leaves every node many widths from the reading."""
    parts = []
    for m, ax, r in zip(instruments, axes, readings):
        if m.kind == NONINFORMATIVE:
            parts.append(f"no {ax.name} reading ({m.kind})")
            continue
        where = "below" if r < ax.lower else "above" if r > ax.upper else "inside"
        u = _profile_coordinate(m.kind, ax)
        j = min(max(int(np.searchsorted(u, math.log(r) if m.kind == LOGNORMAL else r)), 1),
                ax.count - 1)
        spacing = float(u[j] - u[j - 1])
        coordinate = f"ln {ax.name}" if m.kind == LOGNORMAL else ax.name
        parts.append(f"{ax.name} = {r:.6g}, {where} the box [{ax.lower:.6g}, {ax.upper:.6g}], "
                     f"where the {m.kind} width {m.width:.3g} meets a node spacing of "
                     f"{spacing:.3g} in {coordinate} ({spacing / m.width:.3g} widths)")
    return "one of them reads " + "; ".join(parts)


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

def analytic_fall_theory(
    law: FallingBodyLaw,
    grid: Grid,
    frame: str = "linear",
) -> TheoryDensity:
    """The lognormal ridge around L = ½gT², with μ = 1/(LT).

    The grid takes the length axis first, then time (``_fall_axes``).
    ``frame="linear"`` takes them as L and T on any spacing; the marginals
    are then proportional to 1/L and 1/T.  ``frame="log"`` takes linear
    axes carrying λ = ln L and τ = ln T, and refuses a logarithmic axis
    with InvalidGrid; there the ridge is a plain Gaussian band and μ is
    constant.  In both frames the ridge is exp(−½(ζ/σ)²) of
    ζ = ln L − ln ½g − 2 ln T, taken in place by ``priors._gaussian_kernel``,
    the kernel of a gaussian or lognormal reading's centre factor
    (``profile_centre_factors``).

    The ridge is evaluated only where float64 can hold a nonzero value.
    exp(−½(ζ/σ)²) is an exact zero once |ζ| > σ·√(2·746), so each row's
    nonzero nodes lie in one range of columns, found by ``searchsorted``
    and widened by a node on each side for the rounding between this
    separable ζ and the formula.  The rows' ranges are laid end to end and
    evaluated in one pass, each node by the formula's operations in its
    order (½gT² once per column), and each row is trimmed to its nonzero
    nodes (``_run_bands``), so no grid-sized array is built.
    ``tools/oracles/ridge_support.py`` locates float64's exp underflow and
    checks the bands over a σ sweep.  A ridge with no mass on the box
    (``TheoryDensity._band_mass``) raises ZeroMass.
    """
    length, time = _fall_axes(grid)
    sigma = law.sigma_theory
    log_half_g = math.log(0.5 * law.g)
    if frame == "linear":
        # Refuses a box that is not positive, so every ln below is finite.
        mu = jeffreys_factors(grid)
        lam, tau = np.log(length.nodes), np.log(time.nodes)
        half_g_t2 = 0.5 * law.g * time.nodes * time.nodes

        def ridge(first, stop):
            col = ranges(first, stop)
            vals, t = np.take(half_g_t2, col), np.take(time.nodes, col)
            del col  # so that at most three arrays of the nodes' size are live
            scale = np.repeat(length.nodes, stop - first)
            np.divide(scale, vals, out=vals)
            _gaussian_kernel(np.log(vals, out=vals), sigma)
            scale *= t
            vals *= np.divide(1.0, scale, out=scale)
            return vals

    elif frame == "log":
        for ax in grid.axes:
            if ax.spacing == LOGARITHMIC:
                # The ridge would be evaluated on raw L and T values.
                raise InvalidGrid(
                    f"the log-frame theory needs linear axes carrying λ = ln L and "
                    f"τ = ln T, but axis {ax.name!r} is logarithmic"
                )
        mu = tuple(np.ones(ax.count) for ax in grid.axes)
        lam, tau = length.nodes, time.nodes

        def ridge(first, stop):
            # −2τ + (λ − ln ½g) rounds as (λ − ln ½g) − 2τ does.
            vals = np.take(-2.0 * tau, ranges(first, stop))
            vals += np.repeat(lam - log_half_g, stop - first)
            return _gaussian_kernel(vals, sigma)

    else:
        raise InvalidGrid(f"frame must be 'linear' or 'log', got {frame!r}")
    reach = sigma * math.sqrt(2.0 * 746.0)  # inf for a σ above about 4.6e306
    centre = log_half_g - lam
    ends = ((centre - reach) / -2.0, (centre + reach) / -2.0)
    first = np.maximum(np.searchsorted(tau, np.minimum(*ends), side="left") - 1, 0)
    stop = np.minimum(np.searchsorted(tau, np.maximum(*ends), side="right") + 1, tau.size)
    # A g or sigma so extreme that the ridge over- or underflows is not
    # warned about: it leaves no mass, which is refused below.
    with np.errstate(all="ignore"):
        lo, hi, band = _run_bands(ridge(first, stop), first, stop)
    for a in (lo, hi, band):
        # Frozen, so the theory shares these fresh arrays instead of copying them.
        a.setflags(write=False)
    theory = TheoryDensity(grid, lo, hi, band, mu, Provenance("analytic"))
    if not theory._band_mass > 0.0:
        box = ", ".join(f"{ax.name} in [{ax.lower}, {ax.upper}]" for ax in grid.axes)
        raise ZeroMass(
            f"the fall law {length.name} = ½·g·{time.name}² with g={law.g!r} and "
            f"sigma={sigma!r} puts no mass on the box {box}"
        )
    return theory
