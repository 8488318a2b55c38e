"""Falling-body law, simulated campaigns, and analytic theories."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferspace import (
    BOXCAR,
    GAUSSIAN,
    LOGNORMAL,
    NONINFORMATIVE,
    SET_L,
    SET_T,
    Axis,
    ConfigInvalid,
    Density,
    EmptyInput,
    FallingBodyLaw,
    Grid,
    GridMismatch,
    InvalidBounds,
    InvalidGrid,
    MeasurementModel,
    NegativeDensity,
    NonFinite,
    Provenance,
    ZeroMass,
    analytic_fall_theory,
    conditional_density,
    integrate,
    log_map,
    marginalize,
    normalize,
    null_information_density,
    or_combine,
    predict,
    product_map,
    push_forward,
    run_campaign,
    summarize,
    TheoryDensity,
    UnknownAxis,
)
from inferspace.priors import profile_window_bounds, profile_window_keys, reading_centre_factor
import inferspace.priors as priors_module
import inferspace.theory as theory_module
from inferspace.theory import _BLOCK_BYTES, _row_bands

from conftest import conditional_theory, measurement_profile

G = 9.81


def _fall_grid(count=301):
    return Grid.of(
        Axis.logarithmic("L", 0.5, 20.0, count),
        Axis.logarithmic("T", 0.25, 2.5, count),
    )


def _instruments(sigma_l=0.05, sigma_t=0.05):
    return [
        MeasurementModel(parameter="L", kind=LOGNORMAL, center=1.0, width=sigma_l),
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=sigma_t),
    ]


def test_law_roundtrip():
    law = FallingBodyLaw()
    assert law.fall_length(1.0) == pytest.approx(G / 2)
    assert law.fall_time(G / 2) == pytest.approx(1.0)
    for length in (0.3, 4.905, 17.0):
        assert law.fall_length(law.fall_time(length)) == pytest.approx(length, rel=1e-14)


def test_sharp_boxcar_experiment_lands_on_the_law():
    """Near-noiseless instruments put every experiment's mass within a cell
    of its true (L, T), which lies on the law."""
    law = FallingBodyLaw()
    grid = _fall_grid(201)
    instruments = [
        MeasurementModel(parameter="L", kind=BOXCAR, center=1.0, width=1e-9),
        MeasurementModel(parameter="T", kind=BOXCAR, center=1.0, width=1e-9),
    ]
    theory = run_campaign(law, instruments, 50, SET_L, master_seed=5, grid=grid)
    l_ax, t_ax = grid.axes
    cell_l = np.log(l_ax.nodes[1] / l_ax.nodes[0])
    cell_t = np.log(t_ax.nodes[1] / t_ax.nodes[0])
    lv, tv = grid.meshes()
    assert integrate(theory.joint) == pytest.approx(50, rel=1e-12)
    nonzero = theory.joint.values > 0.0
    # A node's cell-sized neighbourhood meets L = ½gT² iff this holds.
    assert np.all(np.abs(np.log(lv / law.fall_length(tv)))[nonzero] <= cell_l + 2.0 * cell_t)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_experiment_density_centers_on_observations(seed):
    """A one-experiment campaign is that experiment's density, which peaks
    at the experiment's readings."""
    law = FallingBodyLaw()
    grid = _fall_grid(401)
    instruments = _instruments(0.02, 0.02)
    theory = run_campaign(law, instruments, 1, SET_L, master_seed=seed, grid=grid)
    (readings,) = _reference_readings(law, instruments, SET_L, seed, 1, grid)
    for name in ("L", "T"):
        marg = marginalize(theory.joint, name)
        peak = marg.grid.axes[0].nodes[np.argmax(marg.values)]
        # The lognormal density mode sits at obs·exp(-w²), far under a cell here.
        assert abs(np.log(peak / readings[name])) < 0.02


def test_set_t_mode_swaps_independent_axis():
    """In set_T the experiment's uniform picks T from its axis and the law
    gives L: a near-noiseless experiment peaks at (½gT², T)."""
    law = FallingBodyLaw()
    # L = ½gT² maps this T box into the L box.
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 101), Axis.logarithmic("T", 0.35, 2.0, 101))
    instruments = [
        MeasurementModel(parameter="L", kind=BOXCAR, center=1.0, width=1e-9),
        MeasurementModel(parameter="T", kind=BOXCAR, center=1.0, width=1e-9),
    ]
    theory = run_campaign(law, instruments, 1, SET_T, master_seed=9, grid=grid)
    t_true = 0.35 * (2.0 / 0.35) ** np.random.default_rng(9).random()
    il, it = np.unravel_index(np.argmax(theory.joint.values), grid.shape)
    l_ax, t_ax = grid.axes
    assert abs(np.log(t_ax.nodes[it] / t_true)) <= np.log(t_ax.nodes[1] / t_ax.nodes[0])
    assert abs(np.log(l_ax.nodes[il] / law.fall_length(t_true))) <= np.log(
        l_ax.nodes[1] / l_ax.nodes[0])


def test_missing_instrument_rejected():
    law = FallingBodyLaw()
    grid = _fall_grid(51)
    with pytest.raises(GridMismatch, match=r"no instrument for axis\(es\) \['T'\]"):
        run_campaign(law, _instruments()[:1], 1, SET_L, master_seed=1, grid=grid)


def test_second_instrument_for_an_axis_rejected():
    """Two instruments for one axis are refused, not one of them dropped."""
    length, time = _instruments()
    wider = replace(length, width=10.0 * length.width)
    with pytest.raises(GridMismatch, match=r"two instruments for axis 'L'"):
        run_campaign(FallingBodyLaw(), [length, wider, time], 1, SET_L, master_seed=1,
                     grid=_fall_grid(51))


def test_instrument_for_an_axis_the_grid_lacks_rejected():
    """An instrument is matched to its axis as a reading is, so one for an
    axis the grid lacks is refused, not ignored."""
    stray = MeasurementModel("X", LOGNORMAL, 1.0, 0.1)
    with pytest.raises(UnknownAxis, match=r"no axis named 'X'"):
        run_campaign(FallingBodyLaw(), [*_instruments(), stray], 1, SET_L, master_seed=1,
                     grid=_fall_grid(51))


def test_experiment_whose_mass_is_below_float64_reach_has_no_mass():
    """A reading far narrower than its axis's nodes leaves an experiment a
    mass whose reciprocal overflows: the campaign refuses it as having no
    mass on the grid, without numpy's overflow warning."""
    grid = Grid.of(Axis.linear("L", 1.0, 16.0, 5),
                   Axis.logarithmic("T", 0.4515236409857309, 2.7091418459143854, 5))
    instruments = [MeasurementModel("L", LOGNORMAL, 1.0, 0.02),
                   MeasurementModel("T", LOGNORMAL, 1.0, 0.02)]
    with pytest.raises(ZeroMass, match=r"of 5 experiment\(s\) have no mass on the grid"):
        run_campaign(FallingBodyLaw(9.81, 0.05), instruments, 5, SET_T, master_seed=7, grid=grid)


def test_accumulated_mass_counts_experiments():
    law = FallingBodyLaw()
    grid = _fall_grid(101)
    for n in (1, 7):
        theory = run_campaign(law, _instruments(), n, SET_L, master_seed=3, grid=grid)
        assert integrate(theory.joint) == pytest.approx(n, rel=1e-12)
        assert abs(theory._band_mass - integrate(theory.joint)) <= 1e-15 * n
        assert theory.provenance.n_experiments == n
    with pytest.raises(EmptyInput):
        run_campaign(law, _instruments(), 0, SET_L, master_seed=3, grid=grid)


# Instruments per kind as (L, T) (kind, width) pairs; "noninformative" means
# the time axis observes nothing.  A gaussian needs linear axes.
_CAMPAIGN_KINDS = {
    "lognormal": ((LOGNORMAL, 0.05), (LOGNORMAL, 0.05)),
    "gaussian": ((GAUSSIAN, 0.5), (GAUSSIAN, 0.05)),
    "boxcar": ((BOXCAR, 0.5), (BOXCAR, 0.05)),
    "noninformative": ((LOGNORMAL, 0.05), (NONINFORMATIVE, math.inf)),
}


def _campaign_instruments(kind):
    return [
        MeasurementModel(parameter=name, kind=k, center=1.0, width=w)
        for name, (k, w) in zip(("L", "T"), _CAMPAIGN_KINDS[kind])
    ]


def _reference_readings(law, instruments, mode, master_seed, n, grid):
    """A campaign's n experiments' readings, one dict by axis name each.

    Written from public pieces only, so that it checks how the campaign draws
    its readings from the one generator ``default_rng(master_seed)``: n
    uniforms pick the independent values from the theory's μ, the Jeffreys
    1/x on either spacing, the law gives the other true values, and each
    informative instrument then takes n noise variates, in grid-axis order.
    Experiment i takes the i-th of each.  A noninformative instrument reads
    nothing."""
    rng = np.random.default_rng(master_seed)
    length, time = grid.axes
    i_axis = length if mode == SET_L else time
    lo, hi, u = i_axis.lower, i_axis.upper, rng.random(n)
    i_value = lo * (hi / lo) ** u
    if mode == SET_L:
        true = {length.name: i_value, time.name: law.fall_time(i_value)}
    else:
        true = {time.name: i_value, length.name: law.fall_length(i_value)}
    by_axis = {m.parameter: m for m in instruments}
    readings = {}
    for ax in grid.axes:
        m, t = by_axis[ax.name], true[ax.name]
        if m.kind == NONINFORMATIVE:
            readings[ax.name] = np.full(n, math.nan)
        elif m.kind == LOGNORMAL:
            readings[ax.name] = t * np.exp(m.width * rng.standard_normal(n))
        elif m.kind == GAUSSIAN:
            readings[ax.name] = t + m.width * rng.standard_normal(n)
        else:
            readings[ax.name] = t + rng.uniform(-m.width, m.width, n)
    return [{name: float(r[i]) for name, r in readings.items()} for i in range(n)]


def _reference_experiment(instruments, reading, grid):
    """One experiment's joint density: the outer product of its instruments'
    profiles at its readings.  A gaussian or lognormal profile is its
    ``measurement_profile``; a boxcar is the theory's μ, 1/x on either
    spacing, restricted to its interval, and a noninformative instrument's
    profile is that μ."""
    by_axis = {m.parameter: m for m in instruments}
    profiles = []
    for ax in grid.axes:
        m = by_axis[ax.name]
        if m.kind == NONINFORMATIVE:
            profiles.append(1.0 / ax.nodes)
            continue
        m = replace(m, center=reading[ax.name])
        if m.kind == BOXCAR:
            profiles.append(reading_centre_factor(m, ax) / ax.nodes)
        else:
            profiles.append(measurement_profile(m, ax))
    return Density(grid, np.multiply.outer(*profiles))


def _or_fold(densities):
    """The OR of experiment densities, each normalized first: their sum."""
    return sum(normalize(d).values for d in densities)


_CAMPAIGN_CASES = [
    (spacing, kind, mode)
    for spacing in ("log", "linear")
    for kind in _CAMPAIGN_KINDS
    if not (spacing == "log" and kind == "gaussian")
    for mode in (SET_L, SET_T)
]


@pytest.mark.parametrize(
    "spacing, kind, mode, master_seed",
    [pytest.param(*case, 77, id="-".join(case)) for case in _CAMPAIGN_CASES]
    # Seeds past 2¹²⁸ hash more entropy words than numpy's seed pool holds.
    + [pytest.param(*case, 2**200, id="-".join(case) + "-seed2**200") for case in _CAMPAIGN_CASES],
)
def test_campaign_matches_streamed_accumulation(spacing, kind, mode, master_seed):
    """The blocked campaign reproduces the one-experiment-at-a-time fold
    of the experiments drawn from ``default_rng(master_seed)``."""
    make = Axis.logarithmic if spacing == "log" else Axis.linear
    # L = ½gT² maps the box of the independent axis into that of the other
    # one, so every experiment has mass on the grid, boxcar readings included.
    t_box = (0.25, 2.5) if mode == SET_L else (0.35, 2.0)
    grid = Grid.of(make("L", 0.5, 20.0, 151), make("T", *t_box, 151))
    rows = _BLOCK_BYTES // (8 * 151)
    n = rows + 83  # a full block and a partial one
    assert n % rows
    law = FallingBodyLaw(sigma_theory=1e-3)
    instruments = _campaign_instruments(kind)
    theory = run_campaign(law, instruments, n, mode, master_seed=master_seed, grid=grid)
    assert integrate(theory.joint) == pytest.approx(n, rel=1e-12)

    slow = _or_fold(
        _reference_experiment(instruments, r, grid)
        for r in _reference_readings(law, instruments, mode, master_seed, n, grid)
    )
    assert np.max(np.abs(theory.joint.values - slow)) / slow.max() < 1e-12
    # μ is the Jeffreys 1/(LT)
    for ax, campaign_mu in zip(grid.axes, theory.mu_factors):
        assert campaign_mu.tobytes() == (1.0 / ax.nodes).tobytes()


def _counting_direct_evaluations(monkeypatch):
    """A list that grows by one for each block of gaussian centre factors
    evaluated directly, centre by centre, instead of by the expansion."""
    calls = []
    kernel = priors_module._gaussian_kernel

    def counting(u, width):
        calls.append(u.shape)
        return kernel(u, width)

    monkeypatch.setattr(priors_module, "_gaussian_kernel", counting)
    return calls


@pytest.mark.parametrize(
    "spacing, kinds, block_rows, direct",
    [
        # Blocks of 8 sorted experiments span a few widths: each expands the square.
        ("log", ((LOGNORMAL, 0.05), (LOGNORMAL, 0.05)), 8, False),
        ("linear", ((GAUSSIAN, 0.5), (GAUSSIAN, 0.05)), 8, False),
        # A narrow instrument: each full block spans more than 2·8 widths on
        # both axes, so each takes its centres as their own references.
        ("log", ((LOGNORMAL, 0.005), (LOGNORMAL, 0.005)), None, True),
    ],
    ids=["lognormal-expanded", "gaussian-expanded", "narrow-lognormal-direct"],
)
@pytest.mark.parametrize("mode", [SET_L, SET_T])
def test_campaign_blocks_match_streamed_accumulation(spacing, kinds, block_rows, direct, mode,
                                                      monkeypatch):
    """Blocks whose centres share a reference and blocks too spread out for
    one both reproduce the one-experiment-at-a-time fold to 1e-12."""
    make = Axis.logarithmic if spacing == "log" else Axis.linear
    t_box = (0.25, 2.5) if mode == SET_L else (0.35, 2.0)
    grid = Grid.of(make("L", 0.5, 20.0, 151), make("T", *t_box, 151))
    if block_rows is not None:
        monkeypatch.setattr(theory_module, "_BLOCK_BYTES", 8 * block_rows * 151)
    rows = theory_module._BLOCK_BYTES // (8 * 151)
    n = 50 * rows + 3 if block_rows else rows + 83
    instruments = [MeasurementModel(name, k, 1.0, w) for name, (k, w) in zip("LT", kinds)]
    law = FallingBodyLaw()
    calls = _counting_direct_evaluations(monkeypatch)
    theory = run_campaign(law, instruments, n, mode, master_seed=41, grid=grid)
    # Every block on both axes, or none.
    assert len(calls) == (2 * math.ceil(n / rows) if direct else 0)
    slow = _or_fold(
        _reference_experiment(instruments, r, grid)
        for r in _reference_readings(law, instruments, mode, 41, n, grid)
    )
    assert np.max(np.abs(theory.joint.values - slow)) / slow.max() < 1e-12


@pytest.mark.parametrize("mode", [SET_L, SET_T])
def test_campaign_with_a_noninformative_axis_0_instrument(mode):
    """An axis-0 instrument that observes nothing reads NaN for every
    experiment: the sort leaves the tied readings in an order of its own,
    and the campaign still matches the fold and rebuilds bit for bit."""
    grid = _fall_grid(101)
    instruments = [MeasurementModel("L", NONINFORMATIVE),
                   MeasurementModel("T", LOGNORMAL, 1.0, 0.05)]
    law = FallingBodyLaw()
    n = _BLOCK_BYTES // (8 * 101) + 83
    theory = run_campaign(law, instruments, n, mode, master_seed=9, grid=grid)
    slow = _or_fold(
        _reference_experiment(instruments, r, grid)
        for r in _reference_readings(law, instruments, mode, 9, n, grid)
    )
    assert np.max(np.abs(theory.joint.values - slow)) / slow.max() < 1e-12
    again = run_campaign(law, instruments, n, mode, master_seed=9, grid=grid)
    assert again.band.tobytes() == theory.band.tobytes()


@pytest.fixture(scope="module", params=[SET_L, SET_T])
def spaced_campaigns(request):
    """One seed-7 campaign of 20000 experiments on linear and on log axes
    of the box L 0.5–20, T 0.25–2.5, 300 nodes each."""
    return [
        run_campaign(FallingBodyLaw(), _instruments(), 20000, request.param, master_seed=7,
                     grid=Grid.of(make("L", 0.5, 20.0, 300), make("T", 0.25, 2.5, 300)))
        for make in (Axis.linear, Axis.logarithmic)
    ]


@pytest.mark.parametrize("c", [0.5, 1.0, 1.8])
def test_campaign_does_not_depend_on_the_spacing_of_the_axes(spaced_campaigns, c):
    """A campaign draws its independent values from its μ and weighs its
    instruments by it, on any spacing, so the same experiments on linear
    and on log axes of one box predict L from a T reading with the same
    mean and sd, to 2e-3."""
    known = MeasurementModel("T", LOGNORMAL, c, 0.02)
    linear, log = (summarize(predict(t, known, query="L")) for t in spaced_campaigns)
    assert linear.mean == pytest.approx(log.mean, rel=2e-3)
    assert linear.sd == pytest.approx(log.sd, rel=2e-3)


def test_campaign_keeps_the_edge_mass_of_readings_past_the_box():
    """On the CLI's build box, set_T reaches T = 2.5 and so L = 30.7 on an L
    axis that ends at 20.  Readings past L = 20 still put dense mass on the
    edge rows; the windowed campaign keeps it and matches the dense fold."""
    grid = _fall_grid(300)
    n = _BLOCK_BYTES // (8 * 300) + 83
    law = FallingBodyLaw()
    instruments = _instruments()
    theory = run_campaign(law, instruments, n, SET_T, master_seed=20260819, grid=grid)
    assert integrate(theory.joint) == pytest.approx(n, rel=1e-12)

    readings = _reference_readings(law, instruments, SET_T, 20260819, n, grid)
    past = [r for r in readings if r["L"] > 20.0]
    assert len(past) >= 5
    for r in past:
        # normalizes, so it has mass, and its largest values lie on the L = 20 row
        values = normalize(_reference_experiment(instruments, r, grid)).values
        assert values[-1].max() == values.max()
    keys = profile_window_keys(instruments[0], grid.axes[0], [r["L"] for r in past])
    lo, hi = profile_window_bounds(instruments[0], grid.axes[0], *keys)
    assert np.all(lo < hi) and np.all(hi == grid.axes[0].count)
    slow = _or_fold(_reference_experiment(instruments, r, grid) for r in readings)
    assert np.max(np.abs(theory.joint.values - slow)) / slow.max() < 1e-12


@pytest.mark.parametrize(
    "instruments",
    [
        # 1e-3 lognormal: a length of 30 sits hundreds of widths off a box
        # that ends at 20, and its density underflows to zero there.
        [
            MeasurementModel(parameter="L", kind=LOGNORMAL, center=1.0, width=1e-3),
            MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=1e-3),
        ],
        # a boxcar reading whose window misses the box
        [
            MeasurementModel(parameter="L", kind=BOXCAR, center=1.0, width=0.5),
            MeasurementModel(parameter="T", kind=BOXCAR, center=1.0, width=0.05),
        ],
    ],
    ids=["lognormal", "boxcar"],
)
def test_campaign_counts_experiments_without_mass(instruments, monkeypatch):
    """set_T up to T = 2.5 reaches L = 30.7.  The campaign counts the
    experiments with no mass on the grid and raises ZeroMass with that count,
    also when a whole block of them misses the box."""
    law = FallingBodyLaw()
    grid = _fall_grid(101)
    n = 200
    # Blocks of 8 experiments: the readings are sorted, so several blocks
    # hold only L readings past the box.
    monkeypatch.setattr(theory_module, "_BLOCK_BYTES", 8 * 8 * 101)
    dropped = 0
    for r in _reference_readings(law, instruments, SET_T, 5, n, grid):
        try:
            normalize(_reference_experiment(instruments, r, grid))
        except (InvalidBounds, ZeroMass):
            dropped += 1
    assert 0 < dropped < n
    with pytest.raises(ZeroMass, match=rf"^{dropped} of {n} experiment"):
        run_campaign(law, instruments, n, SET_T, master_seed=5, grid=grid)


def test_campaign_builds_no_generator_per_experiment(monkeypatch):
    """A campaign draws from one generator, seeded by its master seed."""
    seeds = []
    default_rng = np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    theory = run_campaign(FallingBodyLaw(), _instruments(), 50, SET_L, master_seed=3,
                          grid=_fall_grid(61))
    assert integrate(theory.joint) == pytest.approx(50, rel=1e-12)
    assert seeds == [3]


# Seeds at the word boundaries of numpy's SeedSequence: one word, two, three,
# the largest that fits its pool of four, and five or more words.
_EDGE_SEEDS = {
    "0": 0, "2**32-1": 2**32 - 1, "2**32": 2**32, "2**64": 2**64,
    "2**128-1": 2**128 - 1, "2**128": 2**128, "2**200": 2**200,
}


@pytest.mark.parametrize("seed", _EDGE_SEEDS.values(), ids=_EDGE_SEEDS.keys())
def test_campaign_draws_from_its_master_seed_at_word_boundaries(seed):
    """A master seed of any size reaches ``default_rng`` unchanged, so its
    campaign is the fold of its reference experiments, and rebuilds bit for
    bit from the seed."""
    law = FallingBodyLaw()
    grid = _fall_grid(61)
    theory = run_campaign(law, _instruments(), 20, SET_L, master_seed=seed, grid=grid)
    readings = _reference_readings(law, _instruments(), SET_L, seed, 20, grid)
    slow = _or_fold(_reference_experiment(_instruments(), r, grid) for r in readings)
    assert np.max(np.abs(theory.joint.values - slow)) / slow.max() < 1e-12
    again = run_campaign(law, _instruments(), 20, SET_L, master_seed=seed, grid=grid)
    assert again.joint.values.tobytes() == theory.joint.values.tobytes()


def test_theory_density_checks_and_freezes_its_mu_factors():
    joint = Density(_fall_grid(11), np.ones((11, 11)))
    ones = np.ones(11)
    theory = TheoryDensity.from_joint(joint, [ones, ones], Provenance("analytic"))
    assert all(not f.flags.writeable for f in theory.mu_factors)
    ones[0] = 5.0
    assert theory.mu_factors[0][0] == 1.0
    assert theory.mu.values.shape == (11, 11) and theory.mu.grid == joint.grid
    for factors, error in (
        ([np.ones(11)], InvalidGrid),
        ([np.ones(11), np.ones(10)], InvalidGrid),
        ([np.ones(11), np.full(11, np.nan)], NonFinite),
        ([np.ones(11), -np.ones(11)], NegativeDensity),
    ):
        with pytest.raises(error):
            TheoryDensity.from_joint(joint, factors, Provenance("analytic"))


def test_theory_density_needs_a_two_dimensional_grid():
    """A theory lives on a 2D grid: one axis, with bands and a μ factor that
    would fit it, raises InvalidGrid."""
    ax = Axis.logarithmic("L", 1.0, 10.0, 11)
    with pytest.raises(InvalidGrid, match="2D grid"):
        TheoryDensity(Grid.of(ax), np.zeros(1), np.full(1, 11), 1.0 / ax.nodes,
                      [1.0 / ax.nodes], Provenance("analytic"))
    with pytest.raises(InvalidGrid, match="2D grid"):
        TheoryDensity.from_joint(Density(Grid.of(ax), 1.0 / ax.nodes), [1.0 / ax.nodes],
                                 Provenance("analytic"))


def test_theory_density_checks_and_freezes_its_bands():
    """Rows of 3 nodes: the second empty, the first and third banded."""
    grid = Grid.of(Axis.linear("L", 1.0, 2.0, 3), Axis.linear("T", 1.0, 2.0, 3))
    lo, hi, band = np.array([0, 0, 1]), np.array([2, 0, 3]), np.array([1.0, 0.0, 2.0, -0.0])
    mu = [np.ones(3), np.ones(3)]
    theory = TheoryDensity(grid, lo, hi, band, mu, Provenance("analytic"))
    assert all(not a.flags.writeable for a in (theory.lo, theory.hi, theory.band))
    band[0] = 5.0
    assert theory.joint.values.tobytes() == np.array(
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, -0.0]]).tobytes()
    for bands, error in (
        ((lo[:2], hi[:2], band), InvalidGrid),
        ((lo, np.array([2, 0, 4]), np.ones(5)), InvalidGrid),
        ((np.array([1, 0, 1]), np.array([0, 0, 3]), np.ones(1)), InvalidGrid),
        ((lo, hi, np.ones(3)), InvalidGrid),
        ((lo, hi, np.array([1.0, np.inf, 1.0, 1.0])), NonFinite),
        ((lo, hi, np.array([1.0, -1.0, 1.0, 1.0])), NegativeDensity),
    ):
        with pytest.raises(error):
            TheoryDensity(grid, *bands, mu, Provenance("analytic"))


def test_too_wide_instrument_is_refused_by_name_and_width():
    """A lognormal width so wide that e^(width·z) overflows or underflows
    gives readings float64 cannot hold: the campaign refuses the width
    instead of dropping the experiments.  Any draw with |z| > 1.5 does so,
    and 200 experiments all miss that with a chance below 1e-12."""
    grid = Grid.of(Axis.logarithmic("L", 1.0, 10.0, 41), Axis.logarithmic("T", 0.45, 1.43, 41))
    with pytest.raises(ConfigInvalid, match=r"the L instrument \(lognormal, width 500\.0\)"):
        run_campaign(FallingBodyLaw(), _instruments(sigma_l=500.0), 200, SET_L, 20260819, grid)


def test_analytic_theory_ridge_is_exact_lognormal():
    """Along each length the T-profile of L·T·θ is a Gaussian in log T.

    A parabola through the three log-values around the maximum therefore
    recovers the ridge height 1 and the width σ exactly (up to rounding),
    and its vertex sits at the fall time of that length.
    """
    law = FallingBodyLaw(sigma_theory=0.01)
    grid = _fall_grid(301)
    theory = analytic_fall_theory(law, grid)
    l_ax, t_ax = grid.axes
    tau = np.log(t_ax.nodes)
    h = tau[1] - tau[0]
    for i in range(40, 260, 36):
        ridge = theory.joint.values[i, :] * l_ax.nodes[i] * t_ax.nodes
        j = int(np.argmax(ridge))
        y0, y1, y2 = np.log(ridge[j - 1]), np.log(ridge[j]), np.log(ridge[j + 1])
        curv = (y0 - 2 * y1 + y2) / (h * h)
        sigma = np.sqrt(-1.0 / curv)
        # d zeta/d tau = -2, so the T-direction width is sigma_theory/2.
        assert sigma == pytest.approx(law.sigma_theory / 2.0, rel=1e-10)
        vertex_tau = tau[j] + 0.5 * h * (y0 - y2) / (y0 - 2 * y1 + y2)
        peak_log = y1 + (y0 - y2) ** 2 / (16.0 * (y1 - 0.5 * (y0 + y2)))
        assert np.exp(peak_log) == pytest.approx(1.0, rel=1e-10)
        assert vertex_tau == pytest.approx(np.log(law.fall_time(l_ax.nodes[i])), abs=1e-10)


@pytest.mark.parametrize("frame", ["linear", "log"])
def test_analytic_theory_off_the_box_raises_zero_mass(frame):
    """L = ½gT² misses the box L in [1, 2], T in [5, 10] entirely; in the log
    frame the same box is λ = ln L in [0, ln 2], τ = ln T in [ln 5, ln 10]."""
    if frame == "linear":
        grid = Grid.of(Axis.logarithmic("L", 1.0, 2.0, 50), Axis.logarithmic("T", 5.0, 10.0, 50))
    else:
        grid = Grid.of(Axis.linear("L", 0.0, math.log(2.0), 50),
                       Axis.linear("T", math.log(5.0), math.log(10.0), 50))
    lower, upper = grid.axes[0].lower, grid.axes[0].upper
    with pytest.raises(ZeroMass, match=re.escape(f"no mass on the box L in [{lower}, {upper}], T in")):
        analytic_fall_theory(FallingBodyLaw(), grid, frame=frame)
    # the formula evaluated at every node has no mass there either
    assert not np.any(_dense_ridge(FallingBodyLaw(), grid, frame))


def _dense_ridge(law, grid, frame):
    """The ridge's formula evaluated at every node of the grid."""
    sigma = law.sigma_theory
    with np.errstate(all="ignore"):
        if frame == "linear":
            lv, tv = grid.meshes()
            zeta = np.log(lv / (0.5 * law.g * tv * tv))
            return np.exp(-0.5 * np.square(zeta / sigma)) * (1.0 / (lv * tv))
        lam, tau = grid.meshes()
        zeta = lam - math.log(0.5 * law.g) - 2.0 * tau
        return np.exp(-0.5 * np.square(zeta / sigma))


_DEFAULT_L = Axis.logarithmic("L", 1.0, 10.0, 1401)
_DEFAULT_T = Axis.logarithmic("T", 0.45152364098573, 1.4278431229270645, 1401)


@pytest.mark.parametrize(
    "axes, sigma, frame",
    [
        *(((_DEFAULT_L, _DEFAULT_T), s, "linear") for s in (1e-300, 1e-4, 1e-3, 3.0, 1e300)),
        ((Axis.logarithmic("L", 1.0, 10.0, 401), Axis.logarithmic("T", 0.3, 2.0, 389)), 1e-3,
         "linear"),
        ((Axis.linear("L", 0.5, 20.0, 301), Axis.linear("T", 0.25, 2.5, 257)), 1e-2, "linear"),
        ((_DEFAULT_L, Axis.logarithmic("T", 0.45152364098573, 1.4278431229270645, 97)), 1e-3,
         "linear"),
        ((Axis.logarithmic("L", 0.5, 20.0, 300), Axis.logarithmic("T", 0.25, 2.5, 300)), 0.158,
         "linear"),
        ((Axis.linear("L", 0.0, math.log(10.0), 701),
          Axis.linear("T", math.log(0.4515), math.log(1.4279), 653)), 1e-3, "log"),
    ],
    ids=["sigma-1e-300", "sigma-1e-4", "sigma-1e-3", "sigma-3", "sigma-1e300", "leaves-the-box",
         "linear-axes", "97-T-nodes", "build-grid-wide", "log-frame"],
)
def test_banded_ridge_equals_the_formula_at_every_node(axes, sigma, frame):
    """The ridge is evaluated only where float64 can hold a nonzero value;
    every node, evaluated or not, holds exactly what the formula gives.  The
    theory's row bands are those of the formula's dense array, bit for bit,
    and the mass taken from them is the dense joint's to 1e-15."""
    law = FallingBodyLaw(sigma_theory=sigma)
    grid = Grid.of(*axes)
    theory = analytic_fall_theory(law, grid, frame=frame)
    dense = _dense_ridge(law, grid, frame)
    assert np.array_equal(theory.joint.values, dense)
    for built, expected in zip((theory.lo, theory.hi, theory.band), _row_bands(dense)):
        assert built.dtype == expected.dtype and built.tobytes() == expected.tobytes()
    mass = integrate(theory.joint)
    assert abs(theory._band_mass - mass) <= 1e-15 * mass


@settings(max_examples=150)
@given(st.data())
def test_banded_ridge_equals_the_formula_on_drawn_grids(data):
    """On drawn boxes, node counts, spacings, widths and frames, the theory's
    row bands are those of the formula's dense array, bit for bit.

    The time box is drawn in τ = ln T, and the length box around the
    ridge's image of it, each end moved by up to e³, so that the ridge
    crosses the box, leaves it through a side (the rows past it are all
    zero) or misses it.  Node counts are drawn per axis, so most grids are
    not commensurate with the ridge; a quarter of them are its image node
    for node, where each row meets the ridge at a node up to rounding.  σ
    is log-uniform over [1e-300, 1e300], from spikes that no node holds to
    a flat ridge, or over [1e-5, 0.1], where a ridge spans from a node to a
    whole row.  A ridge without mass on the box is refused; the formula's
    own bands then have no mass either."""
    # The shares of commensurate grids and of each σ range are drawn from
    # a seeded generator, as hypothesis leans to its simplest values.
    rnd = data.draw(st.randoms(use_true_random=False))
    frame = data.draw(st.sampled_from(["linear", "log"]))
    tau0 = data.draw(st.floats(-3.0, 3.0))
    tau1 = tau0 + data.draw(st.floats(0.01, 3.0))
    t_count = data.draw(st.integers(2, 300))
    spacings = [Axis.linear, Axis.logarithmic] if frame == "linear" else [Axis.linear]
    if rnd.random() < 0.25:
        shifts, l_count, l_spacing = (0.0, 0.0), t_count, spacings[-1]
        t_spacing = l_spacing
    else:
        shifts = (data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(-3.0, 3.0)))
        l_count = data.draw(st.integers(2, 300))
        l_spacing, t_spacing = (data.draw(st.sampled_from(spacings)) for _ in "LT")
    lam0, lam1 = sorted(math.log(0.5 * G) + 2.0 * tau + shift
                        for tau, shift in zip((tau0, tau1), shifts))
    lam1 = max(lam1, lam0 + 0.01)
    # The log frame's axes carry λ and τ, the linear frame's L and T.
    box = (lambda v: v) if frame == "log" else math.exp
    grid = Grid.of(l_spacing("L", box(lam0), box(lam1), l_count),
                   t_spacing("T", box(tau0), box(tau1), t_count))
    # Half the draws take σ from the range where a ridge spans from a node
    # to a whole row, which is a sliver of the log-uniform range.
    exponent = rnd.uniform(-300.0, 300.0) if rnd.random() < 0.5 else rnd.uniform(-5.0, -1.0)
    law = FallingBodyLaw(sigma_theory=10.0 ** exponent)
    dense = _dense_ridge(law, grid, frame)
    try:
        theory = analytic_fall_theory(law, grid, frame=frame)
    except ZeroMass:
        ones = tuple(np.ones(n) for n in grid.shape)
        assert not TheoryDensity.from_joint(Density(grid, dense), ones,
                                            Provenance("analytic"))._band_mass > 0.0
        return
    for built, expected in zip((theory.lo, theory.hi, theory.band), _row_bands(dense)):
        assert built.dtype == expected.dtype and built.tobytes() == expected.tobytes()


def test_banded_ridge_keeps_the_subnormal_edge_of_the_ridge():
    """On rows whose nodes step about 0.002σ in ζ from the ridge out past
    σ·√(2·746), each band ends at the formula's last nonzero node, a
    subnormal.  float64's exp underflows to 0 only past ½(ζ/σ)² ≈ 745.13,
    so a row range cut at a smaller reach than the theory's would drop
    some 70 nonzero nodes, which the one node of widening does not
    cover."""
    sigma = 1e-3
    lam0 = math.log(0.5 * G)
    grid = Grid.of(Axis.linear("L", lam0, lam0 + 1e-12, 2),
                   Axis.linear("T", 0.0, 19.4 * sigma, 20001))
    law = FallingBodyLaw(sigma_theory=sigma)
    theory = analytic_fall_theory(law, grid, frame="log")
    for built, expected in zip((theory.lo, theory.hi, theory.band),
                               _row_bands(_dense_ridge(law, grid, "log"))):
        assert built.dtype == expected.dtype and built.tobytes() == expected.tobytes()
    ends = theory.band[np.cumsum(theory.hi - theory.lo) - 1]
    assert np.all((ends > 0.0) & (ends < np.finfo(np.float64).tiny))
    assert np.all(theory.hi < grid.shape[1])


@pytest.mark.parametrize("builder", ["analytic", "campaign"])
@pytest.mark.parametrize(
    "axes",
    [(Axis.logarithmic("T", 0.25, 2.5, 30), Axis.logarithmic("L", 0.5, 20.0, 30)),
     (Axis.logarithmic("L", 0.5, 20.0, 30),)],
    ids=["T-first", "one-axis"],
)
def test_fall_builders_refuse_a_grid_that_is_not_length_then_time(axes, builder):
    """The fall law's roles go by position: axis 0 is length and axis 1 is
    time.  A grid of one axis, or one whose first axis is named T, is refused
    before anything is built."""
    grid = Grid.of(*axes)
    with pytest.raises(InvalidGrid, match="the length axis first, then time"):
        if builder == "analytic":
            analytic_fall_theory(FallingBodyLaw(), grid)
        else:
            run_campaign(FallingBodyLaw(), _campaign_instruments("lognormal"), 10, SET_L, 0, grid)


@pytest.mark.parametrize(
    "build, message",
    [(lambda: FallingBodyLaw(g=0.0), "g must be finite and > 0, got 0.0"),
     (lambda: FallingBodyLaw(sigma_theory=math.inf), "sigma_theory must be finite and > 0"),
     (lambda: run_campaign(FallingBodyLaw(), _instruments(), 10, "set_X", 0, _fall_grid(30)),
      "mode must be 'set_L' or 'set_T', got 'set_X'"),
     (lambda: analytic_fall_theory(FallingBodyLaw(), _fall_grid(30), frame="polar"),
      "frame must be 'linear' or 'log', got 'polar'")],
    ids=["g", "sigma-theory", "mode", "frame"],
)
def test_fall_law_and_builders_refuse_invalid_parameters(build, message):
    with pytest.raises(InvalidGrid, match=message):
        build()


def test_analytic_theory_on_a_box_reaching_zero_is_refused():
    """The formula is not finite at L = 0, and μ = 1/(LT) is refused there."""
    grid = Grid.of(Axis.linear("L", 0.0, 10.0, 51), Axis.logarithmic("T", 0.45, 1.43, 51))
    with pytest.raises(InvalidBounds, match="'L': the reciprocal prior needs a positive box"):
        analytic_fall_theory(FallingBodyLaw(), grid)


def test_analytic_theory_marginals_are_noninformative():
    law = FallingBodyLaw(sigma_theory=0.03)
    grid = _fall_grid(301)
    theory = analytic_fall_theory(law, grid)
    l_marg = marginalize(theory.joint, "L")
    flat = l_marg.values * grid.axes[0].nodes
    assert np.max(np.abs(flat / np.median(flat) - 1.0)) < 0.01
    t_marg = marginalize(theory.joint, "T")
    flat = t_marg.values * grid.axes[1].nodes
    # Interior only: near the T edges the law maps outside the L box, so the
    # λ-Gaussian loses mass and the 1/T form cannot hold there.
    inner = flat[46:-46]
    assert np.max(np.abs(inner / np.median(inner) - 1.0)) < 0.01


def test_analytic_theory_frame_consistency():
    """Building in log coordinates equals pushing the linear-frame build."""
    law = FallingBodyLaw(sigma_theory=0.01)
    grid = _fall_grid(301)
    linear_frame = analytic_fall_theory(law, grid)
    lam = Axis.linear("lam", np.log(0.5), np.log(20.0), 301)
    tau = Axis.linear("tau", np.log(0.25), np.log(2.5), 301)
    log_grid = Grid.of(lam, tau)
    direct = analytic_fall_theory(law, log_grid, frame="log")
    pushed = push_forward(
        linear_frame.joint,
        product_map(log_map(), log_map()),
        log_grid,
    )
    peak = direct.joint.values.max()
    assert np.max(np.abs(direct.joint.values - pushed.values)) / peak < 1e-4


def test_analytic_conditional_mode_on_the_law():
    law = FallingBodyLaw(sigma_theory=0.01)
    grid = _fall_grid(301)
    theory = analytic_fall_theory(law, grid)
    t_ax = grid.axes[1]
    cell = np.log(t_ax.nodes[1] / t_ax.nodes[0])
    for length in (1.0, 4.905, 12.0):
        cond = conditional_density(theory.joint, "L", length)
        mode = t_ax.nodes[np.argmax(cond.values)]
        assert abs(np.log(mode / law.fall_time(length))) <= cell


def test_boxed_conditionals_equal_or_accumulation():
    """Constant slices per i-box match OR-folding box-supported experiments.

    Each box runs between quadrature cell boundaries, so the box indicator is
    exact on cells and the two constructions coincide.
    """
    i_ax = Axis.logarithmic("I", 1.0, 16.0, 25)
    d_ax = Axis.linear("D", 0.0, 2.0, 17)
    grid = Grid.of(i_ax, d_ax)
    mu_i = null_information_density(Grid.of(i_ax))

    shapes = [
        normalize(
            Density.from_callable(
                Grid.of(d_ax), lambda d, c=c: np.exp(-((d - c) ** 2) / 0.05)
            )
        )
        for c in (0.4, 0.8, 1.2, 1.6, 1.0)
    ]
    cond = [shapes[i // 5] for i in range(25)]
    built = conditional_theory(cond, mu_i)

    edges = i_ax.cell_boundaries
    pieces = []
    for b, shape in enumerate(shapes):
        lo, hi = edges[5 * b], edges[5 * b + 5]
        box = measurement_profile(
            MeasurementModel(
                parameter="I", kind=BOXCAR, center=0.5 * (lo + hi), width=0.5 * (hi - lo)
            ),
            i_ax,
        )
        pieces.append(Density(grid, np.multiply.outer(box, shape.values)))
    accumulated = or_combine(*pieces)
    peak = built.joint.values.max()
    assert np.max(np.abs(built.joint.values - accumulated.values)) / peak < 1e-9
