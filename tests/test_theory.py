"""Falling-body law, simulated campaigns, and analytic theories."""

import math
import re

import numpy as np
import pytest

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
    OutOfDomain,
    Provenance,
    SliceCountMismatch,
    UnnormalizedSlice,
    ZeroMass,
    accumulate_theory,
    analytic_fall_theory,
    conditional_density,
    integrate,
    log_map,
    marginalize,
    measurement_profile,
    normalize,
    null_information_density,
    or_combine,
    product_map,
    push_forward,
    run_campaign,
    simulate_experiment,
    TheoryDensity,
    theory_from_conditional,
)
from inferspace.theory import _BLOCK_BYTES

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
    """Near-noiseless instruments put all mass within a cell of the truth."""
    law = FallingBodyLaw()
    grid = _fall_grid(201)
    instruments = [
        MeasurementModel(parameter="L", kind=BOXCAR, center=1.0, width=1e-9),
        MeasurementModel(parameter="T", kind=BOXCAR, center=1.0, width=1e-9),
    ]
    res = simulate_experiment(law, instruments, 4.905, SET_L, seed=5, grid=grid)
    d = normalize(res.density)
    l_marg = normalize(marginalize(d, "L"))
    t_marg = normalize(marginalize(d, "T"))
    l_ax, t_ax = grid.axes
    l_mode = l_ax.nodes[np.argmax(l_marg.values)]
    t_mode = t_ax.nodes[np.argmax(t_marg.values)]
    cell = np.log(l_ax.nodes[1] / l_ax.nodes[0])
    assert abs(np.log(l_mode / 4.905)) <= cell
    assert abs(np.log(t_mode / 1.0)) <= cell
    assert res.true_values == {"L": 4.905, "T": law.fall_time(4.905)}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_experiment_density_centers_on_observations(seed):
    law = FallingBodyLaw()
    grid = _fall_grid(401)
    res = simulate_experiment(law, _instruments(0.02, 0.02), 3.0, SET_L, seed=seed, grid=grid)
    for name in ("L", "T"):
        obs = res.observed[name]
        marg = marginalize(normalize(res.density), name)
        peak = marg.grid.axes[0].nodes[np.argmax(marg.values)]
        # The lognormal density mode sits at obs·exp(-w²), far under a cell here.
        assert abs(np.log(peak / obs)) < 0.02


def test_set_t_mode_swaps_independent_axis():
    law = FallingBodyLaw()
    grid = _fall_grid(101)
    res = simulate_experiment(law, _instruments(), 1.3, SET_T, seed=9, grid=grid)
    assert res.true_values["T"] == 1.3
    assert res.true_values["L"] == pytest.approx(law.fall_length(1.3))


def test_out_of_box_independent_value():
    law = FallingBodyLaw()
    grid = _fall_grid(51)
    with pytest.raises(OutOfDomain):
        simulate_experiment(law, _instruments(), 100.0, SET_L, seed=1, grid=grid)


def test_missing_instrument_rejected():
    law = FallingBodyLaw()
    grid = _fall_grid(51)
    with pytest.raises(GridMismatch):
        simulate_experiment(law, _instruments()[:1], 1.0, SET_L, seed=1, grid=grid)


def test_accumulated_mass_counts_experiments():
    law = FallingBodyLaw()
    grid = _fall_grid(101)
    results = [
        simulate_experiment(law, _instruments(), 2.0 + i, SET_L, seed=i, grid=grid)
        for i in range(7)
    ]
    theory = accumulate_theory(results)
    assert integrate(theory.joint) == pytest.approx(7.0, rel=1e-12)
    assert theory.provenance.n_experiments == 7

    single = accumulate_theory(results[:1])
    assert integrate(single.joint) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(EmptyInput):
        accumulate_theory([])


def test_accumulation_order_independent():
    law = FallingBodyLaw()
    grid = _fall_grid(101)
    results = [
        simulate_experiment(law, _instruments(), 1.0 + i, SET_L, seed=i, grid=grid)
        for i in range(6)
    ]
    forward = accumulate_theory(results)
    backward = accumulate_theory(results[::-1])
    peak = forward.joint.values.max()
    assert np.max(np.abs(forward.joint.values - backward.joint.values)) / peak < 1e-12


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


def _reference_experiment(law, instruments, mode, seed, grid):
    """Campaign experiment i run on its own, with ``seed = master_seed ⊕ i``:
    one uniform for the independent value, then the instrument noises."""
    i_axis = grid.axis(law.length_axis if mode == SET_L else law.time_axis)
    return simulate_experiment(
        law, instruments, _draw_i(i_axis, seed), mode, seed=_skip_one_uniform(seed), grid=grid
    )


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
    """The blocked campaign reproduces the one-experiment-at-a-time fold,
    whose experiment i draws from ``default_rng(master_seed ^ i)``."""
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

    experiments = (
        _reference_experiment(law, instruments, mode, master_seed ^ i, grid) for i in range(n)
    )
    slow = accumulate_theory(experiments)
    peak = slow.joint.values.max()
    assert np.max(np.abs(theory.joint.values - slow.joint.values)) / peak < 1e-12
    for fold_mu, campaign_mu in zip(slow.mu_factors, theory.mu_factors):
        assert fold_mu.tobytes() == campaign_mu.tobytes()


def _draw_i(axis: Axis, seed: int) -> float:
    rng = np.random.default_rng(seed)
    u = rng.uniform()
    if axis.spacing == "linear":
        return float(axis.lower + (axis.upper - axis.lower) * u)
    return float(axis.lower * (axis.upper / axis.lower) ** u)


def _skip_one_uniform(seed: int) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    rng.uniform()
    return rng


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
def test_campaign_counts_experiments_without_mass(instruments):
    """set_T up to T = 2.5 reaches L = 30.7.  The campaign counts the
    experiments with no mass on the grid and raises ZeroMass with that count."""
    law = FallingBodyLaw()
    grid = _fall_grid(101)
    n = 200
    dropped = 0
    for i in range(n):
        try:
            normalize(_reference_experiment(law, instruments, SET_T, 5 ^ i, grid).density)
        except (InvalidBounds, ZeroMass):
            dropped += 1
    assert 0 < dropped < n
    with pytest.raises(ZeroMass, match=rf"^{dropped} of {n} experiment"):
        run_campaign(law, instruments, n, SET_T, master_seed=5, grid=grid)


def test_campaign_builds_no_generator_per_experiment(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_campaign called default_rng")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    theory = run_campaign(FallingBodyLaw(), _instruments(), 50, SET_L, master_seed=3,
                          grid=_fall_grid(61))
    assert integrate(theory.joint) == pytest.approx(50, rel=1e-12)


def test_theory_density_checks_and_freezes_its_mu_factors():
    joint = Density(_fall_grid(11), np.ones((11, 11)))
    ones = np.ones(11)
    theory = TheoryDensity(joint, [ones, ones], Provenance("analytic"))
    assert all(not f.flags.writeable for f in theory.mu_factors)
    ones[0] = 5.0
    assert theory.mu_factors[0][0] == 1.0
    assert theory.mu.values.shape == (11, 11) and theory.mu.frame == joint.frame
    for factors, error in (
        ([np.ones(11)], InvalidGrid),
        ([np.ones(11), np.ones(10)], InvalidGrid),
        ([np.ones(11), np.full(11, np.nan)], NonFinite),
        ([np.ones(11), -np.ones(11)], NegativeDensity),
    ):
        with pytest.raises(error):
            TheoryDensity(joint, factors, Provenance("analytic"))


def test_too_wide_instrument_is_refused_by_name_and_width():
    """A lognormal width so wide that e^(width·z) overflows or underflows
    gives readings float64 cannot hold: the campaign refuses the width
    instead of dropping the experiments."""
    grid = Grid.of(Axis.logarithmic("L", 1.0, 10.0, 41), Axis.logarithmic("T", 0.45, 1.43, 41))
    with pytest.raises(ConfigInvalid, match=r"the L instrument \(lognormal, width 500\.0\)"):
        run_campaign(FallingBodyLaw(), _instruments(sigma_l=500.0), 5, SET_L, 20260819, grid)


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
        frame=direct.joint.frame,
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


def test_theory_from_conditional_separable():
    i_ax = Axis.linear("I", 0.0, 1.0, 11)
    d_ax = Axis.linear("D", 0.0, 2.0, 21)
    slice_shape = normalize(
        Density.from_callable(Grid.of(d_ax), lambda d: np.exp(-((d - 1.0) ** 2) / 0.08))
    )
    mu_i = null_information_density(Grid.of(i_ax))
    theory = theory_from_conditional([slice_shape] * 11, mu_i)
    expected = np.multiply.outer(mu_i.values, slice_shape.values)
    np.testing.assert_allclose(theory.joint.values, expected, rtol=1e-14)
    # Marginal over the dependent axis gives back mu_i.
    marg = marginalize(theory.joint, "I")
    np.testing.assert_allclose(marg.values, mu_i.values, rtol=0, atol=1e-9)


def test_theory_from_conditional_validation():
    i_ax = Axis.linear("I", 0.0, 1.0, 5)
    d_ax = Axis.linear("D", 0.0, 2.0, 9)
    good = normalize(Density(Grid.of(d_ax), np.ones(9)))
    bad = Density(Grid.of(d_ax), 2.0 * np.ones(9))
    mu_i = null_information_density(Grid.of(i_ax))
    with pytest.raises(SliceCountMismatch):
        theory_from_conditional([good] * 4, mu_i)
    with pytest.raises(UnnormalizedSlice):
        theory_from_conditional([good] * 4 + [bad], mu_i)


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
    built = theory_from_conditional(cond, mu_i)

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
