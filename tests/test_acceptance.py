"""End-to-end acceptance checks for the whole engine.

Each test covers one advertised capability at its stated tolerance and,
where one applies, its runtime budget.  Every test prints a single verdict
line ``[criterion N] PASS/FAIL - detail`` so a log scrape shows the status
of all nine at a glance.
"""

import math
import time

import numpy as np

from inferspace import (
    LOGNORMAL,
    SET_L,
    Axis,
    Density,
    FallingBodyLaw,
    Grid,
    MeasurementModel,
    Realization,
    affine_map,
    affine_map_2d,
    analytic_fall_theory,
    benford_digit_probabilities,
    borel_kolmogorov_demo,
    check_axioms,
    information_content,
    log_map,
    marginalize,
    normalize,
    null_information_density,
    predict,
    push_forward,
    reciprocal_map,
    run_campaign,
    sample_axiom_triples,
    sample_prior,
    shear_map,
    summarize,
    symmetric_kl,
    total_variation,
    verify_invariance,
)

MASTER_SEED = 20260819


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def _lognormal(axis: Axis, center: float, width: float) -> Density:
    u = np.log(axis.nodes / center) / width
    return normalize(Density(Grid.of(axis), np.exp(-0.5 * u * u) / axis.nodes))


def _correlated_joint(count: int, sigma_sum=1.0, sigma_diff=0.4):
    lim = math.exp(1.4)
    grid = Grid.of(
        Axis.logarithmic("x", 1.0 / lim, lim, count),
        Axis.logarithmic("y", 1.0 / lim, lim, count),
    )

    def f(x, y):
        u, v = np.log(x), np.log(y)
        return (
            np.exp(
                -((u + v) ** 2) / (2.0 * sigma_sum**2)
                - ((u - v) ** 2) / (2.0 * sigma_diff**2)
            )
            / (x * y)
        )

    return normalize(Density.from_callable(grid, f)), null_information_density(grid)


def test_criterion_1_analytic_theory_marginals():
    """The sigma=0.001 fall theory over three decades of length has marginals
    proportional to 1/L and 1/T to better than 1% away from the box edges.

    The time box is the law image of the length box, which places the ridge
    at the same lattice phase on every length node; 1600 nodes per decade in
    L (3200 in T) resolves the narrow ridge cross-sections.
    """
    t0 = time.perf_counter()
    g = 9.81
    l_lo, l_hi = 0.1, 100.0
    ax_l = Axis.logarithmic("L", l_lo, l_hi, 4801)
    ax_t = Axis.logarithmic("T", math.sqrt(2 * l_lo / g), math.sqrt(2 * l_hi / g), 4801)
    theory = analytic_fall_theory(
        FallingBodyLaw(g=g, sigma_theory=1e-3), Grid.of(ax_l, ax_t)
    )
    marg_l = marginalize(theory.joint, "L")
    marg_t = marginalize(theory.joint, "T")
    # drop 8 edge nodes: there the ridge crosses the far axis's boundary and
    # loses quadrature mass by construction
    trim = 8
    flat_l = marg_l.values[trim:-trim] * ax_l.nodes[trim:-trim]
    flat_t = marg_t.values[trim:-trim] * ax_t.nodes[trim:-trim]
    dev_l = float(np.max(np.abs(flat_l / np.median(flat_l) - 1.0)))
    dev_t = float(np.max(np.abs(flat_t / np.median(flat_t) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = dev_l < 0.01 and dev_t < 0.01 and elapsed < 30.0
    _verdict(
        1, ok, f"1/L dev {dev_l:.2e}, 1/T dev {dev_t:.2e} (tol 1%), {elapsed:.1f}s < 30s"
    )
    assert ok


def test_criterion_2_axioms_hold_and_negative_control_fails():
    """Both realizations satisfy all axioms on 100 random triples at 1e-12;
    dropping the 1/mu factor from AND breaks the neutral element."""
    grid = Grid.of(Axis.logarithmic("x", 0.1, 10.0, 27), Axis.linear("y", 0.0, 1.0, 25))
    mu = null_information_density(grid)
    sum_product = check_axioms(
        Realization.sum_product(mu), sample_axiom_triples(grid, 100, MASTER_SEED), tol=1e-12
    )
    max_min = check_axioms(
        Realization.max_min(grid),
        sample_axiom_triples(grid, 100, MASTER_SEED + 1, grades=True),
        tol=1e-12,
    )
    broken = check_axioms(
        Realization.broken_product(mu),
        sample_axiom_triples(grid, 100, MASTER_SEED),
        tol=1e-12,
    )
    broken_names = [c.name for c in broken.checks if not c.passed]
    ok = (
        sum_product.all_passed
        and max_min.all_passed
        and not broken.all_passed
        and "neutral_element" in broken_names
    )
    _verdict(
        2,
        ok,
        "sum/product and max/min pass 100 triples at 1e-12; "
        f"broken product fails {broken_names}",
    )
    assert ok


def test_criterion_3_or_and_commute_with_coordinate_changes():
    """Pushing OR/AND results through a map equals OR/AND of the pushed
    inputs: to round-off for affine maps, to interpolation accuracy for
    reciprocal and log maps."""
    t0 = time.perf_counter()
    axis = Axis.logarithmic("x", 0.2, 5.0, 401)
    p = _lognormal(axis, math.exp(0.2), 0.3)
    q = _lognormal(axis, math.exp(-0.4), 0.5)
    mu = null_information_density(Grid.of(axis))
    affine = verify_invariance(p, q, mu, affine_map(2.5, 0.0))
    recip = verify_invariance(p, q, mu, reciprocal_map())
    logm = verify_invariance(p, q, mu, log_map())
    elapsed = time.perf_counter() - t0
    ok = (
        affine.within(1e-10)
        and recip.within(1e-4)
        and logm.within(1e-4)
        and elapsed < 5.0
    )
    _verdict(
        3,
        ok,
        f"affine {max(affine.or_discrepancy, affine.and_discrepancy):.1e} < 1e-10, "
        f"reciprocal {max(recip.or_discrepancy, recip.and_discrepancy):.1e} / "
        f"log {max(logm.or_discrepancy, logm.and_discrepancy):.1e} < 1e-4, "
        f"{elapsed:.1f}s < 5s",
    )
    assert ok


def test_criterion_4_band_conditioning_recovers_the_conditional():
    """AND with a mu-shaped boxcar around a slice converges to the naive
    conditional as the band thins, reaching TV <= 1e-3 at two-cell width."""
    joint, mu = _correlated_joint(301)
    tvs = []
    for cells in (8.0, 4.0, 2.0):
        (report,) = borel_kolmogorov_demo(
            joint, mu, [affine_map_2d(1.0, 0.0, 2.0, 0.0)], 1.0, width_cells=cells
        )
        tvs.append(total_variation(report.band_native, report.native_conditional))
    ok = tvs[0] > tvs[1] > tvs[2] and tvs[2] <= 1e-3
    _verdict(
        4,
        ok,
        f"TV at 8/4/2 cells: {tvs[0]:.2e} > {tvs[1]:.2e} > {tvs[2]:.2e} <= 1e-3",
    )
    assert ok


def test_criterion_5_scale_invariant_prior_obeys_the_first_digit_law():
    """A million draws from the 1/x prior over [1, 1e6] reproduce the
    log10((n+1)/n) leading-digit frequencies within 0.005 per digit."""
    t0 = time.perf_counter()
    draws = sample_prior(1.0, 1e6, 1_000_000, MASTER_SEED)
    leading = (draws / 10.0 ** np.floor(np.log10(draws))).astype(int)
    freqs = np.bincount(leading, minlength=10)[1:10] / len(draws)
    worst = float(np.max(np.abs(freqs - benford_digit_probabilities())))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.005 and elapsed < 10.0
    _verdict(5, ok, f"max per-digit error {worst:.4f} < 0.005, {elapsed:.1f}s < 10s")
    assert ok


def test_criterion_6_tight_measurements_invert_the_law():
    """A sigma=0.001 time measurement at 1.0 s puts the length mode at
    g/2 = 4.905 m and the reverse puts the time mode at 1.0 s, within 0.5%
    of the values the independent quadrature oracle gives for the exact
    posterior modes (tools/oracles/fall_posterior_mode.py)."""
    theory = analytic_fall_theory(
        FallingBodyLaw(g=9.81, sigma_theory=1e-3),
        Grid.of(
            Axis.logarithmic("L", 2.0, 12.0, 1601),
            Axis.logarithmic("T", 0.6, 1.6, 1601),
        ),
    )
    t0 = time.perf_counter()
    mode_l = summarize(predict(
        theory,
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=1e-3),
        query="L",
    )).mode
    t_forward = time.perf_counter() - t0
    t0 = time.perf_counter()
    mode_t = summarize(predict(
        theory,
        MeasurementModel(parameter="L", kind=LOGNORMAL, center=4.905, width=1e-3),
        query="T",
    )).mode
    t_reverse = time.perf_counter() - t0
    err_l = abs(mode_l / 4.905 - 1.0)
    err_t = abs(mode_t / 1.0 - 1.0)
    ok = err_l < 0.005 and err_t < 0.005 and t_forward < 10.0 and t_reverse < 10.0
    _verdict(
        6,
        ok,
        f"L mode {mode_l:.4f} (err {err_l:.1e}), T mode {mode_t:.5f} "
        f"(err {err_t:.1e}) < 0.5%; {t_forward:.1f}s/{t_reverse:.1f}s < 10s",
    )
    assert ok


def test_criterion_7_accumulated_theory_converges_on_the_analytic_ridge():
    """Symmetric KL between the empirical theory and a fitted analytic ridge
    strictly decreases over n = 100, 1000, 10000 experiments at a fixed
    master seed (the fit happens once, against the largest run)."""
    t0 = time.perf_counter()
    grid = Grid.of(
        Axis.logarithmic("L", 0.5, 20.0, 301), Axis.logarithmic("T", 0.25, 2.5, 301)
    )
    law = FallingBodyLaw(g=9.81, sigma_theory=1e-3)
    instruments = [
        MeasurementModel(parameter="L", kind=LOGNORMAL, center=1.0, width=0.05),
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.05),
    ]
    empirical = {
        n: normalize(run_campaign(law, instruments, n, SET_L, MASTER_SEED, grid).joint)
        for n in (100, 1000, 10000)
    }

    def reference(sigma: float) -> Density:
        wide = FallingBodyLaw(g=9.81, sigma_theory=sigma)
        return normalize(analytic_fall_theory(wide, grid).joint)

    def misfit(sigma: float) -> float:
        return symmetric_kl(empirical[10000], reference(sigma))

    # golden-section fit of the ridge width on [0.08, 0.30]
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.08, 0.30
    c, d = b - gold * (b - a), a + gold * (b - a)
    fc, fd = misfit(c), misfit(d)
    for _ in range(30):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gold * (b - a)
            fc = misfit(c)
        else:
            a, c, fc = c, d, fd
            d = a + gold * (b - a)
            fd = misfit(d)
    sigma_fit = 0.5 * (a + b)
    ref = reference(sigma_fit)
    kls = [symmetric_kl(empirical[n], ref) for n in (100, 1000, 10000)]
    elapsed = time.perf_counter() - t0
    ok = kls[0] > kls[1] > kls[2] and elapsed < 120.0
    _verdict(
        7,
        ok,
        f"KL {kls[0]:.3f} > {kls[1]:.4f} > {kls[2]:.4f} "
        f"(fitted sigma {sigma_fit:.4f}), {elapsed:.1f}s < 120s",
    )
    assert ok


def test_criterion_8_conditioning_paradox_and_its_resolution():
    """Naive slice conditionals disagree across a nonlinear change of frame
    (TV > 0.01) while AND-band conditionals agree within 1e-3; under an
    affine control both agree within 1e-6."""
    joint, mu = _correlated_joint(301)
    sheared, control = borel_kolmogorov_demo(
        joint, mu, [shear_map(), affine_map_2d(1.0, 0.0, 2.0, 0.0)], 1.0
    )
    ok = (
        sheared.tv_naive > 0.01
        and sheared.tv_band <= 1e-3
        and control.tv_naive <= 1e-6
        and control.tv_band <= 1e-6
    )
    _verdict(
        8,
        ok,
        f"shear naive TV {sheared.tv_naive:.3f} > 0.01, band TV "
        f"{sheared.tv_band:.1e} <= 1e-3; affine control {control.tv_naive:.1e}/"
        f"{control.tv_band:.1e} <= 1e-6",
    )
    assert ok


def test_criterion_9_information_content_identities():
    """I(mu-hat || mu) = 0; I survives a joint push-forward; a mu-shaped
    state over half the box carries exactly ln 2."""
    grid2 = Grid.of(Axis.logarithmic("x", 0.1, 10.0, 201), Axis.linear("y", 0.0, 2.0, 101))
    mu2 = null_information_density(grid2)
    i_null = information_content(normalize(mu2), mu2)

    axis = Axis.logarithmic("x", 0.1, 10.0, 801)
    p = _lognormal(axis, 1.7, 0.3)
    mu1 = null_information_density(Grid.of(axis))
    i_before = information_content(p, mu1)
    m = reciprocal_map()
    target = Grid.of(m.image_axis(axis, name="nu"))
    i_after = information_content(
        normalize(push_forward(p, m, target)), push_forward(mu1, m, target)
    )
    drift = abs(i_after - i_before)

    ax = Axis.linear("z", 0.0, 1.0, 100)
    half = Density(Grid.of(ax), np.where(ax.nodes < 0.5, 2.0, 0.0))
    i_half = information_content(half, null_information_density(Grid.of(ax)))

    ok = abs(i_null) <= 1e-9 and drift <= 1e-6 and abs(i_half - math.log(2.0)) <= 1e-6
    _verdict(
        9,
        ok,
        f"I(mu-hat||mu) {i_null:.1e} <= 1e-9; push drift {drift:.1e} <= 1e-6; "
        f"half box {i_half:.9f} = ln2 +/- 1e-6",
    )
    assert ok
