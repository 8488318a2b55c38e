"""Posterior construction, conditioning, summaries, sampling, and the
curved-slice conditioning demonstration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from inferspace import (
    BOXCAR,
    GAUSSIAN,
    LOGNORMAL,
    NONINFORMATIVE,
    Axis,
    Density,
    EnvelopeFailure,
    FallingBodyLaw,
    Grid,
    InferenceSpaceError,
    InvalidGrid,
    MeasurementModel,
    NeutralZero,
    OutOfDomain,
    Provenance,
    TheoryDensity,
    ZeroMass,
    ZeroSlice,
    affine_map,
    affine_map_2d,
    analytic_fall_theory,
    and_combine,
    band_conditional,
    borel_kolmogorov_demo,
    conditional_density,
    intersect,
    marginalize,
    measurement_density,
    noninformative_profile,
    normalize,
    null_information_density,
    predict,
    product_map,
    push_forward,
    reciprocal_map,
    sample_posterior,
    shear_map,
    summarize,
    theory_from_conditional,
    total_variation,
)

from conftest import boxcar_density, gaussian_density

LAW = FallingBodyLaw(g=9.81, length_axis="L", time_axis="T")

# Posterior modes under a tight measurement of the other variable, from the
# brute-force 1D quadrature oracle in tools/oracles/fall_posterior_mode.py.
LENGTH_MODE_GIVEN_UNIT_TIME = 4.905
TIME_MODE_GIVEN_HALF_G = 1.0


def _fall_theory(sigma, nl=301, nt=301, l_box=(2.0, 12.0), t_box=(0.6, 1.6)):
    grid = Grid.of(
        Axis.logarithmic("L", l_box[0], l_box[1], nl),
        Axis.logarithmic("T", t_box[0], t_box[1], nt),
    )
    return analytic_fall_theory(
        FallingBodyLaw(g=9.81, sigma_theory=sigma, length_axis="L", time_axis="T"),
        grid,
    )


# ---------------------------------------------------------------------------
# intersect
# ---------------------------------------------------------------------------

class TestIntersect:
    def test_noninformative_measurement_returns_the_theory(self):
        """Conjoining with a noninformative reading adds nothing: the
        posterior is the normalized theory."""
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        post = intersect(theory, MeasurementModel("T", NONINFORMATIVE))
        expected = normalize(theory.joint)
        # atol forgives round-off in the far tails, where the ridge has
        # underflowed to denormals
        assert_allclose(post.values, expected.values, rtol=1e-12, atol=1e-300)

    def test_order_of_the_two_densities_is_irrelevant(self):
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        rho = measurement_density(
            MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1),
            theory.joint.grid,
        )
        forward = normalize(and_combine(theory.joint, rho, theory.mu))
        swapped = normalize(and_combine(rho, theory.joint, theory.mu))
        assert_allclose(forward.values, swapped.values, rtol=1e-12)

    def test_posterior_is_normalized_on_construction(self):
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        post = intersect(
            theory, MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1)
        )
        assert post.normalized
        assert math.isclose(post.mass(), 1.0, rel_tol=1e-9)

    def test_contradictory_measurement_raises(self):
        """A measurement with no support in common with the theory is a flat
        contradiction, not a posterior."""
        grid = Grid.of(
            Axis.logarithmic("L", 1.0, 16.0, 81),
            Axis.logarithmic("T", 0.5, 2.0, 61),
        )
        axl, axt = grid.axes
        narrow = np.where((axl.nodes >= 2.0) & (axl.nodes <= 4.0), 1.0, 0.0)
        joint = Density(grid, np.outer(narrow / axl.nodes, 1.0 / axt.nodes))
        theory = TheoryDensity(
            joint=joint,
            mu_factors=[noninformative_profile(ax) for ax in grid.axes],
            provenance=Provenance(kind="analytic"),
        )
        far = MeasurementModel(parameter="L", kind=BOXCAR, center=9.0, width=1.0)
        with pytest.raises(ZeroMass, match="contradicts the theory"):
            intersect(theory, far)

    def test_reading_off_the_grid_raises_out_of_domain(self):
        """A reading centred outside the box lies off the grid; that is not a
        contradiction with the theory, and the error names axis, reading and box."""
        theory = _fall_theory(sigma=0.05, nl=61, nt=61)
        off = MeasurementModel(parameter="T", kind=LOGNORMAL, center=5.0, width=0.001)
        with pytest.raises(OutOfDomain, match=r"T=5\.0 .* off the grid.* \[0\.6, 1\.6\]"):
            intersect(theory, off)
        with pytest.raises(OutOfDomain, match=r"T=5\.0 .* off the grid"):
            predict(theory, off, "L")

    def test_several_measurements_are_anded_before_the_theory(self):
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        grid = theory.joint.grid
        t = MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1)
        length = MeasurementModel(parameter="L", kind=LOGNORMAL, center=4.9, width=0.05)
        rho = and_combine(
            measurement_density(t, grid), measurement_density(length, grid), theory.mu
        )
        both = intersect(theory, t, length).values
        dense = normalize(and_combine(theory.joint, rho, theory.mu)).values
        # the readings are ANDed as 1D factors, the dense rho with and_combine:
        # the same product, rounded in another order
        assert np.max(np.abs(both - dense)) <= 1e-12 * np.max(dense)

    def test_measurements_contradicting_each_other_raise_zero_mass(self):
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        with pytest.raises(ZeroMass, match="contradict each other"):
            intersect(
                theory,
                MeasurementModel(parameter="T", kind=BOXCAR, center=0.7, width=0.01),
                MeasurementModel(parameter="T", kind=BOXCAR, center=1.4, width=0.01),
            )


    def test_reading_in_the_box_narrower_than_its_nodes_is_under_resolved(self):
        """A reading inside the box whose profile underflows at every node is
        not off the grid: the error names its width and the node spacing."""
        theory = _fall_theory(sigma=0.05, nl=41, nt=41, l_box=(1.0, 10.0), t_box=(0.45, 1.43))
        narrow = MeasurementModel(parameter="T", kind=LOGNORMAL, center=0.9871, width=1e-4)
        with pytest.raises(ZeroMass, match=r"T=0\.9871 .*under-resolved.*spacing at 0\.9871 is "
                                           r"0\.0289 in ln T, against the width 0\.0001"):
            intersect(theory, narrow)


    def test_mu_vanishing_only_where_the_theory_has_no_mass_is_harmless(self):
        """μ(i) = 0 on nodes where the conditional theory has no mass: ANDing a
        reading that is positive there is defined and equals the dense AND."""
        i_ax = Axis.logarithmic("L", 1.0, 10.0, 21)
        d_ax = Axis.logarithmic("T", 0.45, 1.43, 19)
        mu_i = np.ones(21)
        mu_i[:5] = 0.0
        shape = normalize(Density(Grid.of(d_ax), np.exp(-((np.log(d_ax.nodes) / 0.2) ** 2))))
        theory = theory_from_conditional([shape] * 21, Density(Grid.of(i_ax), mu_i))
        reading = MeasurementModel("L", LOGNORMAL, 3.0, 0.5)
        rho = measurement_density(reading, theory.joint.grid, frame=theory.joint.frame)
        factored = intersect(theory, reading).values
        dense = normalize(and_combine(theory.joint, rho, theory.mu)).values
        assert np.max(np.abs(factored - dense)) <= 1e-12 * np.max(dense)

    def test_mu_vanishing_where_the_theory_has_mass_is_neutral_zero(self):
        """Where μ = 0 but the joint times the reading is not, the AND is
        undefined; a node where both factors of μ vanish counts once."""
        grid = Grid.of(Axis.linear("L", 1.0, 2.0, 7), Axis.linear("T", 1.0, 2.0, 5))
        mu_l, mu_t = np.ones(7), np.ones(5)
        mu_l[[0, 3]] = 0.0
        mu_t[[1]] = 0.0
        theory = TheoryDensity(Density(grid, np.ones((7, 5))), [mu_l, mu_t],
                               Provenance("analytic"))
        reading = MeasurementModel("T", GAUSSIAN, 1.5, 0.3)
        # 2 rows of 5 and 1 column of 7 nodes, which share 2 nodes
        with pytest.raises(NeutralZero, match=r"on 15 node\(s\)"):
            and_combine(theory.joint, measurement_density(reading, grid), theory.mu)
        with pytest.raises(NeutralZero, match=r"on 15 node\(s\)"):
            intersect(theory, reading)


@st.composite
def _theories_and_readings(draw):
    axes = []
    for name in ("L", "T"):
        lower = draw(st.floats(0.1, 10.0))
        upper = lower * draw(st.floats(1.5, 100.0))
        make = draw(st.sampled_from([Axis.linear, Axis.logarithmic]))
        axes.append(make(name, lower, upper, draw(st.integers(3, 40))))
    grid = Grid.of(*axes)
    joint = Density(grid, draw(hnp.arrays(np.float64, grid.shape, elements=st.floats(0.0, 10.0))))
    # some μ values of exactly 1 make some, not all, of a factor's entries 1
    levels = st.floats(0.1, 10.0) | st.sampled_from([0.5, 1.0, 2.0])
    mu = [draw(hnp.arrays(np.float64, ax.count, elements=levels)) for ax in axes]
    readings = []
    for _ in range(draw(st.integers(1, 3))):
        ax = draw(st.sampled_from(axes))
        kinds = [LOGNORMAL, BOXCAR, NONINFORMATIVE]
        kinds += [GAUSSIAN] if ax.spacing == "linear" else []
        kind = draw(st.sampled_from(kinds))
        if kind == NONINFORMATIVE:
            readings.append(MeasurementModel(ax.name, kind))
            continue
        center = ax.lower + (ax.upper - ax.lower) * draw(st.floats(0.0, 1.0))
        scale = 1.0 if kind == LOGNORMAL else ax.upper - ax.lower
        width = scale * draw(st.floats(0.02, 2.0))
        readings.append(MeasurementModel(ax.name, kind, center, width))
    return TheoryDensity(joint, mu, Provenance("analytic")), readings


@settings(max_examples=150)
@given(_theories_and_readings())
def test_factored_and_equals_the_dense_fold(case):
    """ANDing readings as 1D factors gives the dense fold joint·∏ρₘ/μᴹ, one
    and_combine per reading, to 1e-12 of the peak; where the fold has no
    posterior, neither has the factored AND."""
    theory, readings = case
    grid, mu = theory.joint.grid, theory.mu
    try:
        combined = measurement_density(readings[0], grid)
        for m in readings[1:]:
            combined = and_combine(combined, measurement_density(m, grid), mu)
        dense = normalize(and_combine(theory.joint, combined, mu)).values
    except InferenceSpaceError as exc:
        with pytest.raises(type(exc)):
            intersect(theory, *readings)
        return
    factored = intersect(theory, *readings).values
    assert np.max(np.abs(factored - dense)) <= 1e-12 * np.max(dense)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

class TestPredict:
    def test_noninformative_known_recovers_the_theory_marginal(self):
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        post = predict(theory, MeasurementModel("T", NONINFORMATIVE), query="T")
        expected = normalize(marginalize(theory.joint, "T"))
        assert_allclose(post.values, expected.values, rtol=1e-10)

    def test_accepts_a_measurement_model_directly(self):
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        model = MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1)
        via_model = predict(theory, model, query="L")
        rho = measurement_density(model, theory.joint.grid, frame=theory.joint.frame)
        via_density = normalize(marginalize(and_combine(theory.joint, rho, theory.mu), "L"))
        assert_allclose(via_model.values, via_density.values, rtol=1e-12)

    def test_tight_time_measurement_centers_length_on_the_law(self):
        """Knowing T = 1.0 s almost exactly pins L at g/2 = 4.905 m, the value
        the quadrature oracle finds for the exact posterior mode."""
        theory = _fall_theory(sigma=0.005, nl=901, nt=901)
        model = MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.005)
        summary = summarize(predict(theory, model, query="L"))
        assert abs(summary.mode / LENGTH_MODE_GIVEN_UNIT_TIME - 1.0) < 5e-3

    def test_tight_length_measurement_centers_time_on_the_law(self):
        theory = _fall_theory(sigma=0.005, nl=901, nt=901)
        model = MeasurementModel(
            parameter="L", kind=LOGNORMAL, center=4.905, width=0.005
        )
        summary = summarize(predict(theory, model, query="T"))
        assert abs(summary.mode / TIME_MODE_GIVEN_HALF_G - 1.0) < 5e-3

    def test_posterior_marginal_is_scale_equivariant(self):
        """Relabeling lengths in centimeters must not move the time posterior,
        and must move the length posterior by exactly the unit factor."""
        theory = _fall_theory(sigma=0.02, nl=241, nt=241)
        model = MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.05)
        post = intersect(theory, model)

        to_cm = affine_map(100.0)
        axl, axt = theory.joint.grid.axes
        l_cm = to_cm.image_axis(axl, name="L")
        target = Grid.of(l_cm, axt)
        mu_l = Density(Grid.of(axl), theory.mu_factors[0])
        scaled = TheoryDensity(
            joint=push_forward(theory.joint, product_map(to_cm, affine_map(1.0)), target),
            mu_factors=(push_forward(mu_l, to_cm, Grid.of(l_cm)).values, theory.mu_factors[1]),
            provenance=theory.provenance,
        )
        post_cm = intersect(scaled, model)

        assert_allclose(
            marginalize(post_cm, "T").values, marginalize(post, "T").values, rtol=1e-10
        )
        mode_m = summarize(marginalize(post, "L")).mode
        mode_cm = summarize(marginalize(post_cm, "L")).mode
        assert_allclose(mode_cm, 100.0 * mode_m, rtol=1e-10)


# ---------------------------------------------------------------------------
# naive conditioning
# ---------------------------------------------------------------------------

class TestConditionalDensity:
    def test_separable_joint_conditions_to_its_free_factor(self):
        grid = Grid.of(
            Axis.logarithmic("L", 1.0, 10.0, 101),
            Axis.linear("T", 0.0, 2.0, 121),
        )
        axl, axt = grid.axes
        g = np.exp(-0.5 * ((axt.nodes - 1.0) / 0.2) ** 2)
        joint = Density(grid, np.outer(1.0 / axl.nodes, g))
        expected = g / np.dot(g, axt.weights)
        for fixed in (1.3, 4.905, 9.0):
            cond = conditional_density(joint, "L", fixed)
            assert cond.grid.axes[0].name == "T"
            assert_allclose(cond.values, expected, rtol=1e-12)

    def test_conditional_on_the_law_peaks_at_the_fall_time(self):
        theory = _fall_theory(sigma=0.02, nl=401, nt=401)
        for length in (2.5, 4.905, 9.0):
            cond = conditional_density(theory.joint, "L", length)
            t_ax = cond.grid.axes[0]
            peak = t_ax.nodes[int(np.argmax(cond.values * t_ax.nodes))]
            target = LAW.fall_time(length)
            cell = math.log(t_ax.nodes[1] / t_ax.nodes[0])
            assert abs(math.log(peak / target)) <= cell

    def test_fixed_value_outside_the_box_raises(self):
        theory = _fall_theory(sigma=0.05, nl=61, nt=61)
        with pytest.raises(OutOfDomain):
            conditional_density(theory.joint, "L", 99.0)

    def test_one_dimensional_joint_raises(self):
        ax = Axis.linear("x", 0.0, 1.0, 11)
        d = Density(Grid.of(ax), np.ones(11))
        with pytest.raises(InvalidGrid):
            conditional_density(d, "x", 0.5)

    def test_vanishing_slice_raises(self):
        grid = Grid.of(
            Axis.logarithmic("L", 1.0, 16.0, 81),
            Axis.linear("T", 0.0, 2.0, 41),
        )
        axl, axt = grid.axes
        narrow = np.where((axl.nodes >= 2.0) & (axl.nodes <= 4.0), 1.0, 0.0)
        joint = Density(grid, np.outer(narrow, np.ones(axt.count)))
        with pytest.raises(ZeroSlice):
            conditional_density(joint, "L", 8.0)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

class TestSummaries:
    def test_triangle_density_summary(self):
        """p(x) = 2x on [0, 1]: mean 2/3, sd 1/sqrt(18), median 1/sqrt(2),
        mode at the right edge."""
        ax = Axis.linear("x", 0.0, 1.0, 2001)
        d = Density(Grid.of(ax), ax.nodes.copy())
        s = summarize(d)
        assert s.axis == "x"
        assert math.isclose(s.mean, 2.0 / 3.0, abs_tol=1e-6)
        assert math.isclose(s.sd, math.sqrt(1.0 / 18.0), abs_tol=1e-6)
        assert math.isclose(s.median, 0.7071067811865476, abs_tol=1e-5)
        assert s.mode == 1.0
        assert math.isnan(s.mode_log)
        lo95, hi95 = s.intervals[0.95]
        assert math.isclose(lo95, math.sqrt(0.025), abs_tol=1e-4)
        assert math.isclose(hi95, math.sqrt(0.975), abs_tol=1e-4)

    def test_uniform_density_central_intervals(self):
        ax = Axis.linear("x", 0.0, 1.0, 501)
        s = summarize(boxcar_density(ax, 0.0, 1.0))
        assert math.isclose(s.median, 0.5, abs_tol=1e-9)
        assert_allclose(s.intervals[0.95], (0.025, 0.975), atol=1e-9)
        assert_allclose(s.intervals[0.68], (0.16, 0.84), atol=1e-9)

    def test_lognormal_modes_in_both_coordinates(self):
        """A lognormal of log-width 0.5 peaks at exp(-0.25) as a density over
        x but at the log-center once the 1/x measure factor is absorbed.
        Closed forms checked in tools/oracles/lognormal_pushforward.py."""
        ax = Axis.logarithmic("x", 0.1, 10.0, 2001)
        u = np.log(ax.nodes)
        d = Density(Grid.of(ax), np.exp(-0.5 * (u / 0.5) ** 2) / ax.nodes)
        s = summarize(d)
        assert abs(s.mode / 0.7788007830714049 - 1.0) < 5e-4
        assert abs(s.mode_log - 1.0) < 1e-4
        assert math.isclose(s.median, 1.0, rel_tol=1e-4)

    def test_summary_as_dict_round_trips_the_fields(self):
        ax = Axis.linear("x", 0.0, 1.0, 201)
        s = summarize(gaussian_density(ax, 0.5, 0.1))
        d = s.as_dict()
        assert d["axis"] == "x"
        assert d["mean"] == s.mean
        assert d["mode"] == s.mode
        assert d["mode_log"] is None
        assert set(d["intervals"]) == {"0.68", "0.95"}
        assert d["intervals"]["0.95"] == list(s.intervals[0.95])

    def test_two_dimensional_summary_needs_an_axis_name(self):
        theory = _fall_theory(sigma=0.05, nl=61, nt=61)
        post = intersect(theory, MeasurementModel("T", NONINFORMATIVE))
        with pytest.raises(InvalidGrid):
            summarize(post)
        s = summarize(marginalize(post, "T"))
        assert s.axis == "T"

    def test_gaussian_summary_matches_its_parameters(self):
        ax = Axis.linear("x", 0.0, 1.0, 1601)
        s = summarize(gaussian_density(ax, 0.5, 0.05))
        assert math.isclose(s.mean, 0.5, abs_tol=1e-6)
        assert math.isclose(s.sd, 0.05, rel_tol=1e-4)
        assert math.isclose(s.mode, 0.5, abs_tol=1e-6)
        assert math.isclose(s.median, 0.5, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSamplePosterior:
    def test_uniform_density_accepts_nearly_everything(self):
        ax = Axis.linear("x", 0.0, 1.0, 101)
        d = boxcar_density(ax, 0.0, 1.0)
        draws = sample_posterior(d, 20_000, seed=5)
        assert draws.shape == (20_000,)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        assert abs(draws.mean() - 0.5) < 0.01

    def test_gaussian_sample_moments(self):
        ax = Axis.linear("x", 0.0, 1.0, 801)
        d = gaussian_density(ax, 0.5, 0.05)
        draws = sample_posterior(d, 100_000, seed=42)
        assert abs(draws.mean() - 0.5) < 8e-4
        assert abs(draws.std() - 0.05) < 1e-3

    def test_histogram_distance_shrinks_with_sample_size(self):
        ax = Axis.linear("x", 0.0, 1.0, 201)
        d = normalize(gaussian_density(ax, 0.5, 0.08))
        cell_mass = d.values * ax.weights
        edges = ax.cell_boundaries
        tvs = []
        for n in (1_000, 10_000, 100_000):
            draws = sample_posterior(d, n, seed=2718)
            counts, _ = np.histogram(draws, bins=edges)
            tvs.append(0.5 * np.abs(counts / n - cell_mass).sum())
        assert tvs[0] > tvs[1] > tvs[2]

    def test_two_dimensional_samples_follow_the_marginal(self):
        theory = _fall_theory(sigma=0.1, nl=121, nt=121)
        post = intersect(theory, MeasurementModel("T", NONINFORMATIVE))
        draws = sample_posterior(post, 20_000, seed=9)
        assert draws.shape == (20_000, 2)
        axl = post.grid.axes[0]
        m = marginalize(post, "L")
        cell_mass = m.values * axl.weights
        counts, _ = np.histogram(draws[:, 0], bins=axl.cell_boundaries)
        tv = 0.5 * np.abs(counts / draws.shape[0] - cell_mass).sum()
        assert tv < 0.03

    def test_nonpositive_count_raises(self):
        ax = Axis.linear("x", 0.0, 1.0, 11)
        d = boxcar_density(ax, 0.0, 1.0)
        with pytest.raises(InvalidGrid):
            sample_posterior(d, 0, seed=1)

    def test_hopeless_envelope_raises(self):
        """A spike narrow enough makes uniform proposals useless; the sampler
        must give up loudly instead of spinning."""
        ax = Axis.linear("x", 0.0, 1.0, 20_001)
        d = gaussian_density(ax, 0.5, 1e-5)
        with pytest.raises(EnvelopeFailure):
            sample_posterior(d, 50, seed=3, chunk=2048, min_acceptance=1e-3)


# ---------------------------------------------------------------------------
# curved-slice conditioning
# ---------------------------------------------------------------------------

def _correlated_joint(count=201, sigma_sum=1.0, sigma_diff=0.4):
    """A log-space correlated Gaussian on a symmetric log-log box.

    Correlation matters: a separable joint would condition to the same
    marginal at every slice and hide any frame dependence.
    """
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


class TestBorelKolmogorovDemo:
    def test_band_conditional_is_the_demos_native_band(self):
        """The demo conditions on its band through ``band_conditional``: the
        boxcar is ``width_cells`` cells of the node nearest the slice, and
        the conditional is the AND marginalized onto the first axis."""
        joint, mu = _correlated_joint(count=101)
        report = borel_kolmogorov_demo(joint, mu, shear_map(), 1.05, width_cells=3.0)
        cond, band, width = band_conditional(joint, mu, 1.05, 3.0)
        assert np.array_equal(cond.values, report.band_native.values)
        assert width == report.band_width
        y = joint.grid.axes[1]
        j = int(np.argmin(np.abs(y.nodes - 1.05)))
        assert width == 3.0 * (y.cell_boundaries[j + 1] - y.cell_boundaries[j])
        expected = normalize(marginalize(and_combine(joint, band, mu), "x"))
        assert np.array_equal(cond.values, expected.values)
        assert cond.normalized and cond.grid.axes == (joint.grid.axes[0],)

    def test_affine_control_shows_no_paradox(self):
        """A pure rescale has constant Jacobian, so both naive slicing and
        band conditioning agree across frames to round-off."""
        joint, mu = _correlated_joint()
        report = borel_kolmogorov_demo(joint, mu, affine_map_2d(1.0, 0.0, 2.0, 0.0), 1.0)
        assert report.tv_naive <= 1e-9
        assert report.tv_band <= 1e-9

    def test_affine_control_on_a_theory_with_its_mu(self):
        law = FallingBodyLaw(g=9.81, sigma_theory=0.05, length_axis="L", time_axis="T")
        grid = Grid.of(
            Axis.logarithmic("L", 1.0, 10.0, 201),
            Axis.logarithmic("T", law.fall_time(1.0), law.fall_time(10.0), 201),
        )
        theory = analytic_fall_theory(law, grid)
        y0 = float(grid.axes[1].nodes[100])
        report = borel_kolmogorov_demo(
            theory.joint, theory.mu, affine_map_2d(1.0, 0.0, 2.0, 0.0), y0
        )
        assert report.tv_naive <= 1e-9
        assert report.tv_band <= 1e-9

    def test_shear_exposes_frame_dependent_slicing(self):
        """Under (x, y) -> (x, x y) the event {y = y0} becomes a curve whose
        Jacobian varies along it: naive conditionals disagree between frames
        while band conditionals still agree."""
        joint, mu = _correlated_joint()
        report = borel_kolmogorov_demo(joint, mu, shear_map(), 1.0)
        assert report.tv_naive > 0.01
        assert report.tv_band < 1e-3

    def test_band_conditionals_converge_to_the_slice(self):
        joint, mu = _correlated_joint()
        tvs = []
        for cells in (8.0, 4.0, 2.0):
            report = borel_kolmogorov_demo(
                joint, mu, affine_map_2d(1.0, 0.0, 2.0, 0.0), 1.0, width_cells=cells
            )
            tvs.append(total_variation(report.band_native, report.native_conditional))
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[2] < 1e-3

    def test_report_dictionary_carries_the_verdict(self):
        joint, mu = _correlated_joint(count=101)
        report = borel_kolmogorov_demo(joint, mu, shear_map(), 1.0)
        d = report.as_dict()
        assert d["map_kind"] == "shear"
        assert d["slice_axis"] == "y"
        assert d["tv_naive"] == report.tv_naive
        assert d["band_width"] > 0.0

    def test_map_must_fix_the_first_coordinate(self):
        joint, mu = _correlated_joint(count=101)
        moves_first = product_map(reciprocal_map(), affine_map(1.0))
        with pytest.raises(InvalidGrid):
            borel_kolmogorov_demo(joint, mu, moves_first, 1.0)

    def test_slice_value_outside_the_box_raises(self):
        joint, mu = _correlated_joint(count=101)
        with pytest.raises(OutOfDomain):
            borel_kolmogorov_demo(joint, mu, shear_map(), 99.0)
