"""Posterior construction, conditioning, summaries, sampling, and the
curved-slice conditioning demonstration."""

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.internal.constants_ast import is_local_module_file
from numpy.testing import assert_allclose

import inferspace
from inferspace import (
    BOXCAR,
    GAUSSIAN,
    LOGARITHMIC,
    LOGNORMAL,
    NONINFORMATIVE,
    SET_L,
    SET_T,
    Axis,
    Density,
    FallingBodyLaw,
    Grid,
    InferenceSpaceError,
    InvalidGrid,
    Map2D,
    MeasurementModel,
    NeutralZero,
    NonFinite,
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
    evaluate,
    exp_map,
    integrate,
    intersect,
    marginalize,
    normalize,
    null_information_density,
    power_map,
    predict,
    product_map,
    push_forward,
    reciprocal_map,
    run_campaign,
    shear_map,
    summarize,
    total_variation,
)
from inferspace.coordinates import pull_back
from inferspace.inference import _mapped_grid, _reading_factors, _share_on_box
from inferspace.priors import reading_centre_factor

from conftest import (PACKAGE_MODULES, allocated, boxcar_density, gaussian_density,
                      measurement_density, measurement_profile)

LAW = FallingBodyLaw(g=9.81)

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
        FallingBodyLaw(g=9.81, sigma_theory=sigma),
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
        assert math.isclose(integrate(post), 1.0, rel_tol=1e-9)

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
        theory = TheoryDensity.from_joint(
            joint=joint,
            mu_factors=[1.0 / ax.nodes for ax in grid.axes],
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
            predict(theory, off, query="L")

    @pytest.mark.parametrize(
        "center, width, share",
        [(2.05, 0.1, 0.25), (0.45, 0.1, 0.25), (2.1, 0.1, 0.0), (2.2, 0.1, 0.0),
         (-1.0, 5.0, 0.15)],
    )
    def test_share_of_an_off_box_boxcar_is_its_overlap(self, center, width, share):
        """A boxcar's share on the box [0.5, 2.0] is the length of its
        interval there over its length 2w, 0 where it misses the box."""
        axis = Axis.linear("T", 0.5, 2.0, 41)
        got = _share_on_box(MeasurementModel("T", BOXCAR, center, width), axis)
        assert got == pytest.approx(share, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("center, width", [(1.6030, 0.00305), (9.0, 0.1), (0.3, 0.2)])
    def test_boxcar_off_the_grid_raises_out_of_domain(self, center, width):
        """A boxcar centred outside the box with under 1% of its interval on
        it lies off the grid: a sliver of it would pile the whole posterior
        on the edge node, and one that misses the box has nothing there."""
        theory = _fall_theory(sigma=0.05, nl=61, nt=61)
        off = MeasurementModel("T", BOXCAR, center, width)
        with pytest.raises(OutOfDomain, match=rf"T={center!r} \(boxcar, .* off the grid"):
            intersect(theory, off)
        with pytest.raises(OutOfDomain, match=rf"T={center!r} \(boxcar, .* off the grid"):
            predict(theory, off, query="L")

    @pytest.mark.parametrize("center, width", [(1.6 + 1e-12, 0.05), (1.599, 5.0), (0.6, 1e-6)])
    def test_boxcar_that_keeps_its_share_on_the_box_is_anded(self, center, width):
        """A boxcar centred just past the box's edge keeps half of itself on
        the box, and one centred inside is never refused, however much of
        its interval lies outside."""
        theory = _fall_theory(sigma=0.05, nl=61, nt=61)
        post = intersect(theory, MeasurementModel("T", BOXCAR, center, width))
        assert math.isclose(integrate(post), 1.0, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "axis, kind, center, width",
        [
            (Axis.logarithmic("T", 0.4515, 1.4279, 201), LOGNORMAL, 1.45, 0.3),
            (Axis.logarithmic("T", 0.4515, 1.4279, 201), LOGNORMAL, 9.0, 0.3),
            (Axis.logarithmic("T", 0.4515, 1.4279, 201), LOGNORMAL, 0.3, 0.2),
            (Axis.linear("T", 0.0, 2.3, 41), LOGNORMAL, 3.0, 0.5),
            (Axis.linear("T", 0.5, 2.0, 41), GAUSSIAN, 2.4, 0.3),
            (Axis.linear("T", 0.5, 2.0, 41), GAUSSIAN, -1.0, 0.5),
        ],
    )
    def test_share_of_an_off_box_reading_matches_quadrature(self, axis, kind, center, width):
        """The closed form of a reading's mass on the box, against the
        trapezoid rule on its density in x over 400001 points of the box."""
        x = np.linspace(axis.lower, axis.upper, 400001)
        if kind == LOGNORMAL:
            x = x[x > 0.0]  # the reading has under 1e-150 of its mass below x[1]
            t, jac = (np.log(x) - math.log(center)) / width, 1.0 / (x * width)
        else:
            t, jac = (x - center) / width, 1.0 / width
        expected = np.trapezoid(np.exp(-0.5 * t * t) * jac, x) / math.sqrt(2.0 * math.pi)
        share = _share_on_box(MeasurementModel("T", kind, center, width), axis)
        assert share == pytest.approx(expected, rel=1e-6)

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


    def test_mu_vanishing_where_the_theory_has_mass_is_neutral_zero(self):
        """AND divides by μ, so a theory's μ must be positive at every node:
        a zero factor is refused with NeutralZero naming its axis and node.
        The generic and_combine, which takes μ as a density, refuses only
        where μ = 0 but the product is positive; a node where both factors
        of μ vanish counts once there."""
        grid = Grid.of(Axis.linear("L", 1.0, 2.0, 7), Axis.linear("T", 1.0, 2.0, 5))
        joint = Density(grid, np.ones((7, 5)))
        mu_l, mu_t = np.ones(7), np.ones(5)
        mu_l[[0, 3]] = 0.0
        mu_t[[1]] = 0.0
        with pytest.raises(NeutralZero, match=r"axis 'L' must be > 0, but is 0\.0 at node 0 "
                                              r"\(L = 1\.0\)"):
            TheoryDensity.from_joint(joint, [mu_l, mu_t], Provenance("analytic"))
        with pytest.raises(NeutralZero, match=r"axis 'T' .* at node 1 \(T = 1\.25\)"):
            TheoryDensity.from_joint(joint, [np.ones(7), mu_t], Provenance("analytic"))
        reading = MeasurementModel("T", GAUSSIAN, 1.5, 0.3)
        # 2 rows of 5 and 1 column of 7 nodes, which share 2 nodes
        with pytest.raises(NeutralZero, match=r"on 15 node\(s\)"):
            and_combine(joint, measurement_density(reading, grid),
                        Density(grid, np.outer(mu_l, mu_t)))


def _draw_axis(draw, name):
    lower = draw(st.floats(0.1, 10.0))
    upper = lower * draw(st.floats(1.5, 100.0))
    make = draw(st.sampled_from([Axis.linear, Axis.logarithmic]))
    return make(name, lower, upper, draw(st.integers(3, 40)))


def _draw_random_theory(draw, axes, mu_levels=(0.5, 1.0, 2.0)):
    """A theory of random joint and μ values on ``axes``, or None where a
    drawn μ has a zero, once NeutralZero has refused it."""
    grid = Grid.of(*axes)
    joint = Density(grid, draw(hnp.arrays(np.float64, grid.shape, elements=st.floats(0.0, 10.0))))
    # some μ values of exactly 1 make some, not all, of a factor's entries 1
    levels = st.floats(0.1, 10.0) | st.sampled_from(mu_levels)
    mu = [draw(hnp.arrays(np.float64, ax.count, elements=levels)) for ax in axes]
    if all(f.all() for f in mu):
        return TheoryDensity.from_joint(joint, mu, Provenance("analytic"))
    with pytest.raises(NeutralZero, match=r"must be > 0, but is 0\.0 at node"):
        TheoryDensity.from_joint(joint, mu, Provenance("analytic"))
    return None


def _draw_reading(draw, ax):
    kinds = [BOXCAR, LOGNORMAL, NONINFORMATIVE]
    kinds += [GAUSSIAN] if ax.spacing == "linear" else []
    kind = draw(st.sampled_from(kinds))
    if kind == NONINFORMATIVE:
        return MeasurementModel(ax.name, kind)
    # anywhere in any node's cell, the outer cells included, counted from
    # either end of the axis so that both ends are drawn alike
    j, t = draw(st.integers(0, ax.count - 1)), draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        j, t = ax.count - 1 - j, 1.0 - t
    lo, hi = ax.cell_boundaries[j : j + 2]
    center = lo + (hi - lo) * t
    # from about one node spacing, in the reading's own coordinate, to
    # over three times the box
    span = math.log(ax.upper / ax.lower) if kind == LOGNORMAL else ax.upper - ax.lower
    width = span / (ax.count - 1) * 2.0 ** draw(st.integers(0, 7))
    return MeasurementModel(ax.name, kind, center, width)


@st.composite
def _theories_and_readings(draw):
    theory = _draw_random_theory(draw, [_draw_axis(draw, name) for name in ("L", "T")])
    axes = theory.joint.grid.axes
    readings = [_draw_reading(draw, draw(st.sampled_from(axes)))
                for _ in range(draw(st.integers(1, 3)))]
    return theory, readings


def _window_kinds(theory, readings):
    """Where each axis's window of nonzero reading factors lies: strictly
    inside the axis, from its low edge, or up to its high edge."""
    kinds = []
    for f in _reading_factors(theory, readings):
        nonzero = np.flatnonzero(f)
        low, high = nonzero[0] == 0, nonzero[-1] == f.size - 1
        if not (low and high):
            kinds.append("low edge" if low else "high edge" if high else "inside")
    return kinds


def _reading_density(m, theory):
    """Reading ``m`` as a density on the theory's grid, against its μ: μ on
    every axis ``m`` does not measure, and on its own axis its profile, or
    for a boxcar the share of each node's cell inside its interval times μ
    there.  A noninformative reading is μ."""
    factors = list(theory.mu_factors)
    if m.kind != NONINFORMATIVE:
        k = theory.grid.axis_index(m.parameter)
        ax = theory.grid.axes[k]
        if m.kind == BOXCAR:
            left, right = ax.cell_boundaries[:-1], ax.cell_boundaries[1:]
            inside = np.minimum(right, m.center + m.width) - np.maximum(left, m.center - m.width)
            factors[k] = np.maximum(inside, 0.0) / (right - left) * factors[k]
        else:
            factors[k] = measurement_profile(m, ax)
    return Density(theory.grid, np.multiply.outer(*factors))


def test_factored_and_equals_the_dense_fold():
    """ANDing readings as 1D factors gives the dense fold joint·∏ρₘ/μᴹ, one
    and_combine per reading, to 1e-12 of the peak, where each ρₘ is the
    reading against the theory's μ (``_reading_density``); where the fold
    has no posterior, neither has the factored AND.  μ is drawn at random
    on linear and log axes.  The drawn cases include windows of nonzero
    factors strictly inside an axis and at either edge."""
    windows = Counter()

    @settings(max_examples=150)
    @given(_theories_and_readings())
    def check(case):
        theory, readings = case
        mu = theory.mu
        try:
            combined = _reading_density(readings[0], theory)
            for m in readings[1:]:
                combined = and_combine(combined, _reading_density(m, theory), mu)
            dense = normalize(and_combine(theory.joint, combined, mu)).values
        except InferenceSpaceError as exc:
            with pytest.raises(type(exc)):
                intersect(theory, *readings)
            return
        factored = intersect(theory, *readings).values
        assert np.max(np.abs(factored - dense)) <= 1e-12 * np.max(dense)
        windows.update(_window_kinds(theory, readings))

    check()
    assert all(windows[k] for k in ("inside", "low edge", "high edge")), windows


def _overlap(m, ax):
    """The share of each node's cell of ``ax`` inside boxcar ``m``'s interval."""
    left, right = ax.cell_boundaries[:-1], ax.cell_boundaries[1:]
    inside = np.minimum(right, m.center + m.width) - np.maximum(left, m.center - m.width)
    return np.maximum(inside, 0.0) / (right - left)


@pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
def test_reading_factor_on_a_jeffreys_theory_is_its_centre_factor(spaced_theories, spacing):
    """On a Jeffreys theory, linear or log axes alike, a lognormal reading's
    node factor 1/x is the theory's μ factor, so its factor is exactly its
    centre factor, exp(−½t²); and a boxcar's node factor is μ itself, so
    its factor is exactly its cell overlap."""
    theory = spaced_theories[0 if spacing == "linear" else 1]
    readings = [MeasurementModel("T", LOGNORMAL, 1.0, 0.3), MeasurementModel("L", LOGNORMAL, 5.0, 0.05),
                MeasurementModel("T", BOXCAR, 0.9, 0.05), MeasurementModel("L", BOXCAR, 7.3, 1.1)]
    for m in readings:
        k = theory.grid.axis_index(m.parameter)
        ax = theory.grid.axes[k]
        f = _reading_factors(theory, [m])[k]
        expected = reading_centre_factor(m, ax) if m.kind == LOGNORMAL else _overlap(m, ax)
        assert np.array_equal(f, expected), m


def _parent_factor(m, ax, mu):
    """A reading's factor as it was computed through its density on a bare
    axis: a boxcar's cell overlap, any other reading's profile over μ."""
    if m.kind == BOXCAR:
        return _overlap(m, ax)
    return measurement_profile(m, ax) / mu


@st.composite
def _frame_theories_and_readings(draw):
    """A Jeffreys theory (μ = 1/x, on positive linear or log axes) or a
    log-frame one (μ = 1, on linear axes of ln L and ln T, which may be
    negative), and one reading centred in the box: boxcar, gaussian on a
    linear axis, and lognormal on a Jeffreys theory's."""
    frame = draw(st.sampled_from(["jeffreys", "log frame"]))
    if frame == "jeffreys":
        axes = [_draw_axis(draw, name) for name in "LT"]
        mu = [1.0 / ax.nodes for ax in axes]
    else:
        axes = []
        for name in "LT":
            lower = draw(st.floats(-3.0, 3.0))
            axes.append(Axis.linear(name, lower, lower + draw(st.floats(0.5, 5.0)),
                                    draw(st.integers(3, 40))))
        mu = [np.ones(ax.count) for ax in axes]
    grid = Grid.of(*axes)
    theory = TheoryDensity.from_joint(Density(grid, np.ones(grid.shape)), mu,
                                      Provenance("analytic"))
    ax = draw(st.sampled_from(axes))
    kinds = [BOXCAR] + [GAUSSIAN] * (ax.spacing == "linear") + [LOGNORMAL] * (frame == "jeffreys")
    kind = draw(st.sampled_from(kinds))
    log = kind == LOGNORMAL
    lower, upper = (math.log(ax.lower), math.log(ax.upper)) if log else (ax.lower, ax.upper)
    center = lower + (upper - lower) * draw(st.floats(0.0, 1.0))
    width = (upper - lower) / (ax.count - 1) * 2.0 ** draw(st.floats(0.0, 7.0))
    return frame, theory, MeasurementModel(ax.name, kind, math.exp(center) if log else center, width)


def test_reading_factors_match_the_bare_axis_profile_over_mu():
    """Taken against the theory's μ by centre factor × node factor / μ, a
    reading's factor is within 4 ulp of its profile on the bare axis over
    μ, and bit-equal to it for a boxcar and on a log-frame theory, where
    node / μ is exactly 1.  The drawn cases cover every kind on both
    frames."""
    seen = Counter()

    @settings(max_examples=300)
    @given(_frame_theories_and_readings())
    def check(case):
        frame, theory, m = case
        k = theory.grid.axis_index(m.parameter)
        ax, mu = theory.grid.axes[k], theory.mu_factors[k]
        f = _reading_factors(theory, [m])[k]
        expected = _parent_factor(m, ax, mu)
        if m.kind == BOXCAR or frame == "log frame":
            assert np.array_equal(f, expected)
        else:
            assert np.all(np.abs(f - expected) <= 4 * np.spacing(np.maximum(f, expected)))
        seen[(frame, m.kind)] += 1

    check()
    wanted = [("jeffreys", BOXCAR), ("jeffreys", GAUSSIAN), ("jeffreys", LOGNORMAL),
              ("log frame", BOXCAR), ("log frame", GAUSSIAN)]
    assert all(seen[k] for k in wanted), seen


def _draw_fall_grid(draw):
    """L and T axes, each linear or logarithmic, around the fall law's ridge."""
    lower = draw(st.floats(0.5, 5.0))
    upper = lower * draw(st.floats(2.0, 20.0))
    t_lower = math.sqrt(2.0 * lower / 9.81) * draw(st.floats(0.6, 1.0))
    t_upper = math.sqrt(2.0 * upper / 9.81) * draw(st.floats(1.0, 1.5))
    makes = st.sampled_from([Axis.linear, Axis.logarithmic])
    return Grid.of(draw(makes)("L", lower, upper, draw(st.integers(5, 40))),
                   draw(makes)("T", t_lower, t_upper, draw(st.integers(5, 40))))


def _draw_off_box(draw, m, ax):
    """A gaussian or lognormal reading moved to a centre off the box, from
    well inside its reach to far out of it."""
    k = draw(st.floats(0.1, 6.0)) * m.width
    if m.kind == LOGNORMAL:
        low, high = math.log(ax.lower) - k, math.log(ax.upper) + k
        center = math.exp(low if draw(st.booleans()) else high)
    else:
        center = ax.lower - k if draw(st.booleans()) else ax.upper + k
    return MeasurementModel(m.parameter, m.kind, center, m.width)


@st.composite
def _marginal_cases(draw):
    """(kind, theory, readings, query): a random theory, the
    analytic fall ridge, or a small campaign, ANDed with one to three
    readings, some centred off the box.  A random μ may vanish, which the
    theory refuses: the case is then ("μ = 0", None, [], None)."""
    kind = draw(st.sampled_from(["random", "analytic", "empirical"]))
    if kind == "random":
        levels = (0.0, 0.5, 1.0, 2.0) if draw(st.booleans()) else (0.5, 1.0, 2.0)
        theory = _draw_random_theory(draw, [_draw_axis(draw, name) for name in "LT"], levels)
        if theory is None:
            return "μ = 0", None, [], None
    else:
        grid = _draw_fall_grid(draw)
        law = FallingBodyLaw(9.81, draw(st.sampled_from([0.05, 0.2])))
        try:
            if kind == "analytic":
                theory = analytic_fall_theory(law, grid)
            else:
                width = draw(st.sampled_from([0.02, 0.1]))
                instruments = [MeasurementModel("L", LOGNORMAL, 1.0, width),
                               MeasurementModel("T", LOGNORMAL, 1.0, width)]
                theory = run_campaign(law, instruments, draw(st.integers(1, 60)),
                                      draw(st.sampled_from([SET_L, SET_T])), 7, grid)
        except ZeroMass:
            assume(False)
    axes = theory.joint.grid.axes
    readings = []
    for _ in range(draw(st.integers(1, 3))):
        ax = draw(st.sampled_from(axes))
        m = _draw_reading(draw, ax)
        if m.kind in (GAUSSIAN, LOGNORMAL) and draw(st.integers(0, 3)) == 0:
            m = _draw_off_box(draw, m, ax)
        readings.append(m)
    return kind, theory, readings, draw(st.sampled_from(theory.joint.grid.names))


def test_posterior_marginal_equals_the_marginal_of_the_posterior():
    """The marginal taken from the joint by one contraction equals the
    marginal of the normalized 2-D posterior to 1e-12 of its peak, on both
    query axes, and refuses what the 2-D posterior refuses with the same
    error.  The drawn cases include every kind of theory, windows at either
    edge of an axis, and each refusal, a μ with a zero among them."""
    seen = Counter()

    @settings(max_examples=400)
    @given(_marginal_cases())
    def check(case):
        kind, theory, readings, query = case
        if theory is None:
            seen["NeutralZero"] += 1
            return
        try:
            expected = marginalize(intersect(theory, *readings), query).values
        except InferenceSpaceError as exc:
            with pytest.raises(InferenceSpaceError) as refused:
                predict(theory, *readings, query=query)
            assert type(refused.value) is type(exc)
            assert str(refused.value) == str(exc)
            seen[type(exc).__name__] += 1
            return
        marginal = predict(theory, *readings, query=query)
        assert math.isclose(integrate(marginal), 1.0, rel_tol=1e-9)
        assert np.max(np.abs(marginal.values - expected)) <= 1e-12 * np.max(expected)
        seen.update([kind, f"query axis {theory.joint.grid.axis_index(query)}"])
        seen.update(_window_kinds(theory, readings))

    check()
    wanted = ["random", "analytic", "empirical", "query axis 0", "query axis 1",
              "inside", "low edge", "high edge", "OutOfDomain", "ZeroMass", "NeutralZero"]
    assert all(seen[k] for k in wanted), seen


# The built-in fall box.
_FALL_BOX = (("L", 1.0, 10.0), ("T", 0.45152364098573, 1.4278431229270645))


@pytest.fixture(scope="module")
def spaced_theories():
    """The analytic theory of σ = 0.01 on linear and on log axes of the
    built-in box, 1401 nodes each, which resolve its ridge either way."""
    law = FallingBodyLaw(9.81, 0.01)
    return [analytic_fall_theory(law, Grid.of(*(make(*axis, 1401) for axis in _FALL_BOX)))
            for make in (Axis.linear, Axis.logarithmic)]


@pytest.mark.parametrize(
    "readings, query",
    [([MeasurementModel("T", LOGNORMAL, 1.0, 0.3)], "L"),
     ([MeasurementModel("T", LOGNORMAL, 1.0, 0.3), MeasurementModel("L", NONINFORMATIVE)], "L"),
     ([MeasurementModel("T", BOXCAR, 1.0, 0.3)], "L"),
     ([MeasurementModel("L", LOGNORMAL, 5.0, 0.3)], "T")],
    ids=["lognormal", "lognormal-and-noninformative", "boxcar", "L-reading-T-query"],
)
def test_posterior_does_not_depend_on_the_spacing_of_the_axes(spaced_theories, readings, query):
    """The marginal ``infer`` and ``predict`` report has the same mean and
    sd, to 1e-4, on linear and on log axes of one resolved box: a reading
    says nothing about the axes it does not measure, whatever their node
    spacing, and a noninformative reading says nothing at all."""
    linear, log = (summarize(predict(t, *readings, query=query)) for t in spaced_theories)
    assert linear.mean == pytest.approx(log.mean, rel=1e-4)
    assert linear.sd == pytest.approx(log.sd, rel=1e-4)


def test_property_tests_draw_from_the_package_constants_alone():
    """The local modules whose constants hypothesis mixes into its draws are
    the package's, all loaded by ``conftest``: a test module that loaded
    another would make the drawn examples depend on which tests are
    selected."""
    local = {Path(m.__file__).resolve() for m in list(sys.modules.values())
             if getattr(m, "__file__", None) and is_local_module_file(m.__file__)}
    assert local == {Path(m.__file__).resolve() for m in [*PACKAGE_MODULES, inferspace]}


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
        rho = measurement_density(model, theory.joint.grid)
        via_density = normalize(marginalize(and_combine(theory.joint, rho, theory.mu), "L"))
        assert_allclose(via_model.values, via_density.values, rtol=1e-12)

    def test_query_is_keyword_only(self):
        """Readings are positional, as in ``intersect``, so a query given
        positionally is refused before anything is computed."""
        theory = _fall_theory(sigma=0.05, nl=61, nt=61)
        with pytest.raises(TypeError, match="query"):
            predict(theory, MeasurementModel("T", LOGNORMAL, 1.0, 0.1), "L")

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
        scaled = TheoryDensity.from_joint(
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

    def test_slice_whose_mass_overflows_raises_non_finite(self):
        """A slice whose mass overflows float64 cannot be normalized: it is
        refused by name, not returned as a conditional of mass 0."""
        grid = Grid.of(Axis.linear("x", 0.0, 10.0, 11), Axis.linear("y", 0.0, 1.0, 11))
        joint = Density(grid, np.full(grid.shape, 1e308))
        with pytest.raises(NonFinite, match="its mass overflows float64"):
            conditional_density(joint, "y", 0.5)

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

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_summary_does_not_depend_on_scale(self, c):
        """A density and c times it have one summary: the median, intervals
        and both modes bit for bit, the mean and sd to 1e-15 relative.  A
        density without mass has none."""
        theory = _fall_theory(sigma=0.05, nl=121, nt=121)
        marginal = predict(theory, MeasurementModel("T", LOGNORMAL, 1.0, 0.05), query="L")
        ax = Axis.linear("x", 0.0, 1.0, 301)
        for d in (marginal, Density(Grid.of(ax), ax.nodes**2)):
            s, sc = summarize(d), summarize(d.with_values(c * d.values))
            assert (sc.median, sc.intervals) == (s.median, s.intervals)
            assert np.array_equal([sc.mode, sc.mode_log], [s.mode, s.mode_log], equal_nan=True)
            assert math.isclose(sc.mean, s.mean, rel_tol=1e-15)
            assert math.isclose(sc.sd, s.sd, rel_tol=1e-15)
        with pytest.raises(ZeroMass):
            summarize(Density(Grid.of(ax), np.zeros(ax.count)))


# ---------------------------------------------------------------------------
# curved-slice conditioning
# ---------------------------------------------------------------------------

# (u, v) = (x, x + y): it fixes x, and x + y is on no lattice in v or ln v.
_SUM_MAP = Map2D(
    kind="sum",
    forward=lambda x, y: (x, x + y),
    inverse=lambda u, v: (u, v - u),
    det_forward=lambda x, y: np.ones(np.broadcast(x, y).shape),
)


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
        (report,) = borel_kolmogorov_demo(joint, mu, [shear_map()], 1.05, width_cells=3.0)
        cond, band, width = band_conditional(joint, mu, 1.05, 3.0)
        assert np.array_equal(cond.values, report.band_native.values)
        assert width == report.band_width
        y = joint.grid.axes[1]
        j = int(np.argmin(np.abs(y.nodes - 1.05)))
        assert width == 3.0 * (y.cell_boundaries[j + 1] - y.cell_boundaries[j])
        expected = normalize(marginalize(and_combine(joint, band, mu), "x"))
        assert np.array_equal(cond.values, expected.values)
        assert math.isclose(integrate(cond), 1.0, rel_tol=1e-9)
        assert cond.grid.axes == (joint.grid.axes[0],)
        # The band is μ restricted to it: each node weighed by the share of
        # its cell inside the band, up to the rounding of one product and
        # one quotient; exactly where a cell is wholly in or out.
        overlap = np.broadcast_to(_overlap(MeasurementModel("y", BOXCAR, 1.05, width), y),
                                  band.grid.shape)
        ratio = band.values / mu.values
        whole = (overlap == 0.0) | (overlap == 1.0)
        assert np.array_equal(ratio[whole], overlap[whole])
        assert not whole.all()
        assert_allclose(ratio, overlap, rtol=2 * np.finfo(float).eps, atol=0.0)

    def test_affine_control_shows_no_paradox(self):
        """A pure rescale has constant Jacobian, so both naive slicing and
        band conditioning agree across frames to round-off."""
        joint, mu = _correlated_joint()
        (report,) = borel_kolmogorov_demo(joint, mu, [affine_map_2d(1.0, 0.0, 2.0, 0.0)], 1.0)
        assert report.tv_naive <= 1e-9
        assert report.tv_band <= 1e-9

    def test_affine_control_on_a_theory_with_its_mu(self):
        law = FallingBodyLaw(g=9.81, sigma_theory=0.05)
        grid = Grid.of(
            Axis.logarithmic("L", 1.0, 10.0, 201),
            Axis.logarithmic("T", law.fall_time(1.0), law.fall_time(10.0), 201),
        )
        theory = analytic_fall_theory(law, grid)
        y0 = float(grid.axes[1].nodes[100])
        (report,) = borel_kolmogorov_demo(
            theory.joint, theory.mu, [affine_map_2d(1.0, 0.0, 2.0, 0.0)], y0
        )
        assert report.tv_naive <= 1e-9
        assert report.tv_band <= 1e-9

    def test_shear_exposes_frame_dependent_slicing(self):
        """Under (x, y) -> (x, x y) the event {y = y0} becomes a curve whose
        Jacobian varies along it: naive conditionals disagree between frames
        while band conditionals still agree."""
        joint, mu = _correlated_joint()
        (report,) = borel_kolmogorov_demo(joint, mu, [shear_map()], 1.0)
        assert report.tv_naive > 0.01
        assert report.tv_band <= 1e-9

    def test_shear_on_equal_log_steps_gets_its_node_matched_image(self):
        """ln v = ln x + ln y, so with equal steps the image of the node
        lattice is a log axis of 2n - 1 nodes over [lo², hi²], and every
        target node inside the image pulls back onto a source node."""
        joint, _ = _correlated_joint(count=101)
        x, y = joint.grid.axes
        u, v = _mapped_grid(joint, shear_map()).axes
        assert u == x
        assert (v.spacing, v.count) == (LOGARITHMIC, 2 * 101 - 1)
        assert (v.lower, v.upper) == (y.lower * y.lower, y.upper * y.upper)
        pre_y = v.nodes[None, :] / u.nodes[:, None]
        inside = y.contains(pre_y, rtol=1e-9)
        cells = (np.log(pre_y[inside]) - y.param_nodes[0]) / (y.param_nodes[1] - y.param_nodes[0])
        assert inside.sum() == 101 * 101
        assert np.max(np.abs(cells - np.round(cells))) <= 1e-9

    @pytest.mark.parametrize(
        "spacing, factor",
        [("log", affine_map(2.0, 0.0)), ("linear", exp_map()), ("linear", affine_map(-2.0, 1.0))],
        ids=["rescale-on-log", "exp-on-linear", "affine-on-linear"],
    )
    def test_separable_map_gets_its_image_axis(self, spacing, factor):
        """The probe finds the image axis of the second factor, node for
        node, whichever spacing it has."""
        if spacing == "log":
            joint, _ = _correlated_joint(count=101)
        else:
            grid = Grid.of(Axis.linear("x", -1.0, 1.0, 31), Axis.linear("y", -1.0, 2.0, 41))
            joint = Density(grid, np.ones(grid.shape))
        v = _mapped_grid(joint, product_map(affine_map(1.0), factor)).axes[1]
        image = factor.image_axis(joint.grid.axes[1], name="v")
        assert v == image
        assert np.array_equal(v.nodes, image.nodes)

    @pytest.mark.parametrize(
        "forward, message",
        [(lambda x, y: (x, np.log(y - y.min())),
          "'faulty' map sends some nodes of the box to a non-finite v"),
         (lambda x, y: (x, 0.0 * y + 1.0),
          "map collapses the second coordinate: range [1.0, 1.0]")],
        ids=["non-finite", "collapsed"],
    )
    def test_mapped_frame_refuses_images_with_no_axis(self, forward, message):
        """Images that are not all finite, or that collapse to one value,
        lie on no lattice, and the fallback grid cannot span them."""
        joint, _ = _correlated_joint(count=21)
        faulty = Map2D(kind="faulty", forward=forward, inverse=_SUM_MAP.inverse,
                       det_forward=_SUM_MAP.det_forward)
        with pytest.raises(InvalidGrid) as excinfo:
            _mapped_grid(joint, faulty)
        assert str(excinfo.value) == message

    def test_map_off_every_lattice_falls_back_to_an_interpolated_grid(self):
        """(u, v) = (x, x + y) fixes x, but x + y is on no lattice in v or
        ln v: the target gets 4·(n₀ + n₁) nodes and the pushes interpolate."""
        joint, mu = _correlated_joint(count=41)
        x, y = joint.grid.axes
        v = _mapped_grid(joint, _SUM_MAP).axes[1]
        assert (v.spacing, v.count) == (LOGARITHMIC, 4 * (41 + 41))
        assert (v.lower, v.upper) == (x.lower + y.lower, x.upper + y.upper)
        # The map's Jacobian is 1, so both frames agree up to interpolation
        # error, which is no longer zero.
        (report,) = borel_kolmogorov_demo(joint, mu, [_SUM_MAP], 1.0)
        assert report.map_kind == "sum"
        assert 0.0 < report.tv_naive < 1e-2
        assert 0.0 < report.tv_band < 1e-2

    def test_band_conditionals_converge_to_the_slice(self):
        joint, mu = _correlated_joint()
        tvs = []
        for cells in (8.0, 4.0, 2.0):
            (report,) = borel_kolmogorov_demo(
                joint, mu, [affine_map_2d(1.0, 0.0, 2.0, 0.0)], 1.0, width_cells=cells
            )
            tvs.append(total_variation(report.band_native, report.native_conditional))
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[2] < 1e-3

    def test_report_dictionary_carries_the_verdict(self):
        joint, mu = _correlated_joint(count=101)
        (report,) = borel_kolmogorov_demo(joint, mu, [shear_map()], 1.0)
        d = report.as_dict()
        assert d["map_kind"] == "shear"
        assert d["slice_axis"] == "y"
        assert d["tv_naive"] == report.tv_naive
        assert d["band_width"] > 0.0

    def test_map_must_fix_the_first_coordinate(self):
        joint, mu = _correlated_joint(count=101)
        moves_first = product_map(reciprocal_map(), affine_map(1.0))
        with pytest.raises(InvalidGrid):
            borel_kolmogorov_demo(joint, mu, [moves_first], 1.0)

    def test_slice_value_outside_the_box_raises(self):
        joint, mu = _correlated_joint(count=101)
        with pytest.raises(OutOfDomain):
            borel_kolmogorov_demo(joint, mu, [shear_map()], 99.0)

    def test_one_dimensional_joint_raises(self):
        d = Density(Grid.of(Axis.linear("x", 0.0, 1.0, 11)), np.ones(11))
        with pytest.raises(InvalidGrid, match="the demonstration needs a 2D joint density"):
            borel_kolmogorov_demo(d, d, [shear_map()], 0.5)

    def test_band_where_mu_vanishes_has_no_mass(self):
        """A band over rows where μ is 0 is 0 everywhere: nothing of the
        mapped frame is nonzero under it, and its AND has no mass."""
        joint, mu = _correlated_joint(count=41)
        j = int(np.argmin(np.abs(joint.grid.axes[1].nodes - 1.0)))
        vals = mu.values.copy()
        vals[:, j - 3:j + 4] = 0.0
        with pytest.raises(ZeroMass):
            borel_kolmogorov_demo(joint, Density(joint.grid, vals), [shear_map()], 1.0)

    def test_shear_demo_stays_within_its_memory_budget(self):
        """At the CLI's 300 nodes the mapped frame has 300 × 599 nodes, and
        the demo's one array of that size is the AND (1.4 MB); the joint, μ
        and band are pushed to the 2.5k nodes it reads.  Its peak, 2.97 MB,
        is the lattice search of ``_mapped_grid``: the 90k node images, their
        sorted copy and two work buffers of that size.  The bound adds
        0.63 MB, less than one more 300² array (0.72 MB).  Pulling back and
        ANDing every node of the frame peaks at 16 MB."""
        joint, mu = _correlated_joint(count=300, sigma_sum=0.35, sigma_diff=0.7)
        (report,), peak = allocated(lambda: borel_kolmogorov_demo(joint, mu, [shear_map()], 1.0))
        assert report.tv_band < report.tv_naive
        assert peak <= 3.6e6

    def test_edge_slices_read_no_more_of_the_mapped_frame_than_an_interior_one(
        self, monkeypatch
    ):
        """A band that reaches a y-box edge node reads each row of the
        mapped frame only to the image of the edge moved out by the box's
        slack, not on to the row's end: at 300 nodes a slice on either box
        edge reads fewer nodes than one at y = 1."""
        joint, mu = _correlated_joint(count=300, sigma_sum=0.35, sigma_diff=0.7)
        y = joint.grid.axes[1]
        sizes = []
        real = inferspace.inference._read_nodes

        def counted(*args):
            read = real(*args)
            sizes.append(read[0].size)
            return read

        monkeypatch.setattr(inferspace.inference, "_read_nodes", counted)
        for y0 in (1.0, y.lower, y.upper):
            borel_kolmogorov_demo(joint, mu, [shear_map()], y0)
        interior, lower, upper = sizes
        assert lower <= interior and upper <= interior


@pytest.mark.parametrize("edge", ["lower", "upper"])
def test_demo_reads_whole_rows_where_the_map_is_undefined_past_an_edge(edge):
    """A shear that is NaN past the y box reads every node of each row for
    a band on that edge, and still matches the dense pull-back bit for bit."""
    joint, mu = _correlated_joint(count=21)
    y = joint.grid.axes[1]
    lower, upper = y.lower, y.upper
    guarded = Map2D(
        kind="guarded-shear",
        forward=lambda x, y: (x, x * y + 0.0 * np.sqrt((y - lower) * (upper - y))),
        inverse=shear_map().inverse,
        det_forward=shear_map().det_forward,
    )
    y0 = lower if edge == "lower" else upper
    (report,) = borel_kolmogorov_demo(joint, mu, [guarded], y0)
    tv_naive, tv_band, band_native, _ = _dense_demo(joint, mu, guarded, y0, 2.0)
    assert (report.tv_naive, report.tv_band) == (tv_naive, tv_band)
    assert report.band_native.values.tobytes() == band_native.values.tobytes()


_DEMO_MAPS = {
    "shear": shear_map(),
    "affine": affine_map_2d(1.0, 0.0, 2.0, 0.0),
    "sum": _SUM_MAP,
    "power": product_map(affine_map(1.0), power_map(1.7)),
}


def _dense_demo(joint, mu, m, y0, width_cells):
    """The demonstration's four outputs with every node of the mapped frame
    pulled back and ANDed."""
    x = joint.grid.axes[0]
    push = pull_back(joint.grid, m, _mapped_grid(joint, m), outside="zero")
    pushed, mu_pushed = push.apply(joint), push.apply(mu)
    native = conditional_density(joint, "y", y0)
    _, v = m.forward(x.nodes, np.full(x.count, y0))
    along = evaluate(pushed, np.column_stack([x.nodes, v]))
    mapped = Density(Grid.of(x), along / float(np.dot(along, x.weights)))
    band_native, band, _ = band_conditional(joint, mu, y0, width_cells)
    band_mapped = normalize(marginalize(and_combine(pushed, push.apply(band), mu_pushed), "x"))
    return (total_variation(native, mapped), total_variation(band_native, band_mapped),
            band_native, native)


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(3, 61),
    names=st.lists(st.sampled_from(sorted(_DEMO_MAPS)), min_size=1, max_size=4),
    where=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    width_cells=st.floats(0.3, 40.0),
)
def test_demo_reads_the_mapped_frame_as_a_dense_pull_back_does(count, names, where, width_cells):
    """The demonstration pushes only the mapped-frame nodes that its band
    and its slice read, and ANDs them there; every other node is an exact 0
    of the AND, so each map's outputs match a dense pull-back and AND of the
    whole frame bit for bit, at slices across the box and on both of its
    edges.  The maps of one call share one native slice and band
    conditional."""
    joint, mu = _correlated_joint(count=count)
    y = joint.grid.axes[1]
    y0 = float(y.nodes[0] * (y.nodes[-1] / y.nodes[0]) ** where)
    y0 = min(max(y0, y.lower), y.upper)
    reports = borel_kolmogorov_demo(joint, mu, [_DEMO_MAPS[name] for name in names], y0,
                                    width_cells=width_cells)
    assert [report.map_kind for report in reports] == [_DEMO_MAPS[name].kind for name in names]
    for name, report in zip(names, reports):
        tv_naive, tv_band, band_native, native = _dense_demo(joint, mu, _DEMO_MAPS[name], y0,
                                                             width_cells)
        assert report.tv_naive == tv_naive
        assert report.tv_band == tv_band
        assert report.band_native.values.tobytes() == band_native.values.tobytes()
        assert report.native_conditional.values.tobytes() == native.values.tobytes()
        assert report.native_conditional is reports[0].native_conditional
        assert report.band_native is reports[0].band_native


@pytest.mark.parametrize("edge", [0, -1], ids=["lower", "upper"])
def test_band_at_a_box_edge_reads_every_node_clipped_onto_the_edge(edge):
    """On y in [1e9, 1e9 + 10] the box's edge slack of 1e-9·1e9 is a whole
    cell, so target nodes up to a cell past the edge's image pull back
    inside the box and onto the edge node.  A band at that edge is nonzero
    there, and the demonstration reads those nodes as the dense push does."""
    grid = Grid.of(Axis.linear("x", 0.5, 2.0, 11), Axis.linear("y", 1e9, 1e9 + 10.0, 11))
    joint = Density.from_callable(
        grid, lambda x, y: np.exp(-((x - 1.0) ** 2) - 0.1 * (y - 1e9 - 3.0) ** 2)
    )
    mu = null_information_density(grid)
    y0 = float(grid.axes[1].nodes[edge])
    (report,) = borel_kolmogorov_demo(joint, mu, [_SUM_MAP], y0)
    tv_naive, tv_band, _, _ = _dense_demo(joint, mu, _SUM_MAP, y0, 2.0)
    assert (report.tv_naive, report.tv_band) == (tv_naive, tv_band)
