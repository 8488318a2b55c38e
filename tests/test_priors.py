"""Noninformative priors, measurement models, first-digit law, sampling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inferspace import (
    JEFFREYS,
    LOGNORMAL,
    GAUSSIAN,
    BOXCAR,
    NONINFORMATIVE,
    UNIFORM,
    SPHERICAL,
    Axis,
    Density,
    Grid,
    InvalidBounds,
    MeasurementModel,
    ModelAxisMismatch,
    PriorSpec,
    benford_digit_probabilities,
    jeffreys_ppf,
    make_prior,
    measurement_density,
    measurement_profile,
    normalize,
    null_information_density,
    push_forward,
    reciprocal_map,
    sample_prior,
    total_variation,
)
from inferspace.priors import profile_centre_factors, profile_node_factor, profile_windows
from inferspace.theory import _block_windows

# log10(1 + 1/d); derived in tools/oracles/benford_probs.py
BENFORD = [
    0.3010299956639812,
    0.17609125905568124,
    0.12493873660829993,
    0.09691001300805642,
    0.07918124604762482,
    0.06694678963061322,
    0.05799194697768673,
    0.05115252244738129,
    0.04575749056067514,
]


def test_jeffreys_prior_is_reciprocal():
    ax = Axis.logarithmic("T", 0.1, 10.0, 101)
    p = make_prior(PriorSpec(JEFFREYS), Grid.of(ax))
    np.testing.assert_allclose(p.values * ax.nodes, p.values[0] * ax.nodes[0], rtol=1e-12)


def test_jeffreys_joint_is_product_of_reciprocals():
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 21), Axis.logarithmic("T", 0.1, 5.0, 19))
    p = make_prior(PriorSpec(JEFFREYS), grid)
    ml, mt = np.meshgrid(grid.axes[0].nodes, grid.axes[1].nodes, indexing="ij")
    np.testing.assert_allclose(p.values * ml * mt, p.values[0, 0] * ml[0, 0] * mt[0, 0], rtol=1e-12)


def test_jeffreys_needs_positive_box():
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 11))
    with pytest.raises(InvalidBounds):
        make_prior(PriorSpec(JEFFREYS), grid)


def test_uniform_prior_flat_and_bounded():
    ax = Axis.linear("x", 0.0, 2.0, 41)
    p = make_prior(PriorSpec(UNIFORM, bounds=((0.5, 1.5),)), Grid.of(ax))
    nodes = ax.nodes
    inside = (nodes > 0.55) & (nodes < 1.45)
    outside = (nodes < 0.45) | (nodes > 1.55)
    assert np.all(p.values[inside] == p.values[inside][0])
    assert np.all(p.values[outside] == 0.0)


def test_spherical_prior_shape():
    grid = Grid.of(Axis.linear("r", 0.0, 2.0, 21), Axis.linear("theta", 0.0, np.pi, 19))
    p = make_prior(PriorSpec(SPHERICAL), grid)
    r, th = grid.axes[0].nodes, grid.axes[1].nodes
    np.testing.assert_allclose(p.values, np.multiply.outer(r**2, np.sin(th)), rtol=1e-12)
    with pytest.raises(InvalidBounds):
        make_prior(PriorSpec(SPHERICAL), Grid.of(Axis.linear("r", 0.0, 1.0, 5)))


def test_degenerate_bounds_rejected():
    with pytest.raises(InvalidBounds):
        PriorSpec(UNIFORM, bounds=((1.0, 1.0),))
    with pytest.raises(InvalidBounds):
        PriorSpec(UNIFORM, bounds=((2.0, 1.0),))


def test_null_information_density_matches_spacing():
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 11), Axis.linear("T", 0.0, 2.0, 9))
    mu = null_information_density(grid)
    expected = np.multiply.outer(1.0 / grid.axes[0].nodes, np.ones(9))
    np.testing.assert_allclose(mu.values, expected, rtol=1e-15)


def test_wide_lognormal_degrades_to_reciprocal():
    ax = Axis.logarithmic("T", 0.1, 10.0, 201)
    prof = measurement_profile(
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=1e6), ax
    )
    flat = prof * ax.nodes
    assert np.max(np.abs(flat / flat[0] - 1.0)) < 0.01


def test_infinite_width_degrades_to_noninformative():
    ax = Axis.logarithmic("T", 0.1, 10.0, 51)
    model = MeasurementModel(parameter="T", kind=LOGNORMAL, center=3.0)
    np.testing.assert_array_equal(measurement_profile(model, ax), 1.0 / ax.nodes)


def test_box_wide_boxcar_is_noninformative():
    ax = Axis.logarithmic("T", 0.1, 10.0, 51)
    model = MeasurementModel(parameter="T", kind=BOXCAR, center=5.05, width=100.0)
    np.testing.assert_allclose(measurement_profile(model, ax), 1.0 / ax.nodes, rtol=1e-12)


def test_lognormal_mode_sits_below_center():
    """The density mode of a lognormal at center 1, width 0.1 is exp(-0.01).

    Closed form checked in tools/oracles/lognormal_pushforward.py.
    """
    ax = Axis.logarithmic("T", 0.9, 1.1, 2001)
    prof = measurement_profile(
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1), ax
    )
    mode = ax.nodes[np.argmax(prof)]
    assert mode == pytest.approx(0.9900498337491681, rel=1e-4)


def test_gaussian_rejected_on_log_axis():
    ax = Axis.logarithmic("T", 0.1, 10.0, 51)
    with pytest.raises(ModelAxisMismatch):
        measurement_profile(
            MeasurementModel(parameter="T", kind=GAUSSIAN, center=1.0, width=0.1), ax
        )


def test_lognormal_vanishes_toward_zero():
    ax = Axis.logarithmic("T", 1e-8, 10.0, 101)
    prof = measurement_profile(
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1), ax
    )
    assert np.all(np.isfinite(prof))
    assert prof[0] == 0.0  # underflows far below the center


def test_measurement_density_fills_other_axes():
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 21), Axis.logarithmic("T", 0.1, 5.0, 19))
    d = measurement_density(
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.2), grid
    )
    # Separable: reciprocal in L times the instrument profile in T.
    col = d.values[0, :] * grid.axes[0].nodes[0]
    for i in range(21):
        np.testing.assert_allclose(d.values[i, :] * grid.axes[0].nodes[i], col, rtol=1e-12)


def test_jeffreys_reciprocal_pair_consistency():
    """The scale prior keeps its form under nu = 1/T."""
    ax = Axis.logarithmic("T", 0.1, 10.0, 301)
    p = normalize(make_prior(PriorSpec(JEFFREYS), Grid.of(ax)))
    m = reciprocal_map()
    img = m.image_axis(ax, name="nu")
    pushed = push_forward(p, m, Grid.of(img))
    direct = normalize(make_prior(PriorSpec(JEFFREYS), Grid.of(img)))
    rel = np.abs(pushed.values - direct.values) / direct.values.max()
    assert rel.max() < 1e-6


def test_benford_probabilities_frozen():
    np.testing.assert_allclose(benford_digit_probabilities(), BENFORD, rtol=0, atol=1e-15)
    assert benford_digit_probabilities().sum() == pytest.approx(1.0, abs=1e-12)


def test_jeffreys_ppf_endpoints_and_median():
    lo, hi = 0.2, 45.0
    assert jeffreys_ppf(np.array(0.0), lo, hi) == pytest.approx(lo)
    assert jeffreys_ppf(np.array(1.0), lo, hi) == pytest.approx(hi)
    assert jeffreys_ppf(np.array(0.5), lo, hi) == pytest.approx(np.sqrt(lo * hi), rel=1e-12)


def _empirical_density(ax: Axis, draws: np.ndarray) -> Density:
    counts, _ = np.histogram(draws, bins=ax.cell_boundaries)
    vals = counts / (len(draws) * np.diff(ax.cell_boundaries))
    return Density(Grid.of(ax), vals)


def test_sample_prior_converges_in_total_variation():
    ax = Axis.logarithmic("x", 0.1, 10.0, 41)
    spec = PriorSpec(JEFFREYS, bounds=((0.1, 10.0),))
    target = normalize(make_prior(spec, Grid.of(ax)))
    tvs = []
    for n in (1_000, 10_000, 100_000):
        draws = sample_prior(spec, n, seed=314159)
        tvs.append(total_variation(_empirical_density(ax, draws), target))
    assert tvs[0] > tvs[1] > tvs[2], tvs


def test_sample_prior_uniform_mean():
    spec = PriorSpec(UNIFORM, bounds=((0.0, 1.0),))
    draws = sample_prior(spec, 100_000, seed=8)
    assert draws.mean() == pytest.approx(0.5, abs=0.005)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def _dense_profile(model: MeasurementModel, axis: Axis) -> np.ndarray:
    """The model's profile on every node of ``axis``, written out per kind."""
    x, c, w = axis.nodes, model.center, model.width
    if model.kind == NONINFORMATIVE:
        return 1.0 / x if axis.spacing == "logarithmic" else np.ones_like(x)
    with np.errstate(over="ignore"):
        if model.kind == GAUSSIAN:
            return np.exp(-0.5 * ((x - c) / w) ** 2)
        if model.kind == LOGNORMAL:
            return np.exp(-0.5 * ((np.log(x) - math.log(c)) / w) ** 2) / x
    edges = axis.cell_boundaries
    overlap = np.array([
        max(min(right, c + w) - max(left, c - w), 0.0) / (right - left)
        for left, right in zip(edges[:-1], edges[1:])
    ])
    return overlap / x if axis.spacing == "logarithmic" else overlap


@st.composite
def _axis_and_reading(draw, name):
    """An axis and one reading on it: centred inside the box, straddling an
    edge, or up to 40 widths past one, where the profile underflows."""
    spacing = draw(st.sampled_from(["linear", "logarithmic"]))
    kinds = [LOGNORMAL, BOXCAR, NONINFORMATIVE] + ([GAUSSIAN] if spacing == "linear" else [])
    kind = draw(st.sampled_from(kinds))
    lower = draw(st.floats(0.1, 5.0))
    upper = lower * draw(st.floats(1.5, 100.0))
    axis = Axis(name, spacing, lower, upper, draw(st.integers(2, 150)))
    if kind == NONINFORMATIVE:
        return axis, MeasurementModel(name, kind)
    log = kind == LOGNORMAL
    span = math.log(upper / lower) if log else upper - lower
    width = span * 10.0 ** draw(st.floats(-3.5, 0.5))
    place = draw(st.sampled_from(["inside", "straddle", "past"]))
    if place == "inside":
        u = (math.log(lower) if log else lower) + span * draw(st.floats(0.0, 1.0))
    else:
        outward = draw(st.sampled_from([-1.0, 1.0]))
        edge = upper if outward > 0 else lower
        k = draw(st.floats(-2.0, 2.0) if place == "straddle" else st.floats(2.0, 40.0))
        u = (math.log(edge) if log else edge) + outward * k * width
    return axis, MeasurementModel(name, kind, math.exp(u) if log else u, width)


@settings(max_examples=300)
@given(_axis_and_reading("x"), _axis_and_reading("y"))
def test_windowed_profile_matches_the_dense_one(first, second):
    """Each axis's profile, kept only on its window, drops nodes below 2⁻⁵³ of
    its largest node value; its mass, taken as a campaign takes it (centre
    factors against node factor times weights), agrees with the dense
    full-axis mass to a few ε, and the normalized product to 1e-12 of its
    peak."""
    factors = []
    for axis, model in (first, second):
        dense = _dense_profile(model, axis)
        (lo,), (hi,) = profile_windows(model, axis, np.array([model.center]))
        window = slice(lo, hi)
        centre = profile_centre_factors(
            model, axis, np.array([model.center]), window, np.empty((1, hi - lo))
        )[0]
        node = profile_node_factor(model, axis)
        kept = np.zeros(axis.count)
        kept[window] = centre * node[window]
        outside = np.ones(axis.count, dtype=bool)
        outside[window] = False
        peak = dense.max()
        # Below 2⁵³ times the smallest normal float, 2⁻⁵³ of the peak is
        # subnormal, and rounding alone can exceed it.
        assume(peak == 0.0 or peak >= 2.0**53 * np.finfo(float).tiny)
        assert np.all(dense[outside] < 2.0**-53 * peak) or peak == 0.0
        dense_mass = dense @ axis.weights
        kept_mass = centre @ (node * axis.weights)[window]
        if peak == 0.0:
            # a boxcar that misses the box, or a profile that underflows at
            # every node, has no mass either way
            assert kept_mass == 0.0
            return
        assert abs(kept_mass - dense_mass) <= 8 * np.finfo(float).eps * dense_mass
        factors.append((dense / dense_mass, kept / kept_mass))
    (dense0, kept0), (dense1, kept1) = factors
    dense = np.multiply.outer(dense0, dense1)
    assert np.max(np.abs(np.multiply.outer(kept0, kept1) - dense)) <= 1e-12 * dense.max()


@settings(max_examples=300)
@given(_axis_and_reading("x"), st.data())
def test_block_windows_are_the_union_of_the_reading_windows(axis_and_model, data):
    """A campaign's block windows, one search of each block's least and
    greatest window key, are exactly the least ``lo`` and greatest ``hi`` of
    its readings' ``profile_windows``: unsorted readings inside the box,
    straddling an edge or up to 40 widths past it (boxcars that miss it),
    and the NaN readings of a noninformative instrument."""
    axis, model = axis_and_model
    log = model.kind == LOGNORMAL
    lower, upper = (math.log(axis.lower), math.log(axis.upper)) if log else (axis.lower, axis.upper)
    width = model.width if math.isfinite(model.width) else upper - lower
    spots = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    offsets = st.tuples(spots, st.floats(-40.0, 40.0))
    u = np.array([
        lower + s * (upper - lower) + k * width
        for s, k in data.draw(st.lists(offsets, min_size=1, max_size=40))
    ])
    with np.errstate(over="ignore"):
        readings = np.exp(u) if log else u
    if model.kind == NONINFORMATIVE:
        # a noninformative instrument reads nothing
        readings = np.full(u.size, math.nan)
    else:
        # A campaign refuses a reading float64 cannot hold.
        assume(np.all(np.isfinite(readings)) and (not log or np.all(readings > 0.0)))
    cuts = data.draw(st.sets(st.integers(1, max(1, readings.size - 1))))
    starts = np.array(sorted({0} | {c for c in cuts if c < readings.size}))
    lo, hi = profile_windows(model, axis, readings)
    block_lo, block_hi = _block_windows(model, axis, readings, starts)
    assert block_lo == np.minimum.reduceat(lo, starts).tolist()
    assert block_hi == np.maximum.reduceat(hi, starts).tolist()
