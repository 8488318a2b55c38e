"""The reciprocal prior, measurement models, first-digit law, sampling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inferspace import (
    LOGNORMAL,
    GAUSSIAN,
    BOXCAR,
    NONINFORMATIVE,
    Axis,
    ConfigInvalid,
    Density,
    Grid,
    InvalidBounds,
    MeasurementModel,
    ModelAxisMismatch,
    benford_digit_probabilities,
    jeffreys_ppf,
    normalize,
    null_information_density,
    push_forward,
    reciprocal_map,
    sample_prior,
    total_variation,
)
from inferspace.priors import (
    _EXPAND_MAX_WIDTHS,
    gaussian_factor_blocks,
    jeffreys_factors,
    outer_values,
    profile_centre_factors,
    profile_node_factor,
    profile_window_bounds,
    profile_window_keys,
    reading_centre_factor,
)
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
    (f,) = jeffreys_factors(Grid.of(ax))
    np.testing.assert_allclose(f * ax.nodes, f[0] * ax.nodes[0], rtol=1e-12)


def test_jeffreys_joint_is_product_of_reciprocals():
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 21), Axis.logarithmic("T", 0.1, 5.0, 19))
    p = outer_values(jeffreys_factors(grid))
    ml, mt = np.meshgrid(grid.axes[0].nodes, grid.axes[1].nodes, indexing="ij")
    np.testing.assert_allclose(p * ml * mt, p[0, 0] * ml[0, 0] * mt[0, 0], rtol=1e-12)


def test_jeffreys_needs_positive_box():
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 11))
    with pytest.raises(InvalidBounds):
        jeffreys_factors(grid)


def test_degenerate_bounds_rejected():
    with pytest.raises(InvalidBounds):
        sample_prior(1.0, 1.0, 10, seed=0)
    with pytest.raises(InvalidBounds):
        sample_prior(2.0, 1.0, 10, seed=0)


def test_sample_prior_refuses_in_order():
    """Degenerate bounds first, then a negative seed, then a bound that is
    not positive."""
    with pytest.raises(InvalidBounds, match="degenerate prior bounds"):
        sample_prior(0.0, 0.0, 10, seed=-1)
    with pytest.raises(ConfigInvalid, match="seed must be >= 0"):
        sample_prior(0.0, 1.0, 10, seed=-1)
    with pytest.raises(InvalidBounds, match="needs positive bounds"):
        sample_prior(0.0, 1.0, 10, seed=0)


def test_null_information_density_matches_spacing():
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 11), Axis.linear("T", 0.0, 2.0, 9))
    mu = null_information_density(grid)
    expected = np.multiply.outer(1.0 / grid.axes[0].nodes, np.ones(9))
    np.testing.assert_allclose(mu.values, expected, rtol=1e-15)


def _profile(model: MeasurementModel, axis: Axis) -> np.ndarray:
    """The model's density on a bare ``axis``: its centre factor times its
    node factor, taken against the axis's null-information μ."""
    mu = null_information_density(Grid.of(axis)).values
    return reading_centre_factor(model, axis) * profile_node_factor(model, axis, mu)


@pytest.mark.parametrize("kind", [LOGNORMAL, GAUSSIAN, BOXCAR])
def test_infinite_width_makes_a_noninformative_model(kind):
    """An infinite width says nothing: the model is noninformative, decided
    once when it is made, and its center is not checked."""
    for center in (1.0, -1.0, math.nan):
        assert MeasurementModel("T", kind, center, math.inf).kind == NONINFORMATIVE


def test_wide_lognormal_degrades_to_reciprocal():
    ax = Axis.logarithmic("T", 0.1, 10.0, 201)
    prof = _profile(
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=1e6), ax
    )
    flat = prof * ax.nodes
    assert np.max(np.abs(flat / flat[0] - 1.0)) < 0.01


def test_infinite_width_degrades_to_noninformative():
    ax = Axis.logarithmic("T", 0.1, 10.0, 51)
    model = MeasurementModel(parameter="T", kind=LOGNORMAL, center=3.0)
    np.testing.assert_array_equal(_profile(model, ax), 1.0 / ax.nodes)


def test_box_wide_boxcar_is_noninformative():
    ax = Axis.logarithmic("T", 0.1, 10.0, 51)
    model = MeasurementModel(parameter="T", kind=BOXCAR, center=5.05, width=100.0)
    np.testing.assert_allclose(_profile(model, ax), 1.0 / ax.nodes, rtol=1e-12)


def test_lognormal_mode_sits_below_center():
    """The density mode of a lognormal at center 1, width 0.1 is exp(-0.01).

    Closed form checked in tools/oracles/lognormal_pushforward.py.
    """
    ax = Axis.logarithmic("T", 0.9, 1.1, 2001)
    prof = _profile(
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1), ax
    )
    mode = ax.nodes[np.argmax(prof)]
    assert mode == pytest.approx(0.9900498337491681, rel=1e-4)


def test_gaussian_rejected_on_log_axis():
    ax = Axis.logarithmic("T", 0.1, 10.0, 51)
    with pytest.raises(ModelAxisMismatch):
        _profile(
            MeasurementModel(parameter="T", kind=GAUSSIAN, center=1.0, width=0.1), ax
        )


@pytest.mark.parametrize(
    "kind, center, error, message",
    [("cauchy", 1.0, ModelAxisMismatch, "unknown measurement kind 'cauchy'"),
     (GAUSSIAN, math.nan, InvalidBounds, "gaussian measurement needs a finite center"),
     (LOGNORMAL, 0.0, InvalidBounds, "lognormal measurement center must be > 0, got 0.0")],
    ids=["unknown-kind", "centre-not-finite", "lognormal-centre-zero"],
)
def test_invalid_measurement_models_rejected(kind, center, error, message):
    with pytest.raises(error, match=message):
        MeasurementModel(parameter="T", kind=kind, center=center, width=0.1)


def test_lognormal_rejected_on_a_box_that_is_not_positive():
    ax = Axis.linear("T", 0.0, 2.0, 21)
    with pytest.raises(ModelAxisMismatch, match="'T': lognormal needs a positive box"):
        _profile(MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1), ax)


def test_lognormal_vanishes_toward_zero():
    ax = Axis.logarithmic("T", 1e-8, 10.0, 101)
    prof = _profile(
        MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.1), ax
    )
    assert np.all(np.isfinite(prof))
    assert prof[0] == 0.0  # underflows far below the center


def test_measurement_density_fills_other_axes():
    """A reading as a density on a bare grid is the grid's μ times the
    reading's centre factor on its own axis."""
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 21), Axis.logarithmic("T", 0.1, 5.0, 19))
    model = MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.2)
    d = null_information_density(grid)
    d = d.with_values(d.values * reading_centre_factor(model, grid.axes[1]))
    # Separable: reciprocal in L times the instrument profile in T.
    col = d.values[0, :] * grid.axes[0].nodes[0]
    for i in range(21):
        np.testing.assert_allclose(d.values[i, :] * grid.axes[0].nodes[i], col, rtol=1e-12)


def test_jeffreys_reciprocal_pair_consistency():
    """The scale prior keeps its form under nu = 1/T."""
    ax = Axis.logarithmic("T", 0.1, 10.0, 301)
    p = normalize(Density(Grid.of(ax), 1.0 / ax.nodes))
    m = reciprocal_map()
    img = m.image_axis(ax, name="nu")
    pushed = push_forward(p, m, Grid.of(img))
    direct = normalize(Density(Grid.of(img), 1.0 / img.nodes))
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


@pytest.mark.parametrize("lo, hi, n, seed", [(0.1, 10.0, 1000, 0), (1.0, 1e6, 257, 7),
                                             (2.5, 3.5, 1, 2**40), (1e-3, 1.0, 0, 11)])
def test_sample_prior_is_the_ppf_of_one_generators_uniforms(lo, hi, n, seed):
    """The prior's draws are the inverse CDF of n uniforms from
    default_rng(seed), bit for bit, so a seed names one stream of draws."""
    expected = jeffreys_ppf(np.random.default_rng(seed).random(n), lo, hi)
    draws = sample_prior(lo, hi, n, seed)
    assert draws.dtype == expected.dtype and draws.tobytes() == expected.tobytes()


def test_sample_prior_converges_in_total_variation():
    ax = Axis.logarithmic("x", 0.1, 10.0, 41)
    target = normalize(Density(Grid.of(ax), 1.0 / ax.nodes))
    tvs = []
    for n in (1_000, 10_000, 100_000):
        draws = sample_prior(0.1, 10.0, n, seed=314159)
        tvs.append(total_variation(_empirical_density(ax, draws), target))
    assert tvs[0] > tvs[1] > tvs[2], tvs


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
        keys = profile_window_keys(model, axis, np.array([model.center]))
        (lo,), (hi,) = profile_window_bounds(model, axis, *keys)
        window = slice(lo, hi)
        centre = profile_centre_factors(
            model, axis, np.array([model.center]), window, np.empty((1, hi - lo))
        )[0]
        node = profile_node_factor(model, axis, null_information_density(Grid.of(axis)).values)
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
    its readings' windows: unsorted readings inside the box,
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
    lo, hi = profile_window_bounds(model, axis, *profile_window_keys(model, axis, readings))
    block_lo, block_hi = _block_windows(model, axis, readings, starts)
    assert block_lo == np.minimum.reduceat(lo, starts).tolist()
    assert block_hi == np.maximum.reduceat(hi, starts).tolist()


@st.composite
def _gaussian_blocks(draw):
    """Sorted nodes and blocks of centres around a point m: each block's
    half-spread E, in widths, on either side of ``_EXPAND_MAX_WIDTHS``, and
    its node window anywhere on the axis."""
    width = 10.0 ** draw(st.floats(-3.0, 1.0))
    m = draw(st.floats(-50.0, 50.0))
    reach = draw(st.floats(1.0, 40.0))
    nodes = np.sort(m + width * reach * np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=60))))
    centres, starts, lo, hi = [], [], [], []
    for _ in range(draw(st.integers(1, 4))):
        half = draw(st.floats(0.0, 2.0 * _EXPAND_MAX_WIDTHS))
        spots = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
        starts.append(len(centres))
        centres += [m + width * half * s for s in spots]
        a, b = sorted(draw(st.tuples(*[st.integers(0, nodes.size)] * 2)))
        lo.append(a)
        hi.append(b)
    return nodes, np.array(centres), width, *map(np.array, (starts, lo, hi))


@settings(max_examples=300)
@given(_gaussian_blocks())
def test_expanded_gaussian_exponent_is_within_its_bound(blocks):
    """Each block's factors, from the rank-3 product of the expanded square,
    are within (6E² + 10E + 8)·2⁻⁵³ of the direct exp(−½((x − c)/w)²),
    E being the block's half-spread in widths: the documented bound with
    the direct evaluation's own rounding added.  A block with E past
    ``_EXPAND_MAX_WIDTHS`` is the direct evaluation, bit for bit."""
    nodes, centres, width, starts, lo, hi = blocks
    scratch = np.empty(centres.size * nodes.size)
    ends = [*starts[1:], centres.size]
    for s, e, a, b, got in zip(starts, ends, lo, hi, gaussian_factor_blocks(
            nodes, centres, width, starts, lo, hi, scratch)):
        c = centres[s:e, None]
        direct = np.exp(-0.5 * np.square((nodes[a:b] - c) / width))
        half = (c.max() - c.min()) / (2.0 * width)
        if half > _EXPAND_MAX_WIDTHS:
            assert got.tobytes() == direct.tobytes()
        else:
            bound = (6.0 * half * half + 10.0 * half + 8.0) * 2.0**-53
            assert np.all(np.abs(got - direct) <= bound)


@pytest.mark.parametrize("centres, far", [
    ([0.0], [0, 1, 3, 4]),
    ([0.0, 0.0], [0, 1, 3, 4]),
    ([0.0, 1e-10], [0, 1, 3, 4]),
    ([1e300, 1e300], [0, 1, 2, 3]),
])
def test_gaussian_factors_far_out_are_zero_not_nan(centres, far):
    """A node or a centre many widths out, where d overflows to inf, has
    the factor 0: the expansion clamps d, so e·d stays finite at e = 0."""
    nodes = np.array([-1e300, -1.0, 0.0, 1.0, 1e300])
    centres = np.array(centres)
    with np.errstate(over="ignore"):
        (got,) = gaussian_factor_blocks(nodes, centres, 1e-10, np.array([0]), np.array([0]),
                                        np.array([nodes.size]), np.empty(centres.size * nodes.size))
    assert not np.any(np.isnan(got))
    assert np.all(got[:, far] == 0.0)
