"""Noninformative priors, measurement models, first-digit law, sampling."""

import numpy as np
import pytest

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
