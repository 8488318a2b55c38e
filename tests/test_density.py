"""Density containers, quadrature, normalization, marginals, evaluation."""

import numpy as np
import pytest

from inferspace import (
    Axis,
    Density,
    Grid,
    GridMismatch,
    InvalidGrid,
    NegativeDensity,
    NonFinite,
    OutOfDomain,
    ZeroMass,
    evaluate,
    integrate,
    marginalize,
    normalize,
    require_same_space,
)

ONE_OVER_ROOT_2PI = 0.3989422804014327


def test_values_validated():
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 5))
    with pytest.raises(NegativeDensity):
        Density(grid, np.array([1.0, -0.5, 1.0, 1.0, 1.0]))
    with pytest.raises(NonFinite):
        Density(grid, np.array([1.0, np.inf, 1.0, 1.0, 1.0]))
    with pytest.raises(InvalidGrid):
        Density(grid, np.ones(4))


@pytest.mark.parametrize(
    "bad",
    [[1.0, np.nan, 1.0, -1.0, 1.0], [1.0, np.inf, 1.0, -1.0, 1.0], [1.0, -np.inf, 1.0, 1.0, 1.0]],
    ids=["nan", "+inf", "-inf"],
)
def test_non_finite_values_raise_non_finite_even_beside_negative_ones(bad):
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 5))
    with pytest.raises(NonFinite, match="^density values must be finite$"):
        Density(grid, np.array(bad))


def test_values_are_frozen():
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 5))
    d = Density(grid, np.ones(5))
    with pytest.raises(ValueError):
        d.values[0] = 7.0


def test_integrate_uniform_box():
    grid = Grid.of(Axis.linear("x", 2.0, 5.0, 31))
    d = Density(grid, np.ones(31))
    assert integrate(d) == pytest.approx(3.0, abs=1e-14)


def test_integrate_reciprocal_on_log_axis():
    """Spacing-coordinate weights integrate 1/x exactly on log grids.

    tools/oracles/geometric_cell_error.py shows the sum telescopes to
    ln(upper/lower) at any node count; 200 nodes per decade here.
    """
    ax = Axis.logarithmic("x", 0.1, 10.0, 401)
    d = Density(Grid.of(ax), 1.0 / ax.nodes)
    assert integrate(d) == pytest.approx(np.log(100.0), rel=1e-13)
    coarse = Axis.logarithmic("x", 1.0, 1000.0, 16)
    d = Density(Grid.of(coarse), 1.0 / coarse.nodes)
    assert integrate(d) == pytest.approx(np.log(1000.0), rel=1e-13)


def test_gaussian_peak_value_after_normalize():
    ax = Axis.linear("x", -8.0, 8.0, 401)
    d = normalize(Density.from_callable(Grid.of(ax), lambda x: np.exp(-0.5 * x * x)))
    peak = evaluate(d, np.array(0.0))
    assert peak == pytest.approx(ONE_OVER_ROOT_2PI, abs=1e-4)


def test_normalize_idempotent():
    rng = np.random.default_rng(11)
    ax = Axis.logarithmic("x", 0.3, 30.0, 57)
    d = Density(Grid.of(ax), rng.uniform(0.1, 2.0, 57))
    once = normalize(d)
    twice = normalize(once)
    np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-12)
    assert abs(integrate(once) - 1.0) <= 1e-12 and abs(integrate(twice) - 1.0) <= 1e-12


def test_normalize_zero_mass_raises():
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 9))
    with pytest.raises(ZeroMass):
        normalize(Density(grid, np.zeros(9)))


def test_normalize_names_an_overflowing_mass():
    """A mass beyond float64 is refused as an overflow, not as zero mass,
    and without numpy's overflow warning, which the suite makes an error."""
    grid = Grid.of(Axis.logarithmic("x", 1.0, 1e6, 11), Axis.logarithmic("y", 1.0, 1e6, 11))
    with pytest.raises(NonFinite, match=r"mass overflows float64 \(inf\)"):
        normalize(Density(grid, np.full(grid.shape, 1e300)))


def test_marginalize_then_normalize_commutes():
    rng = np.random.default_rng(23)
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 31), Axis.linear("T", 0.0, 2.0, 29))
    d = Density(grid, rng.uniform(0.05, 3.0, grid.shape))
    for name in grid.names:
        a = normalize(marginalize(normalize(d), name))
        b = normalize(marginalize(d, name))
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-9)


def test_marginal_of_separable_density():
    lax = Axis.logarithmic("L", 0.5, 8.0, 41)
    tax = Axis.linear("T", 0.0, 2.0, 37)
    grid = Grid.of(lax, tax)
    f = 1.0 / lax.nodes
    g = np.exp(-((tax.nodes - 1.0) ** 2))
    d = Density(grid, np.multiply.outer(f, g))
    got = marginalize(d, "L")
    expected = f * np.dot(g, tax.weights)
    np.testing.assert_allclose(got.values, expected, rtol=1e-13)
    assert got.grid.names == ("L",)


def test_marginalize_keeps_mass():
    rng = np.random.default_rng(5)
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 31), Axis.logarithmic("T", 0.1, 5.0, 27))
    d = Density(grid, rng.uniform(0.0, 1.0, grid.shape))
    assert integrate(marginalize(d, "T")) == pytest.approx(integrate(d), rel=1e-12)


def test_evaluate_at_nodes_exact_1d():
    rng = np.random.default_rng(3)
    ax = Axis.logarithmic("x", 0.2, 7.0, 33)
    vals = rng.uniform(0.1, 2.0, 33)
    d = Density(Grid.of(ax), vals)
    np.testing.assert_allclose(evaluate(d, ax.nodes), vals, rtol=0, atol=0)


def test_evaluate_midpoint_linear_in_param():
    ax = Axis.logarithmic("x", 1.0, 4.0, 3)  # nodes 1, 2, 4
    d = Density(Grid.of(ax), np.array([1.0, 3.0, 5.0]))
    # Halfway in the log parameter between nodes 1 and 2 sits at sqrt(2).
    assert evaluate(d, np.array(np.sqrt(2.0))) == pytest.approx(2.0, rel=1e-12)


def test_evaluate_2d_nodes_and_outside():
    rng = np.random.default_rng(9)
    grid = Grid.of(Axis.logarithmic("L", 0.5, 8.0, 21), Axis.linear("T", 0.0, 2.0, 17))
    d = Density(grid, rng.uniform(0.1, 1.0, grid.shape))
    ml, mt = np.meshgrid(grid.axes[0].nodes, grid.axes[1].nodes, indexing="ij")
    pts = np.column_stack([ml.ravel(), mt.ravel()])
    np.testing.assert_allclose(evaluate(d, pts), d.values.ravel(), rtol=0, atol=0)
    with pytest.raises(OutOfDomain):
        evaluate(d, np.array([0.4, 1.0]))
    with pytest.raises(OutOfDomain):
        evaluate(d, np.array([1.0, 2.5]))
    with pytest.raises(OutOfDomain, match="a single 2D point needs 2 coordinates, got"):
        evaluate(d, np.array([1.0, 1.0, 1.0]))


def test_require_same_space_compares_grids_only():
    """Two densities share a space exactly when their grids have the same
    axes: node count, bounds, spacing and name each tell grids apart."""
    g1 = Grid.of(Axis.linear("x", 0.0, 1.0, 5))
    a = Density(g1, np.ones(5))
    require_same_space(a, Density(Grid.of(Axis.linear("x", 0.0, 1.0, 5)), np.zeros(5)))
    for other in (Axis.linear("x", 0.0, 1.0, 6), Axis.linear("x", 0.0, 2.0, 5),
                  Axis.logarithmic("x", 0.5, 1.0, 5), Axis.linear("y", 0.0, 1.0, 5)):
        with pytest.raises(GridMismatch):
            require_same_space(a, Density(Grid.of(other), np.ones(other.count)))
