"""Coordinate maps, Jacobians, push-forwards, and invariance checks."""

import numpy as np
import pytest

from inferspace import (
    Axis,
    CoordinateMap,
    Density,
    DomainMismatch,
    Grid,
    SingularJacobian,
    affine_map,
    evaluate,
    integrate,
    log_map,
    normalize,
    null_information_density,
    power_map,
    product_map,
    push_forward,
    reciprocal_map,
    shear_map,
    verify_invariance,
)

from conftest import gaussian_density


def test_reciprocal_twice_is_identity():
    m = reciprocal_map()
    x = np.geomspace(0.1, 10.0, 50)
    np.testing.assert_allclose(m.forward(m.forward(x)), x, rtol=1e-12)


def test_custom_map_rejects_zero_derivative():
    m = CoordinateMap(
        "custom",
        forward=lambda x: x**3,
        inverse=lambda y: np.cbrt(y),
        dforward=lambda x: 3.0 * x * x,
    )
    with pytest.raises(SingularJacobian):
        m.jacobian(np.array([0.0]))


def test_1d_push_through_a_vanishing_derivative_is_singular():
    """A 1D push shares the 2D body: a preimage where dy/dx = 0 raises there."""
    m = CoordinateMap(
        "custom",
        forward=lambda x: x**3,
        inverse=lambda y: np.cbrt(y),
        dforward=lambda x: 3.0 * x * x,
    )
    grid = Grid.of(Axis.linear("x", -1.0, 1.0, 21))
    p = Density(grid, np.ones(21))
    with pytest.raises(SingularJacobian, match="'custom' map has a singular Jacobian at some"):
        push_forward(p, m, grid)


def test_reciprocal_pushforward_of_jeffreys():
    """1/T on a log axis maps to 1/nu on the reciprocal log axis.

    The noninformative form is preserved by the reciprocal change of
    variables; interior nodes must agree to 1e-6 relative.
    """
    ax = Axis.logarithmic("T", 0.1, 10.0, 301)
    grid = Grid.of(ax)
    p = normalize(Density(grid, 1.0 / ax.nodes))
    m = reciprocal_map()
    img = m.image_axis(ax, name="nu")
    pushed = push_forward(p, m, Grid.of(img))
    expected = 1.0 / img.nodes
    expected *= integrate(pushed) / np.dot(expected, img.weights)
    rel = np.abs(pushed.values - expected) / expected
    assert rel[2:-2].max() < 1e-6


def test_log_pushforward_flattens_jeffreys():
    ax = Axis.logarithmic("T", 0.1, 10.0, 301)
    p = normalize(Density(Grid.of(ax), 1.0 / ax.nodes))
    m = log_map()
    img = m.image_axis(ax, name="lnT")
    pushed = push_forward(p, m, Grid.of(img))
    interior = pushed.values[2:-2]
    assert np.max(np.abs(interior - interior.mean())) / interior.mean() < 1e-6


def test_affine_push_is_node_exact():
    rng = np.random.default_rng(8)
    ax = Axis.linear("x", -1.0, 3.0, 101)
    vals = rng.uniform(0.1, 2.0, 101)
    p = Density(Grid.of(ax), vals)
    m = affine_map(2.5, -0.5)
    img = m.image_axis(ax, name="y")
    pushed = push_forward(p, m, Grid.of(img))
    np.testing.assert_allclose(pushed.values, vals / 2.5, rtol=1e-12)


def test_push_conserves_mass():
    ax = Axis.logarithmic("T", 0.1, 10.0, 401)
    p = gaussian_density(Axis.linear("z", -4.0, 4.0, 401), 0.0, 0.7)
    q = normalize(
        Density.from_callable(
            Grid.of(ax), lambda t: np.exp(-((np.log(t)) ** 2) / (2 * 0.5**2)) / t
        )
    )
    for d, m in ((p, affine_map(3.0, 1.0)), (q, reciprocal_map()), (q, log_map())):
        src_ax = d.grid.axes[0]
        target = Grid.of(m.image_axis(src_ax, name="w"))
        pushed = push_forward(d, m, target)
        assert integrate(pushed) == pytest.approx(integrate(d), abs=1e-6)


def test_power_map_on_log_axis():
    ax = Axis.logarithmic("T", 0.5, 2.0, 101)
    p = normalize(Density(Grid.of(ax), 1.0 / ax.nodes))
    m = power_map(2.0)
    img = m.image_axis(ax, name="T2")
    assert img.lower == pytest.approx(0.25) and img.upper == pytest.approx(4.0)
    pushed = push_forward(p, m, Grid.of(img))
    assert integrate(pushed) == pytest.approx(1.0, abs=1e-9)


def test_image_axis_rejects_shifted_log():
    ax = Axis.logarithmic("T", 0.1, 10.0, 51)
    with pytest.raises(DomainMismatch):
        affine_map(2.0, 1.0).image_axis(ax)


def test_outside_zero_policy():
    ax = Axis.linear("x", 0.0, 1.0, 51)
    p = gaussian_density(ax, 0.5, 0.1)
    wide = Grid.of(Axis.linear("y", -1.0, 2.0, 151))
    pushed = push_forward(p, affine_map(1.0, 0.0), wide, outside="zero")
    assert evaluate(pushed, np.array(-0.5)) == 0.0
    assert integrate(pushed) == pytest.approx(1.0, abs=1e-3)


def test_invariance_affine_tight():
    ax = Axis.linear("x", -2.0, 2.0, 201)
    p = gaussian_density(ax, -0.3, 0.4)
    q = gaussian_density(ax, 0.5, 0.6)
    mu = null_information_density(p.grid)
    rep = verify_invariance(p, q, mu, affine_map(1.8, 0.7))
    assert rep.within(1e-10), (rep.or_discrepancy, rep.and_discrepancy)


@pytest.mark.parametrize("factory", [reciprocal_map, log_map])
def test_invariance_nonlinear_within_interpolation_error(factory):
    ax = Axis.logarithmic("T", 0.2, 5.0, 401)
    grid = Grid.of(ax)
    p = normalize(
        Density.from_callable(grid, lambda t: np.exp(-((np.log(t) - 0.2) ** 2) / 0.18) / t)
    )
    q = normalize(
        Density.from_callable(grid, lambda t: np.exp(-((np.log(t) + 0.4) ** 2) / 0.5) / t)
    )
    mu = null_information_density(grid)
    rep = verify_invariance(p, q, mu, factory())
    assert rep.within(1e-4), (rep.or_discrepancy, rep.and_discrepancy)
    # Interpolation error is genuine here, not rounding.
    assert rep.or_discrepancy > 0.0 or rep.and_discrepancy > 0.0


# ---------------------------------------------------------------------------
# 2D push-forward
# ---------------------------------------------------------------------------

def _bump(x, y):
    return np.exp(-((np.log(x) - 0.1) ** 2) / 0.3 - ((np.log(y) + 0.2) ** 2) / 0.5)


def test_separable_nonaffine_push_matches_analytic_pullback():
    """(u, v) = (x², 1/y) on log axes: q(u, v) = p(√u, 1/v) / (2√u · v²)."""
    src = Grid.of(Axis.logarithmic("x", 0.5, 2.0, 401), Axis.logarithmic("y", 0.5, 4.0, 401))
    p = Density.from_callable(src, _bump)
    # Coarser image axes, so target nodes fall between source nodes.
    target = Grid.of(Axis.logarithmic("u", 0.25, 4.0, 151), Axis.logarithmic("v", 0.25, 2.0, 137))
    pushed = push_forward(p, product_map(power_map(2.0), reciprocal_map()), target)
    u, v = target.meshes()
    expected = _bump(np.sqrt(u), 1.0 / v) / (2.0 * np.sqrt(u) * v * v)
    assert np.max(np.abs(pushed.values - expected)) < 1e-4 * expected.max()
    assert integrate(pushed) == pytest.approx(integrate(p), rel=1e-4)


def _shear_case():
    src = Grid.of(Axis.linear("x", 0.5, 2.0, 61), Axis.linear("y", 0.0, 1.0, 41))
    rng = np.random.default_rng(12)
    p = Density(src, rng.uniform(0.1, 2.0, src.shape))
    target = Grid.of(src.axes[0], Axis.linear("v", 0.0, 1.5, 97))
    return p, target


def test_shear_push_is_evaluate_at_preimages_over_the_jacobian():
    p, target = _shear_case()
    m = shear_map()
    pushed = push_forward(p, m, target, outside="zero")
    u, v = (c.ravel() for c in np.meshgrid(*(ax.nodes for ax in target.axes), indexing="ij"))
    x, y = m.inverse(u, v)
    inside = y <= p.grid.axes[1].upper
    pts = np.column_stack([x[inside], y[inside]])
    expected = evaluate(p, pts) / m.det_forward(x[inside], y[inside])
    assert np.array_equal(pushed.values.ravel()[inside], expected)


def test_outside_zero_in_2d_zeroes_exactly_the_nodes_that_leave_the_box():
    p, target = _shear_case()
    pushed = push_forward(p, shear_map(), target, outside="zero")
    u, v = np.meshgrid(*(ax.nodes for ax in target.axes), indexing="ij")
    leaves = v / u > p.grid.axes[1].upper * (1.0 + 1e-9)
    assert leaves.any() and not leaves.all()
    assert np.array_equal(pushed.values == 0.0, leaves)
    with pytest.raises(DomainMismatch):
        push_forward(p, shear_map(), target)


def test_separable_factor_domain_is_checked():
    src = Grid.of(Axis.linear("x", -1.0, 1.0, 11), Axis.linear("y", 0.0, 1.0, 11))
    p = Density(src, np.ones(src.shape))
    target = Grid.of(Axis.linear("u", -1.0, 0.0, 11), Axis.linear("v", 0.0, 1.0, 11))
    with pytest.raises(DomainMismatch, match="'log' map domain"):
        push_forward(p, product_map(log_map(), affine_map(1.0)), target)


def test_separable_push_keeps_a_column_and_a_row():
    """The factors' inverses see a column of u and a row of v, never the mesh."""
    seen = []

    def factor(scale):
        def inverse(w):
            seen.append(np.shape(w))
            return w / scale
        return CoordinateMap("custom", lambda x: scale * x, inverse, lambda x: scale + 0.0 * x)

    src = Grid.of(Axis.linear("x", 0.0, 1.0, 21), Axis.linear("y", 0.0, 1.0, 31))
    p = Density(src, np.ones(src.shape))
    target = Grid.of(Axis.linear("u", 0.0, 2.0, 41), Axis.linear("v", 0.0, 3.0, 51))
    pushed = push_forward(p, product_map(factor(2.0), factor(3.0)), target)
    assert seen == [(41, 1), (1, 51)]
    np.testing.assert_allclose(pushed.values, 1.0 / 6.0, rtol=1e-15)
