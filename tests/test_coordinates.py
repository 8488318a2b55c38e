"""Coordinate maps, Jacobians, push-forwards, and invariance checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from inferspace import (
    LINEAR,
    LOGARITHMIC,
    Axis,
    CoordinateMap,
    Density,
    DomainMismatch,
    Grid,
    GridMismatch,
    InvalidGrid,
    SingularJacobian,
    affine_map,
    and_combine,
    evaluate,
    exp_map,
    integrate,
    log_map,
    normalize,
    null_information_density,
    or_combine,
    power_map,
    product_map,
    push_forward,
    reciprocal_map,
    shear_map,
    verify_invariance,
)
from inferspace.algebra import _rel_diff
from inferspace.coordinates import _lattice_axis, pull_back

from conftest import gaussian_density


def test_reciprocal_twice_is_identity():
    m = reciprocal_map()
    x = np.geomspace(0.1, 10.0, 50)
    np.testing.assert_allclose(m.forward(m.forward(x)), x, rtol=1e-12)


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


def test_two_node_axis_has_an_image_axis_under_any_map():
    """Two images always form a one-step lattice."""
    ax = Axis.logarithmic("T", 0.1, 10.0, 2)
    for m in (affine_map(2.0, 1.0), affine_map(-2.0, 1.0), exp_map(), power_map(0.5)):
        img = m.image_axis(ax, name="y")
        assert img.count == 2
        np.testing.assert_array_equal(img.nodes, np.sort(m.forward(ax.nodes)))


def test_image_axis_refuses_images_that_overflow():
    """exp(1000) is not a float64: no lattice, and no overflow warning."""
    with pytest.raises(DomainMismatch, match="lie on no uniform linear or log lattice"):
        exp_map().image_axis(Axis.logarithmic("L", 1.0, 1000.0, 11))


def _lattice_axis_step_by_step(name, images, log_first, most):
    """``_lattice_axis`` with a fresh array at each step: the oracle that
    the search in two work buffers must match."""
    s = np.sort(np.asarray(images, dtype=float).ravel())
    if not (np.all(np.isfinite(s)) and s[-1] > s[0]):
        return None
    spacings = [LINEAR]
    if s[0] > 0.0:
        spacings.insert(0 if log_first else 1, LOGARITHMIC)
    for spacing in spacings:
        t = np.log(s) if spacing == LOGARITHMIC else s
        lo, span = t[0], t[-1] - t[0]
        gaps = np.diff(t)
        gaps = gaps[gaps > 1e-9 * max(span, abs(t[0]), abs(t[-1]))]
        if gaps.size == 0:
            continue
        steps = round(span / float(gaps.min()))
        if steps < most:
            k = (t - lo) * (steps / span)
            if float(np.max(np.abs(k - np.round(k)))) <= 1e-6:
                return Axis(name, spacing, float(s[0]), float(s[-1]), steps + 1)
    return None


@st.composite
def _lattice_images(draw):
    """Images on a linear or log lattice, with repeated points and rounding
    noise; points on no lattice; sets with a NaN or an infinity; and
    two-point sets."""
    kind = draw(st.sampled_from(["linear", "log", "none", "non-finite", "two"]))
    size = draw(st.integers(1, 60))
    if kind in ("linear", "log"):
        count = draw(st.integers(2, 40))
        at = draw(hnp.arrays(int, size, elements=st.integers(0, count - 1)))
        t = draw(st.floats(-5.0, 5.0)) + at * draw(st.floats(1e-3, 2.0))
        images = np.exp(t) if kind == "log" else t
        noise = draw(hnp.arrays(float, size, elements=st.floats(-1e-10, 1e-10)))
        return images * (1.0 + noise)
    if kind == "two":
        size = 2
    images = draw(hnp.arrays(float, size, elements=st.floats(-1e3, 1e3)))
    if kind == "non-finite":
        images[draw(st.integers(0, size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return images


@settings(max_examples=300, deadline=None)
@given(images=_lattice_images(), log_first=st.booleans(), most=st.integers(1, 120))
def test_lattice_search_in_work_buffers_finds_the_same_axis(images, log_first, most):
    """The search writes each step into two work buffers with the same
    arithmetic in the same order, so it returns the same axis, or none,
    as a fresh array per step does."""
    expected = _lattice_axis_step_by_step("v", images, log_first, most)
    assert _lattice_axis("v", images, log_first, most) == expected


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


def test_a_map_pushes_only_densities_of_its_dimension():
    d = gaussian_density(Axis.linear("x", 0.0, 1.0, 11), 0.5, 0.1)
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 11), Axis.linear("y", 0.0, 1.0, 11))
    joint = Density(grid, np.ones(grid.shape))
    with pytest.raises(InvalidGrid, match="1D maps push 1D densities"):
        push_forward(joint, affine_map(2.0), grid)
    with pytest.raises(InvalidGrid, match="2D maps push 2D densities"):
        push_forward(d, shear_map(), d.grid)


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


# ---------------------------------------------------------------------------
# one pull-back, many densities
# ---------------------------------------------------------------------------

def _pull_back_case(name):
    """A source grid, a map, a target grid whose nodes all pull back inside
    the box, and a wider one whose nodes partly do not."""
    if name == "1d":
        src = Grid.of(Axis.linear("x", -1.0, 3.0, 41))
        m = affine_map(2.5, -0.5)
        tight, wide = Axis.linear("y", -2.0, 7.0, 53), Axis.linear("y", -4.0, 9.0, 53)
        return src, m, Grid.of(tight), Grid.of(wide)
    if name == "separable":
        src = Grid.of(Axis.logarithmic("x", 0.5, 2.0, 31), Axis.logarithmic("y", 0.5, 2.0, 29))
        m = product_map(power_map(2.0), reciprocal_map())
        u = Axis.logarithmic("u", 0.25, 4.0, 37)
        return (src, m, Grid.of(u, Axis.logarithmic("v", 0.5, 2.0, 43)),
                Grid.of(u, Axis.logarithmic("v", 0.3, 3.0, 43)))
    src = Grid.of(Axis.linear("x", 0.5, 2.0, 61), Axis.linear("y", 0.0, 1.0, 41))
    u = src.axes[0]
    return (src, shear_map(), Grid.of(u, Axis.linear("v", 0.0, 0.5, 97)),
            Grid.of(u, Axis.linear("v", 0.0, 1.5, 97)))


@pytest.mark.parametrize("outside", ["error", "zero"])
@pytest.mark.parametrize("name", ["1d", "separable", "shear"])
def test_one_pull_back_pushes_each_density_as_push_forward_does(name, outside):
    src, m, tight, wide = _pull_back_case(name)
    target = tight if outside == "error" else wide
    rng = np.random.default_rng(31)
    densities = [Density(src, rng.uniform(0.1, 2.0, src.shape)) for _ in range(3)]
    push = pull_back(src, m, target, outside=outside)
    for d in densities:
        pushed = push.apply(d)
        expected = push_forward(d, m, target, outside=outside)
        assert np.array_equal(pushed.values, expected.values)
        assert pushed.grid == expected.grid == target
    if outside == "zero":
        assert np.any(pushed.values == 0.0)
    finer = Grid.of(*(replace(ax, count=ax.count + 1) for ax in src.axes))
    with pytest.raises(GridMismatch):
        push.apply(Density(finer, np.ones(finer.shape)))


# ---------------------------------------------------------------------------
# affine invariance on random grids
# ---------------------------------------------------------------------------

@st.composite
def _affine_axis_and_map(draw, name):
    """A linear or log axis and an affine map that carries it onto a
    linear/log image axis: any a ≠ 0 and b on a linear axis, a pure positive
    rescale on a log one."""
    spacing = draw(st.sampled_from([LINEAR, LOGARITHMIC]))
    count = draw(st.integers(2, 40))
    a = draw(st.floats(0.1, 10.0))
    if spacing == LINEAR:
        lower = draw(st.floats(-10.0, 10.0))
        axis = Axis.linear(name, lower, lower + draw(st.floats(0.1, 10.0)), count)
        return axis, affine_map(draw(st.sampled_from([-1.0, 1.0])) * a, draw(st.floats(-10.0, 10.0)))
    lower = draw(st.floats(0.01, 100.0))
    axis = Axis.logarithmic(name, lower, lower * draw(st.floats(1.5, 1e3)), count)
    return axis, affine_map(a)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ndim=st.integers(1, 2))
def test_or_and_commute_with_an_affine_push_on_its_node_matched_grid(data, ndim):
    """On the image grid whose nodes are the images of the source nodes, an
    affine push moves node values without interpolating them, so pushing
    commutes with OR and AND."""
    drawn = [data.draw(_affine_axis_and_map(name)) for name in ("x", "y")[:ndim]]
    src = Grid.of(*(ax for ax, _ in drawn))
    target = Grid.of(*(m.image_axis(ax, name=f"{ax.name}'") for ax, m in drawn))
    maps = [m for _, m in drawn]
    m = maps[0] if ndim == 1 else product_map(*maps)
    p, q, mu = (
        Density(src, data.draw(hnp.arrays(np.float64, src.shape, elements=st.floats(0.1, 10.0))))
        for _ in range(3)
    )
    push = pull_back(src, m, target).apply
    or_gap = _rel_diff(push(or_combine(p, q)), or_combine(push(p), push(q)))
    and_gap = _rel_diff(push(and_combine(p, q, mu)), and_combine(push(p), push(q), push(mu)))
    # The push is linear, so OR commutes with it to round-off.  The image
    # axis's nodes are rounded, so their preimages miss the source nodes by
    # up to ~1e-10 of a cell, and the AND, which is not linear, sees that
    # miss times the spread of the values (found up to 5e-12 over 2000 draws).
    assert or_gap <= 1e-12
    assert and_gap <= 1e-9
