"""OR/AND combination, scalars, fuzzy sets, axiom checks, information."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from inferspace import (
    Axis,
    Density,
    Grid,
    NeutralZero,
    NotNormalized,
    Realization,
    SupportViolation,
    ZeroMass,
    and_combine,
    check_axioms,
    evaluate,
    fuzzy_and,
    fuzzy_or,
    information_content,
    integrate,
    normalize,
    null_information_density,
    or_combine,
    push_forward,
    reciprocal_map,
    sample_axiom_triples,
    symmetric_kl,
    total_variation,
)

from conftest import boxcar_density, gaussian_density

ROOT_HALF = 0.7071067811865476
LN2 = 0.6931471805599453


def _density(grid, values):
    return Density(grid, np.asarray(values, dtype=float))


def test_or_adds_pointwise():
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 3))
    p = _density(grid, [1.0, 2.0, 3.0])
    q = _density(grid, [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(or_combine(p, q).values, [4.0, 4.0, 4.0])


def test_or_with_itself_doubles():
    p = gaussian_density(Axis.linear("y", 0.0, 1.0, 51), 0.5, 0.1)
    np.testing.assert_allclose(or_combine(p, p).values, 2.0 * p.values, rtol=0)


def test_or_disjoint_boxcars_mass_adds():
    ax = Axis.linear("x", 0.0, 1.0, 201)
    a = boxcar_density(ax, 0.1, 0.3)
    b = boxcar_density(ax, 0.6, 0.8)
    both = or_combine(a, b)
    assert integrate(both) == pytest.approx(2.0, rel=1e-12)
    # OR keeps each competitor's region intact.
    assert evaluate(both, np.array(0.2)) == pytest.approx(evaluate(a, np.array(0.2)))
    assert evaluate(both, np.array(0.7)) == pytest.approx(evaluate(b, np.array(0.7)))


def test_and_with_neutral_is_identity():
    rng = np.random.default_rng(17)
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 31), Axis.linear("T", 0.1, 2.0, 29))
    mu = null_information_density(grid)
    p = _density(grid, rng.uniform(0.0, 2.0, grid.shape))
    got = and_combine(p, mu, mu)
    np.testing.assert_allclose(got.values, p.values, rtol=1e-12)


def test_and_of_gaussians_narrows_to_root_half():
    """Two unit-width Gaussians intersect to width 1/sqrt(2).

    Derived in tools/oracles/gaussian_product_width.py.
    """
    ax = Axis.linear("x", -8.0, 8.0, 801)
    grid = Grid.of(ax)
    mu = null_information_density(grid)
    g = gaussian_density(ax, 0.0, 1.0)
    prod = normalize(and_combine(g, g, mu))
    x = ax.nodes
    mean = np.dot(x * prod.values, ax.weights)
    sd = np.sqrt(np.dot((x - mean) ** 2 * prod.values, ax.weights))
    assert sd == pytest.approx(ROOT_HALF, abs=1e-3)


def test_and_disjoint_is_contradiction():
    ax = Axis.linear("x", 0.0, 1.0, 201)
    grid = Grid.of(ax)
    mu = null_information_density(grid)
    a = boxcar_density(ax, 0.1, 0.3)
    b = boxcar_density(ax, 0.6, 0.8)
    meet = and_combine(a, b, mu)
    assert np.all(meet.values == 0.0)
    with pytest.raises(ZeroMass):
        normalize(meet)


def _and_reference(p, q, mu):
    """The AND by its formula: p·q/μ, +0.0 where μ = 0 and p·q = 0."""
    num = p.values * q.values
    zero_mu = mu.values == 0.0
    if np.any(zero_mu & (num > 0.0)):
        raise NeutralZero("product is positive where the neutral density vanishes")
    out = np.zeros_like(num)
    np.divide(num, mu.values, out=out, where=~zero_mu)
    return out


# Density values with exact zeros of both signs among them.
_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-300, 1e3))


@settings(max_examples=200)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=2), st.data())
def test_and_matches_its_formula_bit_for_bit(shape, data):
    """and_combine gives the formula's bits, μ's zero nodes included, and
    raises NeutralZero exactly where the formula has no limit."""
    grid = Grid.of(*(Axis.linear(name, 0.0, 1.0, n) for name, n in zip("xy", shape)))
    p, q, mu = (Density(grid, data.draw(hnp.arrays(np.float64, grid.shape, elements=_VALUES)))
                for _ in range(3))
    try:
        expected = _and_reference(p, q, mu)
    except NeutralZero:
        with pytest.raises(NeutralZero):
            and_combine(p, q, mu)
        return
    got = and_combine(p, q, mu).values
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("lam", [2.0, 3.0, 5.0])
def test_scalar_axioms(lam):
    rng = np.random.default_rng(int(lam))
    grid = Grid.of(Axis.logarithmic("x", 0.2, 5.0, 41))
    mu = null_information_density(grid)
    p = _density(grid, rng.uniform(0.0, 1.5, 41))
    q = _density(grid, rng.uniform(0.0, 1.5, 41))

    def weighted(d):
        return d.with_values(lam * d.values)

    lhs = weighted(or_combine(p, q))
    rhs = or_combine(weighted(p), weighted(q))
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)
    lhs = weighted(and_combine(p, q, mu))
    rhs = and_combine(weighted(p), q, mu)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)
    rhs = and_combine(p, weighted(q), mu)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)


def test_fuzzy_or_and_examples():
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 4))
    a = _density(grid, [0.2, 0.8, 1.0, 0.0])
    b = _density(grid, [0.5, 0.3, 1.0, 0.0])
    np.testing.assert_array_equal(fuzzy_or(a, b).values, [0.5, 0.8, 1.0, 0.0])
    np.testing.assert_array_equal(fuzzy_and(a, b).values, [0.2, 0.3, 1.0, 0.0])
    ones = _density(grid, np.ones(4))
    np.testing.assert_array_equal(fuzzy_and(a, ones).values, a.values)


def test_axioms_pass_both_realizations():
    grid = Grid.of(Axis.logarithmic("x", 0.1, 10.0, 21), Axis.linear("y", 0.0, 1.0, 19))
    mu = null_information_density(grid)
    report = check_axioms(
        Realization.sum_product(mu), sample_axiom_triples(grid, 100, 2024), tol=1e-12
    )
    assert report.all_passed, report.as_dict()
    report = check_axioms(
        Realization.max_min(grid),
        sample_axiom_triples(grid, 100, 2025, grades=True),
        tol=1e-12,
    )
    assert report.all_passed, report.as_dict()


def test_broken_product_fails_neutral_element():
    grid = Grid.of(Axis.logarithmic("x", 0.1, 10.0, 21), Axis.linear("y", 0.0, 1.0, 19))
    mu = null_information_density(grid)
    report = check_axioms(
        Realization.broken_product(mu), sample_axiom_triples(grid, 20, 7), tol=1e-12
    )
    failed = {c.name for c in report.checks if not c.passed}
    assert "neutral_element" in failed


def test_information_of_reference_is_zero():
    grid = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 41), Axis.linear("T", 0.1, 2.0, 33))
    mu = null_information_density(grid)
    assert information_content(normalize(mu), mu) == pytest.approx(0.0, abs=1e-9)


def test_information_half_box_is_ln2():
    ax = Axis.linear("x", 0.0, 1.0, 100)
    grid = Grid.of(ax)
    mu = null_information_density(grid)
    half = boxcar_density(ax, -1.0, 0.4999999)
    assert integrate(half) == pytest.approx(1.0)
    assert information_content(half, mu) == pytest.approx(LN2, abs=1e-6)


@pytest.mark.parametrize(
    "case, error, message",
    [("unnormalized", NotNormalized, "needs a normalized density, mass is 2.0"),
     ("mu-zero", ZeroMass, "the null-information density has mass 0.0"),
     ("mu-vanishes", SupportViolation, "p is positive where the null-information density")],
)
def test_information_content_refusals(case, error, message):
    """A p that is not normalized, a μ with no mass, and a p positive where
    μ is 0 are each refused."""
    grid = Grid.of(Axis.linear("x", 0.0, 1.0, 11))
    mu = null_information_density(grid)
    p = normalize(mu)
    if case == "unnormalized":
        p = _density(grid, 2.0 * p.values)
    elif case == "mu-zero":
        mu = _density(grid, np.zeros(11))
    else:
        mu = _density(grid, np.where(np.arange(11) == 5, 0.0, 1.0))
    with pytest.raises(error, match=message):
        information_content(p, mu)


def test_information_invariant_under_pushforward():
    ax = Axis.logarithmic("T", 0.1, 10.0, 301)
    grid = Grid.of(ax)
    mu = null_information_density(grid)
    p = normalize(
        Density.from_callable(
            grid, lambda t: np.exp(-((np.log(t)) ** 2) / (2 * 0.4**2)) / t
        )
    )
    before = information_content(p, mu)
    m = reciprocal_map()
    target = Grid.of(m.image_axis(ax, name="nu"))
    after = information_content(
        push_forward(p, m, target), push_forward(mu, m, target)
    )
    assert after == pytest.approx(before, abs=1e-6)


def test_total_variation_basics():
    ax = Axis.linear("x", 0.0, 1.0, 201)
    a = boxcar_density(ax, 0.1, 0.3)
    b = boxcar_density(ax, 0.6, 0.8)
    assert total_variation(a, a) == 0.0
    assert total_variation(a, b) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_kl_properties():
    ax = Axis.linear("x", -6.0, 6.0, 401)
    a = gaussian_density(ax, 0.0, 1.0)
    b = gaussian_density(ax, 0.5, 1.0)
    assert symmetric_kl(a, a) == pytest.approx(0.0, abs=1e-12)
    assert symmetric_kl(a, b) > 0.0
    assert symmetric_kl(a, b) == pytest.approx(symmetric_kl(b, a), rel=1e-12)


@st.composite
def _grids(draw):
    axes = []
    for name in ("x", "y")[: draw(st.integers(1, 2))]:
        lower = draw(st.floats(0.01, 100.0))
        upper = lower * draw(st.floats(1.01, 1e3))
        make = draw(st.sampled_from([Axis.linear, Axis.logarithmic]))
        axes.append(make(name, lower, upper, draw(st.integers(2, 9))))
    return Grid.of(*axes)


@settings(max_examples=60)
@given(_grids(), st.data())
def test_axioms_hold_on_random_grids(grid, data):
    """OR/AND commutativity, associativity, distributivity and μ neutrality,
    with a random positive μ, and the max/min realization beside it."""
    mu = Density(grid, data.draw(hnp.arrays(np.float64, grid.shape, elements=st.floats(0.1, 10.0))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    report = check_axioms(Realization.sum_product(mu), sample_axiom_triples(grid, 4, seed))
    assert report.all_passed, report.as_dict()
    grades = sample_axiom_triples(grid, 4, seed, grades=True)
    assert check_axioms(Realization.max_min(grid), grades).all_passed
