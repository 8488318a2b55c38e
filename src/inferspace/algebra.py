"""The OR/AND algebra on densities and its concrete realizations.

OR is pointwise addition and AND is the pointwise product divided by the
null-information density μ; together they satisfy commutativity,
associativity, distributivity, the support rules, and ``p AND μ = p``.  The
same axioms admit a second, inequivalent realization on membership grades
(max/min with constant neutral 1), which is kept here as a witness that the
axioms do not pin down a unique calculus.  ``check_axioms`` verifies either
realization on sampled triples, and a deliberately broken realization
(product without /μ) is provided as a negative control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import Density, _mass, integrate, require_same_space
from .errors import (
    ConfigInvalid,
    EmptyInput,
    NegativeScalar,
    NeutralZero,
    NotNormalized,
    SupportViolation,
    ZeroMass,
)
from .grids import Grid

SUM_PRODUCT = "sum_product"
MAX_MIN = "max_min"
PRODUCT_NO_MU = "product_no_mu"  # negative control: AND without /μ
# Nodes per chunk of ``symmetric_kl``'s terms (64 KiB of float64).
_KL_CHUNK = 1 << 13


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def or_combine(p: Density, q: Density, *more: Density) -> Density:
    """Disjunction: pointwise sum.  Mass is additive; never renormalizes."""
    acc = None
    for d in (p, q, *more):
        require_same_space(p, d)
        acc = d.values if acc is None else acc + d.values
    return p.with_values(acc)


def and_combine(p: Density, q: Density, mu: Density) -> Density:
    """Conjunction: pointwise product divided by the null-information μ.

    Where μ = 0 and p·q = 0 the limit 0 is used; where μ = 0 but p·q > 0
    the conjunction is undefined and NeutralZero is raised.
    """
    require_same_space(p, q)
    require_same_space(p, mu)
    num = p.values * q.values
    mu_v = mu.values
    zero_mu = mu_v == 0.0
    if np.any(zero_mu & (num > 0.0)):
        n_bad = int(np.count_nonzero(zero_mu & (num > 0.0)))
        raise NeutralZero(
            f"product is positive on {n_bad} node(s) where the neutral density vanishes"
        )
    out = np.zeros_like(num)
    ok = ~zero_mu
    np.divide(num, mu_v, out=out, where=ok)
    return p.with_values(out)


def scale(lam: float, p: Density) -> Density:
    """Scalar weighting of a state; weights are nonnegative by the algebra."""
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise NegativeScalar(f"scalar weight must be finite and >= 0, got {lam!r}")
    return p.with_values(lam * p.values)


def fuzzy_or(p: Density, q: Density) -> Density:
    """Pointwise maximum (membership-grade disjunction)."""
    require_same_space(p, q)
    return p.with_values(np.maximum(p.values, q.values))


def fuzzy_and(p: Density, q: Density) -> Density:
    """Pointwise minimum (membership-grade conjunction)."""
    require_same_space(p, q)
    return p.with_values(np.minimum(p.values, q.values))


# ---------------------------------------------------------------------------
# information content
# ---------------------------------------------------------------------------

def information_content(p: Density, mu: Density) -> float:
    """Shannon information of ``p`` relative to the null-information μ:
    I = ∫ p ln(p / μ̂) with μ̂ the box-normalized μ.

    The μ-relative form is what survives coordinate changes; the bare
    ∫ p ln p does not.  ``p`` must arrive normalized, to 1e-6; μ is
    normalized here.  Nodes with p = 0 contribute 0 (the 0·ln 0 limit).
    """
    require_same_space(p, mu)
    mass = integrate(p)
    if abs(mass - 1.0) > 1e-6:
        raise NotNormalized(f"information content needs a normalized density, mass is {mass!r}")
    mu_mass = integrate(mu)
    if not np.isfinite(mu_mass) or mu_mass <= 0.0:
        raise ZeroMass(f"the null-information density has mass {mu_mass!r}")
    pv = p.values
    mv = mu.values / mu_mass
    pos = pv > 0.0
    if np.any(pos & (mv == 0.0)):
        raise SupportViolation("p is positive where the null-information density vanishes")
    terms = np.zeros_like(pv)
    terms[pos] = pv[pos] * np.log(pv[pos] / mv[pos])
    return _mass(terms, p.grid.weight_arrays())


# ---------------------------------------------------------------------------
# density comparison
# ---------------------------------------------------------------------------

def total_variation(p: Density, q: Density) -> float:
    """Total variation distance ½∫|p − q| between two normalized densities."""
    require_same_space(p, q)
    return 0.5 * _mass(np.abs(p.values - q.values), p.grid.weight_arrays())


def symmetric_kl(p: Density, q: Density) -> float:
    """Symmetrized Kullback–Leibler divergence with a uniform mixture floor.

    Both densities are mixed with a normalized uniform component of weight
    1e-6 before the divergence is taken, so empty cells on either side
    stay finite; the result is an upper-bounded proxy that still vanishes iff
    the densities agree.  The terms are computed ``_KL_CHUNK`` nodes at a
    time into one grid-sized array, so no other temporary is grid-sized.
    """
    require_same_space(p, q)
    floor = 1e-6 * (1.0 / p.grid.box_volume)
    terms = np.empty(p.values.shape)
    flat_p, flat_q, flat_terms = (a.reshape(-1) for a in (p.values, q.values, terms))
    for start in range(0, flat_terms.size, _KL_CHUNK):
        part = slice(start, start + _KL_CHUNK)
        pf = np.add(flat_p[part], floor, out=flat_terms[part])
        pf /= 1.0 + 1e-6
        qf = flat_q[part] + floor
        qf /= 1.0 + 1e-6
        ratio = np.divide(pf, qf)
        pf -= qf
        pf *= np.log(ratio, out=ratio)
    return _mass(terms, p.grid.weight_arrays())


# ---------------------------------------------------------------------------
# realizations and the axiom checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Realization:
    """A concrete (OR, AND, neutral) triple satisfying — or deliberately
    breaking — the algebra's axioms."""

    tag: str
    neutral: Density

    def combine_or(self, p: Density, q: Density) -> Density:
        if self.tag == MAX_MIN:
            return fuzzy_or(p, q)
        return or_combine(p, q)

    def combine_and(self, p: Density, q: Density) -> Density:
        if self.tag == MAX_MIN:
            return fuzzy_and(p, q)
        if self.tag == PRODUCT_NO_MU:
            require_same_space(p, q)
            return p.with_values(p.values * q.values)
        return and_combine(p, q, self.neutral)

    @staticmethod
    def sum_product(mu: Density) -> "Realization":
        return Realization(SUM_PRODUCT, mu)

    @staticmethod
    def max_min(grid: Grid) -> "Realization":
        ones = Density.from_callable(grid, lambda *m: np.ones(grid.shape))
        return Realization(MAX_MIN, ones)

    @staticmethod
    def broken_product(mu: Density) -> "Realization":
        """Negative control: claims μ as neutral but multiplies without /μ,
        so the neutral-element axiom must fail on non-constant μ."""
        return Realization(PRODUCT_NO_MU, mu)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    max_discrepancy: float


@dataclass(frozen=True)
class AxiomReport:
    realization: str
    triples: int
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "realization": self.realization,
            "triples": self.triples,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "max_discrepancy": c.max_discrepancy}
                for c in self.checks
            ],
        }


def _rel_diff(a: Density, b: Density) -> float:
    peak = max(float(np.max(np.abs(a.values))), float(np.max(np.abs(b.values))), 1e-300)
    return float(np.max(np.abs(a.values - b.values))) / peak


def check_axioms(
    realization: Realization,
    triples: Sequence[tuple[Density, Density, Density]],
    tol: float = 1e-12,
) -> AxiomReport:
    """Verify the algebra axioms on sampled triples.

    Equality axioms are scored by the maximum pointwise discrepancy relative
    to the peak value; support axioms are scored by the number of violating
    nodes (so any nonzero count fails regardless of ``tol``).  An empty
    batch raises EmptyInput rather than passing vacuously, and a ``tol`` that
    is not finite or is below 0, which would fail or pass every check
    whatever its discrepancy, raises ConfigInvalid.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigInvalid(f"tol must be finite and >= 0, got {tol!r}")
    if len(triples) == 0:
        raise EmptyInput("no triples to check; an empty batch would pass vacuously")
    eq_names = (
        "or_commutative",
        "or_associative",
        "and_commutative",
        "and_associative",
        "distributive",
        "neutral_element",
    )
    worst = {name: 0.0 for name in eq_names}
    support_bad = {"or_support": 0, "and_support": 0}

    for p, q, r in triples:
        v_or = realization.combine_or
        v_and = realization.combine_and
        worst["or_commutative"] = max(worst["or_commutative"], _rel_diff(v_or(p, q), v_or(q, p)))
        worst["or_associative"] = max(
            worst["or_associative"], _rel_diff(v_or(v_or(p, q), r), v_or(p, v_or(q, r)))
        )
        worst["and_commutative"] = max(
            worst["and_commutative"], _rel_diff(v_and(p, q), v_and(q, p))
        )
        worst["and_associative"] = max(
            worst["and_associative"], _rel_diff(v_and(v_and(p, q), r), v_and(p, v_and(q, r)))
        )
        worst["distributive"] = max(
            worst["distributive"],
            _rel_diff(v_and(p, v_or(q, r)), v_or(v_and(p, q), v_and(p, r))),
        )
        worst["neutral_element"] = max(
            worst["neutral_element"], _rel_diff(v_and(p, realization.neutral), p)
        )

        both = v_or(p, q)
        support_bad["or_support"] += int(
            np.count_nonzero((both.values != 0.0) & (p.values == 0.0) & (q.values == 0.0))
        ) + int(np.count_nonzero((both.values == 0.0) & ((p.values != 0.0) | (q.values != 0.0))))
        meet = v_and(p, q)
        support_bad["and_support"] += int(
            np.count_nonzero((meet.values != 0.0) & ((p.values == 0.0) | (q.values == 0.0)))
        )

    checks = [AxiomCheck(name, worst[name] <= tol, worst[name]) for name in eq_names]
    checks += [
        AxiomCheck(name, count == 0, float(count)) for name, count in support_bad.items()
    ]
    return AxiomReport(realization.tag, len(triples), tuple(checks))


def sample_axiom_triples(
    grid: Grid,
    n: int,
    seed: int,
    grades: bool = False,
) -> list[tuple[Density, Density, Density]]:
    """Random density triples for the axiom checker.

    A quarter of the nodes is zeroed in each sample so the support
    axioms are exercised on genuine zeros.  With ``grades=True`` values are
    membership grades in [0, 1] (what the max/min realization models).
    """
    if seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(n):
        ds = []
        for _ in range(3):
            vals = rng.uniform(0.0, 1.0 if grades else 10.0, size=grid.shape)
            mask = rng.uniform(size=grid.shape) < 0.25
            vals[mask] = 0.0
            ds.append(Density(grid, vals))
        triples.append(tuple(ds))
    return triples
