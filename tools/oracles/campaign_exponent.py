"""Rounding bound of a campaign block's gaussian exponents, expanded as a rank-3 product.

A campaign evaluates the gaussian centre factors f = exp(-t^2/2), with
t = (x - c)/w, for a block of k centres c on n nodes x at once.  With the
block's reference m, the midpoint of its centres, d = (x - m)/w and
e = (c - m)/w, the exponent -(d - e)^2/2 is -d^2/2 + d e - e^2/2: one
(k x 3)(3 x n) product of the rows [1, e, e^2] and the columns
[-d^2/2, d, -1/2], then one exp.  The three terms grow as the square of the
distances from m while their sum stays near 0 where f matters, so the
rounding grows with E, the block's largest |e|, its half-spread in widths.

With u = 2^-53 and d, e the exact (x - m)/w and (c - m)/w for the float m
(any float serves as the reference, so m itself is exact), to first order
in u:

1. d and e are computed with two roundings each, a subtraction and a
   division: |d' - d| <= 2u|d| and |e' - e| <= 2u|e|.  So
   |(d' - e') - t| <= 2u(|d| + |e|), and -(d' - e')^2/2 is within
   2u|t|(|d| + |e|) of -t^2/2.
2. The three terms -fl(d'^2)/2, e'd' and -fl(e'^2)/2 carry one rounding
   each, and their sum two more, so the product is within
   3u(|T1| + |T2| + |T3|) = 3u(|d'| + |e'|)^2/2 of -(d' - e')^2/2.
3. exp adds one rounding of its result.

With |d| + |e| <= |t| + 2E, the factor is within
f [1.5(|t| + 2E)^2 + 2|t|(|t| + 2E) + 1] u of the exact exp(-t^2/2), and
over t that is at most B(E) u, with B(E) = max_t exp(-t^2/2)[...].  The
script checks that B(E) <= 6E^2 + 10E + 4 on a fine grid of E up to 16: the
bound ``priors.gaussian_factor_blocks`` documents, relative to the factor's
largest value, 1.  The direct evaluation, t' = fl(fl(x - c)/w) squared,
halved and exponentiated, is within exp(-t^2/2)(2.5 t^2 + 1) u, at most
2.3u.  A block with E above 8 is evaluated directly, so the expansion's
rounding stays below B(8) u, about 4.4e-14.

The sweep draws blocks of centres with half-spreads up to 8 widths on
nodes up to 20 widths beyond them, evaluates both ways in float64 in the
library's order of operations, and compares each factor with exp(-t^2/2)
computed by ``decimal`` to 40 digits from the same float inputs.  It
prints the worst error per unit of E, in units of 2^-53, and how far the
errors rise above 2E^2, and asserts the bound.
"""

from decimal import Decimal, localcontext

import numpy as np

U = 2.0**-53


def envelope(t, half):
    """The first-order error of the expanded factor at distance t, in units of u."""
    reach = np.abs(t) + 2.0 * half
    return np.exp(-0.5 * t * t) * (1.5 * reach * reach + 2.0 * np.abs(t) * reach + 1.0)


def bound(half):
    return 6.0 * half * half + 10.0 * half + 4.0


def expanded(x, c, w):
    """The rank-3 product and exp, in the order ``gaussian_factor_blocks`` rounds."""
    low = c.min()
    ref = low + 0.5 * (c.max() - low)
    rows = np.empty((c.size, 3))
    rows[:, 0] = 1.0
    rows[:, 1] = (c - ref) / w
    rows[:, 2] = rows[:, 1] * rows[:, 1]
    d = (x - ref) / w
    cols = np.stack([-0.5 * (d * d), d, np.full(x.size, -0.5)])
    return np.exp(rows @ cols)


def direct(x, c, w):
    return np.exp(-0.5 * np.square((x - c[:, None]) / w))


def exact(x, c, w):
    with localcontext() as ctx:
        ctx.prec = 40
        wd = Decimal(w)
        return np.array([
            [float((-(((Decimal(xi) - Decimal(ci)) / wd) ** 2) / 2).exp()) for xi in x]
            for ci in c
        ])


def main() -> None:
    halves = np.linspace(0.0, 16.0, 1601)
    t = np.linspace(0.0, 40.0, 40001)
    worst_margin = min(bound(h) - envelope(t, h).max() for h in halves)
    assert worst_margin > 0.0, worst_margin
    print(f"B(E) <= 6E^2 + 10E + 4 for E in [0, 16]; least margin {worst_margin:.3f} u")
    print(f"B(8) = {envelope(t, 8.0).max():.1f} u = {envelope(t, 8.0).max() * U:.3g}; "
          f"direct evaluation <= {(np.exp(-0.5 * t * t) * (2.5 * t * t + 1.0)).max():.3f} u")

    rng = np.random.default_rng(2026)
    worst = {}
    worst_direct = excess = 0.0
    for _ in range(400):
        w = 10.0 ** rng.uniform(-3.0, 1.0)
        m = rng.uniform(-50.0, 50.0)
        half = rng.uniform(0.0, 8.0)
        c = m + w * half * rng.uniform(-1.0, 1.0, int(rng.integers(1, 12)))
        x = np.sort(m + w * rng.uniform(-half - 20.0, half + 20.0, 40))
        f = exact(x, c, w)
        e_max = (c.max() - c.min()) / (2.0 * w)
        err = float(np.abs(expanded(x, c, w) - f).max()) / U
        assert err <= bound(e_max), (w, m, e_max, err)
        worst_direct = max(worst_direct, float(np.abs(direct(x, c, w) - f).max()) / U)
        worst[int(e_max)] = max(worst.get(int(e_max), 0.0), err)
        excess = max(excess, err - 2.0 * e_max * e_max)
    assert worst_direct <= 2.3, worst_direct
    for e in sorted(worst):
        print(f"E in [{e}, {e + 1}): worst error {worst[e]:5.1f} u, "
              f"bound at E = {e + 1}: {bound(e + 1.0):5.0f} u, 2E^2 = {2.0 * (e + 1) ** 2:4.0f} u")
    print(f"largest error - 2E^2: {excess:.1f} u; direct evaluation: worst error "
          f"{worst_direct:.1f} u")


if __name__ == "__main__":
    main()
