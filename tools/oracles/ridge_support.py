"""Where the analytic fall ridge can be nonzero in float64.

The ridge is exp(-z) times 1/(LT) in the linear frame (a constant in the
log frame), with z = (zeta/sigma)^2 / 2 and zeta = ln(L / (g T^2 / 2)) or,
in the log frame, lambda - ln(g/2) - 2 tau.  float64's exp(-z) is exactly
0.0 once z passes a threshold a little above 745.13, so a node with
|zeta| > sigma sqrt(2 * 746) holds an exact zero: there z >= 746 less a few
rounding steps of the division and the square.

zeta is separable, zeta = a - ln(g/2) - 2 b with a = ln L and b = ln T, so
on each row of the grid the nodes that can be nonzero form one range of
the other axis.  ``analytic_fall_theory`` finds that range with
``searchsorted`` on the separable form and widens it by one node on each
side, for the rounding between the separable zeta and the one computed from
L / (g T^2 / 2).

The script prints float64's exp threshold as found on this numpy, checks
that sigma sqrt(2 * 746) clears it for sigmas from 1e-300 to 1e300, and then
evaluates the ridge at every node of several grids over a sigma sweep and
checks that every node outside the widened row ranges is exactly 0.
"""

import math

import numpy as np

REACH = math.sqrt(2.0 * 746.0)


def exp_threshold() -> tuple[float, float]:
    """The largest z with exp(z) == 0.0 and the smallest with exp(z) > 0."""
    zero, positive = -800.0, -700.0
    while np.nextafter(zero, positive) != positive:
        mid = 0.5 * (zero + positive)
        if mid in (zero, positive):
            break
        if np.exp(mid) == 0.0:
            zero = mid
        else:
            positive = mid
    return zero, positive


def ridge(lv, tv, sigma, g, frame):
    """The ridge's formula at every node, as the package evaluates it."""
    with np.errstate(all="ignore"):
        if frame == "linear":
            zeta = np.log(lv / (0.5 * g * tv * tv))
            return np.exp(-0.5 * np.square(zeta / sigma)) * (1.0 / (lv * tv))
        zeta = lv - math.log(0.5 * g) - 2.0 * tv
        return np.exp(-0.5 * np.square(zeta / sigma))


def banded(row_coord, col_coord, length_first, sigma, g):
    """Mask of the nodes in each row's widened range."""
    p, q = (1.0, -2.0) if length_first else (-2.0, 1.0)
    reach = sigma * REACH
    centre = math.log(0.5 * g) - p * row_coord
    ends = ((centre - reach) / q, (centre + reach) / q)
    lo = np.searchsorted(col_coord, np.minimum(*ends), side="left") - 1
    hi = np.searchsorted(col_coord, np.maximum(*ends), side="right") + 1
    cols = np.arange(col_coord.size)
    return (cols >= lo[:, None]) & (cols < hi[:, None])


def check_grid(name, l_nodes, t_nodes, frame, length_first, sigmas, g=9.81):
    """Largest value outside the bands over the sigma sweep (must be 0)."""
    coord = (lambda x: x) if frame == "log" else np.log
    worst = 0.0
    kept = 0
    for sigma in sigmas:
        if length_first:
            vals = ridge(l_nodes[:, None], t_nodes[None, :], sigma, g, frame)
            mask = banded(coord(l_nodes), coord(t_nodes), True, sigma, g)
        else:
            vals = ridge(l_nodes[None, :], t_nodes[:, None], sigma, g, frame)
            mask = banded(coord(t_nodes), coord(l_nodes), False, sigma, g)
        outside = float(np.max(vals[~mask], initial=0.0))
        assert outside == 0.0, (name, sigma, outside)
        worst = max(worst, outside)
        kept += int(np.count_nonzero(mask))
    print(f"{name:<34} {len(sigmas)} sigmas: largest value outside the bands {worst!r}, "
          f"{kept / (len(sigmas) * vals.size):.1%} of nodes evaluated")


def main() -> None:
    zero, positive = exp_threshold()
    print(f"exp(z) == 0.0 for z <= {zero!r}; exp({positive!r}) = {np.exp(positive)!r}")
    # z at the first zeta past the reach, through the same division and square
    worst_z = -math.inf
    for sigma in np.logspace(-300, 300, 6001):
        zeta = np.nextafter(sigma * REACH, math.inf)
        z = -0.5 * np.square(zeta / sigma)
        worst_z = max(worst_z, float(z))
        assert np.exp(z) == 0.0, sigma
    print(f"sigma sqrt(2*746) for sigma in [1e-300, 1e300]: z <= {worst_z!r}, "
          f"{zero - worst_z:.3f} past the threshold")

    sigmas = [1e-300, 1e-12, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 0.158, 3.0, 1e300]
    t_box = (0.45152364098573, 1.4278431229270645)
    check_grid("default 1401^2, log axes", np.geomspace(1.0, 10.0, 1401),
               np.geomspace(*t_box, 1401), "linear", True, sigmas)
    check_grid("(T, L) order, 301 x 257", np.geomspace(1.0, 10.0, 301),
               np.geomspace(*t_box, 257), "linear", False, sigmas)
    check_grid("ridge leaving the box, 401 x 389", np.geomspace(1.0, 10.0, 401),
               np.geomspace(0.3, 2.0, 389), "linear", True, sigmas)
    check_grid("linear axes, 301 x 257", np.linspace(0.5, 20.0, 301),
               np.linspace(0.25, 2.5, 257), "linear", True, sigmas)
    check_grid("97 T nodes, 1401 x 97", np.geomspace(1.0, 10.0, 1401),
               np.geomspace(*t_box, 97), "linear", True, sigmas)
    check_grid("log frame, 701 x 653", np.linspace(0.0, math.log(10.0), 701),
               np.linspace(math.log(0.4515), math.log(1.4279), 653), "log", True, sigmas)


if __name__ == "__main__":
    main()
