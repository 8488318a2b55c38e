"""Half-widths of the node window a campaign keeps for each experiment profile.

A campaign adds each experiment's profile only on a window of nodes.  Every
node it drops must hold less than 2^-53 of the profile's largest value on
the axis's nodes, so that the drop changes no float64 sum that value enters.
Each reading's window is the nodes within c -/+ half-width, in x or ln x.
The campaign evaluates a block of readings on the union of their windows,
which it finds by one binary search of the block's least c - half-width and
greatest c + half-width: a search is monotone in its key, so that union is
exactly the one that a search per reading gives.

With t the distance from the centre c in widths w, and t0 that of the node
nearest the centre (for a centre past the box, t0 = d, its distance past the
edge node in widths):

- gaussian, f = exp(-t^2/2) with t = (x - c)/w.  The largest node value is
  exp(-t0^2/2), so f < 2^-53 max exactly when t^2 > t0^2 + 2 ln 2^53.
  Half-width in x: w sqrt(t0^2 + 2 ln 2^53).
- lognormal, f = exp(-t^2/2)/x with t = (ln x - ln c)/w.  The largest node
  value is at least exp(-t0^2/2)/upper, and a node's 1/x is at most 1/lower,
  so f < 2^-53 max whenever t^2 > t0^2 + 2 ln 2^53 + 2 ln(upper/lower).
  Half-width in ln x: w sqrt(t0^2 + 2 ln 2^53 + 2 ln(upper/lower)).
- boxcar: the cells that [c - w, c + w] overlaps; nothing else is nonzero.
- noninformative: the whole axis.

A window defined around the centre alone would lose an off-box reading: its
profile's largest node value sits on the edge node, d widths away.  The t0
term keeps that node and everything within 2^-53 of it.

The script prints the half-widths for the build grid's 5% instruments, then
sweeps centres inside, straddling and past the edges of linear and
logarithmic axes and checks numerically that every dropped node is below
2^-53 of the profile's largest node value.  It skips profiles whose largest
value is below 2^53 times the smallest normal float: 2^-53 of it is
subnormal, where rounding alone can exceed it, and a profile that underflows
at every node has nothing to keep.
"""

import math

import numpy as np

T2_SLACK = 2.0 * 53.0 * math.log(2.0)


def nodes(spacing, lower, upper, count):
    if spacing == "linear":
        return np.linspace(lower, upper, count)
    return np.geomspace(lower, upper, count)


def profile(kind, x, c, w):
    if kind == "gaussian":
        return np.exp(-0.5 * ((x - c) / w) ** 2)
    return np.exp(-0.5 * ((np.log(x) - math.log(c)) / w) ** 2) / x


def half_width(kind, coord, c, w, lower, upper):
    """Window half-width in the profile's own coordinate (x or ln x)."""
    t0 = np.min(np.abs(coord - c)) / w
    slack = T2_SLACK
    if kind == "lognormal":
        slack += 2.0 * math.log(upper / lower)
    return w * math.sqrt(t0 * t0 + slack)


def main() -> None:
    lower, upper, count, w = 0.5, 20.0, 300, 0.05
    h = math.log(upper / lower) / (count - 1)
    inside = half_width("lognormal", np.log(nodes("logarithmic", lower, upper, count)),
                        math.log(5.0), w, lower, upper)
    print(f"2 ln 2^53                      = {T2_SLACK!r}")
    print(f"lognormal 0.05 on L [0.5, 20]: half-width {inside / w:.4f} widths, "
          f"{inside:.4f} in ln L, {inside / h:.1f} nodes of {count}")
    past = half_width("lognormal", np.log(nodes("logarithmic", lower, upper, count)),
                      math.log(30.7), w, lower, upper)
    d = math.log(30.7 / upper) / w
    print(f"reading L = 30.7, d = {d:.2f} widths past the box: half-width {past / w:.4f} widths, "
          f"reaches {(past / w) - d:.2f} widths into the box")

    rng = np.random.default_rng(2026)
    worst = 0.0
    cases = skipped = 0
    for _ in range(20000):
        kind = ("gaussian", "lognormal")[rng.integers(2)]
        spacing = ("linear", "logarithmic")[rng.integers(2)]
        lo = float(rng.uniform(0.1, 5.0))
        hi = lo * float(rng.uniform(1.5, 100.0))
        x = nodes(spacing, lo, hi, int(rng.integers(2, 400)))
        coord = np.log(x) if kind == "lognormal" else x
        span = coord[-1] - coord[0]
        width = span * 10.0 ** rng.uniform(-3.5, 0.5)
        place = rng.integers(3)
        if place == 0:
            c = coord[0] + span * rng.uniform()
        else:
            k = rng.uniform(-2.0, 2.0) if place == 1 else rng.uniform(2.0, 40.0)
            c = coord[-1] + k * width if rng.integers(2) else coord[0] - k * width
        with np.errstate(under="ignore"):
            f = profile(kind, x, math.exp(c) if kind == "lognormal" else c, width)
        if f.max() < 2.0**53 * np.finfo(float).tiny:
            skipped += 1
            continue
        reach = half_width(kind, coord, c, width, lo, hi)
        dropped = np.abs(coord - c) > reach
        if np.any(dropped):
            ratio = float(f[dropped].max() / f.max())
            assert ratio < 2.0**-53, (kind, spacing, lo, hi, width, c, ratio)
            worst = max(worst, ratio)
            cases += 1
    print(f"{cases} swept profiles drop nodes; largest dropped / largest kept = "
          f"2^{math.log2(worst):.6f} (bound 2^-53); {skipped} near-underflow profiles skipped")


if __name__ == "__main__":
    main()
