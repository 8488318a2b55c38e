"""Command line interface.

Exit codes: 0 success, 2 configuration problems (bad arguments, malformed
files, impossible grids), 3 numerical failures (contradictory measurements,
readings off the grid, empty slices, unattainable tolerances).

Shorthand grammars:
  axis         NAME:SPACING:LOWER:UPPER:COUNT      (spacing lin|log)
  grid         "default" or two axis shorthands joined by a comma
  measurement  AXIS:KIND:CENTER:WIDTH              (kind gaussian|lognormal|
               boxcar|noninformative; the last takes no numbers)
  map          AXIS:KIND[:ARGS]                    (reciprocal | log[:x0] |
               exp[:y0] | affine:a[:b] | power:k)

Each option's built-in default is declared once, on its argparse option,
and its value reaches the handler through the flag alone.  All stochastic
commands take an explicit ``--seed`` and are reproducible from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebra import (
    Realization,
    check_axioms,
    sample_axiom_triples,
    symmetric_kl,
    total_variation,
)
from .coordinates import (
    CoordinateMap,
    affine_map,
    affine_map_2d,
    exp_map,
    log_map,
    power_map,
    product_map,
    push_forward,
    reciprocal_map,
    shear_map,
)
from .density import Density, integrate, normalize
from .errors import (
    ConfigInvalid,
    ConfigurationError,
    InvalidGrid,
    IOFailure,
    NumericalError,
    SingularJacobian,
)
from .grids import LINEAR, LOGARITHMIC, Axis, Grid
from .inference import (
    _posterior_marginal,
    band_conditional,
    borel_kolmogorov_demo,
    summarize,
)
from .io import read_density, read_theory, write_csv, write_density, write_theory
from .priors import (
    BOXCAR,
    GAUSSIAN,
    JEFFREYS,
    LOGNORMAL,
    NONINFORMATIVE,
    MeasurementModel,
    PriorSpec,
    benford_digit_probabilities,
    null_information_density,
    sample_prior,
)
from .theory import (
    SET_L,
    SET_T,
    FallingBodyLaw,
    _band_mass,
    analytic_fall_theory,
    run_campaign,
)

_SPACING_TOKENS = {
    "lin": LINEAR,
    "linear": LINEAR,
    "log": LOGARITHMIC,
    "logarithmic": LOGARITHMIC,
}
_MEASUREMENT_KINDS = (GAUSSIAN, LOGNORMAL, BOXCAR, NONINFORMATIVE)

# The built-in fall grid: one decade of length, the law-matched half decade
# of time, fine enough that the sigma=0.001 ridge is resolved rather than
# aliased (the quadrature picks up a relative error of about
# 2·exp(−2π²(σ/h)²) per marginal, so h must stay below roughly 1.7σ).
_DEFAULT_FALL_GRID = (
    "L:log:1.0:10.0:1401,"
    "T:log:0.45152364098573:1.4278431229270645:1401"
)


# ---------------------------------------------------------------------------
# shorthand parsing
# ---------------------------------------------------------------------------

def parse_axis(spec: str) -> Axis:
    parts = spec.split(":")
    if len(parts) != 5:
        raise ConfigInvalid(
            f"axis {spec!r}: expected NAME:SPACING:LOWER:UPPER:COUNT"
        )
    name, spacing_token, lo_s, hi_s, count_s = parts
    spacing = _SPACING_TOKENS.get(spacing_token.lower())
    if spacing is None:
        raise ConfigInvalid(
            f"axis {spec!r}: spacing must be one of {sorted(_SPACING_TOKENS)}"
        )
    try:
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ConfigInvalid(f"axis {spec!r}: {exc}") from exc
    return Axis(name=name, spacing=spacing, lower=lo, upper=hi, count=count)


def parse_grid(spec: str) -> Grid:
    """A grid from ``"default"`` (the built-in fall grid) or axis shorthands
    joined by commas."""
    if spec == "default":
        spec = _DEFAULT_FALL_GRID
    return Grid.of(*[parse_axis(s) for s in spec.split(",")])


def parse_measurement(spec: str) -> MeasurementModel:
    parts = spec.split(":")
    if len(parts) < 2:
        raise ConfigInvalid(f"measurement {spec!r}: expected AXIS:KIND:CENTER:WIDTH")
    axis, kind = parts[0], parts[1].lower()
    if kind not in _MEASUREMENT_KINDS:
        raise ConfigInvalid(
            f"measurement {spec!r}: kind must be one of {list(_MEASUREMENT_KINDS)}"
        )
    if kind == NONINFORMATIVE:
        if len(parts) > 2:
            raise ConfigInvalid(f"measurement {spec!r}: noninformative takes no numbers")
        return MeasurementModel(parameter=axis, kind=kind)
    if len(parts) != 4:
        raise ConfigInvalid(f"measurement {spec!r}: expected AXIS:KIND:CENTER:WIDTH")
    try:
        center, width = float(parts[2]), float(parts[3])
    except ValueError as exc:
        raise ConfigInvalid(f"measurement {spec!r}: {exc}") from exc
    return MeasurementModel(parameter=axis, kind=kind, center=center, width=width)


def parse_map(spec: str) -> tuple[str, CoordinateMap]:
    parts = spec.split(":")
    if len(parts) < 2:
        raise ConfigInvalid(f"map {spec!r}: expected AXIS:KIND[:ARGS]")
    axis, kind, args = parts[0], parts[1].lower(), parts[2:]
    try:
        if kind == "reciprocal" and not args:
            return axis, reciprocal_map()
        if kind == "log" and len(args) <= 1:
            return axis, log_map(float(args[0]) if args else 1.0)
        if kind == "exp" and len(args) <= 1:
            return axis, exp_map(float(args[0]) if args else 1.0)
        if kind == "affine" and 1 <= len(args) <= 2:
            return axis, affine_map(float(args[0]), float(args[1]) if len(args) > 1 else 0.0)
        if kind == "power" and len(args) == 1:
            return axis, power_map(float(args[0]))
    except (ValueError, InvalidGrid, SingularJacobian) as exc:
        # A degenerate argument is a bad option, whatever the map calls it.
        raise ConfigInvalid(f"map {spec!r}: {exc}") from exc
    raise ConfigInvalid(
        f"map {spec!r}: expected AXIS:reciprocal, AXIS:log[:x0], AXIS:exp[:y0], "
        f"AXIS:affine:a[:b], or AXIS:power:k"
    )


def _silence(stream) -> None:
    """Point a stream that failed a write at the null device.  What it could
    not write stays in its buffer, and the interpreter's flush at exit would
    fail on it again."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _write_stdout(text: str, what: str) -> None:
    """Write and flush ``text``; a stdout that cannot take it, closed or
    full, is an IOFailure naming ``what`` was lost."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _silence(sys.stdout)
        raise IOFailure(f"cannot write {what}: {exc}") from exc


def _emit(doc: dict) -> None:
    _write_stdout(json.dumps(doc, indent=2) + "\n", "the report")


def _default_query(grid: Grid, models, requested: str | None) -> str:
    """The axis to report on: as asked, else the first unmeasured axis."""
    if requested is not None:
        return requested
    measured = {m.parameter for m in models}
    for name in grid.names:
        if name not in measured:
            return name
    return grid.names[0]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

_BUILD_GRID = "L:log:0.5:20:300,T:log:0.25:2.5:300"


def _blurred_width(sigma_length: float, sigma_time: float) -> float:
    """The width of the analytic ridge a campaign converges to.

    The empirical ridge is the theory ridge blurred by the instruments:
    each accumulated bump has the instrument widths, and its center is
    scattered by the same noise, so the blur enters twice in quadrature.
    A width that float64 cannot hold as a finite positive number is a
    ConfigInvalid naming the two flags.
    """
    try:
        sigma = math.sqrt(2.0 * (sigma_length**2 + 4.0 * sigma_time**2))
    except OverflowError:
        sigma = math.inf
    if not 0.0 < sigma < math.inf:
        raise ConfigInvalid(
            f"--compare-analytic needs a finite blurred width √(2(σ_L² + 4σ_T²)) > 0, "
            f"but --sigma-length {sigma_length!r} and --sigma-time {sigma_time!r} give {sigma!r}"
        )
    return sigma


def _cmd_build_theory(p: argparse.Namespace) -> int:
    grid = parse_grid(p.grid)
    if grid.ndim != 2:
        raise ConfigInvalid("building a theory needs two axes: length then time")
    length_name, time_name = grid.names
    law = FallingBodyLaw(g=p.g, length_axis=length_name, time_axis=time_name)
    instruments = [
        MeasurementModel(parameter=length_name, kind=LOGNORMAL, center=1.0, width=p.sigma_length),
        MeasurementModel(parameter=time_name, kind=LOGNORMAL, center=1.0, width=p.sigma_time),
    ]
    if p.compare_analytic:
        # Refused before the campaign runs, so a refusal writes no file.
        sigma_eff = _blurred_width(p.sigma_length, p.sigma_time)
    theory = run_campaign(law, instruments, p.n, p.mode, p.seed, grid)
    written = write_theory(theory, p.out)
    report = {
        "out": str(written),
        "n_experiments": p.n,
        "mode": p.mode,
        "mass": _band_mass(theory),
    }
    if p.compare_analytic:
        wide = FallingBodyLaw(
            g=p.g, sigma_theory=sigma_eff, length_axis=length_name, time_axis=time_name
        )
        reference = analytic_fall_theory(wide, grid)
        report["sigma_analytic"] = sigma_eff
        report["kl_sym_vs_analytic"] = symmetric_kl(
            normalize(theory.joint), normalize(reference.joint)
        )
    _emit(report)
    return 0


def _cmd_analytic_theory(p: argparse.Namespace) -> int:
    grid = parse_grid(p.grid)
    if grid.ndim != 2:
        raise ConfigInvalid("the fall theory needs two axes: length then time")
    law = FallingBodyLaw(
        g=p.g,
        sigma_theory=p.sigma,
        length_axis=grid.names[0],
        time_axis=grid.names[1],
    )
    theory = analytic_fall_theory(law, grid, frame=p.frame)
    written = write_theory(theory, p.out)
    _emit({"out": str(written), "frame": p.frame, "mass": _band_mass(theory)})
    return 0


def _cmd_infer(p: argparse.Namespace) -> int:
    """``infer``; also ``predict``, which is ``infer`` with its one
    ``--known`` reading as the measurement.  The reported marginal is taken
    from the theory's row bands by one contraction; neither the joint nor the
    posterior joint is built."""
    if p.command == "predict":
        if not p.known:
            raise ConfigInvalid("pass --known AXIS:KIND:CENTER:WIDTH")
        specs = [p.known]
    else:
        if not p.measure:
            raise ConfigInvalid("pass at least one --measure AXIS:KIND:CENTER:WIDTH")
        specs = p.measure
    theory = read_theory(p.theory)
    models = [parse_measurement(s) for s in specs]
    post = _posterior_marginal(theory, models, _default_query(theory.grid, models, p.query))
    if p.out:
        write_density(post, p.out)
    _emit(summarize(post).as_dict())
    return 0


def _cmd_benford(p: argparse.Namespace) -> int:
    if p.n < 0:
        raise ConfigInvalid(f"--n must be >= 0 (0 skips the sampled check), got {p.n}")
    probs = benford_digit_probabilities()
    report: dict = {
        "digits": {str(d): float(probs[d - 1]) for d in range(1, 10)}
    }
    if p.n > 0:
        spec = PriorSpec(JEFFREYS, bounds=((p.lower, p.upper),))
        draws = sample_prior(spec, p.n, p.seed)
        leading = (draws / 10.0 ** np.floor(np.log10(draws))).astype(int)
        freqs = np.bincount(leading, minlength=10)[1:10] / len(draws)
        report["sampled"] = {str(d): float(freqs[d - 1]) for d in range(1, 10)}
        report["max_abs_error"] = float(np.max(np.abs(freqs - probs)))
        report["n"] = p.n
    _emit(report)
    return 0


def _cmd_paradox(p: argparse.Namespace) -> int:
    for flag, value in (("--sigma-sum", p.sigma_sum), ("--sigma-diff", p.sigma_diff),
                        ("--width-cells", p.width_cells)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigInvalid(f"{flag} must be finite and > 0, got {value}")
    if not math.isfinite(p.slice_value):
        raise ConfigInvalid(f"--slice-value must be finite, got {p.slice_value}")
    lim = math.exp(1.4)
    x_axis = Axis.logarithmic("x", 1.0 / lim, lim, p.count)
    y_axis = Axis.logarithmic("y", 1.0 / lim, lim, p.count)
    grid = Grid.of(x_axis, y_axis)
    a, b = p.sigma_sum, p.sigma_diff

    def correlated(x, y):
        u, v = np.log(x), np.log(y)
        return np.exp(-((u + v) ** 2) / (2 * a * a) - ((u - v) ** 2) / (2 * b * b)) / (x * y)

    joint = normalize(Density.from_callable(grid, correlated))
    mu = null_information_density(grid)
    y0 = p.slice_value
    curved = borel_kolmogorov_demo(joint, mu, shear_map(), y0, width_cells=p.width_cells)
    control = borel_kolmogorov_demo(
        joint, mu, affine_map_2d(1.0, 0.0, 2.0, 0.0), y0, width_cells=p.width_cells
    )

    # Width sweep: the AND-band conditional converges to the exact slice as
    # the band thins, which is the sense in which AND recovers conditioning.
    recovery = {
        str(cells): total_variation(
            curved.native_conditional, band_conditional(joint, mu, y0, cells)[0]
        )
        for cells in (8.0, 4.0, 2.0)
    }

    _emit(
        {
            "sheared": curved.as_dict(),
            "affine_control": control.as_dict(),
            "slice_recovery_tv_by_width_cells": recovery,
            "conclusion": _paradox_conclusion(curved.tv_naive, curved.tv_band, recovery),
        }
    )
    return 0


def _paradox_conclusion(tv_naive: float, tv_band: float, recovery: dict[str, float]) -> str:
    """What the sheared run and the recovery sweep (widest band first) show:
    whether band conditioning agreed across frames better than slicing, and
    whether the band conditional nears the slice at each thinner band."""
    if tv_band < tv_naive:
        frames = ("slice conditioning moved by tv_naive under the shear while band "
                  "conditioning agreed across frames to tv_band")
    else:
        frames = ("band conditioning moved by tv_band under the shear, no less than slice "
                  "conditioning's tv_naive")
    tvs = list(recovery.values())
    if all(a > b for a, b in zip(tvs, tvs[1:])):
        sweep = "the band conditional converges to the exact slice as the band thins"
    else:
        sweep = ("the band conditional does not near the exact slice at every thinner band "
                 f"of the {'/'.join(recovery)}-cell sweep")
    return f"{frames}, and {sweep}"


_AXIOMS_GRID = "x:log:0.1:10:27,y:lin:0:1:25"


def _cmd_axioms(p: argparse.Namespace) -> int:
    grid = parse_grid(p.grid)
    mu = null_information_density(grid)
    sum_product = check_axioms(
        Realization.sum_product(mu),
        sample_axiom_triples(grid, p.triples, p.seed),
        tol=p.tol,
    )
    max_min = check_axioms(
        Realization.max_min(grid),
        sample_axiom_triples(grid, p.triples, p.seed + 1, grades=True),
        tol=p.tol,
    )
    _emit(
        {
            "sum_product": sum_product.as_dict(),
            "max_min": max_min.as_dict(),
            "all_passed": sum_product.all_passed and max_min.all_passed,
        }
    )
    return 0


def _cmd_convert(p: argparse.Namespace) -> int:
    if not p.src or not p.out:
        raise ConfigInvalid("convert needs --in SRC.{json,npz} and --out DEST.{json,csv}")
    d = read_theory(p.src).joint if p.src.endswith(".npz") else read_density(p.src)
    mass_before = integrate(d)
    if p.map:
        maps = {}
        for spec in p.map:
            axis, m = parse_map(spec)
            if axis in maps:
                raise ConfigInvalid(f"axis {axis!r} mapped twice")
            maps[axis] = m
        unknown = sorted(set(maps) - set(d.grid.names))
        if unknown:
            raise ConfigInvalid(f"map axis(es) {unknown} not on the grid {list(d.grid.names)}")
        identity = affine_map(1.0, 0.0)
        per_axis = [maps.get(ax.name, identity) for ax in d.grid.axes]
        images = [m.image_axis(ax, name=ax.name) for m, ax in zip(per_axis, d.grid.axes)]
        whole = per_axis[0] if d.grid.ndim == 1 else product_map(*per_axis)
        d = push_forward(d, whole, Grid.of(*images))
    if p.out.endswith(".csv"):
        write_csv(d, p.out)
    elif p.out.endswith(".json"):
        write_density(d, p.out)
    else:
        raise ConfigInvalid(f"cannot tell the output format of {p.out!r}; use .json or .csv")
    _emit(
        {
            "src": p.src,
            "out": p.out,
            "nodes": d.grid.node_count,
            "mass_before": mass_before,
            "mass_after": integrate(d),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_GRID_HELP = '"default" or two axis shorthands joined by a comma'
_THEORY_HELP = "theory file <base>.npz (format version 4)"
_SEED = 20260819


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inferspace",
        description="Densities on grids with OR/AND combination, theories, and inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build-theory", help="simulate a fall campaign and accumulate it")
    sp.add_argument("--grid", default=_BUILD_GRID, help=_GRID_HELP)
    sp.add_argument("--n", type=int, default=2000, help="number of experiments")
    sp.add_argument(
        "--mode", choices=[SET_L, SET_T], default=SET_L, help="which parameter experiments set"
    )
    sp.add_argument("--seed", type=int, default=_SEED, help="master seed")
    sp.add_argument("--g", type=float, default=9.81, help="gravitational acceleration")
    sp.add_argument("--sigma-length", type=float, default=0.05, help="length instrument width")
    sp.add_argument("--sigma-time", type=float, default=0.05, help="time instrument width")
    sp.add_argument("--out", default="theory.npz", help="theory file, written as <base>.npz")
    sp.add_argument(
        "--compare-analytic",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="report symmetric KL against the instrument-blurred analytic ridge",
    )
    sp.set_defaults(handler=_cmd_build_theory)

    sp = sub.add_parser("analytic-theory", help="write the closed-form fall theory")
    sp.add_argument("--grid", default=_DEFAULT_FALL_GRID, help=_GRID_HELP)
    sp.add_argument("--frame", choices=["linear", "log"], default="linear")
    sp.add_argument("--g", type=float, default=9.81)
    sp.add_argument("--sigma", type=float, default=1e-3, help="ridge width in log space")
    sp.add_argument(
        "--out", default="analytic-theory.npz", help="theory file, written as <base>.npz"
    )
    sp.set_defaults(handler=_cmd_analytic_theory)

    sp = sub.add_parser("infer", help="intersect a theory with measurements")
    sp.add_argument("--theory", default="theory.npz", help=_THEORY_HELP)
    sp.add_argument("--measure", action="append", help="AXIS:KIND:CENTER:WIDTH (repeatable)")
    sp.add_argument("--query", help="axis to summarize (default: the unmeasured one)")
    sp.add_argument("--out", help="write the queried marginal density here")
    sp.set_defaults(handler=_cmd_infer)

    sp = sub.add_parser("predict", help="posterior for one axis given another")
    sp.add_argument("--theory", default="theory.npz", help=_THEORY_HELP)
    sp.add_argument("--known", help="AXIS:KIND:CENTER:WIDTH")
    sp.add_argument("--query", help="axis to summarize (default: the other one)")
    sp.add_argument("--out")
    sp.set_defaults(handler=_cmd_infer)

    sp = sub.add_parser("benford", help="first-digit law from the scale-invariant prior")
    sp.add_argument("--lower", type=float, default=1.0, help="sampling box lower bound")
    sp.add_argument("--upper", type=float, default=1e6, help="sampling box upper bound")
    sp.add_argument(
        "--n", type=int, default=0, help="empirical check sample count (0 = analytic only)"
    )
    sp.add_argument("--seed", type=int, default=_SEED)
    sp.set_defaults(handler=_cmd_benford)

    sp = sub.add_parser("paradox", help="conditioning on a slice vs a thin band, two frames")
    sp.add_argument("--count", type=int, default=300, help="nodes per axis")
    sp.add_argument("--slice-value", type=float, default=1.0)
    sp.add_argument("--width-cells", type=float, default=2.0)
    sp.add_argument("--sigma-sum", type=float, default=0.35)
    sp.add_argument("--sigma-diff", type=float, default=0.7)
    sp.set_defaults(handler=_cmd_paradox)

    sp = sub.add_parser("axioms", help="check the OR/AND axioms on sampled densities")
    sp.add_argument("--grid", default=_AXIOMS_GRID, help=_GRID_HELP)
    sp.add_argument("--triples", type=int, default=25)
    sp.add_argument("--seed", type=int, default=_SEED)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(handler=_cmd_axioms)

    sp = sub.add_parser(
        "convert", help="push a density file through coordinate maps and/or reformat it"
    )
    sp.add_argument("--in", dest="src", help="density .json, or theory .npz (exports its joint)")
    sp.add_argument("--out", help="output path, format by extension (.json or .csv)")
    sp.add_argument("--map", action="append", help="AXIS:KIND[:ARGS] (repeatable)")
    sp.set_defaults(handler=_cmd_convert)

    return parser


def _fail(exc: Exception, code: int) -> int:
    """Report ``exc`` on stderr and return the exit code.  A stderr that
    cannot take the line loses it; the code still says what went wrong."""
    try:
        print(f"error: {exc}", file=sys.stderr)
    except OSError:
        _silence(sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse prints --help into stdout's buffer and ignores a failed
            # write; a help that cannot be written is an IOFailure, not exit 0.
            if exc.code == 0:
                _write_stdout("", "the help")
            raise
        return args.handler(args)
    except (ConfigurationError, IOFailure, MemoryError) as exc:
        return _fail(exc, 2)
    except NumericalError as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
