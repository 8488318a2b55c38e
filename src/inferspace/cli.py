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

One table, ``_COMMANDS``, holds each subcommand's help line, the function
that adds its options, and its handler.  ``main`` builds only the parser of
the subcommand that ``argv[0]`` names, with the prog the full parser gives
it, so a command does not pay for the other seven.  ``build_parser()``
builds the full parser from the same table.  ``main`` hands it the rest:
no arguments, ``--help``, an unknown subcommand, and arguments the
subcommand does not take, so their usage, help and errors are as before.
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
from .inference import band_conditional, borel_kolmogorov_demo, predict, summarize
from .io import _theory_in, read_density, read_theory, write_csv, write_density, write_theory
from .priors import (
    LOGNORMAL,
    NONINFORMATIVE,
    _MODEL_KINDS,
    MeasurementModel,
    benford_digit_probabilities,
    null_information_density,
    sample_prior,
)
from .theory import (
    SET_L,
    SET_T,
    FallingBodyLaw,
    _fall_axes,
    analytic_fall_theory,
    run_campaign,
)

_SPACING_TOKENS = {
    "lin": LINEAR,
    "linear": LINEAR,
    "log": LOGARITHMIC,
    "logarithmic": LOGARITHMIC,
}

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
    if kind not in _MODEL_KINDS:
        raise ConfigInvalid(
            f"measurement {spec!r}: kind must be one of {list(_MODEL_KINDS)}"
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
    length, time = _fall_axes(grid)
    law = FallingBodyLaw(g=p.g)
    instruments = [
        MeasurementModel(parameter=length.name, kind=LOGNORMAL, center=1.0, width=p.sigma_length),
        MeasurementModel(parameter=time.name, kind=LOGNORMAL, center=1.0, width=p.sigma_time),
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
        "mass": theory._band_mass,
    }
    if p.compare_analytic:
        reference = analytic_fall_theory(FallingBodyLaw(g=p.g, sigma_theory=sigma_eff), grid)
        report["sigma_analytic"] = sigma_eff
        report["kl_sym_vs_analytic"] = symmetric_kl(
            normalize(theory.joint), normalize(reference.joint)
        )
    _emit(report)
    return 0


def _cmd_analytic_theory(p: argparse.Namespace) -> int:
    grid = parse_grid(p.grid)
    theory = analytic_fall_theory(FallingBodyLaw(g=p.g, sigma_theory=p.sigma), grid, frame=p.frame)
    written = write_theory(theory, p.out)
    _emit({"out": str(written), "frame": p.frame, "mass": theory._band_mass})
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
    post = predict(theory, *models, query=_default_query(theory.grid, models, p.query))
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
        draws = sample_prior(p.lower, p.upper, p.n, p.seed)
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
    for flag, value in (("--sigma-sum", p.sigma_sum), ("--sigma-diff", p.sigma_diff)):
        # The joint divides by 2σ², and 0/0 has no limit to take.
        if 2 * value * value == 0.0:
            raise ConfigInvalid(f"{flag} {value!r} is too small: 2σ² underflows to 0 in float64")
    if not math.isfinite(p.slice_value):
        raise ConfigInvalid(f"--slice-value must be finite, got {p.slice_value}")
    lim = math.exp(1.4)
    x_axis = Axis.logarithmic("x", 1.0 / lim, lim, p.count)
    y_axis = Axis.logarithmic("y", 1.0 / lim, lim, p.count)
    grid = Grid.of(x_axis, y_axis)
    a, b = p.sigma_sum, p.sigma_diff

    def correlated(x, y):
        """exp(-(u + v)²/(2a²) - (u - v)²/(2b²)) / (x·y), u = ln x and
        v = ln y: the exponent in one array and x·y in a second."""
        u, v = np.log(x), np.log(y)
        # A width far below the node spacing sends an exponent to -inf, and
        # its exp to the exact 0 it tends to.
        with np.errstate(over="ignore"):
            out = np.add(u, v)
            np.square(out, out=out)
            np.negative(out, out=out)
            out /= 2 * a * a
            diff = np.subtract(u, v)
            np.square(diff, out=diff)
            diff /= 2 * b * b
            out -= diff
            np.exp(out, out=out)
            out /= np.multiply(x, y, out=diff)
        return out

    joint = normalize(Density.from_callable(grid, correlated))
    mu = null_information_density(grid)
    y0 = p.slice_value
    curved, control = borel_kolmogorov_demo(
        joint, mu, (shear_map(), affine_map_2d(1.0, 0.0, 2.0, 0.0)), y0,
        width_cells=p.width_cells,
    )

    # Width sweep: the AND-band conditional converges to the exact slice as
    # the band thins, which is the sense in which AND recovers conditioning.
    # The demonstrations' own band is the entry of --width-cells.
    recovery = {
        str(cells): total_variation(
            curved.native_conditional,
            curved.band_native if cells == p.width_cells
            else band_conditional(joint, mu, y0, cells)[0],
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


# The least fall in the recovery sweep's TV at each halving of the band for
# it to count as converging; a first-order fall is 2-fold.
_CONVERGING_FALL = 1.5


def _paradox_conclusion(tv_naive: float, tv_band: float, recovery: dict[str, float]) -> str:
    """What the sheared run and the recovery sweep (widest band first) show:
    whether band conditioning agreed across frames better than slicing, and
    whether the band conditional converges to the slice: whether each
    thinner band of the sweep cuts its TV at least 1.5-fold, or else the
    first step that does not."""
    if tv_band < tv_naive:
        frames = ("slice conditioning moved by tv_naive under the shear while band "
                  "conditioning agreed across frames to tv_band")
    else:
        frames = ("band conditioning moved by tv_band under the shear, no less than slice "
                  "conditioning's tv_naive")
    sweep = list(recovery.items())
    slow = next(((a, b) for a, b in zip(sweep, sweep[1:]) if not a[1] >= _CONVERGING_FALL * b[1]),
                None)
    if slow is None:
        sweep = "the band conditional converges to the exact slice as the band thins"
    else:
        (wide, tv_wide), (thin, tv_thin) = slow
        sweep = ("the band conditional does not near the exact slice at every thinner band "
                 f"of the {'/'.join(recovery)}-cell sweep: from {wide} to {thin} cells its "
                 f"TV goes from {tv_wide:.3g} to {tv_thin:.3g}, a ratio of "
                 f"{tv_wide / tv_thin:.2f}, under the {_CONVERGING_FALL}-fold fall that "
                 "converging takes")
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
        raise ConfigInvalid("convert needs --in SRC and --out DEST.{json,csv}")
    theory = _theory_in(p.src)
    d = theory.joint if theory is not None else read_density(p.src)
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
_FALL_GRID_HELP = _GRID_HELP + ": the length axis first, then time"
_THEORY_HELP = "theory file <base>.theory (format version 5)"
_SEED = 20260819


def _build_theory_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid", default=_BUILD_GRID, help=_FALL_GRID_HELP)
    sp.add_argument("--n", type=int, default=2000, help="number of experiments")
    sp.add_argument(
        "--mode", choices=[SET_L, SET_T], default=SET_L, help="which parameter experiments set"
    )
    sp.add_argument("--seed", type=int, default=_SEED, help="master seed")
    sp.add_argument("--g", type=float, default=9.81, help="gravitational acceleration")
    sp.add_argument("--sigma-length", type=float, default=0.05, help="length instrument width")
    sp.add_argument("--sigma-time", type=float, default=0.05, help="time instrument width")
    sp.add_argument("--out", default="theory", help="theory file, written as <base>.theory")
    sp.add_argument(
        "--compare-analytic",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="report symmetric KL against the instrument-blurred analytic ridge",
    )


def _analytic_theory_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid", default=_DEFAULT_FALL_GRID, help=_FALL_GRID_HELP)
    sp.add_argument("--frame", choices=["linear", "log"], default="linear")
    sp.add_argument("--g", type=float, default=9.81)
    sp.add_argument("--sigma", type=float, default=1e-3, help="ridge width in log space")
    sp.add_argument(
        "--out", default="analytic-theory", help="theory file, written as <base>.theory"
    )


def _infer_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--theory", default="theory", help=_THEORY_HELP)
    sp.add_argument("--measure", action="append", help="AXIS:KIND:CENTER:WIDTH (repeatable)")
    sp.add_argument("--query", help="axis to summarize (default: the unmeasured one)")
    sp.add_argument("--out", help="write the queried marginal density here")


def _predict_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--theory", default="theory", help=_THEORY_HELP)
    sp.add_argument("--known", help="AXIS:KIND:CENTER:WIDTH")
    sp.add_argument("--query", help="axis to summarize (default: the other one)")
    sp.add_argument("--out")


def _benford_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lower", type=float, default=1.0, help="sampling box lower bound")
    sp.add_argument("--upper", type=float, default=1e6, help="sampling box upper bound")
    sp.add_argument(
        "--n", type=int, default=0, help="empirical check sample count (0 = analytic only)"
    )
    sp.add_argument("--seed", type=int, default=_SEED)


def _paradox_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--count", type=int, default=300, help="nodes per axis")
    sp.add_argument("--slice-value", type=float, default=1.0)
    sp.add_argument("--width-cells", type=float, default=2.0)
    sp.add_argument("--sigma-sum", type=float, default=0.35)
    sp.add_argument("--sigma-diff", type=float, default=0.7)


def _axioms_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid", default=_AXIOMS_GRID, help=_GRID_HELP)
    sp.add_argument("--triples", type=int, default=25)
    sp.add_argument("--seed", type=int, default=_SEED)
    sp.add_argument("--tol", type=float, default=1e-12)


def _convert_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--in", dest="src", help="density file, or theory file (exports its joint)")
    sp.add_argument("--out", help="output path, format by extension (.json or .csv)")
    sp.add_argument("--map", action="append", help="AXIS:KIND[:ARGS] (repeatable)")


# Each subcommand's help line, the function that adds its options, and its
# handler, in the order ``--help`` lists them.
_COMMANDS = {
    "build-theory": ("simulate a fall campaign and accumulate it",
                     _build_theory_options, _cmd_build_theory),
    "analytic-theory": ("write the closed-form fall theory",
                        _analytic_theory_options, _cmd_analytic_theory),
    "infer": ("intersect a theory with measurements", _infer_options, _cmd_infer),
    "predict": ("posterior for one axis given another", _predict_options, _cmd_infer),
    "benford": ("first-digit law from the scale-invariant prior",
                _benford_options, _cmd_benford),
    "paradox": ("conditioning on a slice vs a thin band, two frames",
                _paradox_options, _cmd_paradox),
    "axioms": ("check the OR/AND axioms on sampled densities", _axioms_options, _cmd_axioms),
    "convert": ("push a density file through coordinate maps and/or reformat it",
                _convert_options, _cmd_convert),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and every subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="inferspace",
        description="Densities on grids with OR/AND combination, theories, and inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, handler) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        add_options(sp)
        sp.set_defaults(handler=handler)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the parser of the subcommand it names alone, as
    the full parser would parse it.  No subcommand, an unknown one, and
    arguments the subcommand does not take go to the full parser, which
    prints the top-level usage and error."""
    if argv and argv[0] in _COMMANDS:
        _, add_options, handler = _COMMANDS[argv[0]]
        # The prog the full parser gives this subcommand's parser.
        sp = argparse.ArgumentParser(prog=f"inferspace {argv[0]}")
        add_options(sp)
        sp.set_defaults(command=argv[0], handler=handler)
        args, extra = sp.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _fail(exc: Exception, code: int) -> int:
    """Report ``exc`` on stderr and return the exit code.  A stderr that
    cannot take the line loses it; the code still says what went wrong."""
    try:
        print(f"error: {exc}", file=sys.stderr)
    except OSError:
        _silence(sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _parse_args(argv)
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
