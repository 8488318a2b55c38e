"""Seeded command scripts for the inferspace CLI, one per workload.

A workload is a fixed script of CLI commands, called a round.  The benchmark
repeats rounds for the measured time.  Every round holds at least two
commands, so that it runs on more than one CPU (see ``run.py``).  The workload seed picks everything the
commands draw or measure: measurement centres, campaign master seeds and slice
values.  The CLI sees only the generated argv.

Each command carries a check of its JSON report; a command whose check fails
counts as failed.  Every command that writes gets ``--out`` paths without an
extension, so the ``io`` module picks the file format, and runs in a fresh
directory of its own, so every byte it creates can be counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

G = 9.81
# The fall grid's time box (cli's default grid).  Centres are drawn well inside.
T_BOX = "0.45152364098573:1.4278431229270645"
T_CENTRES = (0.6, 1.3)
T_WIDTH = 0.005
L_WIDTH = 0.02
# Relative tolerance on the queried L mode against ½g·c² for the T centre c.
# The posterior's own relative spread is about 2·T_WIDTH = 1%.
MODE_TOL = 0.005
GENERAL_GRID = "L:lin:0.5:20:300,T:lin:0.25:2.5:300"
SLICE_VALUES = (0.5, 2.0)


@dataclass(frozen=True)
class Size:
    fall_grid: list[str]        # analytic-theory grid and sigma flags
    campaign_n: int
    # Largest symmetric KL between a campaign of campaign_n experiments and
    # its blurred analytic ridge.  At the commit that defined this benchmark,
    # 12 master seeds gave 0.0032-0.0047 at n=20000 and 0.039-0.057 at
    # n=1000; each bound is about twice the largest value seen.
    kl_bound: float
    general_n: int
    paradox: list[str]          # paradox size flags


SIZES = {
    "full": Size(["--grid", "default"], 20000, 0.01, 2000, []),
    # A few percent of the work; the fall grid stays resolved (node spacing
    # below 1.7 of the theory and measurement widths).
    "smoke": Size(
        ["--grid", f"L:log:1.0:10.0:241,T:log:{T_BOX}:241", "--sigma", "0.01"], 1000, 0.12, 50,
        ["--count", "60"],
    ),
}


@dataclass
class Command:
    kind: str                       # the CLI subcommand
    argv: list[str]
    workdir: Path                   # fresh; the command runs here and writes only here
    check: Callable[[dict], str | None]  # failure message for a report, or None
    reads: Path | None = None       # directory of the theory the command reads
    experiments: int = 0            # experiments a build-theory command attempts


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _master_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1, 2**31 - 1)))


def _positive_mass(report: dict) -> str | None:
    mass = report.get("mass")
    if not (isinstance(mass, float) and math.isfinite(mass) and mass > 0.0):
        return f"mass {mass!r} is not finite and positive"
    return None


def _l_mode_near(centre: float) -> Callable[[dict], str | None]:
    expected = 0.5 * G * centre * centre

    def check(report: dict) -> str | None:
        if report.get("axis") != "L":
            return f"queried axis {report.get('axis')!r}, expected 'L'"
        mode = report.get("mode")
        if not isinstance(mode, float) or abs(mode / expected - 1.0) > MODE_TOL:
            return f"L mode {mode!r} not within {MODE_TOL:.1%} of {expected!r}"
        return None

    return check


def _wrote_file(workdir: Path, check: Callable[[dict], str | None]):
    def both(report: dict) -> str | None:
        if not any(p.stat().st_size > 0 for p in workdir.iterdir()):
            return f"--out wrote nothing under {workdir}"
        return check(report)

    return both


def _mass_counts(n: int, kl_bound: float | None = None):
    def check(report: dict) -> str | None:
        mass = report.get("mass")
        if not isinstance(mass, float) or abs(mass - n) > 1e-9 * n:
            return f"campaign mass {mass!r} is not n={n} to 1e-9"
        if kl_bound is not None:
            kl = report.get("kl_sym_vs_analytic")
            if not isinstance(kl, float) or not kl < kl_bound:
                return f"kl_sym_vs_analytic {kl!r} not below {kl_bound}"
        return None

    return check


def _paradox_resolved(report: dict) -> str | None:
    sheared = report["sheared"]
    if not sheared["tv_band"] < sheared["tv_naive"]:
        return f"tv_band {sheared['tv_band']!r} not below tv_naive {sheared['tv_naive']!r}"
    recovery = report["slice_recovery_tv_by_width_cells"]
    by_width = [recovery[k] for k in sorted(recovery, key=float, reverse=True)]
    if not all(a > b for a, b in zip(by_width, by_width[1:])):
        return f"band recovery does not shrink as the band thins: {recovery}"
    return None


# ---------------------------------------------------------------------------
# workloads: each returns one round of commands
# ---------------------------------------------------------------------------

def fall_infer(rng, size: Size, new_dir) -> list[Command]:
    d0 = new_dir()
    theory = str(d0 / "theory")
    cmds = [
        Command("analytic-theory", ["analytic-theory", *size.fall_grid, "--out", theory],
                d0, _positive_mass),
    ]
    for kind, with_l, with_out in (
        ("infer", False, False),
        ("infer", True, False),
        ("infer", False, True),
        ("predict", False, False),
    ):
        c = _log_uniform(rng, *T_CENTRES)
        d = new_dir()
        flag = "--known" if kind == "predict" else "--measure"
        argv = [kind, "--theory", theory, flag, f"T:lognormal:{c!r}:{T_WIDTH}", "--query", "L"]
        check = _l_mode_near(c)
        if with_l:
            r = 0.5 * G * c * c * math.exp(0.003 * rng.standard_normal())
            argv += ["--measure", f"L:lognormal:{r!r}:{L_WIDTH}"]
        if with_out:
            argv += ["--out", str(d / "posterior")]
            check = _wrote_file(d, check)
        cmds.append(Command(kind, argv, d, check, reads=d0))
    return cmds


def campaign(rng, size: Size, new_dir) -> list[Command]:
    cmds = []
    n = size.campaign_n
    for _ in range(2):
        d = new_dir()
        argv = ["build-theory", "--n", str(n), "--compare-analytic",
                "--seed", _master_seed(rng), "--out", str(d / "theory")]
        cmds.append(Command("build-theory", argv, d, _mass_counts(n, size.kl_bound),
                            experiments=n))
    return cmds


def campaign_general(rng, size: Size, new_dir) -> list[Command]:
    cmds = []
    n = size.general_n
    for mode in ("set_L", "set_T"):
        d = new_dir()
        argv = ["build-theory", "--n", str(n), "--grid", GENERAL_GRID, "--mode", mode,
                "--seed", _master_seed(rng), "--out", str(d / "theory")]
        cmds.append(Command("build-theory", argv, d, _mass_counts(n), experiments=n))
    return cmds


def paradox(rng, size: Size, new_dir) -> list[Command]:
    cmds = []
    for _ in range(2):
        y0 = _log_uniform(rng, *SLICE_VALUES)
        argv = ["paradox", *size.paradox, "--slice-value", repr(y0)]
        cmds.append(Command("paradox", argv, new_dir(), _paradox_resolved))
    return cmds


WORKLOADS = {
    "fall-infer": fall_infer,
    "campaign": campaign,
    "campaign-general": campaign_general,
    "paradox": paradox,
}
