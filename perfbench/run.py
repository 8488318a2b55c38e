"""The inferspace benchmark: seeded CLI workloads, timed end to end, traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fall-infer --seed 1 --seconds 20 --trace 0

The benchmark drives ``inferspace.cli.main(argv)`` in this process as a closed
loop: one client, no extra threads, each command issued after the previous
one returned, each started on the next CPU in turn (``Workload.next_cpu``).
It repeats the workload's round of commands (see ``workloads.py``) until
``--seconds`` have passed, checks every command's JSON report, and prints as
its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json,
measured untraced: ``wall_s`` is the median time of one round, ``command_s``
the median time of one command.  With ``--trace 1`` rounds alternate untraced
and traced (see ``spans.py``), and the metrics are the ``per_layer`` ones:
totals per traced round, plus the tracing overhead.  The line before it is a detail
record: the machine, the per-command medians with their sample counts, the
failure rate and the absent spans.  The same record, and for traced runs
every span, is written to ``perfbench/results/``.

``setup_s`` is the median over several fresh interpreters, each timed from
its start until it has imported inferspace, generated its inputs and run one
untimed warm-up command.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
PROBES = {"full": 5, "smoke": 1}
# Bytes a bilinear evaluation computes per point: 4 corner values, 2 weights, 1 result.
BILINEAR_BYTES_PER_POINT = 8 * 7

sys.path.insert(0, str(HERE))
from spans import POINTS, ROOT as CLI_SPAN, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def _median(values) -> float:
    return float(statistics.median(values))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# one command
# ---------------------------------------------------------------------------

def run_command(cmd, main, tracer=None) -> dict:
    """Run one CLI command in its own directory, time it and check its report."""
    bytes_read = _dir_bytes(cmd.reads) if cmd.reads else 0
    out = io.StringIO()
    error, report = None, None
    cwd = os.getcwd()
    os.chdir(cmd.workdir)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = tracer.call(CLI_SPAN, main, cmd.argv) if tracer else main(cmd.argv)
    except SystemExit as exc:  # argparse refused the argv
        rc = exc.code
    except Exception:  # a traceback from the program is a failed command
        rc = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    os.chdir(cwd)
    if error is None and rc != 0:
        error = f"exit code {rc}"
    if error is None:
        try:
            report = json.loads(out.getvalue())
            error = cmd.check(report)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"malformed report: {exc!r}"
    if error is not None:
        print(f"FAILED {' '.join(cmd.argv)}: {error}", file=sys.stderr)
    mass = report.get("mass", 0.0) if cmd.experiments and report else 0.0
    return {
        "kind": cmd.kind,
        "seconds": seconds,
        "failed": error is not None,
        "bytes_written": _dir_bytes(cmd.workdir),
        "bytes_read": bytes_read,
        "experiments": cmd.experiments,
        "accumulated": mass,
    }


class Workload:
    """A workload's rounds, drawn in sequence from one seeded generator."""

    def __init__(self, name: str, seed: int, size: str, run_dir: Path):
        self.make = WORKLOADS[name]
        self.rng = np.random.default_rng(seed)
        self.size = SIZES[size]
        self.run_dir = run_dir
        self.cpus = sorted(os.sched_getaffinity(0))
        self.commands = 0

    def round(self, size=None):
        round_dir = Path(tempfile.mkdtemp(dir=self.run_dir))
        new_dir = lambda: Path(tempfile.mkdtemp(dir=round_dir))  # noqa: E731
        return round_dir, self.make(self.rng, size or self.size, new_dir)

    def next_cpu(self) -> None:
        """Move this process to the next CPU in turn, leaving every CPU allowed.

        A process tends to stay on the CPU it runs on, and the CPUs of a
        shared machine differ in speed, so a run would measure whichever CPU
        it happened to land on.  Starting each command on the next CPU makes
        every run sample them alike.  The full set is allowed again before
        the command is timed, so nothing caps the threads the program uses.
        """
        cpu = self.cpus[self.commands % len(self.cpus)]
        self.commands += 1
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the CPU was taken away; start wherever we are
            pass
        finally:
            os.sched_setaffinity(0, self.cpus)

    def warm_up(self, main) -> dict:
        """The first command of a smoke-size round, untimed."""
        round_dir, cmds = self.round(SIZES["smoke"])
        try:
            return run_command(cmds[0], main)
        finally:
            shutil.rmtree(round_dir)


def run_round(workload: Workload, main, tracer=None) -> list[dict]:
    round_dir, cmds = workload.round()
    records = []
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            for cmd in cmds:
                workload.next_cpu()
                records.append(run_command(cmd, main, tracer))
    finally:
        shutil.rmtree(round_dir)
    return records


# ---------------------------------------------------------------------------
# set-up and machine
# ---------------------------------------------------------------------------

def import_main():
    sys.path.insert(0, str(SRC))
    import inferspace
    from inferspace.cli import main

    return inferspace, main


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its warm-up is done.

    The probe reports the moment it is ready on ``time.perf_counter``, which
    is system-wide, so its exit is not timed.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=120)
    word, _, ready = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return float(ready) - start


def _blas_threads() -> int | str:
    """Threads of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.rsplit("/", 1)[-1].lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown: {ref}"


def machine(inferspace, args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = getattr(inferspace, "backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": _blas_threads(),
        "backend": backend() if callable(backend) else "absent",
        "commit": _git_commit(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def per_command(records: list[dict]) -> dict:
    """Median seconds of each CLI subcommand, with its sample count."""
    kinds = sorted({r["kind"] for r in records})
    return {
        kind.replace("-", "_") + "_s": {
            "value": _median([r["seconds"] for r in records if r["kind"] == kind]),
            "unit": "s",
            "n": sum(r["kind"] == kind for r in records),
        }
        for kind in kinds
    }


def end_to_end(rounds: list[list[dict]], setup: list[float]) -> dict:
    records = [r for rnd in rounds for r in rnd]
    return {
        "setup_s": _median(setup),
        "wall_s": _median([sum(r["seconds"] for r in rnd) for rnd in rounds]),
        "command_s": _median([r["seconds"] for r in records]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, tracer, traced: list[list[dict]], untraced: list[list[dict]]) -> dict:
    """Per-layer totals per traced round, by metric name."""
    records = [r for rnd in traced for r in rnd]
    experiments = sum(r["experiments"] for r in records)
    traced_wall = _median([sum(r["seconds"] for r in rnd) for rnd in traced])
    untraced_wall = _median([sum(r["seconds"] for r in rnd) for rnd in untraced])
    table = tracer.table()
    table["io.bytes_written"] = sum(r["bytes_written"] for r in records)
    table["io.bytes_read"] = sum(r["bytes_read"] for r in records)
    table["kernels.bilinear_many.bytes_computed"] = (
        BILINEAR_BYTES_PER_POINT * table.get("kernels.bilinear_many.points", 0))
    per_run = {  # not summed over rounds
        "theory.experiments_accumulated_ratio":
            sum(r["accumulated"] for r in records) / experiments if experiments else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    stats = {"s", "self_s", "calls"}
    known = set(table) | set(per_run) | {
        f"{span}.{stat}" for span in [CLI_SPAN] + [p.span for p in POINTS] for stat in stats
    } | {f"{p.span}.{c[0]}" for p in POINTS for c in p.counters}
    unknown = sorted(set(names) - known)
    if unknown:
        raise ValueError(f"BENCHMARK.json names per-layer metrics the benchmark cannot measure: "
                         f"{unknown}")
    rounds = len(traced)
    return {name: per_run[name] if name in per_run else table.get(name, 0) / rounds
            for name in names}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure for this long; 0 runs one round (one pair when traced)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="smoke shrinks every command, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args) -> int:
    """A fresh interpreter's set-up: import, generate inputs, warm up, report ready."""
    _, main = import_main()
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="probe-"))
    try:
        Workload(args.workload, args.seed, args.size, run_dir).warm_up(main)
    finally:
        shutil.rmtree(run_dir)
    print(f"ready {time.perf_counter()!r}", flush=True)
    return 0


def bench(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else [probe_setup(args) for _ in range(PROBES[args.size])]
    inferspace, main = import_main()
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    tracer = Tracer()
    untraced, traced = [], []
    try:
        workload = Workload(args.workload, args.seed, args.size, run_dir)
        warm = workload.warm_up(main)
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            untraced.append(run_round(workload, main))
            if args.trace:
                traced.append(run_round(workload, main, tracer))
    finally:
        shutil.rmtree(run_dir)

    records = [warm] + [r for rnd in untraced + traced for r in rnd]
    failed = sum(r["failed"] for r in records)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(names, tracer, traced, untraced)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        measured = end_to_end(untraced, setup)
        values = {name: measured[name] for name in names}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    detail = {
        "machine": machine(inferspace, args),
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(untraced) + len(traced),
        "commands": per_command([r for rnd in untraced for r in rnd]),
        "fail_rate": {"value": failed / len(records), "unit": "ratio",
                      "attempted": len(records), "failed": failed},
        "setup_probes_s": setup,
        "absent_spans": tracer.absent,
    }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    saved = {"detail": detail, "result": result}
    if args.trace:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        saved["spans"] = [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]
    (RESULTS / f"{stem}.json").write_text(json.dumps(saved) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "inferspace" / "__init__.py").is_file():
        print(f"error: no inferspace package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds < 0:
        print("error: --seconds must be finite and >= 0", file=sys.stderr)
        return 2
    return setup_probe(args) if args.setup_probe else bench(args)


if __name__ == "__main__":
    sys.exit(main())
