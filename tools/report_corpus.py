"""A fixed corpus of CLI runs, recorded so that two versions can be compared.

The corpus covers the theory paths end to end: ``analytic-theory`` on five
grids and its refusal of a grid that names time first, ``build-theory`` in
both modes and on the linear grid and its refusal of a one-axis grid, 29
``infer`` and ``predict`` runs against analytic, log-frame, linear-grid and
empirical theories (one and two readings, ``--out``, every reading kind,
readings at the edges of the default theory's box, a narrow reading on an
empirical theory, and five refusals), ``convert`` of a theory to CSV and to JSON, to JSON
through log and power maps, and its refusal of an affine map whose images
of the log axis lie on no lattice, ``benford``'s sampled check and its
refusal of a lower bound of 0, ``axioms``, and ``paradox`` at 60 nodes and
at its default 300, at 2, 5, 7 and 21 nodes (at 5 and 7 its band reaches
a y-box edge node; at 2 and 21 its width sweep does not converge), with a
slice at the lower and at the upper box edge, with a sub-cell band at the
upper edge at 7 nodes, with bands of 4 cells (a width of its sweep) and 3 cells (none
of them), with a --sigma-diff so narrow that its exponent overflows, and
its refusals of a --sigma-sum whose 2σ² underflows and of a band so thin
that it covers no node.  It also covers the parser and the theory
reader's refusals: no arguments, ``--help``, ``infer --help`` and
``build-theory --help``, an unknown subcommand, an argument ``infer`` does
not take, a value of the wrong type, and ``infer`` on a bare ``.npy``
array and on a theory with one bit flipped.  70 runs in all.

    PYTHONPATH=src python tools/report_corpus.py record OUT.jsonl
    python tools/report_corpus.py compare PARENT.jsonl CHANGE.jsonl

``record`` runs the corpus with whichever ``inferspace`` is on ``sys.path``,
in a fresh temporary directory and with relative paths, and writes one JSON
record per run: its argv, exit code (argparse's exit status where it exits),
stdout and stderr, and what it wrote.  A run that raises is recorded as
exit 1, and ``record`` names it and exits 1 after writing the file.
A density or CSV file is recorded by its sha256 (and a JSON file also by its
parsed contents).  A theory file is recorded by its members, each as dtype,
shape and the sha256 of its bytes, with the header as text, and by the
sha256 of the joint and μ factors that ``read_theory`` gives back; the
archive's own bytes carry timestamps and are not compared.

``compare`` diffs two recordings.  Every float in a JSON report or JSON file
must agree to 1e-12 relative; everything else must match exactly.  It prints
each difference and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

FLOAT_RTOL = 1e-12

DEFAULT = "default"
SMALL = "L:log:1:10:201,T:log:0.4515:1.4279:201"
LINEAR = "L:lin:0.5:20:301,T:lin:0.25:2.5:257"
LOG_FRAME = f"L:lin:0:{math.log(10.0)!r}:701,T:lin:{math.log(0.4515)!r}:{math.log(1.4279)!r}:653"

# (name, argv); every theory is built before the runs that read it.
RUNS = [
    ("analytic-default", ["analytic-theory", "--grid", DEFAULT, "--out", "default"]),
    ("analytic-spikes", ["analytic-theory", "--grid", DEFAULT, "--sigma", "1e-300",
                         "--out", "spikes"]),
    ("analytic-log-frame", ["analytic-theory", "--grid", LOG_FRAME, "--frame", "log",
                            "--out", "logframe"]),
    ("analytic-linear", ["analytic-theory", "--grid", LINEAR, "--sigma", "0.01",
                         "--out", "linear"]),
    ("analytic-small", ["analytic-theory", "--grid", SMALL, "--sigma", "0.05", "--out", "small"]),
    ("refuse-swapped-grid", ["analytic-theory", "--grid", "T:log:1:20:401,L:log:0.45:2.02:401",
                             "--out", "swapped"]),
    ("refuse-one-axis-grid", ["build-theory", "--grid", "L:log:1:10:50", "--out", "oneaxis"]),
    ("build-set-L", ["build-theory", "--n", "20000", "--compare-analytic", "--seed", "1849",
                     "--out", "campL"]),
    ("build-set-T", ["build-theory", "--n", "20000", "--compare-analytic", "--mode", "set_T",
                     "--seed", "1850", "--out", "campT"]),
    ("build-linear", ["build-theory", "--grid", LINEAR, "--n", "20000", "--compare-analytic",
                      "--seed", "1851", "--out", "campLin"]),
    ("infer-T", ["infer", "--theory", "default", "--measure", "T:lognormal:1.0:0.005"]),
    ("infer-T-and-L", ["infer", "--theory", "default", "--measure", "T:lognormal:0.8:0.005",
                       "--measure", "L:lognormal:3.14:0.02", "--query", "L"]),
    ("infer-out", ["infer", "--theory", "default", "--measure", "T:lognormal:1.2:0.005",
                   "--query", "L", "--out", "post-L.json"]),
    ("infer-L-query-T", ["infer", "--theory", "default", "--measure", "L:lognormal:4.0:0.02"]),
    ("infer-boxcar", ["infer", "--theory", "default", "--measure", "T:boxcar:1.0:0.01"]),
    ("infer-noninformative", ["infer", "--theory", "default", "--measure", "T:noninformative",
                              "--query", "T"]),
    ("predict-T", ["predict", "--theory", "default", "--known", "T:lognormal:0.9:0.005",
                   "--query", "L"]),
    ("predict-L-out", ["predict", "--theory", "default", "--known", "L:lognormal:5.0:0.01",
                       "--query", "T", "--out", "post-T.json"]),
    ("infer-spikes", ["infer", "--theory", "spikes", "--measure", "T:lognormal:1.0:0.05"]),
    ("infer-log-frame", ["infer", "--theory", "logframe", "--measure", "T:gaussian:0.0:0.005"]),
    ("predict-log-frame", ["predict", "--theory", "logframe", "--known", "L:gaussian:1.5:0.01",
                           "--query", "T"]),
    ("infer-linear", ["infer", "--theory", "linear", "--measure", "T:gaussian:1.0:0.01"]),
    ("infer-linear-L", ["infer", "--theory", "linear", "--measure", "L:gaussian:8.0:0.1",
                        "--query", "T"]),
    ("infer-linear-lognormal", ["infer", "--theory", "linear", "--measure",
                                "T:lognormal:1.0:0.3"]),
    ("infer-linear-noninformative-L", ["infer", "--theory", "linear", "--measure",
                                       "T:lognormal:1.0:0.3", "--measure", "L:noninformative"]),
    ("infer-linear-boxcar", ["infer", "--theory", "linear", "--measure", "T:boxcar:1.0:0.3"]),
    ("infer-small-wide", ["infer", "--theory", "small", "--measure", "T:lognormal:1.3:0.3"]),
    ("infer-empirical-L", ["infer", "--theory", "campL", "--measure", "T:lognormal:1.0:0.05"]),
    ("predict-empirical-T", ["predict", "--theory", "campT", "--known", "L:lognormal:4.9:0.05",
                             "--query", "T"]),
    ("predict-empirical-linear", ["predict", "--theory", "campLin", "--known",
                                  "T:lognormal:1.0:0.02", "--query", "L"]),
    ("infer-T-lower-edge", ["infer", "--theory", "default", "--measure",
                            "T:lognormal:0.4516:0.005"]),
    ("infer-T-upper-edge", ["infer", "--theory", "default", "--measure",
                            "T:lognormal:1.4278:0.005"]),
    ("infer-L-lower-edge-query-T", ["infer", "--theory", "default", "--measure",
                                    "L:lognormal:1.0:0.02", "--query", "T"]),
    ("infer-empirical-narrow", ["infer", "--theory", "campL", "--measure",
                                "T:lognormal:1.0:0.005"]),
    ("refuse-unknown-axis", ["infer", "--theory", "default", "--measure",
                             "T:lognormal:1.0:0.005", "--query", "Z"]),
    ("refuse-off-grid", ["infer", "--theory", "default", "--measure", "T:lognormal:9.0:0.01"]),
    ("refuse-boxcar-off-grid", ["infer", "--theory", "default", "--measure", "T:boxcar:9.0:0.1"]),
    ("refuse-boxcar-sliver", ["infer", "--theory", "small", "--measure",
                              "T:boxcar:1.4379:0.01005"]),
    ("refuse-contradiction", ["infer", "--theory", "small", "--measure", "T:boxcar:0.5:0.01",
                              "--measure", "L:boxcar:9.5:0.1"]),
    ("convert-csv", ["convert", "--in", "small.npz", "--out", "small.csv"]),
    ("convert-json", ["convert", "--in", "small.npz", "--out", "small.json"]),
    ("convert-map-log", ["convert", "--in", "small.npz", "--out", "small-log.json",
                         "--map", "L:log", "--map", "T:log"]),
    ("convert-map-power", ["convert", "--in", "small.npz", "--out", "small-pow.json",
                           "--map", "L:power:0.5"]),
    ("refuse-map-off-lattice", ["convert", "--in", "small.npz", "--out", "small-aff.json",
                                "--map", "L:affine:2:1"]),
    ("benford-sampled", ["benford", "--n", "1000", "--seed", "7"]),
    ("refuse-benford-bounds", ["benford", "--n", "10", "--lower", "0"]),
    ("axioms", ["axioms"]),
    ("paradox-60", ["paradox", "--count", "60"]),
    ("paradox", ["paradox"]),
    ("paradox-5", ["paradox", "--count", "5"]),
    ("paradox-7", ["paradox", "--count", "7"]),
    ("paradox-21", ["paradox", "--count", "21"]),
    ("paradox-2", ["paradox", "--count", "2"]),
    ("paradox-lower-edge", ["paradox", "--slice-value", "0.2465969639416065"]),
    ("paradox-upper-edge", ["paradox", "--slice-value", "4.0551999668446745"]),
    ("paradox-upper-edge-sub-cell", ["paradox", "--count", "7", "--slice-value",
                                     "4.0551999668446745", "--width-cells", "0.5"]),
    ("paradox-width-4", ["paradox", "--width-cells", "4"]),
    ("paradox-width-3", ["paradox", "--width-cells", "3"]),
    ("paradox-sigma-diff-1e-160", ["paradox", "--sigma-diff", "1e-160"]),
    ("refuse-paradox-sigma-sum-1e-200", ["paradox", "--sigma-sum", "1e-200"]),
    ("refuse-paradox-band-on-no-node", ["paradox", "--count", "21", "--width-cells", "1e-300"]),
    ("no-arguments", []),
    ("help", ["--help"]),
    ("infer-help", ["infer", "--help"]),
    ("build-theory-help", ["build-theory", "--help"]),
    ("unknown-command", ["bogus", "--n", "1"]),
    ("unrecognized-arguments", ["infer", "--bogus", "1"]),
    ("bad-type", ["paradox", "--count", "x"]),
    ("refuse-bare-array", ["infer", "--theory", "bare", "--measure", "T:lognormal:1.0:0.05"]),
    ("refuse-bit-flip", ["infer", "--theory", "flipped", "--measure", "T:lognormal:1.0:0.05"]),
]


def _bare_array() -> None:
    """``bare.npz``: a lone ``.npy`` array where a theory archive should be."""
    with open("bare.npz", "wb") as fh:
        np.save(fh, np.arange(5.0))


def _bit_flip() -> None:
    """``flipped.npz``: ``small.npz`` with one bit of its band's last value
    flipped.  The archive is stored uncompressed, so the byte lies at a known
    offset past the member's local header."""
    raw = bytearray(Path("small.npz").read_bytes())
    with zipfile.ZipFile("small.npz") as z:
        info = z.getinfo("band.npy")
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size - 8] ^= 0x01
    Path("flipped.npz").write_bytes(bytes(raw))


# Inputs a run reads that no earlier run writes, made just before it.
PREPARE = {"refuse-bare-array": _bare_array, "refuse-bit-flip": _bit_flip}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array(a: np.ndarray) -> dict:
    return {"dtype": str(a.dtype), "shape": list(a.shape), "sha256": _sha(a.tobytes())}


def _theory_record(path: Path, read_theory) -> dict:
    with np.load(path) as z:
        members = {k: (str(z[k]) if k == "header" else _array(z[k])) for k in z.files}
    theory = read_theory(path)
    return {
        "members": members,
        "joint": _array(theory.joint.values),
        "mu": [_array(f) for f in theory.mu_factors],
    }


def _file_record(path: Path, read_theory) -> dict:
    if path.suffix == ".npz":
        return _theory_record(path, read_theory)
    out = {"sha256": _sha(path.read_bytes())}
    if path.suffix == ".json":
        out["json"] = json.loads(path.read_text(encoding="utf-8"))
    return out


def record(out_path: Path) -> list[str]:
    """Run the corpus with the ``inferspace`` on ``sys.path``, write one
    JSON record per run to ``out_path`` and return the names of the runs
    that raised.  A run that raises is recorded with exit 1 and its
    traceback's last line on stderr, so the corpus of a newer change still
    records on an older package; ``record`` then exits 1 all the same."""
    from inferspace.cli import main
    from inferspace.io import read_theory

    out_path = out_path.resolve()
    os.environ["COLUMNS"] = "80"  # argparse wraps its help and usage to this width
    lines, crashed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in RUNS:
                if name in PREPARE:
                    PREPARE[name]()
                before = set(os.listdir("."))
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse's help, usage and errors
                        code = exc.code
                    except Exception as exc:  # as a process would end: exit 1, a traceback
                        code = 1
                        crashed.append(name)
                        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                written = sorted(set(os.listdir(".")) - before)
                lines.append({
                    "name": name,
                    "argv": argv,
                    "exit": code,
                    "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue(),
                    "files": {f: _file_record(Path(f), read_theory) for f in written},
                })
        finally:
            os.chdir(home)
    out_path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    return crashed


def _diff(a, b, where: str) -> list[str]:
    """Where ``a`` and ``b`` differ: floats beyond FLOAT_RTOL, anything else
    at all."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)):
            return []
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in a for d in _diff(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _diff(x, y, f"{where}[{i}]")]
    return [] if type(a) is type(b) and a == b else [f"{where}: {a!r} != {b!r}"]


def _report(run: dict):
    """The run's stdout as JSON, so its floats compare to a tolerance."""
    try:
        return json.loads(run["stdout"])
    except json.JSONDecodeError:
        return run["stdout"]


def compare(a_path: Path, b_path: Path) -> list[str]:
    """Every difference between two recordings."""
    a, b = ([json.loads(line) for line in p.read_text(encoding="utf-8").splitlines()]
            for p in (a_path, b_path))
    if [r["name"] for r in a] != [r["name"] for r in b]:
        return ["the recordings hold different runs"]
    diffs = []
    for ra, rb in zip(a, b):
        name = ra["name"]
        for key in ("argv", "exit", "stderr"):
            diffs += _diff(ra[key], rb[key], f"{name}.{key}")
        diffs += _diff(_report(ra), _report(rb), f"{name}.stdout")
        files_a, files_b = ra["files"], rb["files"]
        if files_a.keys() != files_b.keys():
            diffs.append(f"{name}.files: {sorted(files_a)} != {sorted(files_b)}")
            continue
        for f in files_a:
            fa, fb = files_a[f], files_b[f]
            if "json" in fa and "json" in fb:
                # A JSON file's floats compare to the tolerance, not its bytes.
                fa, fb = fa["json"], fb["json"]
            diffs += _diff(fa, fb, f"{name}.files[{f}]")
    return diffs


def _main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "record":
        crashed = record(Path(argv[1]))
        for name in crashed:
            print(f"{name} raised", file=sys.stderr)
        return 1 if crashed else 0
    if len(argv) == 3 and argv[0] == "compare":
        diffs = compare(Path(argv[1]), Path(argv[2]))
        for d in diffs:
            print(d)
        print(f"{len(diffs)} difference(s)")
        return 1 if diffs else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
