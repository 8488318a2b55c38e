"""Reading and writing densities and theories.

Densities travel as self-describing JSON: axis headers, frame label,
normalization flag, and the value array flattened row-major over axis order.
CSV export is one row per node for plotting.  Both are export formats.

A theory is one uncompressed ``<base>.npz`` archive, format version 4.  The
joint is stored by its rows, ``values.reshape(-1, shape[-1])`` (a 1-D theory
is one row): ``lo`` and ``hi`` (int64) hold each row's first and
one-past-the-last nonzero column, ``lo == hi`` for an all-zero row, and
``band`` (float64, 1-D) holds the values between them, row after row,
interior zeros included.  One ``mu_<k>`` array per axis k holds μ's factor
on that axis, and a ``header``, a 0-d string array, holds JSON with the
format name and version, the axis headers, the frame, the joint's
normalization flag and the provenance record.  Every value reads back bit for
bit, into one dense frozen joint.  Only version 4 is read; a file of an
older version is refused by its header's version, and rerunning the command
that wrote it rebuilds it.

Every writer goes through a temporary file in the target's directory that is
synced and renamed onto the target, so the target is always either whole or
absent.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .density import Density, integrate
from .errors import InferenceSpaceError, IOFailure, SchemaError
from .grids import Axis, Grid
from .theory import Provenance, TheoryDensity

FORMAT_NAME = "inferspace-density"
FORMAT_VERSION = 1


@contextlib.contextmanager
def _replacing(target: Path, mode: str = "wb"):
    """Yield a file opened in ``mode`` whose contents replace ``target`` in
    one rename once the block ends; on any failure the target is untouched
    and the temporary file is removed.  An OSError becomes IOFailure."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, mode, **text) as fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOFailure(f"cannot write {target}: {exc}") from exc


# ---------------------------------------------------------------------------
# density JSON
# ---------------------------------------------------------------------------

def density_to_dict(d: Density) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "axes": [ax.to_header() for ax in d.grid.axes],
        "frame": d.frame,
        "normalized": d.normalized,
        "values": d.values.ravel().tolist(),
    }


def density_from_dict(doc: dict) -> Density:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT_NAME:
        raise SchemaError(f"not a density document: format is {doc.get('format')!r}")
    if int(doc.get("version", -1)) != FORMAT_VERSION:
        raise SchemaError(f"unsupported document version {doc.get('version')!r}")
    try:
        axes = tuple(Axis.from_header(h) for h in doc["axes"])
        grid = Grid.of(*axes)
        values = np.asarray(doc["values"], dtype=np.float64).reshape(grid.shape)
        frame = str(doc.get("frame", ""))
        normalized = bool(doc.get("normalized", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed density document: {exc}") from exc
    d = Density(grid, values, frame=frame, normalized=normalized)
    _check_normalized_flag(d)
    return d


def _check_normalized_flag(d: Density) -> None:
    """Refuse a density flagged normalized whose mass is more than 1e-9 from
    1: the flag lets the AND and ``summarize`` skip normalizing.  The mass is
    integrated only when the flag is set."""
    if d.normalized:
        mass = integrate(d)
        if not abs(mass - 1.0) <= 1e-9:
            raise SchemaError(f"the density is flagged normalized but its mass is {mass!r}")


def write_density(d: Density, path: str | Path) -> None:
    with _replacing(Path(path), "w") as fh:
        json.dump(density_to_dict(d), fh)
        fh.write("\n")


def read_density(path: str | Path) -> Density:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return density_from_dict(doc)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_csv(d: Density, path: str | Path) -> None:
    """One row per node: axis coordinates then the density value."""
    header = io.StringIO()  # axis names may need CSV quoting
    csv.writer(header).writerow([*d.grid.names, "density"])
    *outer, inner = ([repr(c) for c in ax.nodes.tolist()] for ax in d.grid.axes)
    prefixes = [f"{x}," for x in outer[0]] if outer else [""]
    with _replacing(Path(path), "w") as fh:
        fh.write(header.getvalue())
        for prefix, row in zip(prefixes, d.values.reshape(len(prefixes), -1)):
            fh.write("".join([f"{prefix}{y},{v!r}\r\n" for y, v in zip(inner, row.tolist())]))


# ---------------------------------------------------------------------------
# theories
# ---------------------------------------------------------------------------

THEORY_FORMAT_NAME = "inferspace-theory"
THEORY_FORMAT_VERSION = 4
# Rows whose bands are found together, so the mask of nonzero values stays a
# small fraction of the joint.
_BAND_BLOCK_ROWS = 64


def _theory_path(path: str | Path) -> Path:
    """The file a theory named ``path`` lives in: ``<base>.npz``, where a
    ``.json`` or ``.npz`` suffix is stripped to find ``<base>``."""
    path = Path(path)
    base = path.with_suffix("") if path.suffix in (".json", ".npz") else path
    return base.with_name(base.name + ".npz")


def _theory_header(t: TheoryDensity) -> str:
    return json.dumps(
        {
            "format": THEORY_FORMAT_NAME,
            "version": THEORY_FORMAT_VERSION,
            "axes": [ax.to_header() for ax in t.joint.grid.axes],
            "frame": t.joint.frame,
            "normalized": t.joint.normalized,
            "provenance": t.provenance.as_dict(),
        }
    )


def _row_bands(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first and one-past-the-last column whose value is not +0.0
    (bitwise, so a -0.0 is kept); ``lo == hi == 0`` for an all-zero row."""
    ncols = rows.shape[1]
    bits = rows.view(np.int64)
    lo = np.zeros(len(rows), np.int64)
    hi = np.zeros(len(rows), np.int64)
    for start in range(0, len(rows), _BAND_BLOCK_ROWS):
        block = slice(start, start + _BAND_BLOCK_ROWS)
        nonzero = bits[block] != 0
        found = nonzero.any(axis=1)
        lo[block] = np.where(found, nonzero.argmax(axis=1), 0)
        hi[block] = np.where(found, ncols - nonzero[:, ::-1].argmax(axis=1), 0)
    return lo, hi


def write_theory(t: TheoryDensity, path: str | Path) -> Path:
    """Write ``t`` atomically to ``<base>.npz`` and return that path."""
    target = _theory_path(path)
    values = t.joint.values
    rows = values.reshape(-1, values.shape[-1])
    lo, hi = _row_bands(rows)
    band = np.concatenate([row[a:b] for row, a, b in zip(rows, lo.tolist(), hi.tolist())])
    factors = {f"mu_{k}": f for k, f in enumerate(t.mu_factors)}
    with _replacing(target) as fh:
        np.savez(fh, header=np.array(_theory_header(t)), lo=lo, hi=hi, band=band, **factors)
    return target


def _header(raw: np.ndarray) -> dict:
    if raw.ndim != 0 or raw.dtype.kind != "U":
        raise SchemaError(f"header is {raw.dtype}{raw.shape}, expected a 0-d string")
    try:
        header = json.loads(str(raw))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaError(f"header is a JSON {type(header).__name__}, expected an object")
    if header.get("format") != THEORY_FORMAT_NAME:
        raise SchemaError(f"not a theory archive: format is {header.get('format')!r}")
    if header.get("version") != THEORY_FORMAT_VERSION:
        raise SchemaError(f"unsupported theory version {header.get('version')!r}")
    return header


def _member(archive, name: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
    values = archive[name]
    if values.dtype != dtype or values.shape != shape:
        raise SchemaError(
            f"member {name!r} is {values.dtype}{values.shape}, "
            f"expected {np.dtype(dtype)}{shape}"
        )
    # Frozen, so TheoryDensity shares the freshly read array instead of copying it.
    values.setflags(write=False)
    return values


def _joint_values(archive, shape: tuple[int, ...]) -> np.ndarray:
    """The joint, scattered from its row bands into one zeroed array."""
    ncols = shape[-1]
    nrows = math.prod(shape[:-1])
    lo = _member(archive, "lo", np.int64, (nrows,))
    hi = _member(archive, "hi", np.int64, (nrows,))
    if not np.all((lo >= 0) & (lo <= hi) & (hi <= ncols)):
        raise SchemaError(f"row bands are not all 0 <= lo <= hi <= {ncols}")
    band = _member(archive, "band", np.float64, (int((hi - lo).sum()),))
    values = np.zeros(shape)
    start = 0
    for row, a, b in zip(values.reshape(nrows, ncols), lo.tolist(), hi.tolist()):
        row[a:b] = band[start:start + b - a]
        start += b - a
    # Frozen, so Density shares the scattered array instead of copying it.
    values.setflags(write=False)
    return values


def _members(archive, names) -> None:
    missing = [m for m in names if m not in archive.files]
    if missing:
        raise SchemaError(f"not a theory archive: missing member(s) {missing}")


def _theory_from_archive(archive) -> TheoryDensity:
    # The version is checked before the members, so an older file is
    # refused by its version rather than by the members it lacks.
    _members(archive, ("header",))
    header = _header(archive["header"])
    try:
        grid = Grid.of(*(Axis.from_header(h) for h in header["axes"]))
        frame = str(header["frame"])
        normalized = bool(header["normalized"])
        provenance = Provenance.from_dict(header["provenance"])
    except (InferenceSpaceError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed theory header: {exc!r}") from exc
    mu_names = [f"mu_{k}" for k in range(grid.ndim)]
    _members(archive, ("lo", "hi", "band", *mu_names))
    joint = _joint_values(archive, grid.shape)
    mu = [_member(archive, name, np.float64, (ax.count,))
          for name, ax in zip(mu_names, grid.axes)]
    try:
        joint = Density(grid, joint, frame=frame, normalized=normalized)
        theory = TheoryDensity(joint, mu, provenance)
    except InferenceSpaceError as exc:
        raise SchemaError(f"invalid theory values: {exc}") from exc
    _check_normalized_flag(joint)
    return theory


def read_theory(path: str | Path) -> TheoryDensity:
    """Read the theory at ``<base>.npz`` (format version 4)."""
    target = _theory_path(path)
    # A damaged zip fails in np.load or on reading a member, depending on
    # where the damage is; a file of another kind fails in np.load.
    damaged = (EOFError, ValueError, zipfile.BadZipFile, zlib.error)
    # The file is opened here, not by np.load: np.load leaves a file it
    # opened itself open when the zip directory is damaged.
    try:
        fh = target.open("rb")
    except OSError as exc:
        raise IOFailure(f"cannot read {target}: {exc}") from exc
    with fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except OSError as exc:
            raise IOFailure(f"cannot read {target}: {exc}") from exc
        except damaged as exc:
            raise SchemaError(f"{target} is not a theory archive: {exc}") from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise SchemaError(f"{target} holds a bare array, not a theory archive")
        with archive:
            try:
                return _theory_from_archive(archive)
            except SchemaError as exc:
                raise SchemaError(f"{target}: {exc}") from exc
            except damaged as exc:
                raise SchemaError(f"{target} is a damaged theory archive: {exc}") from exc
