"""Reading and writing densities and theories.

Densities travel as self-describing JSON: axis headers and the value array
flattened row-major over axis order.  The axes are the density's whole
parameter space.  Older files may carry a ``"frame"`` key, which is ignored,
and a ``"normalized"`` flag, which must be a boolean and, when true, needs
unit mass to 1e-9; neither is kept.  CSV export is one row per node for
plotting.  Both are export formats.

A theory is one uncompressed ``<base>.npz`` archive, format version 4, over a
2D grid.  The joint is stored by its rows: ``lo`` and ``hi`` (int64) hold
each row's first and one-past-the-last nonzero column, ``lo == hi`` for an
all-zero row, and ``band`` (float64, 1-D) holds the values between them, row
after row, interior zeros included.  One ``mu_<k>`` array per axis k holds
μ's factor on that axis, and a ``header``, a 0-d string array, holds JSON
with the format name and version, the axis headers and the provenance
record.  The header also carries ``"frame"`` (the axis names joined by a
comma) and ``"normalized": false``; the reader checks them as format 4
always has (a string, and a boolean that, when true, needs a joint of unit
mass), but keeps neither.  The reader takes each member's bytes from the zip
with ``ZipFile.read``, which checks their CRC, parses the ``.npy`` header
with ``numpy.lib.format`` (refusing an object dtype, and data shorter than
the header's shape), and makes a read-only array that shares those bytes:
the members ``np.load`` would give, without its copies.  It checks that
each member is present and of its dtype; the ``TheoryDensity`` checks their
shapes.  Every value reads back bit for bit, and the arrays go straight
into the ``TheoryDensity``, which holds the joint by the same bands: no
dense joint is built.  Only
version 4 is read; a file of an older version is refused by its header's
version, and rerunning the command that wrote it rebuilds it.

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
from numpy.lib import format as npy_format

from .density import Density, integrate
from .errors import InferenceSpaceError, IOFailure, SchemaError
from .grids import Axis, Grid, header_value
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

def density_from_dict(doc: dict) -> Density:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT_NAME:
        raise SchemaError(f"not a density document: format is {doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported document version {doc.get('version')!r}")
    try:
        grid = Grid.of(*(Axis.from_header(h) for h in doc["axes"]))
        values = np.asarray(doc["values"], dtype=np.float64).reshape(grid.shape)
        normalized = header_value(doc, "normalized", bool, False)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed density document: {exc}") from exc
    d = Density(grid, values)
    _check_normalized_flag(normalized, lambda: integrate(d))
    return d


def _check_normalized_flag(normalized: bool, mass) -> None:
    """Refuse a file flagged normalized whose ``mass()`` is more than 1e-9
    from 1; ``mass`` is called only when the flag is set."""
    if normalized and not abs((m := mass()) - 1.0) <= 1e-9:
        raise SchemaError(f"the density is flagged normalized but its mass is {m!r}")


def write_density(d: Density, path: str | Path) -> None:
    """Write ``d`` as a JSON document and a newline: its format, version,
    axis headers and values, flattened row-major, byte for byte as
    ``json.dump`` writes them.  ``json.dumps``, whose C encoder is faster
    than the pure one ``json.dump`` runs, encodes the values a grid row at a
    time, so a 2-D density's values never become one string."""
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
           "axes": [ax.to_header() for ax in d.grid.axes], "values": []}
    # The document with no values, cut before the list's closing "]}".
    head = json.dumps(doc)[:-2]
    with _replacing(Path(path), "w") as fh:
        fh.write(head)
        sep = ""
        for row in d.values.reshape(-1, d.grid.shape[-1]):
            fh.write(sep + json.dumps(row.tolist())[1:-1])
            sep = ", "
        fh.write("]}\n")


def read_density(path: str | Path) -> Density:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, bytes that are not UTF-8, or an integer past
        # Python's int-string limit
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
            "axes": [ax.to_header() for ax in t.grid.axes],
            "frame": ",".join(t.grid.names),
            "normalized": False,
            "provenance": t.provenance.as_dict(),
        }
    )


def write_theory(t: TheoryDensity, path: str | Path) -> Path:
    """Write ``t`` atomically to ``<base>.npz`` and return that path."""
    target = _theory_path(path)
    factors = {f"mu_{k}": f for k, f in enumerate(t.mu_factors)}
    with _replacing(target) as fh:
        np.savez(fh, header=np.array(_theory_header(t)), lo=t.lo, hi=t.hi, band=t.band,
                 **factors)
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


def _npy(data: bytes) -> np.ndarray:
    """The array held by the bytes of one ``.npy`` member.  It shares
    ``data``, so it is read-only; bytes past its data are ignored, as
    ``np.load`` ignores them."""
    fh = io.BytesIO(data)
    version = npy_format.read_magic(fh)
    if version == (1, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
    elif version in ((2, 0), (3, 0)):
        # Version 3 differs from 2 only by a UTF-8 header, which the
        # numeric and string dtypes of a theory never need.
        shape, fortran_order, dtype = npy_format.read_array_header_2_0(fh)
    else:
        raise ValueError(f"unsupported .npy format version {version}")
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    count, start = math.prod(shape), fh.tell()
    if len(data) - start < count * dtype.itemsize:
        raise ValueError(f"EOF: reading array data, expected {count * dtype.itemsize} "
                         f"bytes got {len(data) - start}")
    values = np.frombuffer(data, dtype, count, start)
    return values.reshape(shape[::-1]).T if fortran_order else values.reshape(shape)


def _member(read, name: str, dtype) -> np.ndarray:
    """The member ``name``, refused unless it is of ``dtype``, which the
    ``TheoryDensity`` would convert it to; the theory checks its shape."""
    values = read(name)
    if values.dtype != dtype:
        raise SchemaError(f"member {name!r} is {values.dtype}{values.shape}, "
                          f"expected {np.dtype(dtype)}{values.shape}")
    return values


def _members(stored: dict[str, str], names) -> None:
    missing = [m for m in names if m not in stored]
    if missing:
        raise SchemaError(f"not a theory archive: missing member(s) {missing}")


def _theory_from_archive(archive: zipfile.ZipFile) -> TheoryDensity:
    # Each member by the name np.load gives it: the entry's name with any
    # ".npy" stripped, an entry stored without the suffix taken first.
    names = archive.namelist()
    stored = {n[:-4]: n for n in names if n.endswith(".npy")}
    stored.update((n, n) for n in names if not n.endswith(".npy"))

    def read(name: str) -> np.ndarray:
        return _npy(archive.read(stored[name]))

    # The version is checked before the members, so an older file is
    # refused by its version rather than by the members it lacks.
    _members(stored, ("header",))
    header = _header(read("header"))
    try:
        grid = Grid.of(*(Axis.from_header(h) for h in header["axes"]))
        # Format 4's frame and flag are checked as ever, though not kept.
        header_value(header, "frame", str)
        normalized = header_value(header, "normalized", bool)
        provenance = Provenance.from_dict(header["provenance"])
    except (InferenceSpaceError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed theory header: {exc!r}") from exc
    mu_names = [f"mu_{k}" for k in range(grid.ndim)]
    _members(stored, ("lo", "hi", "band", *mu_names))
    lo, hi = (_member(read, name, np.int64) for name in ("lo", "hi"))
    band, *mu = (_member(read, name, np.float64) for name in ("band", *mu_names))
    try:
        theory = TheoryDensity(grid, lo, hi, band, mu, provenance)
    except InferenceSpaceError as exc:
        raise SchemaError(f"invalid theory values: {exc}") from exc
    _check_normalized_flag(normalized, lambda: theory._band_mass)
    return theory


def read_theory(path: str | Path) -> TheoryDensity:
    """Read the theory at ``<base>.npz`` (format version 4)."""
    target = _theory_path(path)
    # A damaged zip fails on opening it or on reading a member, depending on
    # where the damage is; a damaged member fails on parsing its bytes.
    damaged = (EOFError, ValueError, zipfile.BadZipFile, zlib.error)
    try:
        fh = target.open("rb")
    except OSError as exc:
        raise IOFailure(f"cannot read {target}: {exc}") from exc
    with fh:
        try:
            magic = fh.read(len(npy_format.MAGIC_PREFIX))
            if magic == npy_format.MAGIC_PREFIX:
                raise SchemaError(f"{target} holds a bare array, not a theory archive")
            # What np.load takes for a zip: a local file header, or the end
            # record an empty archive starts with.
            if not magic.startswith((b"PK\x03\x04", b"PK\x05\x06")):
                raise SchemaError(f"{target} is not a theory archive: it is not a zip file")
            archive = zipfile.ZipFile(fh)
        except OSError as exc:
            raise IOFailure(f"cannot read {target}: {exc}") from exc
        except damaged as exc:
            raise SchemaError(f"{target} is not a theory archive: {exc}") from exc
        with archive:
            try:
                return _theory_from_archive(archive)
            except SchemaError as exc:
                raise SchemaError(f"{target}: {exc}") from exc
            except damaged as exc:
                raise SchemaError(f"{target} is a damaged theory archive: {exc}") from exc
