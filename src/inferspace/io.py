"""Reading and writing densities and theories.

Densities travel as self-describing JSON: axis headers and the value array
flattened row-major over axis order.  The axes are the density's whole
parameter space.  Older files may carry a ``"frame"`` key, which is ignored,
and a ``"normalized"`` flag, which must be a boolean and, when true, needs
unit mass to 1e-9; neither is kept.  CSV export is one row per node for
plotting.  Both are export formats.

A theory is one flat file, ``<base>.theory``, format version 5, over a 2D
grid.  Its first line is ``inferspace-theory 5 <crc>``, where ``<crc>`` is
8 hex digits: the CRC-32 of every byte after that line.  A JSON line
follows with the axis headers, the provenance record and ``band_length``,
padded with spaces so that the data starts on a 64-byte boundary.  The
header also carries ``"frame"`` (the axis names joined by a comma) and
``"normalized": false``, as format 4's did; the reader checks them (a
string, and a boolean that, when true, needs a joint of unit mass) but
keeps neither.  The data is the joint by its rows: ``lo`` and ``hi``
(little-endian int64, one per row) hold each row's first and
one-past-the-last nonzero column, ``lo == hi`` for an all-zero row, then
``band`` (float64) holds the values between them, row after row, interior
zeros included, then one μ factor per axis (float64, one per node).  Each
array is zero-padded to a multiple of 64 bytes.  Every size follows from
the header, so a file of any other length is refused.

The reader takes the whole file with one ``readinto`` into one uint8
buffer, checks the CRC, makes the buffer read-only and hands aligned views
of it to the ``TheoryDensity``, whose checks of every shape and value all
run; the theory shares those views, so nothing is copied and no dense joint
is built.  Every value reads back bit for bit.  A zip archive, as theory
files of formats 2 to 4 were, is refused, as is a ``<base>.npz`` where no
``<base>.theory`` is: rerunning the command that wrote it rebuilds it.

Every writer goes through a temporary file in the target's directory that is
synced and renamed onto the target, so the target is always either whole or
absent.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import zlib
from pathlib import Path

import numpy as np

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
THEORY_FORMAT_VERSION = 5

_ALIGN = 64
_ZEROS = bytes(_ALIGN)
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")
# The first line: the format's name and version, and the CRC-32 of every
# byte after the line as 8 hex digits.
_PREFIX = f"{THEORY_FORMAT_NAME} ".encode()
_FIRST_LINE = re.compile(re.escape(_PREFIX) + rb"([^ \n]+) ([0-9a-f]{8})\n")
_FIRST_LINE_BYTES = len(f"{THEORY_FORMAT_NAME} {THEORY_FORMAT_VERSION} 01234567\n")
_NEWLINE = re.compile(b"\n")


def _theory_path(path: str | Path) -> Path:
    """The file a theory named ``path`` lives in: ``<base>.theory``, where a
    ``.json``, ``.npz`` or ``.theory`` suffix is stripped to find ``<base>``."""
    path = Path(path)
    base = path.with_suffix("") if path.suffix in (".json", ".npz", ".theory") else path
    return base.with_name(base.name + ".theory")


def _padding(nbytes: int) -> int:
    return -nbytes % _ALIGN


def _dtypes(ndim: int) -> tuple[str, ...]:
    """The dtype of each array a theory file holds, in file order: ``lo``,
    ``hi``, ``band``, then one μ factor per axis."""
    return ("<i8", "<i8", "<f8", *["<f8"] * ndim)


def _write_section(fh, values: np.ndarray) -> None:
    """Write ``values``' bytes, zero-padded to a multiple of 64."""
    fh.write(values)
    fh.write(_ZEROS[:_padding(values.nbytes)])


def write_theory(t: TheoryDensity, path: str | Path) -> Path:
    """Write ``t`` atomically to ``<base>.theory`` and return that path."""
    target = _theory_path(path)
    arrays = (t.lo, t.hi, t.band, *t.mu_factors)
    sections = [np.ascontiguousarray(a, d) for a, d in zip(arrays, _dtypes(t.grid.ndim))]
    header = json.dumps(
        {
            "axes": [ax.to_header() for ax in t.grid.axes],
            "frame": ",".join(t.grid.names),
            "normalized": False,
            "provenance": t.provenance.as_dict(),
            "band_length": t.band.size,
        }
    ).encode()
    header += b" " * _padding(_FIRST_LINE_BYTES + len(header) + 1) + b"\n"
    crc = zlib.crc32(header)
    for s in sections:
        crc = zlib.crc32(_ZEROS[:_padding(s.nbytes)], zlib.crc32(s, crc))
    with _replacing(target) as fh:
        fh.write(f"{THEORY_FORMAT_NAME} {THEORY_FORMAT_VERSION} {crc:08x}\n".encode() + header)
        for s in sections:
            _write_section(fh, s)
    return target


def _older_file(path: Path) -> str:
    return (f"{path} is a theory file of format 4 or older, or another zip archive; "
            f"rerun the command that wrote it")


def _theory_from_bytes(buf: np.ndarray) -> TheoryDensity:
    """The theory whose file's bytes are ``buf``, a uint8 array that it
    makes read-only; the theory's arrays are views of it."""
    first = _FIRST_LINE.match(buf)
    if first is None:
        raise SchemaError(f"not a theory file: it does not begin with the line "
                          f"'{THEORY_FORMAT_NAME} {THEORY_FORMAT_VERSION} <crc>'")
    if first[1] != str(THEORY_FORMAT_VERSION).encode():
        raise SchemaError(f"unsupported theory version {first[1].decode(errors='replace')}")
    if zlib.crc32(buf[first.end():]) != int(first[2], 16):
        raise SchemaError("the CRC-32 of its contents is not the one on its first line: "
                          "the file is damaged")
    end = _NEWLINE.search(buf, first.end())
    if end is None:
        raise SchemaError("its header line does not end")
    try:
        header = json.loads(buf[first.end():end.start()].tobytes())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise SchemaError(f"header is a JSON {type(header).__name__}, expected an object")
    try:
        grid = Grid.of(*(Axis.from_header(h) for h in header["axes"]))
        # The frame and flag format 4 wrote are written and checked as ever, not kept.
        header_value(header, "frame", str)
        normalized = header_value(header, "normalized", bool)
        provenance = Provenance.from_dict(header["provenance"])
        band_length = header_value(header, "band_length", int)
    # AttributeError: an axis header or the provenance that is not an object
    except (InferenceSpaceError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed theory header: {exc!r}") from exc
    if band_length < 0:
        raise SchemaError(f"the band length {band_length} is negative")
    start = end.end()
    if start % _ALIGN:
        raise SchemaError(f"its data starts at byte {start}, not on a {_ALIGN}-byte boundary")
    # lo and hi hold one entry per row, a μ factor one per node of its axis.
    sizes = [8 * n for n in (grid.shape[0], grid.shape[0], band_length, *grid.shape)]
    expected = start + sum(n + _padding(n) for n in sizes)
    if buf.size != expected:
        raise SchemaError(f"the file is {buf.size} bytes, but its header gives {expected}")
    buf.flags.writeable = False
    arrays = []
    for dtype, n in zip(_dtypes(grid.ndim), sizes):
        arrays.append(buf[start:start + n].view(dtype))
        start += n + _padding(n)
    lo, hi, band, *mu = arrays
    try:
        theory = TheoryDensity(grid, lo, hi, band, mu, provenance)
    except InferenceSpaceError as exc:
        raise SchemaError(f"invalid theory values: {exc}") from exc
    _check_normalized_flag(normalized, lambda: theory._band_mass)
    return theory


def _read_theory_file(target: Path) -> TheoryDensity:
    try:
        with open(target, "rb", buffering=0) as fh:
            buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
            got = fh.readinto(buf)
    except OSError as exc:
        raise IOFailure(f"cannot read {target}: {exc}") from exc
    if buf[:4].tobytes() in _ZIP_MAGIC:
        raise SchemaError(_older_file(target))
    try:
        if got != buf.size:
            raise SchemaError(f"it shrank to {got} bytes while it was read")
        return _theory_from_bytes(buf)
    except SchemaError as exc:
        raise SchemaError(f"{target}: {exc}") from exc


def read_theory(path: str | Path) -> TheoryDensity:
    """Read the theory at ``<base>.theory`` (format version 5).  Where that
    file is missing but ``<base>.npz`` is there, the older file is refused."""
    target = _theory_path(path)
    if not target.exists() and (older := target.with_suffix(".npz")).is_file():
        raise SchemaError(_older_file(older))
    return _read_theory_file(target)


def _theory_in(path: str | Path) -> TheoryDensity | None:
    """The theory ``path`` holds, judged by content as ``convert --in``
    takes it, or None where it holds none, so it is a density file: ``path``
    itself if it is a file that begins like a theory file or a zip (which is
    refused as an older theory), else ``<base>.theory`` if ``path`` is not a
    file and that one is."""
    path = Path(path)
    if not path.is_file():
        return read_theory(path) if _theory_path(path).is_file() else None
    try:
        with path.open("rb") as fh:
            head = fh.read(len(_PREFIX))
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    return _read_theory_file(path) if head == _PREFIX or head[:4] in _ZIP_MAGIC else None
