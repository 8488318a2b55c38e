"""Reading and writing densities and theories.

Densities travel as self-describing JSON: axis headers, frame label,
normalization flag, and the value array flattened row-major over axis order.
CSV export is one row per node for plotting.  Both are export formats.

A theory is one uncompressed ``<base>.npz`` archive: the ``joint`` and ``mu``
value arrays (float64, bit-exact) and a ``header``, a 0-d string array holding
JSON with the format name and version, the axis headers, the frame, both
normalization flags and the provenance record.  A version-1 theory, a density JSON
``<base>.json`` with ``<base>.mu.json`` and ``<base>.provenance.json`` beside
it, is still read when no ``<base>.npz`` exists.

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
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .density import Density
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
    return Density(grid, values, frame=frame, normalized=normalized)


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
THEORY_FORMAT_VERSION = 2
_THEORY_MEMBERS = ("header", "joint", "mu")


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
            "normalized": {"joint": t.joint.normalized, "mu": t.mu.normalized},
            "provenance": t.provenance.as_dict(),
        }
    )


def write_theory(t: TheoryDensity, path: str | Path) -> Path:
    """Write ``t`` atomically to ``<base>.npz`` and return that path."""
    target = _theory_path(path)
    with _replacing(target) as fh:
        np.savez(fh, header=np.array(_theory_header(t)), joint=t.joint.values, mu=t.mu.values)
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


def _values(archive, name: str, shape: tuple[int, ...]) -> np.ndarray:
    values = archive[name]
    if values.dtype != np.float64 or values.shape != shape:
        raise SchemaError(
            f"member {name!r} is {values.dtype}{values.shape}, expected float64{shape}"
        )
    # Frozen, so Density shares the freshly read array instead of copying it.
    values.setflags(write=False)
    return values


def _theory_from_archive(archive) -> TheoryDensity:
    missing = [m for m in _THEORY_MEMBERS if m not in archive.files]
    if missing:
        raise SchemaError(f"not a theory archive: missing member(s) {missing}")
    header = _header(archive["header"])
    try:
        grid = Grid.of(*(Axis.from_header(h) for h in header["axes"]))
        frame = str(header["frame"])
        flags = header["normalized"]
        normalized = bool(flags["joint"]), bool(flags["mu"])
        provenance = Provenance.from_dict(header["provenance"])
    except (InferenceSpaceError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed theory header: {exc!r}") from exc
    joint = _values(archive, "joint", grid.shape)
    mu = _values(archive, "mu", grid.shape)
    try:
        return TheoryDensity(
            Density(grid, joint, frame=frame, normalized=normalized[0]),
            Density(grid, mu, frame=frame, normalized=normalized[1]),
            provenance,
        )
    except InferenceSpaceError as exc:
        raise SchemaError(f"invalid theory values: {exc}") from exc


def read_theory(path: str | Path) -> TheoryDensity:
    """Read the theory at ``<base>.npz``, or a version-1 ``<base>.json``
    triple when there is no ``<base>.npz``."""
    target = _theory_path(path)
    legacy = target.with_suffix(".json")
    if not target.exists() and legacy.exists():
        return _read_theory_v1(legacy)
    # A damaged zip fails in np.load or on reading a member, depending on
    # where the damage is; a file of another kind fails in np.load.
    damaged = (EOFError, ValueError, zipfile.BadZipFile, zlib.error)
    try:
        archive = np.load(target, allow_pickle=False)
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


def _read_theory_v1(joint_path: Path) -> TheoryDensity:
    base = joint_path.with_suffix("")
    mu_path = base.with_name(base.name + ".mu.json")
    prov_path = base.with_name(base.name + ".provenance.json")
    joint = read_density(joint_path)
    mu = read_density(mu_path)
    try:
        with prov_path.open("r", encoding="utf-8") as fh:
            prov = Provenance.from_dict(json.load(fh))
    except OSError as exc:
        raise IOFailure(f"cannot read {prov_path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed provenance record {prov_path}: {exc}") from exc
    return TheoryDensity(joint, mu, prov)
