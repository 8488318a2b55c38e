"""File formats and the command-line interface.

CLI tests call ``main(argv)`` in process and parse the JSON it prints; exit
codes follow the documented convention (0 ok, 2 configuration, 3 numerical).
"""

import argparse
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import inferspace
from inferspace import (
    BOXCAR,
    GAUSSIAN,
    LOGNORMAL,
    SET_L,
    SET_T,
    Axis,
    ConfigurationError,
    Density,
    FallingBodyLaw,
    Grid,
    InferenceSpaceError,
    IOFailure,
    MeasurementModel,
    Provenance,
    SchemaError,
    TheoryDensity,
    ZeroMass,
    analytic_fall_theory,
    density_from_dict,
    integrate,
    normalize,
    null_information_density,
    predict,
    read_density,
    read_theory,
    run_campaign,
    write_csv,
    write_density,
    write_theory,
)
from inferspace import cli
from inferspace.cli import (
    _BUILD_GRID,
    _paradox_conclusion,
    _parse_args,
    build_parser,
    main,
    parse_axis,
    parse_grid,
    parse_map,
    parse_measurement,
)
from inferspace.inference import _reading_factors, _scale_posterior, _support
from inferspace.theory import _BLOCK_BYTES

from conftest import allocated, conditional_theory, gaussian_density


def _density_doc(d: Density) -> dict:
    """The document a density file holds: format, version, axis headers and
    the values flattened row-major."""
    return {"format": "inferspace-density", "version": 1,
            "axes": [ax.to_header() for ax in d.grid.axes], "values": d.values.ravel().tolist()}


def _sample_density():
    grid = Grid.of(
        Axis.logarithmic("L", 0.5, 20.0, 23),
        Axis.linear("T", 0.0, 2.0, 17),
    )
    rng = np.random.default_rng(99)
    vals = rng.uniform(0.1, 3.0, grid.shape)
    return normalize(Density(grid, vals))


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ---------------------------------------------------------------------------
# density JSON
# ---------------------------------------------------------------------------

class TestDensityFiles:
    def test_round_trip_is_exact(self, tmp_path):
        """JSON float serialization uses shortest round-trip repr, so values
        and axis bounds come back bit for bit."""
        d = _sample_density()
        path = tmp_path / "d.json"
        write_density(d, path)
        back = read_density(path)
        assert back.grid == d.grid
        assert np.array_equal(back.values, d.values)
        assert not {"frame", "normalized"} & json.loads(path.read_text()).keys()

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_file_is_what_json_dump_writes(self, tmp_path, ndim):
        """The values are encoded a grid row at a time, yet the file holds
        byte for byte what ``json.dump`` writes of the whole document and a
        newline: -0.0, a subnormal and a non-ASCII axis name included."""
        d = _sample_density()
        if ndim == 1:
            d = Density(Grid.of(Axis.linear("λ", 0.0, 1.0, 5, "ñ")),
                        np.array([0.0, -0.0, 1e-320, 1.5, 1e300]))
        else:
            values = d.values.copy()
            values[3, :4] = [0.0, -0.0, 1e-320, 1e300]
            d = d.with_values(values)
        expected = io.StringIO()
        json.dump(_density_doc(d), expected)
        write_density(d, tmp_path / "d.json")
        assert (tmp_path / "d.json").read_bytes() == (expected.getvalue() + "\n").encode()

    @pytest.mark.parametrize("frame", ["mapped:shear", ["x"], 5, None],
                             ids=["mapped-shear", "list", "number", "null"])
    def test_a_frame_key_of_an_older_file_is_ignored(self, tmp_path, capsys, frame):
        """Older density files carry a ``"frame"`` label, of any JSON type
        once hand-edited: it is read past, and the file reads as without it."""
        d = _sample_density()
        doc = _density_doc(d)
        doc["frame"] = frame
        back = density_from_dict(doc)
        assert back.grid == d.grid and np.array_equal(back.values, d.values)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert main(["convert", "--in", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == _density_doc(d)
        capsys.readouterr()

    def test_dict_round_trip(self):
        d = _sample_density()
        back = density_from_dict(_density_doc(d))
        assert np.array_equal(back.values, d.values)

    def test_missing_file_raises_io_failure(self, tmp_path):
        with pytest.raises(IOFailure):
            read_density(tmp_path / "nowhere.json")

    def test_truncated_file_raises_schema_error(self, tmp_path):
        d = _sample_density()
        path = tmp_path / "d.json"
        write_density(d, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(SchemaError):
            read_density(path)

    def test_wrong_format_marker_raises(self):
        doc = _density_doc(_sample_density())
        doc["format"] = "something-else"
        with pytest.raises(SchemaError):
            density_from_dict(doc)

    def test_unsupported_version_raises(self):
        doc = _density_doc(_sample_density())
        for version in (999, math.inf, "1"):
            doc["version"] = version
            with pytest.raises(SchemaError, match="unsupported document version"):
                density_from_dict(doc)

    def test_value_count_mismatch_raises(self):
        doc = _density_doc(_sample_density())
        doc["values"] = doc["values"][:-3]
        with pytest.raises(SchemaError):
            density_from_dict(doc)

    def test_not_an_object_raises(self):
        with pytest.raises(SchemaError):
            density_from_dict([1, 2, 3])

    def test_normalized_flag_needs_unit_mass(self, tmp_path, capsys):
        """The flag is no longer written, but a document flagged normalized,
        as older files are, must carry unit mass to 1e-9: one that does
        reads, and one that does not is refused."""
        d = _sample_density()

        def flagged(factor):
            doc = _density_doc(d.with_values(factor * d.values))
            assert "normalized" not in doc
            return {**doc, "normalized": True}

        for factor in (1.0 + 1e-12, 1.0):
            assert np.array_equal(density_from_dict(flagged(factor)).values, factor * d.values)
        for factor in (1.0 + 1e-8, 2.0):
            with pytest.raises(SchemaError, match="flagged normalized but its mass is"):
                density_from_dict(flagged(factor))
        (tmp_path / "d.json").write_text(json.dumps(flagged(2.0)))
        out = tmp_path / "o.csv"
        code = main(["convert", "--in", str(tmp_path / "d.json"), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "flagged normalized but its mass is 2.0" in captured.err
        assert not out.exists()


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

class TestCsvExport:
    def test_two_dimensional_layout(self, tmp_path):
        d = _sample_density()
        path = tmp_path / "d.csv"
        write_csv(d, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "L,T,density"
        assert len(lines) == 1 + 23 * 17
        first = lines[1].split(",")
        assert float(first[0]) == d.grid.axes[0].nodes[0]
        assert float(first[1]) == d.grid.axes[1].nodes[0]
        assert float(first[2]) == d.values[0, 0]

    def test_one_dimensional_layout(self, tmp_path):
        ax = Axis.linear("x", 0.0, 1.0, 11)
        d = gaussian_density(ax, 0.5, 0.2)
        path = tmp_path / "d.csv"
        write_csv(d, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 12

    def test_exact_text_of_a_small_export(self, tmp_path):
        """Shortest round-trip reprs, first axis outermost, CRLF line ends."""
        grid = Grid.of(Axis.linear("x", -1.0, 0.5, 3), Axis.logarithmic("y", 1.0, 4.0, 3))
        vals = np.array([[0.0, 0.25, 1e-300], [2.0, 1.0 / 3.0, 7.5], [3e10, 0.1, 5.0]])
        path = tmp_path / "d.csv"
        write_csv(Density(grid, vals), path)
        assert path.read_bytes() == (
            b"x,y,density\r\n"
            b"-1.0,1.0,0.0\r\n-1.0,2.0,0.25\r\n-1.0,4.0,1e-300\r\n"
            b"-0.25,1.0,2.0\r\n-0.25,2.0,0.3333333333333333\r\n-0.25,4.0,7.5\r\n"
            b"0.5,1.0,30000000000.0\r\n0.5,2.0,0.1\r\n0.5,4.0,5.0\r\n"
        )

    def test_axis_names_are_quoted_when_needed(self, tmp_path):
        grid = Grid.of(Axis.linear('a,"b"', 0.0, 1.0, 2))
        path = tmp_path / "d.csv"
        write_csv(Density(grid, np.array([1.0, 2.0])), path)
        assert path.read_bytes() == b'"a,""b""",density\r\n0.0,1.0\r\n1.0,2.0\r\n'


class _DiesPartway:
    """A file that writes until ``limit`` characters have gone out, then
    writes half of the next chunk and raises ``raised``."""

    def __init__(self, fh, raised, limit=1000):
        self.fh, self.raised, self.left = fh, raised, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, chunk):
        if len(chunk) > self.left:
            self.fh.write(chunk[: len(chunk) // 2])
            self.fh.flush()
            raise self.raised("disk full")
        self.left -= len(chunk)
        return self.fh.write(chunk)


@pytest.mark.parametrize("writer", [write_density, write_csv])
@pytest.mark.parametrize("raised", [OSError, KeyboardInterrupt])
def test_failed_density_write_leaves_no_partial_file(tmp_path, monkeypatch, writer, raised):
    """The write dies partway: an absent target stays absent, a present one
    keeps its old bytes, and no temporary file is left either way."""
    real_fdopen = os.fdopen

    def dying_fdopen(*args, **kwargs):
        return _DiesPartway(real_fdopen(*args, **kwargs), raised)

    expected = IOFailure if raised is OSError else raised
    target = tmp_path / ("d.json" if writer is write_density else "d.csv")
    monkeypatch.setattr(os, "fdopen", dying_fdopen)
    with pytest.raises(expected):
        writer(_sample_density(), target)
    assert os.listdir(tmp_path) == []

    monkeypatch.setattr(os, "fdopen", real_fdopen)
    writer(gaussian_density(Axis.linear("x", 0.0, 1.0, 11), 0.5, 0.2), target)
    before = target.read_bytes()
    monkeypatch.setattr(os, "fdopen", dying_fdopen)
    with pytest.raises(expected):
        writer(_sample_density(), target)
    assert os.listdir(tmp_path) == [target.name]
    assert target.read_bytes() == before


# ---------------------------------------------------------------------------
# theory files
# ---------------------------------------------------------------------------

def _sample_theory(kind="empirical"):
    joint = _sample_density()
    return TheoryDensity.from_joint(
        joint=joint,
        mu_factors=[null_information_density(Grid.of(ax)).values for ax in joint.grid.axes],
        provenance=Provenance(kind=kind, n_experiments=7, master_seed=123),
    )


def assert_same_theory(back: TheoryDensity, theory: TheoryDensity) -> None:
    """Bit for bit: grid, joint and μ factor bytes, and provenance."""
    assert back.joint.grid.axes == theory.joint.grid.axes
    assert len(back.mu_factors) == len(theory.mu_factors)
    for b, t in ((back.joint.values, theory.joint.values),
                 *zip(back.mu_factors, theory.mu_factors)):
        assert b.dtype == np.float64 and b.shape == t.shape and b.tobytes() == t.tobytes()
    assert back.provenance == theory.provenance


def _analytic_linear(grid):
    return analytic_fall_theory(FallingBodyLaw(9.81, 0.05), grid)


def _analytic_log(grid):
    """The log-frame theory on the same box: linear λ = ln L, τ = ln T axes."""
    axes = [Axis.linear(ax.name, math.log(ax.lower), math.log(ax.upper), ax.count)
            for ax in grid.axes]
    return analytic_fall_theory(FallingBodyLaw(9.81, 0.05), Grid.of(*axes), frame="log")


def _campaign(grid):
    instruments = [MeasurementModel("L", LOGNORMAL, 1.0, 0.05),
                   MeasurementModel("T", LOGNORMAL, 1.0, 0.05)]
    return run_campaign(FallingBodyLaw(9.81, 1e-3), instruments, 60, SET_L, 5, grid)


def _from_conditional(grid):
    i_ax, d_ax = grid.axes
    decay = np.arange(d_ax.count)
    slices = [normalize(Density(Grid.of(d_ax), np.exp(-decay / (k + 3))))
              for k in range(i_ax.count)]
    return conditional_theory(slices, Density(Grid.of(i_ax), 1.0 / i_ax.nodes))


class TestTheoryFiles:
    def test_one_file_and_round_trip(self, tmp_path):
        theory = _sample_theory()
        written = write_theory(theory, tmp_path / "theory.json")
        assert written == tmp_path / "theory.npz"
        assert sorted(os.listdir(tmp_path)) == ["theory.npz"]
        back = read_theory(tmp_path / "theory.json")
        assert np.array_equal(back.joint.values, theory.joint.values)
        assert np.array_equal(back.mu.values, theory.mu.values)
        assert back.provenance.kind == "empirical"
        assert back.provenance.n_experiments == 7
        assert back.provenance.master_seed == 123
        assert_same_theory(back, theory)

    def test_missing_theory_file_raises(self, tmp_path):
        write_theory(_sample_theory("analytic"), tmp_path / "theory.json")
        (tmp_path / "theory.npz").unlink()
        with pytest.raises(IOFailure):
            read_theory(tmp_path / "theory.json")

    @pytest.mark.parametrize("name", ["theory", "theory.json", "theory.npz"])
    def test_every_spelling_names_one_file(self, tmp_path, name):
        assert write_theory(_sample_theory(), tmp_path / name) == tmp_path / "theory.npz"
        for spelling in ("theory", "theory.json", "theory.npz"):
            assert_same_theory(read_theory(tmp_path / spelling), _sample_theory())

    @pytest.mark.parametrize(
        "build",
        [_analytic_linear, _analytic_log, _campaign, _from_conditional],
        ids=["analytic-linear", "analytic-log", "campaign", "from-conditional"],
    )
    def test_constructed_theories_round_trip_bit_exact(self, tmp_path, build):
        grid = Grid.of(
            Axis.logarithmic("L", 1.0, 10.0, 61), Axis.logarithmic("T", 0.4515, 1.4279, 53)
        )
        theory = build(grid)
        write_theory(theory, tmp_path / "t")
        assert_same_theory(read_theory(tmp_path / "t"), theory)

    @pytest.mark.parametrize("raised", [OSError, KeyboardInterrupt])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, raised):
        """The array write dies partway through the member ``mu_0``, after
        ``band``: an absent target stays absent, a present one keeps its old
        bytes, and the temporary file is gone either way."""
        real = np.lib.format.write_array

        def dies_mid_file(fp, array, *args, **kwargs):
            if array is theory.mu_factors[0]:
                fp.write(b"\x93NUMPY partial")
                raise raised("disk full")
            return real(fp, array, *args, **kwargs)

        theory = _sample_theory()
        target = tmp_path / "theory.npz"
        monkeypatch.setattr(np.lib.format, "write_array", dies_mid_file)
        with pytest.raises(IOFailure if raised is OSError else raised):
            write_theory(theory, target)
        assert os.listdir(tmp_path) == []

        monkeypatch.setattr(np.lib.format, "write_array", real)
        old = _sample_theory("analytic")
        write_theory(old, target)
        before = target.read_bytes()
        monkeypatch.setattr(np.lib.format, "write_array", dies_mid_file)
        with pytest.raises(IOFailure if raised is OSError else raised):
            write_theory(theory, target)
        assert os.listdir(tmp_path) == ["theory.npz"]
        assert target.read_bytes() == before
        monkeypatch.setattr(np.lib.format, "write_array", real)
        assert_same_theory(read_theory(target), old)

    def test_header_frame_and_flag_are_written_and_not_kept(self, tmp_path):
        """The header still holds ``"frame": "L,T"`` and ``"normalized":
        false`` for the readers of format 4 that expect them.  The reader
        checks them but keeps neither: a header whose frame names another
        space, or whose flag is set on a joint of unit mass, reads as the
        same theory."""
        theory = _sample_theory()
        assert integrate(theory.joint) == pytest.approx(1.0, abs=1e-12)
        path = write_theory(theory, tmp_path / "th")
        with np.load(path) as z:
            members = {k: z[k] for k in z.files}
        header = json.loads(str(members["header"]))
        assert (header["frame"], header["normalized"]) == ("L,T", False)
        for frame, normalized in (("mapped:shear", False), ("T,L", True)):
            header.update(frame=frame, normalized=normalized)
            np.savez(path, **{**members, "header": np.array(json.dumps(header))})
            assert_same_theory(read_theory(path), theory)

    def test_joint_flagged_normalized_needs_unit_mass(self, tmp_path, capsys):
        """A header flagged normalized over a joint of mass 2 is refused by
        the reader, as format 4 always has been, and ``infer`` exits 2."""
        theory = _sample_theory()
        joint = theory.joint.with_values(2.0 * theory.joint.values)
        path = write_theory(TheoryDensity.from_joint(joint, theory.mu_factors,
                                                     theory.provenance), tmp_path / "th")
        with np.load(path) as z:
            members = {k: z[k] for k in z.files}
        header = json.loads(str(members["header"]))
        header["normalized"] = True
        np.savez(path, **{**members, "header": np.array(json.dumps(header))})
        with pytest.raises(SchemaError, match="flagged normalized but its mass is 2.0"):
            read_theory(path)
        code = main(["infer", "--theory", str(path),
                     "--measure", "T:gaussian:1:0.1", "--query", "L"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "flagged normalized but its mass is 2.0" in captured.err

    def test_version_one_json_triple_is_not_read(self, tmp_path, capsys):
        """The version-1 theory, a density JSON with ``.mu.json`` and
        ``.provenance.json`` beside it, is refused: the error names the
        ``<base>.npz`` that is missing."""
        grid = Grid.of(Axis.logarithmic("L", 1.0, 10.0, 21),
                       Axis.logarithmic("T", 0.4515, 1.4279, 21))
        theory = analytic_fall_theory(FallingBodyLaw(9.81, 0.05), grid)
        write_density(theory.joint, tmp_path / "old.json")
        write_density(theory.mu, tmp_path / "old.mu.json")
        (tmp_path / "old.provenance.json").write_text(json.dumps({"kind": "analytic"}))
        with pytest.raises(IOFailure, match="old.npz"):
            read_theory(tmp_path / "old")
        code = main(["infer", "--theory", str(tmp_path / "old.json"),
                     "--measure", "T:lognormal:1.0:0.05"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(tmp_path / "old.npz") in captured.err

    def test_version_two_file_is_not_read(self, tmp_path, capsys):
        """A version-2 file, which held μ as one dense member, is refused by
        the reader and by ``infer``; rerunning its command rebuilds it."""
        theory = _sample_theory()
        _write_version_two(tmp_path / "v2.npz", theory.joint, theory.mu.values,
                           theory.provenance)
        with pytest.raises(SchemaError, match="unsupported theory version 2"):
            read_theory(tmp_path / "v2.npz")
        code = main(["infer", "--theory", str(tmp_path / "v2.npz"),
                     "--measure", "T:gaussian:1:0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / 'v2.npz'}: unsupported theory version 2\n"

    def test_version_three_file_is_not_read(self, tmp_path, capsys):
        """A version-3 file, which held the joint as one dense member, is
        refused by its header's version, not by the members it lacks."""
        theory = _sample_theory()
        _write_version_three(tmp_path / "v3.npz", theory)
        with pytest.raises(SchemaError, match="unsupported theory version 3"):
            read_theory(tmp_path / "v3.npz")
        code = main(["infer", "--theory", str(tmp_path / "v3.npz"),
                     "--measure", "T:gaussian:1:0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / 'v3.npz'}: unsupported theory version 3\n"


def _write_version_two(path, joint, mu_values, provenance):
    """A theory file as format version 2 wrote it: μ as one dense member."""
    header = {
        "format": "inferspace-theory",
        "version": 2,
        "axes": [ax.to_header() for ax in joint.grid.axes],
        "frame": ",".join(joint.grid.names),
        "normalized": {"joint": False, "mu": False},
        "provenance": provenance.as_dict(),
    }
    np.savez(path, header=np.array(json.dumps(header)), joint=joint.values, mu=mu_values)


def _write_version_three(path, theory):
    """A theory file as format version 3 wrote it: the joint as one dense member."""
    joint = theory.joint
    header = {
        "format": "inferspace-theory",
        "version": 3,
        "axes": [ax.to_header() for ax in joint.grid.axes],
        "frame": ",".join(joint.grid.names),
        "normalized": False,
        "provenance": theory.provenance.as_dict(),
    }
    factors = {f"mu_{k}": f for k, f in enumerate(theory.mu_factors)}
    np.savez(path, header=np.array(json.dumps(header)), joint=joint.values, **factors)


_names = st.sampled_from(["L", "T", "x", "time (s)", "λ"])
_positive = st.floats(5e-324, 1e300)


@st.composite
def _joint_layouts(draw, shape):
    """Joint values laid out the ways a theory file stores differently: all
    zero, every row dense, or each row a band of its own, which may be
    empty, the whole row, or hold interior zeros."""
    layout = draw(st.sampled_from(["zero", "dense", "banded"]))
    if layout == "zero":
        return np.zeros(shape)
    values = draw(hnp.arrays(np.float64, shape, elements=_positive))
    if layout == "banded":
        rows = values.reshape(-1, shape[-1])
        for row in rows:
            a, b = sorted(draw(st.lists(st.integers(0, len(row)), min_size=2, max_size=2)))
            row[:a] = 0.0
            row[b:] = 0.0
            holes = draw(hnp.arrays(np.bool_, len(row)))
            row[holes & (np.arange(len(row)) > a) & (np.arange(len(row)) < b - 1)] = 0.0
    return values


@st.composite
def _theories(draw):
    names = draw(st.lists(_names, min_size=2, max_size=2, unique=True))
    axes = []
    for name in names:
        lower = draw(st.floats(1e-3, 1e3))
        upper = lower * draw(st.floats(1.001, 1e3))
        count = draw(st.integers(2, 6))
        units = draw(st.text(max_size=4))
        make = draw(st.sampled_from([Axis.linear, Axis.logarithmic]))
        axes.append(make(name, lower, upper, count, units))
    grid = Grid.of(*axes)
    factors = [
        draw(hnp.arrays(np.float64, ax.count, elements=_positive))
        for ax in axes
    ]
    joint = Density(grid, draw(_joint_layouts(grid.shape)))
    seeds = st.none() | st.integers(0, 2**63 - 1)
    return TheoryDensity.from_joint(
        joint=joint,
        mu_factors=factors,
        provenance=Provenance(draw(st.text(max_size=12)), draw(seeds), draw(seeds)),
    )


@settings(max_examples=100)
@given(_theories())
def test_theory_file_round_trip_is_bit_exact(theory):
    values = theory.joint.values
    with tempfile.TemporaryDirectory() as tmp:
        path = write_theory(theory, Path(tmp) / "t")
        assert_same_theory(read_theory(path), theory)
        with np.load(path) as z:
            lo, hi, band = z["lo"], z["hi"], z["band"]
    assert lo.shape == hi.shape == (len(values),)
    # Each band runs from its row's first nonzero value to its last.
    for row, a, b in zip(values, lo, hi):
        nonzero = np.flatnonzero(row)
        assert (a, b) == ((nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0))
    assert band.size == int((hi - lo).sum())


@settings(max_examples=100)
@given(st.data())
def test_bands_of_a_joint_rebuild_it_bit_for_bit(data):
    """A theory holds a dense joint by its row bands: its ``joint`` rebuilds
    every value, -0.0 included, for every layout a theory file stores."""
    axes = [Axis.linear(name, 0.0, 1.0, data.draw(st.integers(1, 6)) + 1) for name in ("x", "y")]
    grid = Grid.of(*axes)
    values = data.draw(_joint_layouts(grid.shape))
    if data.draw(st.booleans()):
        values[tuple(data.draw(st.integers(0, n - 1)) for n in grid.shape)] *= -0.0
    d = Density(grid, values)
    theory = TheoryDensity.from_joint(d, [np.ones(ax.count) for ax in axes], Provenance("x"))
    back = theory.joint
    assert back.values.tobytes() == d.values.tobytes()
    assert back.grid == d.grid


def _whole_band_marginal(theory: TheoryDensity, *readings: MeasurementModel,
                         query: str) -> np.ndarray:
    """``predict``'s marginal from a contraction over the whole band: the
    products g[column] · band summed over each row by ``reduceat``, or
    h[row] · band summed over each column by ``bincount``."""
    grid = theory.grid
    q = grid.axis_index(query)
    factors = _reading_factors(theory, readings)
    lengths = theory.hi - theory.lo
    starts = np.cumsum(lengths) - lengths
    cols = np.repeat(theory.lo - starts, lengths) + np.arange(theory.band.size)
    ax, wq = grid.axes[q], _support(factors[q])
    with np.errstate(over="ignore", invalid="ignore"):
        if q == 0:
            product = (factors[1] * grid.axes[1].weights)[cols] * theory.band
            src = np.zeros(grid.shape[0])
            if product.size:
                src[lengths > 0] = np.add.reduceat(product, starts[lengths > 0])
        else:
            product = np.repeat(factors[0] * grid.axes[0].weights, lengths) * theory.band
            src = np.bincount(cols, product, minlength=grid.shape[1])
        vals = np.zeros(ax.count)
        vals[wq] = src[wq] * factors[q][wq]
    sub = vals[wq]
    _scale_posterior(sub, [ax.weights[wq]], out=sub)
    return vals


@st.composite
def _window_reading(draw, name: str):
    """A boxcar or gaussian reading on a [0, 1] axis ``name``, which may be
    narrow enough to leave most nodes at 0."""
    kind = draw(st.sampled_from([BOXCAR, GAUSSIAN]))
    center = draw(st.floats(0.0, 1.0))
    width = draw(st.floats(1e-3, 1.0))
    return MeasurementModel(name, kind, center, width)


def test_predict_matches_the_whole_band_contraction_bit_for_bit():
    """``predict`` contracts only a window of rows, yet gives bit for bit
    the marginal of the whole band, or the same refusal, for every layout a
    theory file stores, -0.0 included, and readings of any support on
    either query axis."""
    seen = Counter()

    @settings(max_examples=300)
    @given(st.data())
    def check(data):
        axes = [Axis.linear(name, 0.0, 1.0, data.draw(st.integers(2, 7))) for name in "xy"]
        grid = Grid.of(*axes)
        values = data.draw(_joint_layouts(grid.shape))
        nrows, ncols = grid.shape
        for _ in range(data.draw(st.integers(0, 3))):
            # A -0.0 at one node, or a row whose band holds -0.0 alone, often
            # an edge row, which lies outside the window unless it meets it.
            i = data.draw(st.sampled_from([0, nrows - 1]) | st.integers(0, nrows - 1))
            j, k = (data.draw(st.integers(0, ncols - 1)) for _ in range(2))
            if data.draw(st.booleans()):
                values[i] = 0.0
                values[i, min(j, k):max(j, k) + 1] = -0.0
            else:
                values[i, j] = -0.0
        mu = [np.ones(ax.count) for ax in axes]
        theory = TheoryDensity.from_joint(Density(grid, values), mu, Provenance("x"))
        readings = data.draw(st.lists(st.sampled_from("xy").flatmap(_window_reading),
                                      min_size=1, max_size=2))
        query = data.draw(st.sampled_from("xy"))
        try:
            expected = _whole_band_marginal(theory, *readings, query=query)
        except InferenceSpaceError as exc:
            with pytest.raises(InferenceSpaceError) as refused:
                predict(theory, *readings, query=query)
            assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
            seen[type(exc).__name__] += 1
            return
        assert predict(theory, *readings, query=query).values.tobytes() == expected.tobytes()
        seen[f"query {query}"] += 1
        seen.update(["-0.0 in the marginal"] * bool(np.signbit(expected).any()))

    check()
    wanted = ["query x", "query y", "-0.0 in the marginal", "ZeroMass"]
    assert all(seen[k] for k in wanted), seen


@pytest.mark.parametrize("query", ["x", "y"])
def test_a_reading_that_meets_no_band_row_contradicts_the_theory(query):
    """A reading whose support meets no row's band leaves the window empty,
    and ``predict`` refuses it as the whole band does: the marginal has no
    mass."""
    axes = [Axis.linear(name, 0.0, 1.0, 6) for name in "xy"]
    values = np.zeros((6, 6))
    if query == "x":
        values[:, :2] = 1.0  # every row, but only the first two columns
    else:
        values[:2, :] = 1.0  # only the first two rows
    theory = TheoryDensity.from_joint(Density(Grid.of(*axes), values),
                                      [np.ones(6)] * 2, Provenance("x"))
    far = MeasurementModel("y" if query == "x" else "x", BOXCAR, 0.9, 0.05)
    message = "the measurement contradicts the theory: cannot normalize density with mass 0.0"
    for marginal in (predict, _whole_band_marginal):
        with pytest.raises(ZeroMass) as refused:
            marginal(theory, far, query=query)
        assert str(refused.value) == message


def test_theory_file_io_stays_within_its_memory_budget(tmp_path):
    """On the analytic theory, building it allocates under 0.2 grid arrays
    and writing at most 0.3, and reading at most 0.15: the row bands, which
    the theory shares instead of copying, with no joint scattered from them.
    A read and then an ``infer``'s marginal, in process, allocate at most
    0.13: the bands, and a column index and one product over the values of
    the rows the reading reaches alone, and 1-D arrays."""
    grid = Grid.of(Axis.logarithmic("L", 1.0, 10.0, 401),
                   Axis.logarithmic("T", 0.45152364098573, 1.4278431229270645, 401))
    law, known = FallingBodyLaw(9.81, 1e-3), MeasurementModel("T", LOGNORMAL, 1.0, 0.005)
    theory = analytic_fall_theory(law, grid)
    grid_bytes = theory.joint.values.nbytes
    # A first call of each, so the modules they import are not counted.
    path = write_theory(theory, tmp_path / "t")
    predict(read_theory(path), known, query="L")

    _, built = allocated(lambda: analytic_fall_theory(law, grid))
    _, written = allocated(lambda: write_theory(theory, path))
    back, read = allocated(lambda: read_theory(path))
    _, inferred = allocated(lambda: predict(read_theory(path), known, query="L"))
    assert built < 0.2 * grid_bytes
    assert written <= 0.3 * grid_bytes
    assert read <= 0.15 * grid_bytes
    assert inferred <= 0.13 * grid_bytes
    assert not back.joint.values.flags.writeable
    assert not any(a.flags.writeable for a in (back.lo, back.hi, back.band))
    assert_same_theory(back, theory)


def test_reading_the_default_theory_allocates_little_beyond_what_it_returns(tmp_path):
    """A warm ``read_theory`` of the default 1401² theory peaks at most 1.25
    times the bytes of ``lo``, ``hi``, ``band`` and the μ factors it returns:
    each member's bytes are read from the zip once, and its array shares
    them."""
    law = FallingBodyLaw(9.81, 1e-3)
    path = write_theory(analytic_fall_theory(law, parse_grid("default")), tmp_path / "t")
    read_theory(path)  # a first call, so the modules it imports are not counted

    back, read = allocated(lambda: read_theory(path))
    returned = sum(a.nbytes for a in (back.lo, back.hi, back.band, *back.mu_factors))
    assert read <= 1.25 * returned


def _members_of(theory: TheoryDensity, tmp_path) -> dict[str, np.ndarray]:
    """The arrays ``np.load`` reads from ``theory``'s file."""
    with np.load(write_theory(theory, tmp_path / "members")) as z:
        return {k: z[k] for k in z.files}


@pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)])
def test_members_of_every_npy_version_read_back_bit_for_bit(tmp_path, version):
    """Members written in any ``.npy`` format version numpy reads give back
    the theory they were written from."""
    theory = _sample_theory()
    th = tmp_path / "th.npz"
    with zipfile.ZipFile(th, "w") as z:
        for k, v in _members_of(theory, tmp_path).items():
            with z.open(f"{k}.npy", "w") as fh:
                np.lib.format.write_array(fh, v, version=version)
    assert_same_theory(read_theory(th), theory)


# Dtypes a member is drawn in: the ones format 4 stores, others of each kind,
# a foreign byte order, and objects, which np.savez pickles.
_DRAWN_DTYPES = ["<i8", "<f8", "<i4", "<f4", "u1", "?", "<c16", ">i8", ">f8", "<U24", "S24",
                 "O"]


@settings(max_examples=80)
@given(st.data())
def test_drawn_member_dtypes_and_shapes_are_read_as_np_load_reads_them(data):
    """``np.savez`` archives whose members have drawn dtypes and shapes, C or
    Fortran order, are read as a theory or refused with a configuration
    error (exit 2), never another error.  They are read exactly when every
    member ``np.load`` reads has the dtype and shape format 4 asks for (a
    0-d string for the header), and then their arrays are ``np.load``'s."""
    with tempfile.TemporaryDirectory() as tmp:
        members = _members_of(_sample_theory(), Path(tmp))
        # At most two members are redrawn, each keeping its shape or dtype
        # half the time, so that many archives are still theories.
        for name in data.draw(st.lists(st.sampled_from(sorted(members)), max_size=2,
                                       unique=True)):
            flat = members[name].ravel()
            n = flat.size
            shape = members[name].shape
            if data.draw(st.booleans()):
                shape = data.draw(st.sampled_from([(), (1, n), (n, 1), (n - 1,), (2, n // 2)]))
            values = flat[:math.prod(shape)].reshape(shape)
            dtype = values.dtype
            if data.draw(st.booleans()):
                dtype = np.dtype(data.draw(st.sampled_from(
                    [dtype.newbyteorder(), "S512"] if name == "header" else _DRAWN_DTYPES)))
            order = data.draw(st.sampled_from("CF"))
            members[name] = np.array(values.astype(dtype), order=order)
        th = Path(tmp) / "th.npz"
        np.savez(th, **members)
        with np.load(th, allow_pickle=False) as z:
            try:
                loaded = {k: z[k] for k in z.files}
            except ValueError:  # a pickled member
                loaded = None
        expected = _members_of(_sample_theory(), Path(tmp))
        wanted = loaded is not None and all(
            loaded[k].ndim == 0 and loaded[k].dtype.kind == "U" if k == "header"
            else (loaded[k].dtype, loaded[k].shape) == (v.dtype, v.shape)
            for k, v in expected.items())
        try:
            back = read_theory(th)
        except ConfigurationError:
            back = None
    assert (back is not None) == wanted
    if back is not None:
        for k in ("lo", "hi", "band"):
            assert getattr(back, k).tobytes() == loaded[k].tobytes()
        for k, f in enumerate(back.mu_factors):
            assert f.tobytes() == loaded[f"mu_{k}"].tobytes()


def test_predict_and_infer_stay_within_their_memory_budget(tmp_path, capsys):
    """On the analytic theory, ``predict`` allocates under 0.05 grid arrays:
    its marginal is one contraction of the joint, and no posterior joint is
    built.  A read then an ``infer``, in process, allocate at most 1.15: the
    read's scattered joint and its band, and 1-D arrays."""
    grid = Grid.of(Axis.logarithmic("L", 1.0, 10.0, 401),
                   Axis.logarithmic("T", 0.45152364098573, 1.4278431229270645, 401))
    theory = analytic_fall_theory(FallingBodyLaw(9.81, 1e-3), grid)
    grid_bytes = theory.joint.values.nbytes
    known = MeasurementModel("T", LOGNORMAL, 1.0, 0.005)
    argv = ["infer", "--theory", str(write_theory(theory, tmp_path / "t")),
            "--measure", "T:lognormal:1.0:0.005"]
    # A first call of each, so the modules they import are not counted.
    predict(theory, known, query="L")
    main(argv)
    capsys.readouterr()

    _, predicted = allocated(lambda: predict(theory, known, query="L"))
    code, inferred = allocated(lambda: main(argv))
    assert json.loads(capsys.readouterr().out)["axis"] == "L"
    assert code == 0
    assert predicted < 0.05 * grid_bytes
    assert inferred <= 1.15 * grid_bytes


def test_campaign_stays_within_its_memory_budget():
    """On the 300² build grid, a campaign of 2000 or 20000 experiments, in
    either mode, allocates at most the accumulator, the theory's bands, the
    two buffers a block's centre factors are written into, and a quarter of
    a grid array: the block's product, numpy's buffer for adding it into a
    window of the joint, the masks ``_row_bands`` finds the bands with, and
    1-D arrays.  The node factors scale the accumulator in place and the
    windows come from 1-D keys, so a grid-sized temporary in either breaks
    the budget.  At 20000 experiments the peak is also at most 2.0 MB: while
    the independent and true values, the unsorted readings and their order
    stayed alive through the blocks, and the accumulator beside the window
    keys, it peaked at 2.83 MB; with only the sorted readings outliving
    their draw, and the accumulator allocated after the windows, it peaks
    at 1.69 MB."""
    grid = parse_grid(_BUILD_GRID)
    law = FallingBodyLaw()
    instruments = [MeasurementModel("L", LOGNORMAL, 1.0, 0.05),
                   MeasurementModel("T", LOGNORMAL, 1.0, 0.05)]
    # A first call, so the modules it imports and the axes' nodes are not counted.
    run_campaign(law, instruments, 200, SET_L, 1, grid)

    grid_bytes = 8 * grid.node_count
    for n, mode in ((2000, SET_L), (20000, SET_L), (20000, SET_T)):
        theory, peak = allocated(lambda: run_campaign(law, instruments, n, mode, 7, grid))
        rows = min(n, _BLOCK_BYTES // (8 * max(grid.shape)))
        buffers = 8 * rows * sum(grid.shape)
        bands = theory.lo.nbytes + theory.hi.nbytes + theory.band.nbytes
        assert peak <= grid_bytes + bands + buffers + 0.25 * grid_bytes, (n, mode)
        if n == 20000:
            assert peak <= 2.0e6, mode


# ---------------------------------------------------------------------------
# CLI: theories and inference
# ---------------------------------------------------------------------------

SMALL_GRID = "L:log:1:10:201,T:log:0.4515:1.4279:201"


class TestCliInference:
    def test_analytic_theory_then_infer(self, tmp_path, capsys):
        th = str(tmp_path / "th.json")
        code, doc = run_cli(
            ["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th],
            capsys,
        )
        assert code == 0
        assert doc["frame"] == "linear"
        assert doc["mass"] > 0.0
        assert doc["out"] == str(tmp_path / "th.npz")
        assert (tmp_path / "th.npz").exists()

        out = str(tmp_path / "posterior-L.json")
        code, doc = run_cli(
            ["infer", "--theory", th, "--measure", "T:lognormal:1.0:0.05", "--out", out],
            capsys,
        )
        assert code == 0
        # the unmeasured axis is the default query
        assert doc["axis"] == "L"
        # instrument blur shifts the mode off g/2 by exp(-(sigma^2 + 4 sigma^2))
        assert abs(doc["mode"] / 4.905 - 1.0) < 0.025
        marginal = read_density(out)
        assert marginal.grid.names == ("L",)
        assert math.isclose(integrate(marginal), 1.0, rel_tol=1e-9)

    def test_predict_matches_infer_for_one_measurement(self, tmp_path, capsys):
        th = str(tmp_path / "th.json")
        run_cli(
            ["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th],
            capsys,
        )
        code, via_infer = run_cli(
            ["infer", "--theory", th, "--measure", "T:lognormal:1.0:0.05"], capsys
        )
        assert code == 0
        code, via_predict = run_cli(
            ["predict", "--theory", th, "--known", "T:lognormal:1.0:0.05"], capsys
        )
        assert code == 0
        assert via_predict["axis"] == "L"
        assert math.isclose(via_predict["mode"], via_infer["mode"], rel_tol=1e-12)

    def test_contradictory_measurements_exit_numerical(self, tmp_path, capsys):
        th = str(tmp_path / "th.json")
        run_cli(
            ["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th],
            capsys,
        )
        code = main(
            [
                "infer",
                "--theory",
                th,
                "--measure",
                "T:boxcar:0.5:0.01",
                "--measure",
                "T:boxcar:1.2:0.01",
            ]
        )
        capsys.readouterr()
        assert code == 3

    def test_malformed_measurement_exits_config(self, tmp_path, capsys):
        th = str(tmp_path / "th.json")
        run_cli(
            ["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th],
            capsys,
        )
        assert main(["infer", "--theory", th, "--measure", "T:banana:1:2"]) == 2
        assert main(["infer", "--theory", th, "--measure", "Z:lognormal:1:0.1"]) == 2
        assert main(["infer", "--theory", th]) == 2
        assert main(["predict", "--theory", th, "--query", "L"]) == 2
        assert "pass --known AXIS:KIND:CENTER:WIDTH" in capsys.readouterr().err

    def test_one_dimensional_theory_file_exits_config(self, tmp_path, capsys):
        """A theory lives on a 2D grid: a format-4 file written by hand over
        one axis, whose members are otherwise consistent, exits 2."""
        ax = Axis.logarithmic("L", 1.0, 10.0, 101)
        header = {"format": "inferspace-theory", "version": 4, "axes": [ax.to_header()],
                  "frame": "L", "normalized": False, "provenance": {"kind": "analytic"}}
        path = tmp_path / "one.npz"
        np.savez(path, header=np.array(json.dumps(header)), lo=np.zeros(1, np.int64),
                 hi=np.full(1, ax.count, np.int64), band=1.0 / ax.nodes, mu_0=1.0 / ax.nodes)
        with pytest.raises(SchemaError, match="2D grid"):
            read_theory(path)
        assert main(["infer", "--theory", str(path), "--measure", "L:lognormal:3:0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and "2D grid" in captured.err

    def test_query_absent_from_the_theory_exits_config(self, tmp_path, capsys):
        """``--query`` must name an axis of the theory."""
        argv = ["infer", "--theory", str(write_theory(_sample_theory(), tmp_path / "th")),
                "--measure", "L:lognormal:3:0.1"]
        code, doc = run_cli(argv, capsys)
        assert code == 0 and doc["axis"] == "T"
        assert main(argv + ["--query", "x"]) == 2
        assert "no axis named 'x'" in capsys.readouterr().err

    def test_overflowing_posterior_mass_exits_numerical(self, tmp_path, capsys):
        """A theory whose AND with a reading has a mass beyond float64 is
        refused as an overflow (exit 3), without numpy's warning."""
        axes = [Axis.logarithmic(name, 1.0, 1e6, 11) for name in ("L", "T")]
        theory = TheoryDensity.from_joint(Density(Grid.of(*axes), np.full((11, 11), 1e300)),
                                          [1.0 / ax.nodes for ax in axes],
                                          Provenance("analytic"))
        th = str(write_theory(theory, tmp_path / "huge"))
        assert main(["infer", "--theory", th, "--measure", "T:noninformative"]) == 3
        assert "mass overflows float64" in capsys.readouterr().err

    def test_missing_theory_file_exits_config(self, tmp_path, capsys):
        code = main(
            ["infer", "--theory", str(tmp_path / "no.json"), "--measure", "T:lognormal:1:0.1"]
        )
        capsys.readouterr()
        assert code == 2

    def test_build_theory_mass_counts_experiments(self, tmp_path, capsys):
        out = str(tmp_path / "emp.json")
        code, doc = run_cli(
            [
                "build-theory",
                "--grid",
                "L:log:1:10:101,T:log:0.4515:1.4279:101",
                "--n",
                "50",
                "--seed",
                "11",
                "--out",
                out,
            ],
            capsys,
        )
        assert code == 0
        assert math.isclose(doc["mass"], 50.0, rel_tol=1e-9)
        theory = read_theory(out)
        assert theory.provenance.kind == "empirical"
        assert theory.provenance.n_experiments == 50
        assert theory.provenance.master_seed == 11

    def test_build_theory_compare_analytic_reports_divergence(self, tmp_path, capsys):
        out = str(tmp_path / "emp.json")
        code, doc = run_cli(
            [
                "build-theory",
                "--grid",
                "L:log:1:10:101,T:log:0.4515:1.4279:101",
                "--n",
                "200",
                "--seed",
                "11",
                "--out",
                out,
                "--compare-analytic",
            ],
            capsys,
        )
        assert code == 0
        assert math.isclose(doc["sigma_analytic"], 0.15811388300841897, rel_tol=1e-12)
        assert doc["kl_sym_vs_analytic"] > 0.0

    def test_runs_are_bit_reproducible(self, tmp_path, capsys):
        args = [
            "build-theory",
            "--grid",
            "L:log:1:10:101,T:log:0.4515:1.4279:101",
            "--n",
            "40",
            "--seed",
            "21",
        ]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_build_theory_set_t_on_the_default_grid(self, tmp_path, capsys):
        """Experiments whose length lands outside the L box still carry a
        little mass on it, so none is dropped."""
        out = str(tmp_path / "emp.json")
        code, doc = run_cli(["build-theory", "--mode", "set_T", "--out", out], capsys)
        assert code == 0
        assert math.isclose(doc["mass"], doc["n_experiments"], rel_tol=1e-9)

    def test_build_theory_seed_past_the_seed_pool_rebuilds_its_theory(self, tmp_path, capsys):
        """A seed wider than numpy's four-word seed pool is recorded as given
        and rebuilds the same theory."""
        seed = 2**200
        out = tmp_path / "emp"
        code, doc = run_cli(
            ["build-theory", "--grid", "L:log:1:10:101,T:log:0.4515:1.4279:101", "--n", "40",
             "--seed", str(seed), "--out", str(out)],
            capsys,
        )
        assert code == 0
        theory = read_theory(out)
        assert theory.provenance.master_seed == seed
        rebuilt = run_campaign(FallingBodyLaw(), [
            MeasurementModel(parameter="L", kind=LOGNORMAL, center=1.0, width=0.05),
            MeasurementModel(parameter="T", kind=LOGNORMAL, center=1.0, width=0.05),
        ], 40, SET_L, seed, theory.joint.grid)
        assert np.array_equal(rebuilt.joint.values, theory.joint.values)

    def test_build_theory_negative_seed_exits_config(self, tmp_path, capsys):
        code = main(["build-theory", "--n", "5", "--seed", "-1", "--out", str(tmp_path / "t")])
        assert "master seed" in capsys.readouterr().err
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_build_theory_non_positive_box_exits_config(self, tmp_path, capsys):
        """The Jeffreys μ refuses an L box reaching below 0 before any reading
        is drawn, so the error names the box, not a simulated reading."""
        code = main(["build-theory", "--n", "50", "--grid", "L:lin:-1:10:41,T:log:0.45:1.43:41",
                     "--out", str(tmp_path / "t")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: axis 'L': the reciprocal prior needs a positive box\n"
        assert not list(tmp_path.iterdir())

    def test_build_theory_on_linear_axes_converges_to_the_analytic_theory(
        self, tmp_path, capsys
    ):
        """The campaign draws from and weighs by its μ, the Jeffreys 1/(LT),
        on linear axes as on log ones, so its theory converges to the
        instrument-blurred analytic ridge whatever the axes' spacing."""
        code, doc = run_cli(
            ["build-theory", "--grid", "L:lin:0.5:20:300,T:lin:0.25:2.5:300", "--n", "20000",
             "--compare-analytic", "--out", str(tmp_path / "lin")],
            capsys,
        )
        assert code == 0
        assert doc["kl_sym_vs_analytic"] < 0.01

    @pytest.mark.parametrize(
        "flag, width",
        [("--sigma-length", "inf"), ("--sigma-time", "inf"), ("--sigma-time", "1e200")],
    )
    def test_build_theory_compare_without_a_finite_blurred_width_exits_config(
        self, tmp_path, capsys, flag, width
    ):
        """An infinite instrument width is a noninformative instrument, which
        a campaign takes, but ``--compare-analytic`` needs a finite blurred
        width √(2(σ_L² + 4σ_T²)).  It is refused before the campaign runs,
        naming the width flags, and no file is written."""
        code = main(["build-theory", "--n", "5", flag, width, "--compare-analytic",
                     "--out", str(tmp_path / "f")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--sigma-length" in captured.err and "--sigma-time" in captured.err
        assert f"{flag} {float(width)!r}" in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv", [["benford", "--n", "10", "--seed", "-1"], ["axioms", "--seed", "-1"]]
    )
    def test_negative_seed_exits_config(self, argv, capsys):
        code = main(argv)
        assert "seed must be >= 0" in capsys.readouterr().err
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["axioms", "--triples", "0"], ["axioms", "--triples", "-3"], ["benford", "--n", "-5"]],
    )
    def test_empty_or_negative_counts_exit_config(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_reading_off_the_grid_exits_numerical(self, tmp_path, capsys):
        th = str(tmp_path / "th")
        run_cli(["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th], capsys)
        code = main(["predict", "--theory", th, "--known", "T:lognormal:5.0:0.001"])
        err = capsys.readouterr().err
        assert code == 3
        assert "T=5.0" in err and "off the grid" in err and "[0.4515, 1.4279]" in err

    def test_reading_centred_off_the_grid_exits_numerical(self, tmp_path, capsys):
        """Only the far tail of a reading at T = 9.0 reaches the box, where it
        would pile the L posterior up at the box's edge, L = 10."""
        th = str(tmp_path / "th")
        run_cli(["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th], capsys)
        code = main(["infer", "--theory", th, "--measure", "T:lognormal:9.0:0.05"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "the reading T=9.0 (lognormal, width 0.05) lies off the grid" in captured.err
        assert "T in [0.4515, 1.4279]" in captured.err

    @pytest.mark.parametrize(
        "reading, share",
        [("1.45:0.3", None), ("9.0:0.3", "4.2e-10"), ("9.0:0.005", "0")],
    )
    def test_reading_centred_off_the_box_is_refused_by_its_share_on_it(
        self, tmp_path, capsys, reading, share
    ):
        """A reading centred just past T = 1.4279 still has 48% of its mass
        on the box, Φ(−0.051) − Φ(−3.89) in ln T, and is ANDed; one with
        under 1% there is refused, and the error gives its share."""
        th = str(tmp_path / "th")
        run_cli(["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th], capsys)
        code = main(["infer", "--theory", th, "--measure", f"T:lognormal:{reading}"])
        captured = capsys.readouterr()
        if share is None:
            assert code == 0
            assert json.loads(captured.out)["axis"] == "L"
            return
        assert code == 3
        assert captured.out == ""
        assert "lies off the grid" in captured.err
        assert captured.err.rstrip().endswith(f"with {share} of its mass on the box")

    @pytest.mark.parametrize(
        "reading, share",
        [("1.43:0.01", None), ("1.4379:0.01005", "0.0025"), ("5.0:0.1", "0")],
    )
    def test_boxcar_centred_off_the_box_is_refused_by_its_overlap(
        self, tmp_path, capsys, reading, share
    ):
        """A boxcar's share on the box is its overlap over its length 2w.
        [1.42, 1.44] keeps 40% of itself below T = 1.4279 and is ANDed;
        [1.42785, 1.44795] keeps 0.25%, a sliver that would put the whole
        posterior on the edge node, and [4.9, 5.1] misses the box: both lie
        off the grid, a numerical failure like any other reading's."""
        th = str(tmp_path / "th")
        run_cli(["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th], capsys)
        code = main(["infer", "--theory", th, "--measure", f"T:boxcar:{reading}"])
        captured = capsys.readouterr()
        if share is None:
            assert code == 0
            assert json.loads(captured.out)["axis"] == "L"
            return
        assert code == 3
        assert captured.out == ""
        assert f"the reading T={reading.split(':')[0]} (boxcar, " in captured.err
        assert "lies off the grid" in captured.err
        assert captured.err.rstrip().endswith(f"with {share} of its mass on the box")

    def test_under_resolved_reading_in_the_box_exits_numerical(self, tmp_path, capsys):
        """T = 0.9871 lies in the box, but a width of 1e-4 underflows at every
        node of a 41-node axis: the error says so instead of "off the grid"."""
        th = str(tmp_path / "th")
        grid = "L:log:1:10:41,T:log:0.45:1.43:41"
        run_cli(["analytic-theory", "--grid", grid, "--sigma", "0.05", "--out", th], capsys)
        code = main(["infer", "--theory", th, "--measure", "T:lognormal:0.9871:1e-4"])
        err = capsys.readouterr().err
        assert code == 3
        assert "off the grid" not in err
        assert "under-resolved" in err and "width 0.0001" in err and "spacing at 0.9871" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["infer", "--measure", "T:lognormal:1.0:1e-300"], "T lognormal width 1e-300"),
            (["build-theory", "--n", "200", "--sigma-length", "500"],
             "L instrument (lognormal, width 500.0)"),
        ],
        ids=["infer-narrow", "build-wide"],
    )
    def test_unrepresentable_lognormal_width_exits_config(self, tmp_path, capsys, argv, named):
        grid = "L:log:1:10:41,T:log:0.45:1.43:41"
        th = str(tmp_path / "th")
        run_cli(["analytic-theory", "--grid", grid, "--sigma", "0.05", "--out", th], capsys)
        where = ["--theory", th] if argv[0] == "infer" else ["--grid", grid, "--out", th]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, *where])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--grid", "L:log:1:2:50,T:log:5:10:50"],
            ["--frame", "log", "--grid",
             "L:lin:0:0.6931471805599453:50,T:lin:1.6094379124341003:2.302585092994046:50"],
            ["--g", "1e-320"],
            ["--sigma", "1e-300", "--grid", "L:log:1:10:101,T:log:0.45:1.43:101"],
        ],
        ids=["box-off-the-ridge", "log-frame-box-off-the-ridge", "tiny-g", "tiny-sigma"],
    )
    def test_theory_with_no_mass_exits_numerical(self, tmp_path, capsys, argv):
        """A box the ridge misses, or a g or sigma the ridge over- or
        underflows on, leaves no mass: refused, with no file and no warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analytic-theory", *argv, "--out", str(tmp_path / "th")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "fall law L = ½·g·T²" in captured.err and "no mass on the box L in [" in captured.err
        assert not caught
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "grid, named",
        [("L:log:1:10:41,T:log:0.45:1.43:41", "'L'"), ("L:lin:0:2.3:41,T:log:0.45:1.43:41", "'T'")],
        ids=["both-log", "time-log"],
    )
    def test_log_frame_on_a_logarithmic_axis_exits_config(self, tmp_path, capsys, grid, named):
        """The log frame reads its axes as λ = ln L and τ = ln T: on a
        log-spaced axis its ridge would be evaluated on raw L and T values."""
        code = main(["analytic-theory", "--frame", "log", "--grid", grid,
                     "--out", str(tmp_path / "th")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"but axis {named} is logarithmic" in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [["analytic-theory", "--grid", "T:log:1:20:401,L:log:0.45:2.02:401"],
         ["build-theory", "--grid", "T:log:0.25:2.5:300,L:log:0.5:20:300"],
         ["build-theory", "--grid", "T:log:0.25:2.5:30,x:log:0.5:20:30"],
         ["analytic-theory", "--grid", "x:log:1:10:41,L:log:0.45:1.43:41"],
         ["build-theory", "--grid", "L:log:1:10:50"],
         ["analytic-theory", "--grid", "L:log:1:10:50"]],
        ids=["analytic-swapped", "build-swapped", "build-T-first", "analytic-L-second",
             "build-one-axis", "analytic-one-axis"],
    )
    def test_fall_grid_with_swapped_axes_exits_config(self, tmp_path, capsys, argv):
        """The fall commands take two axes, the length axis first, then time:
        a grid of one axis has no time axis, and one whose first axis is named
        T or whose second is named L would put lengths on the time axis, so
        each exits 2 and writes no file."""
        code = main([*argv, "--out", str(tmp_path / "th")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "the length axis first, then time" in captured.err
        assert not list(tmp_path.iterdir())

    def test_grid_too_large_to_allocate_exits_config(self, capsys):
        code = main(["paradox", "--count", "1000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "allocate" in captured.err

    def test_reading_against_the_theory_exits_numerical(self, tmp_path, capsys):
        """Both readings lie on the grid, but the theory puts no mass where
        T = 0.5 s and L = 9.5 m meet."""
        th = str(tmp_path / "th")
        run_cli(["analytic-theory", "--grid", SMALL_GRID, "--sigma", "0.05", "--out", th], capsys)
        code = main(["infer", "--theory", th, "--measure", "T:boxcar:0.5:0.01",
                     "--measure", "L:boxcar:9.5:0.1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "contradicts the theory" in err

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "not-a-zip", "empty", "wrong-format", "wrong-version",
         "missing-member", "bare-array", "wrong-shape", "non-finite", "factor-dtype",
         "factor-non-finite", "factor-negative", "factor-zero", "bit-flip", "lo-above-hi",
         "hi-past-row", "negative-lo", "band-lengths", "lo-float", "hi-int32", "lo-length",
         "band-2d", "band-float32", "missing-band", "object-member", "short-member",
         "npy-header", "npy-magic", "header-not-json", "header-not-object", "npy-version-4"],
    )
    def test_malformed_theory_file_exits_config(self, tmp_path, capsys, damage):
        th = tmp_path / "th.npz"
        write_theory(_sample_theory(), th)
        with np.load(th) as z:
            members = {k: z[k] for k in z.files}
        header = json.loads(str(members["header"]))
        lo, hi, band = members["lo"], members["hi"], members["band"]
        # What the error says, for the cases that damage the band members.
        expected = {
            "bit-flip": "Bad CRC-32 for file 'band.npy'",
            "non-finite": "must be finite",
            "factor-zero": "axis 'T' must be > 0, but is 0.0 at node 2 (T = 0.25)",
            "bare-array": "bare array",
            "missing-band": "missing member(s) ['band']",
            "lo-above-hi": "0 <= lo <= hi <= 17",
            "hi-past-row": "0 <= lo <= hi <= 17",
            "negative-lo": "0 <= lo <= hi <= 17",
            "band-lengths": "band of shape (390,) for rows whose bands hold 391 values",
            "lo-float": "member 'lo' is float64(23,), expected int64(23,)",
            "hi-int32": "member 'hi' is int32(23,), expected int64(23,)",
            "lo-length": "row bounds of shapes (22,) and (23,) for 23 rows",
            "band-2d": "band of shape (1, 391) for rows whose bands hold 391 values",
            "band-float32": "member 'band' is float32(391,), expected float64(391,)",
            "object-member": "Object arrays cannot be loaded when allow_pickle=False",
            "short-member": "EOF: reading array data, expected 3128 bytes got 3120",
            "npy-header": "Header does not contain the correct keys",
            "npy-magic": "the magic string is not correct",
            "header-not-json": "header is not valid JSON",
            "header-not-object": "header is a JSON list, expected an object",
            "npy-version-4": "unsupported .npy format version (4, 0)",
        }
        # Each member's .npy bytes as np.savez stores them, for the cases
        # that damage those bytes; the zip's CRC is computed over the damage.
        altered = {
            "short-member": ("band", lambda raw: raw[:-8]),
            "npy-header": ("lo", lambda raw: raw.replace(b"'descr'", b"'dexcr'", 1)),
            "npy-magic": ("mu_0", lambda raw: b"\x93NUMPX" + raw[6:]),
            "npy-version-4": ("lo", lambda raw: raw[:6] + b"\x04\x00" + raw[8:]),
        }
        damaged = {
            # Each of these three leaves the band lengths summing to band.size.
            "lo-above-hi": {"lo": np.where(np.arange(23) == 3, 9, lo),
                            "hi": np.where(np.arange(23) == 3, 8, hi),
                            "band": band[:band.size - 18]},
            "hi-past-row": {"lo": lo + (np.arange(23) == 0), "hi": hi + (np.arange(23) == 0)},
            "negative-lo": {"lo": lo - (np.arange(23) == 0), "hi": hi - (np.arange(23) == 0)},
            "band-lengths": {"band": band[:-1]},
            "lo-float": {"lo": lo.astype(np.float64)},
            "hi-int32": {"hi": hi.astype(np.int32)},
            "lo-length": {"lo": lo[:-1]},
            "band-2d": {"band": band.reshape(1, -1)},
            "band-float32": {"band": band.astype(np.float32)},
            "header-not-json": {"header": np.array("{not json")},
            "header-not-object": {"header": np.array("[4]")},
        }
        if damage == "truncated":
            th.write_bytes(th.read_bytes()[: th.stat().st_size // 2])
        elif damage == "not-a-zip":
            th.write_text("{}")
        elif damage == "empty":
            th.write_bytes(b"")
        elif damage in ("wrong-format", "wrong-version"):
            if damage == "wrong-format":
                header["format"] = "inferspace-density"
            else:
                header["version"] = 1
            np.savez(th, **{**members, "header": np.array(json.dumps(header))})
        elif damage in ("missing-member", "missing-band"):
            del members["mu_1" if damage == "missing-member" else "band"]
            np.savez(th, **members)
        elif damage == "bare-array":
            with th.open("wb") as fh:
                np.save(fh, band)
        elif damage == "wrong-shape":
            np.savez(th, **{**members, "mu_0": members["mu_0"][:-1]})
        elif damage == "factor-dtype":
            np.savez(th, **{**members, "mu_1": members["mu_1"].astype(np.float32)})
        elif damage in ("factor-non-finite", "factor-negative"):
            members["mu_0"][2] = np.inf if damage == "factor-non-finite" else -1.0
            np.savez(th, **members)
        elif damage == "factor-zero":
            members["mu_1"][2] = 0.0
            np.savez(th, **members)
        elif damage == "bit-flip":
            # The archive is stored uncompressed: flip one byte of the band's
            # values, past the member's local header and the .npy header.
            with zipfile.ZipFile(th) as z:
                info = z.getinfo("band.npy")
            raw = bytearray(th.read_bytes())
            name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
            start = info.header_offset + 30 + name_len + extra_len
            raw[start + info.file_size - 8] ^= 0x01
            th.write_bytes(bytes(raw))
        elif damage in damaged:
            np.savez(th, **{**members, **damaged[damage]})
        elif damage == "object-member":
            np.savez(th, **{**members, "mu_1": members["mu_1"].astype(object)})
        elif damage in altered:
            name, alter = altered[damage]
            with zipfile.ZipFile(th, "w") as z:
                for k, v in members.items():
                    buf = io.BytesIO()
                    np.save(buf, v)
                    raw = buf.getvalue()
                    z.writestr(f"{k}.npy", alter(raw) if k == name else raw)
        else:
            band[0] = np.nan
            np.savez(th, **members)
        code = main(["infer", "--theory", str(th), "--measure", "T:lognormal:1:0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {th}")
        if damage in expected:
            assert expected[damage] in captured.err


# The JSON type each typed header field must have.
_FIELD_TYPES = {"count": "integer", "n_experiments": "integer", "master_seed": "integer",
                "lower": "number", "upper": "number", "name": "string", "spacing": "string",
                "units": "string", "frame": "string", "kind": "string", "normalized": "boolean"}


@pytest.mark.parametrize(
    "kind, field, literal",
    [("density", "count", "1e400"), ("density", "count", "23.9"), ("density", "count", "true"),
     ("theory", "count", "1e400"), ("theory", "count", "23.9"), ("theory", "count", '"23"'),
     ("theory", "n_experiments", "1e400"), ("theory", "master_seed", "123.9"),
     ("density", "lower", "true"), ("density", "upper", '"20"'), ("density", "name", "5"),
     ("density", "spacing", '["logarithmic"]'), ("density", "units", "7"),
     ("density", "normalized", '"false"'),
     ("theory", "lower", "false"), ("theory", "upper", "[20]"), ("theory", "name", "null"),
     ("theory", "frame", "5"), ("theory", "normalized", "1"), ("theory", "kind", "3"),
     pytest.param("density", "upper", "1" + "0" * 400, id="density-upper-10**400")],
)
def test_integer_header_field_must_be_a_json_integer(tmp_path, capsys, kind, field, literal):
    """A typed header field whose value is not of its JSON type is a schema
    error naming the field: a count, experiment count or seed must be an
    integer, a bound a number, a name, spacing, unit, theory frame or
    provenance kind a string, and the normalized flag a boolean.  Nothing is
    coerced:
    not an overflow traceback (an integer past float64's range as a bound
    included), and not truncated or converted into a file that reads as
    another."""
    placeholder = "__field__"
    if kind == "density":
        doc = _density_doc(_sample_density())
        (doc if field == "normalized" else doc["axes"][0])[field] = placeholder
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc).replace(f'"{placeholder}"', literal))
        argv = ["convert", "--in", str(path), "--out", str(tmp_path / "o.csv")]
    else:
        path = tmp_path / "th.npz"
        write_theory(_sample_theory(), path)
        with np.load(path) as z:
            members = {k: z[k] for k in z.files}
        header = json.loads(str(members["header"]))
        if field in ("frame", "normalized"):
            header[field] = placeholder
        elif field in ("kind", "n_experiments", "master_seed"):
            header["provenance"][field] = placeholder
        else:
            header["axes"][0][field] = placeholder
        text = json.dumps(header).replace(f'"{placeholder}"', literal)
        np.savez(path, **{**members, "header": np.array(text)})
        argv = ["infer", "--theory", str(path), "--measure", "L:lognormal:1:0.1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"'{field}' must be a JSON {_FIELD_TYPES[field]}" in captured.err


@pytest.mark.parametrize("damage", ["int-past-the-string-limit", "not-utf-8"])
def test_density_file_json_cannot_read_exits_config(tmp_path, capsys, damage):
    """Python's json refuses an integer literal of more than 4300 digits, and
    a file that is not UTF-8, with a plain ValueError: ``convert --in``
    reports either as a schema error, not a traceback."""
    doc = _density_doc(_sample_density())
    path = tmp_path / "d.json"
    if damage == "not-utf-8":
        path.write_bytes(b"\xff" + json.dumps(doc).encode())
    else:
        doc["axes"][0]["upper"] = "__upper__"
        path.write_text(json.dumps(doc).replace('"__upper__"', "1" + "0" * 5000))
    code = main(["convert", "--in", str(path), "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# CLI: auxiliary commands
# ---------------------------------------------------------------------------

class TestCliAuxiliary:
    def test_benford_analytic_only(self, capsys):
        code, doc = run_cli(["benford"], capsys)
        assert code == 0
        assert math.isclose(doc["digits"]["1"], math.log10(2.0), rel_tol=1e-12)
        assert "sampled" not in doc

    def test_benford_sampled_frequencies(self, capsys):
        code, doc = run_cli(["benford", "--n", "200000", "--seed", "7"], capsys)
        assert code == 0
        assert doc["n"] == 200000
        assert doc["max_abs_error"] < 0.005
        assert abs(doc["sampled"]["1"] - math.log10(2.0)) < 0.005

    def test_axioms_command_passes(self, capsys):
        code, doc = run_cli(["axioms", "--triples", "20", "--seed", "3"], capsys)
        assert code == 0
        assert doc["all_passed"] is True
        assert doc["sum_product"]["all_passed"] is True
        assert doc["max_min"]["all_passed"] is True

    def test_paradox_command_reports_both_maps(self, capsys):
        code, doc = run_cli(["paradox", "--count", "101"], capsys)
        assert code == 0
        assert doc["sheared"]["tv_naive"] > 0.01
        assert doc["affine_control"]["tv_naive"] <= 1e-9
        recovery = doc["slice_recovery_tv_by_width_cells"]
        assert recovery["8.0"] > recovery["4.0"] > recovery["2.0"]

    @pytest.mark.parametrize("tv_band, agrees", [(1e-15, True), (0.3, False), (0.5, False)])
    @pytest.mark.parametrize(
        "recovery, shrinks",
        [((3e-3, 6e-4, 1e-4), True), ((0.44, 0.44, 0.27), False), ((1e-3, 2e-3, 1e-4), False)],
    )
    def test_paradox_conclusion_follows_the_numbers(self, tv_band, agrees, recovery, shrinks):
        """Each clause states what its numbers show: tv_band against
        tv_naive = 0.3, and a sweep that shrinks at every thinner band."""
        text = _paradox_conclusion(0.3, tv_band, dict(zip(("8.0", "4.0", "2.0"), recovery)))
        assert ("band conditioning agreed across frames" in text) is agrees
        assert ("no less than slice conditioning's tv_naive" in text) is not agrees
        assert ("converges to the exact slice as the band thins" in text) is shrinks
        assert ("does not near the exact slice at every thinner band of the "
                "8.0/4.0/2.0-cell sweep" in text) is not shrinks

    @pytest.mark.parametrize(
        "recovery, slow_step",
        [((6.0, 4.0, 2.0), None),
         ((0.443, 0.439, 0.273), "from 8.0 to 4.0 cells its TV goes from 0.443 to 0.439, "
                                 "a ratio of 1.01"),
         ((1.44, 1.2, 1.0), "from 8.0 to 4.0 cells its TV goes from 1.44 to 1.2, "
                            "a ratio of 1.20"),
         ((6.0, 4.0, 2.75), "from 4.0 to 2.0 cells its TV goes from 4 to 2.75, "
                            "a ratio of 1.45")],
        ids=["1.5-fold", "flat-first", "slow-at-each", "slow-second"],
    )
    def test_paradox_converges_only_at_a_1p5_fold_fall_per_halving(self, recovery, slow_step):
        """The sweep converges when each halving of the band cuts its TV at
        least 1.5-fold, as 6 → 4 → 2 does exactly; a sweep that falls at
        every step, but slower, does not, and the text names the first
        slow step."""
        text = _paradox_conclusion(0.3, 1e-15, dict(zip(("8.0", "4.0", "2.0"), recovery)))
        assert ("converges to the exact slice as the band thins" in text) is (slow_step is None)
        if slow_step is not None:
            assert text.endswith(f"-cell sweep: {slow_step}, under the 1.5-fold fall that "
                                 "converging takes")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_axioms_tolerance_must_be_finite_and_nonnegative(self, tol, capsys):
        """nan or -1 would fail every check and inf pass every one."""
        code = main(["axioms", "--triples", "2", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"tol must be finite and >= 0, got {float(tol)!r}" in captured.err

    @pytest.mark.parametrize(
        "flag, value, must",
        [pytest.param(flag, value, "finite and > 0", id=f"{value}-{flag}")
         for flag in ("--sigma-sum", "--sigma-diff", "--width-cells")
         for value in ("0", "-1", "nan", "inf")]
        + [pytest.param("--slice-value", value, "finite", id=f"{value}---slice-value")
           for value in ("nan", "inf")],
    )
    def test_paradox_widths_must_be_finite_and_positive(self, flag, value, must, capsys):
        code = main(["paradox", "--count", "21", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be {must}, got {float(value)}\n"

    @pytest.mark.parametrize("flag", ["--sigma-sum", "--sigma-diff"])
    def test_paradox_width_whose_square_underflows_is_refused(self, flag, capsys):
        """2σ² of 1e-200 underflows to 0, and the joint's exponent would be
        0/0 on its ridge: refused before the joint is built."""
        code = main(["paradox", "--count", "21", flag, "1e-200"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} 1e-200 is too small: 2σ² underflows to 0 in float64\n"
        )

    def test_paradox_width_whose_exponent_overflows_gives_exact_zeros(self, capsys):
        """2σ² of 1e-160 is a subnormal, so the exponent goes to -inf off the
        ridge; its exp is the exact 0, with no warning (the suite turns
        warnings into errors)."""
        code = main(["paradox", "--count", "21", "--sigma-diff", "1e-160"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["sheared"]["map_kind"] == "shear"

    def test_paradox_band_that_covers_no_node_is_refused(self, capsys):
        """A band of 1e-300 cells is so thin that c ± w rounds to c and its
        boxcar covers no node of y: the AND has no mass, exit 3 with one
        line naming the width, and no traceback."""
        code = main(["paradox", "--count", "21", "--width-cells", "1e-300"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: the band of width 1.4011436134826804e-301 around "
                                "y = 1.0 covers no node of the y axis\n")

    @pytest.mark.parametrize("width_cells, bands", [("2", 3), ("3", 4)])
    def test_paradox_conditions_the_native_frame_once(self, width_cells, bands, capsys,
                                                      monkeypatch):
        """One command slices the native frame once, for both maps, and
        builds a native band once per distinct width: the demonstrations'
        band is the sweep's entry of ``--width-cells``.  Each native band is
        built by ``_band``, and the mapped frames reuse the demonstration's
        band."""
        calls = Counter()

        def counted(name):
            real = getattr(inferspace.inference, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(inferspace.inference, name, call)

        counted("conditional_density")
        counted("_band")
        code, doc = run_cli(["paradox", "--count", "21", "--width-cells", width_cells], capsys)
        assert code == 0
        assert doc["sheared"]["band_width"] == doc["affine_control"]["band_width"]
        assert calls == {"conditional_density": 1, "_band": bands}

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-theory", "--sigma-theory", "1e-3"],
            ["convert", "--match-tol", "1e-9"],
            ["benford", "--config", "site.json"],
            ["axioms", "--axis", "x:lin:0:1:9"],
            ["infer", "--measurement", "T:lognormal:1.0:0.05"],
        ],
    )
    def test_removed_options_are_rejected(self, argv, capsys):
        """``build-theory --sigma-theory`` never reached the campaign and
        ``convert --match-tol`` never changed an output; ``--config`` was a
        second way in for every value, ``--axis`` one for ``--grid`` and
        ``--measurement`` a second spelling of ``--measure``.  All are gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: parsing
# ---------------------------------------------------------------------------

# One valid argv per subcommand, past its name, that sets some options.
_VALID_ARGS = {
    "build-theory": ["--n", "5", "--mode", "set_T", "--compare-analytic"],
    "analytic-theory": ["--frame", "log", "--sigma", "0.01"],
    "infer": ["--measure", "T:gaussian:1:0.1", "--measure", "L:noninformative"],
    "predict": ["--known", "T:gaussian:1:0.1", "--query", "L"],
    "benford": ["--n", "10", "--upper", "100"],
    "paradox": ["--count", "9"],
    "axioms": ["--tol", "0", "--seed", "3"],
    "convert": ["--in", "a.json", "--map", "x:log", "--map", "y:power:2"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser inside the full ``build_parser()``."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _parsed(parse, argv, capsys):
    """What ``parse(argv)`` returns or exits with, and what it printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _full_parse(argv):
    return build_parser().parse_args(argv)


def test_valid_subcommand_argv_is_parsed_by_that_subcommand_alone(monkeypatch):
    """A valid argv gives the Namespace the full parser gives, with the same
    keys, defaults, ``command`` and ``handler``, and the full parser is not
    built for it."""
    expected = {name: [_full_parse([name]), _full_parse([name, *args])]
                for name, args in _VALID_ARGS.items()}
    monkeypatch.setattr(cli, "build_parser", None)  # calling it would raise
    for name, args in _VALID_ARGS.items():
        assert [_parse_args([name]), _parse_args([name, *args])] == expected[name]
    assert list(_VALID_ARGS) == list(_subparsers())


@pytest.mark.parametrize("name", list(_VALID_ARGS))
def test_subcommand_help_and_errors_match_the_full_parser(name, capsys):
    """For each subcommand, ``main`` prints the full parser's ``--help`` and
    exits as it does; and for each of its options that takes a value, the
    same error and exit code when the value is missing, and when its type or
    choices refuse it."""
    argvs = [[name, "--help"]]
    for action in _subparsers()[name]._actions:
        if action.option_strings and action.nargs is None:
            argvs.append([name, action.option_strings[0]])
            if action.type is not None or action.choices is not None:
                argvs.append([name, action.option_strings[0], "x"])
    for argv in argvs:
        ours = _parsed(main, argv, capsys)
        assert ours == _parsed(_full_parse, argv, capsys)
        assert ours[0] == ("exit", 0 if argv[-1] == "--help" else 2)
    assert len(argvs) > 1


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["bogus"], ["infer", "--bogus", "1"], ["paradox", "--count", "x", "--y"]],
    ids=["no-arguments", "help", "unknown-command", "unrecognized", "bad-type-and-unrecognized"],
)
def test_top_level_usage_and_errors_come_from_the_full_parser(argv, capsys):
    """No subcommand, an unknown one, and arguments a subcommand does not
    take print the full parser's usage and message."""
    ours = _parsed(main, argv, capsys)
    assert ours == _parsed(_full_parse, argv, capsys)
    assert ours[0][0] == "exit"


def _run_cli_process(argv, stdout, stderr) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter with the given output streams."""
    src = Path(inferspace.__file__).resolve().parents[1]
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    cmd = [sys.executable, "-c", "import sys; from inferspace.cli import main; sys.exit(main())",
           *argv]
    return subprocess.run(cmd, stdout=stdout, stderr=stderr, env=env, text=True, timeout=120)


@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
def test_a_stdout_that_cannot_take_the_report_exits_config(sink):
    """A report written to a pipe nobody reads, or to a full device, exits 2
    with one error line: no traceback, and nothing from the interpreter's
    flush at exit."""
    if sink == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = os.fdopen(write_end, "wb")
    else:
        out = open("/dev/full", "wb")
    with out:
        result = _run_cli_process(["benford"], out, subprocess.PIPE)
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write the report: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


@pytest.mark.parametrize(
    "argv, full",
    [
        (["--help"], "stdout"),
        (["infer", "--theory", "nothere", "--measure", "T:gaussian:1:0.1"], "stderr"),
    ],
    ids=["help-to-full-stdout", "error-to-full-stderr"],
)
def test_a_full_device_on_help_or_error_exits_config(argv, full):
    """The help printed to a full stdout, and an error line printed to a full
    stderr, exit 2 without a traceback: neither exits 0 with nothing written
    nor 1 from the failed print."""
    with open("/dev/full", "wb") as sink:
        if full == "stdout":
            result = _run_cli_process(argv, sink, subprocess.PIPE)
        else:
            result = _run_cli_process(argv, subprocess.PIPE, sink)
    assert result.returncode == 2
    visible = result.stderr if full == "stdout" else result.stdout
    assert "Traceback" not in visible and "Exception ignored" not in visible
    if full == "stdout":
        assert result.stderr.startswith("error: cannot write the help: ")
        assert len(result.stderr.splitlines()) == 1


# ---------------------------------------------------------------------------
# CLI: convert
# ---------------------------------------------------------------------------

class TestCliConvert:
    def _write_lognormal(self, tmp_path):
        ax = Axis.logarithmic("x", 0.1, 10.0, 201)
        u = np.log(ax.nodes)
        d = normalize(Density(Grid.of(ax), np.exp(-0.5 * (u / 0.4) ** 2) / ax.nodes))
        src = tmp_path / "src.json"
        write_density(d, src)
        return str(src), d

    def test_log_map_flattens_to_linear_axis(self, tmp_path, capsys):
        src, d = self._write_lognormal(tmp_path)
        out = str(tmp_path / "out.json")
        code, doc = run_cli(
            ["convert", "--in", src, "--out", out, "--map", "x:log"], capsys
        )
        assert code == 0
        assert abs(doc["mass_after"] - doc["mass_before"]) < 1e-6
        back = read_density(out)
        assert back.grid.axes[0].spacing == "linear"
        assert math.isclose(back.grid.axes[0].lower, math.log(0.1), rel_tol=1e-12)
        assert math.isclose(back.grid.axes[0].upper, math.log(10.0), rel_tol=1e-12)

    def test_reformat_to_csv_without_maps(self, tmp_path, capsys):
        src, d = self._write_lognormal(tmp_path)
        out = str(tmp_path / "out.csv")
        code, doc = run_cli(["convert", "--in", src, "--out", out], capsys)
        assert code == 0
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 202

    def test_two_dimensional_partial_map(self, tmp_path, capsys):
        d = _sample_density()
        src = tmp_path / "src.json"
        write_density(d, src)
        out = str(tmp_path / "out.json")
        code, doc = run_cli(
            ["convert", "--in", str(src), "--out", out, "--map", "L:reciprocal"],
            capsys,
        )
        assert code == 0
        back = read_density(out)
        assert math.isclose(back.grid.axes[0].lower, 1.0 / 20.0, rel_tol=1e-12)
        assert math.isclose(back.grid.axes[0].upper, 2.0, rel_tol=1e-12)
        # the unmapped axis is untouched
        assert back.grid.axes[1].lower == 0.0 and back.grid.axes[1].upper == 2.0
        assert abs(doc["mass_after"] - doc["mass_before"]) < 1e-4

    def test_unknown_output_format_exits_config(self, tmp_path, capsys):
        src, _ = self._write_lognormal(tmp_path)
        code = main(["convert", "--in", src, "--out", str(tmp_path / "o.xml")])
        capsys.readouterr()
        assert code == 2

    def test_map_on_absent_axis_exits_config(self, tmp_path, capsys):
        src, _ = self._write_lognormal(tmp_path)
        out = str(tmp_path / "o.json")
        code = main(["convert", "--in", src, "--out", out, "--map", "zz:log"])
        capsys.readouterr()
        assert code == 2

    def test_axis_mapped_twice_exits_config(self, tmp_path, capsys):
        src, _ = self._write_lognormal(tmp_path)
        out = tmp_path / "o.json"
        code = main(["convert", "--in", src, "--out", str(out), "--map", "x:log",
                     "--map", "x:reciprocal"])
        assert code == 2
        assert "axis 'x' mapped twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec",
        ["x:affine:0", "x:affine:nan", "x:affine:1:inf", "x:power:0", "x:power:nan",
         "x:log:0", "x:log:nan", "x:exp:-1", "x:exp:inf"],
    )
    def test_degenerate_map_argument_exits_config(self, tmp_path, capsys, spec):
        src, _ = self._write_lognormal(tmp_path)
        out = tmp_path / "o.json"
        code = main(["convert", "--in", src, "--out", str(out), "--map", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert f"map {spec!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["x:affine:2:1", "x:exp"])
    def test_map_without_an_image_axis_names_the_kinds_with_one(self, tmp_path, capsys, spec):
        """``convert`` takes no target grid, so it refuses a map whose node
        images lie on no lattice, and says so."""
        src, _ = self._write_lognormal(tmp_path)
        out = tmp_path / "o.csv"
        code = main(["convert", "--in", src, "--out", str(out), "--map", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert "images of the nodes of axis 'x' lie on no uniform linear or log lattice" in err
        assert "target grid" not in err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_theory_joint_exports(self, tmp_path, capsys, suffix):
        theory = _sample_theory()
        write_theory(theory, tmp_path / "th")
        out = tmp_path / f"joint{suffix}"
        code, doc = run_cli(["convert", "--in", str(tmp_path / "th.npz"), "--out", str(out)],
                            capsys)
        assert code == 0
        assert doc["nodes"] == theory.joint.grid.node_count
        assert doc["mass_after"] == doc["mass_before"] == integrate(theory.joint)
        if suffix == ".json":
            assert np.array_equal(read_density(out).values, theory.joint.values)
        else:
            assert len(out.read_text().strip().splitlines()) == 1 + 23 * 17

    def test_missing_input_flag_exits_config(self, tmp_path, capsys):
        code = main(["convert", "--out", str(tmp_path / "o.json")])
        capsys.readouterr()
        assert code == 2


# ---------------------------------------------------------------------------
# shorthand parsers
# ---------------------------------------------------------------------------

_SHORTHAND_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "2", "301", "0.5", "1e-300", "1e400", "nan", "inf",
                     "-inf", "abc", ""]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_SHORTHAND_WORDS = st.sampled_from(
    ["lin", "log", "LOG", "gaussian", "lognormal", "boxcar", "noninformative", "reciprocal",
     "exp", "affine", "power", "default"]
)
_SHORTHANDS = st.one_of(
    # NAME:WORD:NUMBERS..., the shape of every grammar
    st.tuples(st.sampled_from(["L", "x", ""]), _SHORTHAND_WORDS,
              st.lists(_SHORTHAND_NUMBERS, max_size=4))
    .map(lambda t: ":".join([t[0], t[1], *t[2]])),
    # any tokens at all
    st.lists(st.one_of(_SHORTHAND_WORDS, _SHORTHAND_NUMBERS, st.text(max_size=5)), max_size=7)
    .map(":".join),
)


@settings(max_examples=400)
@given(_SHORTHANDS)
def test_shorthand_parsers_parse_or_raise_a_configuration_error(spec):
    """Whatever the tokens, a shorthand parses or is refused as configuration
    (exit 2), never with a numerical error or a stray exception."""
    for parse in (parse_axis, parse_measurement, parse_map, parse_grid):
        try:
            parse(spec)
        except ConfigurationError:
            pass


def test_axis_shorthand_bound_that_is_not_a_number_exits_config(capsys):
    code = main(["axioms", "--grid", "x:lin:zero:1:9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: axis 'x:lin:zero:1:9': "
                            "could not convert string to float: 'zero'\n")
