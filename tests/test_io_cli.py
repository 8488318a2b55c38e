"""File formats and the command-line interface.

CLI tests call ``main(argv)`` in process and parse the JSON it prints; exit
codes follow the documented convention (0 ok, 2 configuration, 3 numerical).
"""

import contextlib
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import inferspace
from inferspace import (
    JEFFREYS,
    LOGNORMAL,
    SET_L,
    Axis,
    ConfigurationError,
    Density,
    FallingBodyLaw,
    Grid,
    IOFailure,
    MeasurementModel,
    NonFinite,
    PriorSpec,
    Provenance,
    SchemaError,
    TheoryDensity,
    ZeroMass,
    analytic_fall_theory,
    density_from_dict,
    density_to_dict,
    integrate,
    make_prior,
    noninformative_profile,
    normalize,
    predict,
    read_density,
    read_theory,
    run_campaign,
    write_csv,
    write_density,
    write_theory,
)
from inferspace.cli import (
    _BUILD_GRID,
    _paradox_conclusion,
    main,
    parse_axis,
    parse_grid,
    parse_map,
    parse_measurement,
)
from inferspace.inference import _posterior_marginal
from inferspace.theory import _BLOCK_BYTES

from conftest import conditional_theory, gaussian_density


def _sample_density():
    grid = Grid.of(
        Axis.logarithmic("L", 0.5, 20.0, 23),
        Axis.linear("T", 0.0, 2.0, 17),
    )
    rng = np.random.default_rng(99)
    vals = rng.uniform(0.1, 3.0, grid.shape)
    return normalize(Density(grid, vals, frame="lab"))


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
        assert back.frame == "lab"
        assert back.normalized is True

    def test_dict_round_trip(self):
        d = _sample_density()
        back = density_from_dict(density_to_dict(d))
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
        doc = density_to_dict(_sample_density())
        doc["format"] = "something-else"
        with pytest.raises(SchemaError):
            density_from_dict(doc)

    def test_unsupported_version_raises(self):
        doc = density_to_dict(_sample_density())
        doc["version"] = 999
        with pytest.raises(SchemaError):
            density_from_dict(doc)

    def test_value_count_mismatch_raises(self):
        doc = density_to_dict(_sample_density())
        doc["values"] = doc["values"][:-3]
        with pytest.raises(SchemaError):
            density_from_dict(doc)

    def test_not_an_object_raises(self):
        with pytest.raises(SchemaError):
            density_from_dict([1, 2, 3])

    def test_normalized_flag_needs_unit_mass(self, tmp_path, capsys):
        """A document flagged normalized must carry unit mass to 1e-9, or
        ``intersect`` and ``summarize`` would trust a wrong flag."""
        d = _sample_density()
        for factor in (1.0 + 1e-12, 1.0):
            doc = density_to_dict(d.with_values(factor * d.values, normalized=True))
            assert density_from_dict(doc).normalized is True
        for factor in (1.0 + 1e-8, 2.0):
            doc = density_to_dict(d.with_values(factor * d.values, normalized=True))
            with pytest.raises(SchemaError, match="flagged normalized but its mass is"):
                density_from_dict(doc)
        write_density(d.with_values(2.0 * d.values, normalized=True), tmp_path / "d.json")
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
        mu_factors=[noninformative_profile(ax) for ax in joint.grid.axes],
        provenance=Provenance(kind=kind, n_experiments=7, master_seed=123),
    )


def assert_same_theory(back: TheoryDensity, theory: TheoryDensity) -> None:
    """Bit for bit: grid, joint and μ factor bytes, frame, flag and provenance."""
    assert back.joint.grid.axes == theory.joint.grid.axes
    assert len(back.mu_factors) == len(theory.mu_factors)
    for b, t in ((back.joint.values, theory.joint.values),
                 *zip(back.mu_factors, theory.mu_factors)):
        assert b.dtype == np.float64 and b.shape == t.shape and b.tobytes() == t.tobytes()
    assert back.joint.frame == theory.joint.frame
    assert back.joint.normalized is theory.joint.normalized
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
    return conditional_theory(slices, make_prior(PriorSpec(JEFFREYS), Grid.of(i_ax)))


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

    def test_joint_flagged_normalized_needs_unit_mass(self, tmp_path, capsys):
        """A joint flagged normalized with mass 2 would pass through the AND
        unscaled: the reader refuses it and ``infer`` exits 2."""
        theory = _sample_theory()
        joint = theory.joint.with_values(2.0 * theory.joint.values, normalized=True)
        write_theory(TheoryDensity.from_joint(joint, theory.mu_factors, theory.provenance),
                     tmp_path / "th")
        with pytest.raises(SchemaError, match="flagged normalized but its mass is 2.0"):
            read_theory(tmp_path / "th")
        code = main(["infer", "--theory", str(tmp_path / "th.npz"),
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
        "frame": joint.frame,
        "normalized": {"joint": joint.normalized, "mu": False},
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
        "frame": joint.frame,
        "normalized": joint.normalized,
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
    names = draw(st.lists(_names, min_size=1, max_size=2, unique=True))
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
        draw(hnp.arrays(np.float64, ax.count, elements=st.floats(0.0, 1e300)))
        for ax in axes
    ]
    joint = Density(grid, draw(_joint_layouts(grid.shape)), frame=draw(st.text(max_size=8)))
    if draw(st.booleans()):
        # A file may flag its joint normalized only at unit mass.
        with contextlib.suppress(ZeroMass, NonFinite):
            joint = normalize(joint)
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
    # One band per row of values.reshape(-1, shape[-1]): a 1-D theory is one row.
    rows = values.reshape(-1, values.shape[-1])
    assert lo.shape == hi.shape == (len(rows),)
    if values.ndim == 1:
        assert lo.shape == (1,)
    # Each band runs from its row's first nonzero value to its last.
    for row, a, b in zip(rows, lo, hi):
        nonzero = np.flatnonzero(row)
        assert (a, b) == ((nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0))
    assert band.size == int((hi - lo).sum())


@settings(max_examples=100)
@given(st.data())
def test_bands_of_a_joint_rebuild_it_bit_for_bit(data):
    """A theory holds a dense joint by its row bands: its ``joint`` rebuilds
    every value, -0.0 included, for every layout a theory file stores."""
    axes = [Axis.linear(name, 0.0, 1.0, data.draw(st.integers(1, 6)) + 1) for name in
            data.draw(st.sampled_from([("x",), ("x", "y")]))]
    grid = Grid.of(*axes)
    values = data.draw(_joint_layouts(grid.shape))
    if data.draw(st.booleans()):
        values[tuple(data.draw(st.integers(0, n - 1)) for n in grid.shape)] *= -0.0
    d = Density(grid, values, frame="lab", normalized=data.draw(st.booleans()))
    theory = TheoryDensity.from_joint(d, [np.ones(ax.count) for ax in axes], Provenance("x"))
    back = theory.joint
    assert back.values.tobytes() == d.values.tobytes()
    assert (back.grid, back.frame, back.normalized) == (d.grid, d.frame, d.normalized)


def _allocated(call):
    """``call()`` and the peak bytes numpy and Python allocated during it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_theory_file_io_stays_within_its_memory_budget(tmp_path):
    """On the analytic theory, building it allocates under 0.2 grid arrays
    and writing at most 0.3, and reading at most 0.15: the row bands, which
    the theory shares instead of copying, with no joint scattered from them.
    A read and then an ``infer``'s marginal, in process, allocate at most
    0.2: the bands, their column index, one product of the same length, and
    1-D arrays."""
    grid = Grid.of(Axis.logarithmic("L", 1.0, 10.0, 401),
                   Axis.logarithmic("T", 0.45152364098573, 1.4278431229270645, 401))
    law, known = FallingBodyLaw(9.81, 1e-3), MeasurementModel("T", LOGNORMAL, 1.0, 0.005)
    theory = analytic_fall_theory(law, grid)
    grid_bytes = theory.joint.values.nbytes
    # A first call of each, so the modules they import are not counted.
    path = write_theory(theory, tmp_path / "t")
    _posterior_marginal(read_theory(path), [known], "L")

    _, built = _allocated(lambda: analytic_fall_theory(law, grid))
    _, written = _allocated(lambda: write_theory(theory, path))
    back, read = _allocated(lambda: read_theory(path))
    _, inferred = _allocated(lambda: _posterior_marginal(read_theory(path), [known], "L"))
    assert built < 0.2 * grid_bytes
    assert written <= 0.3 * grid_bytes
    assert read <= 0.15 * grid_bytes
    assert inferred <= 0.2 * grid_bytes
    assert not back.joint.values.flags.writeable
    assert not any(a.flags.writeable for a in (back.lo, back.hi, back.band))
    assert_same_theory(back, theory)


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
    predict(theory, known, "L")
    main(argv)
    capsys.readouterr()

    _, predicted = _allocated(lambda: predict(theory, known, "L"))
    code, inferred = _allocated(lambda: main(argv))
    assert json.loads(capsys.readouterr().out)["axis"] == "L"
    assert code == 0
    assert predicted < 0.05 * grid_bytes
    assert inferred <= 1.15 * grid_bytes


def test_campaign_stays_within_its_memory_budget():
    """On the 300² build grid, a campaign of 2000 experiments allocates at
    most the accumulator, the theory's bands, the two buffers a block's
    centre factors are written into, and a quarter of a grid array: the
    block's product, numpy's buffer for adding it into a window of the
    joint, the masks ``_row_bands`` finds the bands with, and 1-D arrays.
    The node factors scale the accumulator in place and the windows come
    from 1-D keys, so a grid-sized temporary in either breaks the budget."""
    grid = parse_grid(_BUILD_GRID)
    law = FallingBodyLaw()
    instruments = [MeasurementModel("L", LOGNORMAL, 1.0, 0.05),
                   MeasurementModel("T", LOGNORMAL, 1.0, 0.05)]
    # A first call, so the modules it imports are not counted.
    run_campaign(law, instruments, 200, SET_L, 1, grid)

    n = 2000
    theory, allocated = _allocated(lambda: run_campaign(law, instruments, n, SET_L, 7, grid))
    grid_bytes = 8 * grid.node_count
    rows = min(n, _BLOCK_BYTES // (8 * max(grid.shape)))
    buffers = 8 * rows * sum(grid.shape)
    bands = theory.lo.nbytes + theory.hi.nbytes + theory.band.nbytes
    assert allocated <= grid_bytes + bands + buffers + 0.25 * grid_bytes


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
        capsys.readouterr()

    def test_query_absent_from_a_1d_theory_exits_config(self, tmp_path, capsys):
        """``--query`` must name an axis of the theory, on a 1-D theory as on
        a 2-D one."""
        ax = Axis.logarithmic("L", 1.0, 10.0, 101)
        profile = noninformative_profile(ax)
        theory = TheoryDensity.from_joint(Density(Grid.of(ax), profile), [profile],
                                          Provenance("analytic"))
        argv = ["infer", "--theory", str(write_theory(theory, tmp_path / "one")),
                "--measure", "L:lognormal:3:0.1"]
        code, doc = run_cli(argv, capsys)
        assert code == 0 and doc["axis"] == "L"
        assert main(argv + ["--query", "T"]) == 2
        assert "no axis named 'T'" in capsys.readouterr().err

    def test_overflowing_posterior_mass_exits_numerical(self, tmp_path, capsys):
        """A theory whose AND with a reading has a mass beyond float64 is
        refused as an overflow (exit 3), without numpy's warning."""
        axes = [Axis.logarithmic(name, 1.0, 1e6, 11) for name in ("L", "T")]
        theory = TheoryDensity.from_joint(Density(Grid.of(*axes), np.full((11, 11), 1e300)),
                                          [noninformative_profile(ax) for ax in axes],
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
         "factor-non-finite", "factor-negative", "bit-flip", "lo-above-hi", "hi-past-row",
         "negative-lo", "band-lengths", "lo-float", "hi-int32", "lo-length", "band-2d",
         "band-float32", "missing-band"],
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
            "bare-array": "bare array",
            "missing-band": "missing member(s) ['band']",
            "lo-above-hi": "0 <= lo <= hi <= 17",
            "hi-past-row": "0 <= lo <= hi <= 17",
            "negative-lo": "0 <= lo <= hi <= 17",
            "band-lengths": "member 'band' is float64(390,), expected float64(391,)",
            "lo-float": "member 'lo' is float64(23,), expected int64(23,)",
            "hi-int32": "member 'hi' is int32(23,), expected int64(23,)",
            "lo-length": "member 'lo' is int64(22,), expected int64(23,)",
            "band-2d": "member 'band' is float64(1, 391), expected float64(391,)",
            "band-float32": "member 'band' is float32(391,), expected float64(391,)",
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
        else:
            band[0] = np.nan
            np.savez(th, **members)
        code = main(["infer", "--theory", str(th), "--measure", "T:lognormal:1:0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {th}")
        if damage in expected:
            assert expected[damage] in captured.err


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
