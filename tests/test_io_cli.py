"""File formats and the command-line interface.

CLI tests call ``main(argv)`` in process and parse the JSON it prints; exit
codes follow the documented convention (0 ok, 2 configuration, 3 numerical).
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

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
    PriorSpec,
    Provenance,
    SchemaError,
    TheoryDensity,
    analytic_fall_theory,
    density_from_dict,
    density_to_dict,
    grids_equal,
    integrate,
    make_prior,
    noninformative_profile,
    normalize,
    read_density,
    read_theory,
    run_campaign,
    theory_from_conditional,
    write_csv,
    write_density,
    write_theory,
)
from inferspace.cli import main, parse_axis, parse_grid, parse_map, parse_measurement

from conftest import gaussian_density


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
        assert grids_equal(back.grid, d.grid)
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
    return TheoryDensity(
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
    return theory_from_conditional(slices, make_prior(PriorSpec(JEFFREYS), Grid.of(i_ax)))


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
        ``joint``: an absent target stays absent, a present one keeps its old
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


_names = st.sampled_from(["L", "T", "x", "time (s)", "λ"])


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
    values = hnp.arrays(
        np.float64, grid.shape,
        elements=st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
    )
    factors = [
        draw(hnp.arrays(np.float64, ax.count, elements=st.floats(0.0, 1e300)))
        for ax in axes
    ]
    frame = draw(st.text(max_size=8))
    seeds = st.none() | st.integers(0, 2**63 - 1)
    return TheoryDensity(
        joint=Density(grid, draw(values), frame=frame, normalized=draw(st.booleans())),
        mu_factors=factors,
        provenance=Provenance(draw(st.text(max_size=12)), draw(seeds), draw(seeds)),
    )


@settings(max_examples=60)
@given(_theories())
def test_theory_file_round_trip_is_bit_exact(theory):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_theory(theory, Path(tmp) / "t")
        assert_same_theory(read_theory(path), theory)


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
            (["build-theory", "--n", "5", "--sigma-length", "500"],
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
         "factor-non-finite", "factor-negative"],
    )
    def test_malformed_theory_file_exits_config(self, tmp_path, capsys, damage):
        th = tmp_path / "th.npz"
        write_theory(_sample_theory(), th)
        with np.load(th) as z:
            members = {k: z[k] for k in z.files}
        header = json.loads(str(members["header"]))
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
        elif damage == "missing-member":
            del members["mu_1"]
            np.savez(th, **members)
        elif damage == "bare-array":
            with th.open("wb") as fh:
                np.save(fh, members["joint"])
        elif damage == "wrong-shape":
            np.savez(th, **{**members, "mu_0": members["mu_0"][:-1]})
        elif damage == "factor-dtype":
            np.savez(th, **{**members, "mu_1": members["mu_1"].astype(np.float32)})
        elif damage in ("factor-non-finite", "factor-negative"):
            members["mu_0"][2] = np.inf if damage == "factor-non-finite" else -1.0
            np.savez(th, **members)
        else:
            members["joint"][0, 0] = np.nan
            np.savez(th, **members)
        code = main(["infer", "--theory", str(th), "--measure", "T:lognormal:1:0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {th}")


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


@pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
def test_a_stdout_that_cannot_take_the_report_exits_config(sink):
    """A report written to a pipe nobody reads, or to a full device, exits 2
    with one error line: no traceback, and nothing from the interpreter's
    flush at exit."""
    src = Path(inferspace.__file__).resolve().parents[1]
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, "-c", "import sys; from inferspace.cli import main; sys.exit(main())",
            "benford"]
    if sink == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = os.fdopen(write_end, "wb")
    else:
        out = open("/dev/full", "wb")
    with out:
        result = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, env=env, text=True,
                                timeout=120)
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write the report: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


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
        """``convert`` takes no target grid, so the refusal names the map kinds
        that do have an image of a logarithmic axis."""
        src, _ = self._write_lognormal(tmp_path)
        out = tmp_path / "o.csv"
        code = main(["convert", "--in", src, "--out", str(out), "--map", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert "of a logarithmic axis has no linear/log image axis" in err
        assert "log, reciprocal, power, and affine with a > 0 and b = 0" in err
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
