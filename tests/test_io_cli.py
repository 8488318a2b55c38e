"""File formats and the command-line interface.

CLI tests call ``main(argv)`` in process and parse the JSON it prints; exit
codes follow the documented convention (0 ok, 2 configuration, 3 numerical).
"""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

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
    normalize,
    null_information_density,
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
        mu=null_information_density(joint.grid, frame="lab"),
        provenance=Provenance(kind=kind, n_experiments=7, master_seed=123),
    )


def assert_same_theory(back: TheoryDensity, theory: TheoryDensity) -> None:
    """Bit for bit: grids, value bytes, frames, flags and provenance."""
    for b, t in ((back.joint, theory.joint), (back.mu, theory.mu)):
        assert b.grid.axes == t.grid.axes
        assert b.values.dtype == np.float64 and b.values.tobytes() == t.values.tobytes()
        assert b.frame == t.frame
        assert b.normalized is t.normalized
    assert back.provenance == theory.provenance


def _analytic_linear(grid):
    return analytic_fall_theory(FallingBodyLaw(9.81, 0.05), grid)


def _analytic_log(grid):
    return analytic_fall_theory(FallingBodyLaw(9.81, 0.05), grid, frame="log")


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
        """The array write dies halfway through the second member: an absent
        target stays absent, a present one keeps its old bytes, and the
        temporary file is gone either way."""
        real = np.lib.format.write_array

        def dies_mid_file(fp, array, *args, **kwargs):
            if array is theory.mu.values:
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

    def test_version_one_json_triple_still_reads(self, tmp_path, capsys):
        grid = Grid.of(Axis.logarithmic("L", 1.0, 10.0, 201),
                       Axis.logarithmic("T", 0.4515, 1.4279, 201))
        theory = analytic_fall_theory(FallingBodyLaw(9.81, 0.05), grid)
        write_density(theory.joint, tmp_path / "old.json")
        write_density(theory.mu, tmp_path / "old.mu.json")
        (tmp_path / "old.provenance.json").write_text(json.dumps({"kind": "analytic"}))
        assert_same_theory(read_theory(tmp_path / "old"), theory)
        code, doc = run_cli(
            ["infer", "--theory", str(tmp_path / "old.json"),
             "--measure", "T:lognormal:1.0:0.05"],
            capsys,
        )
        assert code == 0
        assert abs(doc["mode"] / 4.905 - 1.0) < 0.025
        assert not (tmp_path / "old.npz").exists()


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
    frame = draw(st.text(max_size=8))
    flags = st.booleans()
    seeds = st.none() | st.integers(0, 2**63 - 1)
    return TheoryDensity(
        joint=Density(grid, draw(values), frame=frame, normalized=draw(flags)),
        mu=Density(grid, draw(values), frame=frame, normalized=draw(flags)),
        provenance=Provenance(draw(st.text(max_size=12)), draw(seeds), draw(seeds)),
    )


@settings(max_examples=60, deadline=None)
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
         "missing-member", "bare-array", "wrong-shape", "non-finite"],
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
            del members["mu"]
            np.savez(th, **members)
        elif damage == "bare-array":
            with th.open("wb") as fh:
                np.save(fh, members["joint"])
        elif damage == "wrong-shape":
            np.savez(th, **{**members, "mu": members["mu"][:-1]})
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

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"n": 30, "seed": 5}))
        out = str(tmp_path / "emp.json")
        code, doc = run_cli(
            [
                "build-theory",
                "--grid",
                "L:log:1:10:101,T:log:0.4515:1.4279:101",
                "--config",
                str(cfg),
                "--out",
                out,
            ],
            capsys,
        )
        assert code == 0
        assert doc["n_experiments"] == 30

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"n": 30}))
        out = str(tmp_path / "emp.json")
        code, doc = run_cli(
            [
                "build-theory",
                "--grid",
                "L:log:1:10:101,T:log:0.4515:1.4279:101",
                "--config",
                str(cfg),
                "--n",
                "12",
                "--out",
                out,
            ],
            capsys,
        )
        assert code == 0
        assert doc["n_experiments"] == 12

    def test_config_dir_environment_lookup(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "site.json").write_text(json.dumps({"n": 17, "seed": 2}))
        monkeypatch.setenv("INFERSPACE_CONFIG_DIR", str(tmp_path))
        out = str(tmp_path / "emp.json")
        code, doc = run_cli(
            [
                "build-theory",
                "--grid",
                "L:log:1:10:101,T:log:0.4515:1.4279:101",
                "--config",
                "site.json",
                "--out",
                out,
            ],
            capsys,
        )
        assert code == 0
        assert doc["n_experiments"] == 17

    def test_unknown_config_key_exits_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = main(["benford", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", "abc"),
            ("sigma_length", "0.05"),
            ("n", 2.7),
            ("seed", 1.9),
            ("compare_analytic", "no"),
            ("n", True),
            ("g", False),
            ("axis", "L:log:1:10:101"),
            ("axis", ["L:log:1:10:101", 5]),
            ("out", 5),
            ("mode", "set_X"),
        ],
    )
    def test_mistyped_config_value_exits_config(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "emp"
        code = main(
            ["build-theory", "--grid", "L:log:1:10:101,T:log:0.4515:1.4279:101",
             "--config", str(cfg), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"config key {key!r}" in err
        assert not out.with_suffix(".npz").exists()

    def test_config_values_of_the_right_type_are_accepted(self, tmp_path, capsys):
        """An integer serves a float option, and null means the default."""
        cfg = tmp_path / "good.json"
        cfg.write_text(json.dumps({
            "axis": ["L:log:1:10:101", "T:log:0.4515:1.4279:101"],
            "n": 20,
            "mode": "set_T",
            "g": 10,
            "compare_analytic": True,
            "seed": None,
        }))
        code, doc = run_cli(
            ["build-theory", "--config", str(cfg), "--out", str(tmp_path / "emp")], capsys
        )
        assert code == 0
        assert doc["n_experiments"] == 20
        assert doc["mode"] == "set_T"
        assert "kl_sym_vs_analytic" in doc


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


@settings(max_examples=400, deadline=None)
@given(_SHORTHANDS)
def test_shorthand_parsers_parse_or_raise_a_configuration_error(spec):
    """Whatever the tokens, a shorthand parses or is refused as configuration
    (exit 2), never with a numerical error or a stray exception."""
    for parse in (parse_axis, parse_measurement, parse_map, lambda s: parse_grid(s.split(","))):
        try:
            parse(spec)
        except ConfigurationError:
            pass
