"""The multilinear interpolation kernel against an independent oracle, the bulk
generator seeding against numpy, and the import-time state of the package."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy.interpolate import RegularGridInterpolator

from inferspace import backend
from inferspace._kernels import interpolate, pcg64_states


def _case(ndim, seed=7, n_points=4000):
    """Random sorted nodes per axis, random values, scattered points in the box."""
    rng = np.random.default_rng(seed)
    nodes = tuple(
        np.sort(rng.uniform(lo, hi, n)) for lo, hi, n in [(-2.0, 2.0, 31), (0.0, 5.0, 27)][:ndim]
    )
    values = rng.uniform(0.0, 3.0, tuple(n.size for n in nodes))
    points = tuple(rng.uniform(n[0], n[-1], n_points) for n in nodes)
    return nodes, values, points


class TestInterpolate:
    @pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
    def test_matches_scipy_on_random_points(self, ndim):
        nodes, values, points = _case(ndim)
        oracle = RegularGridInterpolator(nodes, values, method="linear")
        expected = oracle(np.column_stack(points))
        assert_allclose(interpolate(nodes, values, points), expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ndim", [1, 2], ids=["1d", "2d"])
    def test_exact_at_nodes(self, ndim):
        nodes, values, _ = _case(ndim)
        mesh = np.meshgrid(*nodes, indexing="ij")
        got = interpolate(nodes, values, tuple(m.ravel() for m in mesh))
        assert np.array_equal(got.reshape(values.shape), values)

    def test_result_has_the_broadcast_shape_of_the_points(self):
        nodes, values, _ = _case(2)
        x = np.linspace(-1.0, 1.0, 5)
        y = np.linspace(1.0, 4.0, 3)
        assert interpolate(nodes, values, (x[:, None], y[None, :])).shape == (5, 3)
        assert interpolate(nodes, values, (x[:, None], np.float64(2.0))).shape == (5, 1)
        assert interpolate(nodes[:1], values[:, 0], (x,)).shape == (5,)


def _strictly_increasing(draw, n):
    gaps = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(1e-3, 10.0)))
    start = draw(st.floats(-100.0, 100.0))
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


@st.composite
def grids_and_points(draw):
    ndim = draw(st.integers(1, 2))
    nodes = tuple(_strictly_increasing(draw, draw(st.integers(2, 12))) for _ in range(ndim))
    values = draw(hnp.arrays(np.float64, tuple(n.size for n in nodes),
                             elements=st.floats(0.0, 1e6)))
    # Points on each axis lie in the box; nodes themselves occur among them.
    axes_points = tuple(
        np.array(draw(st.lists(st.one_of(st.sampled_from(n.tolist()), st.floats(n[0], n[-1])),
                               min_size=1, max_size=8)))
        for n in nodes
    )
    return nodes, values, axes_points


@settings(max_examples=150, deadline=None)
@given(grids_and_points())
def test_tensor_call_equals_scattered_call_and_matches_scipy(case):
    nodes, values, axes_points = case
    mesh = np.meshgrid(*axes_points, indexing="ij")
    scattered = interpolate(nodes, values, tuple(m.ravel() for m in mesh))
    if len(nodes) == 1:
        tensor = interpolate(nodes, values, axes_points)
    else:
        tensor = interpolate(nodes, values, (axes_points[0][:, None], axes_points[1][None, :]))
    assert tensor.shape == mesh[0].shape
    assert np.array_equal(tensor.ravel(), scattered)

    oracle = RegularGridInterpolator(nodes, values, method="linear")
    expected = oracle(np.column_stack([m.ravel() for m in mesh]))
    assert_allclose(scattered, expected, rtol=1e-9, atol=1e-9 * float(values.max(initial=0.0)))


# Seeds at the word boundaries of numpy's SeedSequence: one word, two, three,
# the largest that fits its pool of four, and five or more words.
_EDGE_SEEDS = {
    "0": 0, "2**32-1": 2**32 - 1, "2**32": 2**32, "2**64": 2**64,
    "2**128-1": 2**128 - 1, "2**128": 2**128, "2**200": 2**200,
}


def _assert_starts_default_rng(seeds):
    states, incs = pcg64_states(seeds)
    assert len(states) == len(incs) == len(seeds)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for seed, state, inc in zip(seeds, states, incs):
        reference = np.random.default_rng(seed)
        assert reference.bit_generator.state["state"] == {"state": state, "inc": inc}
        full = bitgen.state
        full["state"] = {"state": state, "inc": inc}
        bitgen.state = full
        assert rng.random() == reference.random()
        assert rng.standard_normal() == reference.standard_normal()
        assert rng.random() == reference.random()


@pytest.mark.parametrize("seed", _EDGE_SEEDS.values(), ids=_EDGE_SEEDS.keys())
def test_pcg64_states_start_default_rng_at_word_boundaries(seed):
    _assert_starts_default_rng([seed])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**32), st.integers(0, 2**256 - 1)),
                min_size=1, max_size=6))
def test_pcg64_states_start_default_rng(seeds):
    """One call seeds short and long entropy alike, the edge seeds included."""
    _assert_starts_default_rng(seeds + list(_EDGE_SEEDS.values()))


class TestBackendSelection:
    def test_backend_reports_what_is_loaded(self):
        assert backend() == "numpy"

    def test_import_emits_no_warning(self):
        code = textwrap.dedent(
            """
            import warnings
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                import inferspace
            assert not caught, [str(w.message) for w in caught]
            print("ok")
            """
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"
