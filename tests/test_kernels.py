"""The bilinear interpolation kernel against an independent oracle, and the
import-time state of the package."""

import subprocess
import sys
import textwrap

import numpy as np
from numpy.testing import assert_allclose
from scipy.interpolate import RegularGridInterpolator

from inferspace import backend
from inferspace._kernels import bilinear_many


def _bilinear_case(seed=7, n_points=4000):
    rng = np.random.default_rng(seed)
    ux = np.sort(rng.uniform(-2.0, 2.0, 31))
    uy = np.sort(rng.uniform(0.0, 5.0, 27))
    values = rng.uniform(0.0, 3.0, (31, 27))
    px = rng.uniform(ux[0], ux[-1], n_points)
    py = rng.uniform(uy[0], uy[-1], n_points)
    return ux, uy, values, px, py


class TestBilinearParity:
    def test_matches_scipy_on_random_points(self):
        ux, uy, values, px, py = _bilinear_case()
        oracle = RegularGridInterpolator((ux, uy), values, method="linear")
        expected = oracle(np.column_stack([px, py]))
        assert_allclose(bilinear_many(ux, uy, values, px, py), expected, rtol=1e-13, atol=0.0)

    def test_exact_at_nodes(self):
        ux, uy, values, _, _ = _bilinear_case()
        gx, gy = np.meshgrid(ux, uy, indexing="ij")
        got = bilinear_many(ux, uy, values, gx.ravel(), gy.ravel())
        assert np.array_equal(got.reshape(values.shape), values)


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
