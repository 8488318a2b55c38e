"""Shared grids and densities for the test suite."""

import importlib
import pkgutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import inferspace
from inferspace import (Axis, Density, Grid, MeasurementModel, Provenance, TheoryDensity,
                        normalize, null_information_density)
from inferspace.priors import (LOGNORMAL, _null_factor, _profile_kind, outer_values,
                               profile_node_factor, reading_centre_factor)

# Property tests draw the same examples on every run, so a tier-1 verdict
# cannot change between runs of the same code; no deadline, since a slow
# machine is not a failing example.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# hypothesis also mixes into its draws constants from the source of every
# local module in sys.modules (test modules aside), so which examples a
# property test draws depends on which modules are loaded when it runs.
# Every module of the package, the CLI included, is imported here, before
# any test module, so that set is the same whichever tests are selected.
PACKAGE_MODULES = [importlib.import_module(f"inferspace.{m.name}")
                   for m in pkgutil.iter_modules(inferspace.__path__)]


def allocated(call):
    """``call()`` and the peak bytes numpy and Python allocated during it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def unit_axis() -> Axis:
    return Axis.linear("x", 0.0, 1.0, 101)


@pytest.fixture
def log_axis() -> Axis:
    return Axis.logarithmic("T", 0.1, 10.0, 201)


@pytest.fixture
def small_grid_2d() -> Grid:
    return Grid.of(
        Axis.logarithmic("L", 0.5, 20.0, 41),
        Axis.linear("T", 0.0, 2.0, 33),
    )


def gaussian_density(axis: Axis, center: float, width: float) -> Density:
    grid = Grid.of(axis)
    return normalize(
        Density.from_callable(
            grid, lambda x: np.exp(-((x - center) ** 2) / (2.0 * width * width))
        )
    )


def boxcar_density(axis: Axis, lower: float, upper: float) -> Density:
    grid = Grid.of(axis)
    vals = np.where((axis.nodes >= lower) & (axis.nodes <= upper), 1.0, 0.0)
    return normalize(Density(grid, vals))


def conditional_theory(slices, mu_i: Density) -> TheoryDensity:
    """θ(i, d) = θ(d | i) · μ(i): one normalized 1D density over d per node of
    μ(i)'s axis.  The theory's μ is μ(i) ⊗ μ(d), μ(d) noninformative."""
    (i_axis,), (d_axis,) = mu_i.grid.axes, slices[0].grid.axes
    joint = mu_i.values[:, None] * np.array([s.values for s in slices])
    return TheoryDensity.from_joint(Density(Grid.of(i_axis, d_axis), joint),
                                    (mu_i.values, null_information_density(Grid.of(d_axis)).values),
                                    Provenance("from_conditional"))


# A reading as a density on a bare grid, against the grid's own
# null-information μ: the reference that the AND of a theory with readings
# is checked against.

def measurement_profile(model: MeasurementModel, axis: Axis) -> np.ndarray:
    """Unnormalized density values of the model on one axis: its centre
    factor at ``model.center`` times its node factor."""
    profile = reading_centre_factor(model, axis)
    if _profile_kind(model, axis) == LOGNORMAL:
        # Dividing by x applies the 1/x node factor with one rounding, not two.
        profile /= axis.nodes
    else:
        profile *= profile_node_factor(model, axis, _null_factor(axis))
    return profile


def measurement_density(model: MeasurementModel, grid: Grid) -> Density:
    """The model's density on ``grid``.

    On the model's own axis the measurement profile applies; any other axis
    carries its factor of ``null_information_density``, 1/x on log axes and
    1 on linear ones.  ANDed with a theory by ``and_combine``, it agrees
    with ``intersect`` only on axes where that factor is the theory's μ
    factor; the Jeffreys μ is 1/x on linear axes too, and ``intersect``
    takes each reading against the theory's own μ.
    """
    idx = grid.axis_index(model.parameter)
    factors = [
        measurement_profile(model, ax) if i == idx else _null_factor(ax)
        for i, ax in enumerate(grid.axes)
    ]
    return Density(grid, outer_values(factors))
