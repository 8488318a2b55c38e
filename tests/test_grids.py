"""Axes, grids, and the cell-based quadrature weights."""

import numpy as np
import pytest

from inferspace import (
    LINEAR,
    LOGARITHMIC,
    Axis,
    Grid,
    InvalidGrid,
    UnknownAxis,
)


def test_linear_axis_nodes_and_weights():
    ax = Axis.linear("x", 0.0, 1.0, 11)
    assert ax.spacing == LINEAR
    np.testing.assert_allclose(ax.nodes, np.linspace(0.0, 1.0, 11), rtol=0, atol=0)
    # End cells are half width; weights tile the box exactly.
    assert ax.weights[0] == pytest.approx(0.05)
    assert ax.weights[5] == pytest.approx(0.1)
    assert ax.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_logarithmic_axis_nodes_geometric():
    ax = Axis.logarithmic("T", 0.1, 10.0, 201)
    assert ax.spacing == LOGARITHMIC
    ratios = ax.nodes[1:] / ax.nodes[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    assert ax.nodes[0] == pytest.approx(0.1)
    assert ax.nodes[-1] == pytest.approx(10.0)
    # The weights integrate the scale-free form exactly; the plain box
    # length is reproduced only to the h²/24 cell error.
    assert np.sum(ax.weights / ax.nodes) == pytest.approx(np.log(100.0), rel=1e-13)
    assert ax.weights.sum() == pytest.approx(9.9, rel=1e-4)


def test_cell_boundaries_interleave_nodes():
    for ax in (Axis.linear("x", -2.0, 3.0, 17), Axis.logarithmic("y", 0.5, 8.0, 13)):
        b = ax.cell_boundaries
        assert b.shape == (ax.count + 1,)
        assert np.all(b[:-1] < b[1:])
        assert np.all(ax.nodes > b[:-1]) and np.all(ax.nodes < b[1:]) or (
            b[0] == ax.nodes[0] and b[-1] == ax.nodes[-1]
        )


def test_param_of_is_inverse_of_nodes():
    ax = Axis.logarithmic("T", 0.2, 5.0, 37)
    np.testing.assert_allclose(ax.param_of(ax.nodes), ax.param_nodes, atol=1e-13)


def test_invalid_axes_rejected():
    with pytest.raises(InvalidGrid):
        Axis.linear("x", 1.0, 0.0, 10)  # reversed bounds
    with pytest.raises(InvalidGrid):
        Axis.linear("x", 0.0, 1.0, 1)  # too few nodes
    with pytest.raises(InvalidGrid):
        Axis.logarithmic("x", 0.0, 1.0, 10)  # log axis touching zero
    with pytest.raises(InvalidGrid):
        Axis.logarithmic("x", -1.0, 1.0, 10)
    with pytest.raises(InvalidGrid, match="axis name must be a nonempty string"):
        Axis.linear("", 0.0, 1.0, 10)
    with pytest.raises(InvalidGrid, match="unknown spacing 'cubic'"):
        Axis("x", "cubic", 0.0, 1.0, 10)


def test_grid_shape_and_axis_lookup():
    g = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 41), Axis.linear("T", 0.0, 2.0, 33))
    assert g.ndim == 2
    assert g.shape == (41, 33)
    assert g.names == ("L", "T")
    assert g.axes[g.axis_index("T")].count == 33
    with pytest.raises(UnknownAxis):
        g.axis_index("Z")
    with pytest.raises(InvalidGrid):
        Grid.of(Axis.linear("L", 0.0, 1.0, 5), Axis.linear("L", 0.0, 1.0, 5))
    with pytest.raises(InvalidGrid, match="grids are 1D or 2D, got 3 axes"):
        Grid.of(*(Axis.linear(name, 0.0, 1.0, 5) for name in "xyz"))
    # A list of axes is stored as a tuple, so the grid stays hashable.
    listed = Grid(list(g.axes))
    assert listed.axes == g.axes and isinstance(listed.axes, tuple)
    assert hash(listed) == hash(g)


def test_cell_volumes_tile_box():
    """The per-axis weights' outer product tiles the box, and each axis
    integrates its own noninformative profile exactly: the box length on a
    linear axis, ln(upper/lower) for 1/x on a log axis."""
    g = Grid.of(Axis.logarithmic("L", 0.5, 20.0, 41), Axis.linear("T", 0.0, 2.0, 33))
    wl, wt = g.weight_arrays()
    vols = np.multiply.outer(wl, wt)
    assert vols.shape == g.shape
    assert vols.sum() == pytest.approx(wl.sum() * wt.sum(), rel=1e-12)
    assert vols.sum() == pytest.approx(g.box_volume, rel=1e-3)
    ln_axis, lin_axis = g.axes
    assert np.sum(wl / ln_axis.nodes) == pytest.approx(np.log(20.0 / 0.5), rel=1e-12)
    assert np.sum(wt) == pytest.approx(lin_axis.length, rel=1e-12)


def test_grids_equal_and_header_roundtrip():
    ax = Axis.logarithmic("L", 0.5, 20.0, 41, units="m")
    assert Axis.from_header(ax.to_header()) == ax
    g1 = Grid.of(ax, Axis.linear("T", 0.0, 2.0, 33))
    g2 = Grid.of(ax, Axis.linear("T", 0.0, 2.0, 33))
    g3 = Grid.of(ax, Axis.linear("T", 0.0, 2.0, 34))
    assert g1 == g2
    assert g1 != g3


def test_contains_and_clip():
    ax = Axis.logarithmic("T", 0.1, 10.0, 21)
    inside = np.array([0.1, 1.0, 10.0])
    assert ax.contains(inside).all()
    assert not ax.contains(np.array([0.09]))[0]
    clipped = ax.clip(np.array([0.05, 20.0]))
    assert clipped[0] == pytest.approx(0.1)
    assert clipped[1] == pytest.approx(10.0)
