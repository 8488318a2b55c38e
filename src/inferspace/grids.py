"""Rectangular tensor-product grids with node-centered quadrature cells.

An :class:`Axis` owns an ordered set of nodes between two bounds, placed
either with linear or logarithmic spacing.  Each node owns a quadrature cell
whose boundaries sit at midpoints *in the spacing coordinate* (arithmetic
midpoints on linear axes, geometric midpoints on logarithmic ones).  Weights
are the exact coordinate lengths of those cells, so the weight sum telescopes
to exactly ``upper - lower`` on every axis kind.

A :class:`Grid` is one axis or an ordered pair of axes; values over a grid are
stored row-major (first axis slowest).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidGrid, OutOfDomain, SchemaError, UnknownAxis

LINEAR = "linear"
LOGARITHMIC = "logarithmic"

_SPACINGS = (LINEAR, LOGARITHMIC)


_JSON_KINDS = {int: "integer", float: "number", str: "string", bool: "boolean"}


def header_value(h: dict, key: str, kind: type, default=None):
    """``h[key]`` if it is a JSON value of ``kind`` (int, float, str or
    bool), or ``default``, if given, where ``key`` is absent.  Nothing is
    coerced: a float is not truncated to an integer, a string is not a
    number, and a bool is not a number.  A number comes back as a float."""
    if default is not None and key not in h:
        return default
    value = h[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise SchemaError(f"{key!r} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise SchemaError(f"{key!r} must be a JSON number within float64's range") from None


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Axis:
    """One coordinate axis: name, spacing rule, bounds, node count, units."""

    name: str
    spacing: str
    lower: float
    upper: float
    count: int
    units: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidGrid("axis name must be a nonempty string")
        if self.spacing not in _SPACINGS:
            raise InvalidGrid(f"unknown spacing {self.spacing!r}; expected one of {_SPACINGS}")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise InvalidGrid(f"axis {self.name!r}: bounds must be finite")
        if not self.lower < self.upper:
            raise InvalidGrid(f"axis {self.name!r}: lower {self.lower} must be < upper {self.upper}")
        if self.spacing == LOGARITHMIC and self.lower <= 0.0:
            raise InvalidGrid(f"axis {self.name!r}: logarithmic spacing needs lower > 0")
        if self.count < 2:
            raise InvalidGrid(f"axis {self.name!r}: need at least 2 nodes, got {self.count}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def linear(name: str, lower: float, upper: float, count: int, units: str = "") -> "Axis":
        return Axis(name, LINEAR, float(lower), float(upper), int(count), units)

    @staticmethod
    def logarithmic(name: str, lower: float, upper: float, count: int, units: str = "") -> "Axis":
        return Axis(name, LOGARITHMIC, float(lower), float(upper), int(count), units)

    # -- geometry -----------------------------------------------------------

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates, ascending, endpoints exactly on the bounds."""
        if self.spacing == LINEAR:
            return _readonly(np.linspace(self.lower, self.upper, self.count))
        return _readonly(np.geomspace(self.lower, self.upper, self.count))

    @cached_property
    def param_nodes(self) -> np.ndarray:
        """Nodes in the spacing coordinate: x on linear axes, ln x on log axes.

        Uniformly spaced by construction; interpolation is linear here.
        """
        if self.spacing == LINEAR:
            return self.nodes
        return _readonly(np.log(self.nodes))

    def param_of(self, x: np.ndarray) -> np.ndarray:
        """Map coordinates into the spacing coordinate."""
        x = np.asarray(x, dtype=float)
        return x if self.spacing == LINEAR else np.log(x)

    @cached_property
    def cell_boundaries(self) -> np.ndarray:
        """count+1 cell edges: bounds at the ends, midpoints in the spacing
        coordinate in between."""
        u = self.param_nodes
        mids = 0.5 * (u[:-1] + u[1:])
        if self.spacing == LOGARITHMIC:
            mids = np.exp(mids)
        edges = np.concatenate(([self.lower], mids, [self.upper]))
        return _readonly(edges)

    @cached_property
    def weights(self) -> np.ndarray:
        """Per-node quadrature weights: trapezoid rule in the spacing coordinate.

        On linear axes these are the exact coordinate lengths of the cells.
        On log axes the measure element dx = x d(ln x) gives x_i times the
        cell's log-length, which integrates the noninformative 1/x form
        exactly at any node count (a plain coordinate-length cell would carry
        a relative error of h^2/24 on it).
        """
        du = np.diff(self.param_of(self.cell_boundaries))
        if self.spacing == LINEAR:
            return _readonly(du)
        return _readonly(self.nodes * du)

    @property
    def length(self) -> float:
        """Coordinate length of the box on this axis."""
        return self.upper - self.lower

    def contains(self, x: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
        """Boolean mask of coordinates inside the box, with edge slack."""
        x = np.asarray(x, dtype=float)
        slack = rtol * max(abs(self.lower), abs(self.upper))
        return (x >= self.lower - slack) & (x <= self.upper + slack)

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def to_header(self) -> dict:
        return {
            "name": self.name,
            "spacing": self.spacing,
            "lower": self.lower,
            "upper": self.upper,
            "count": self.count,
            "units": self.units,
        }

    @staticmethod
    def from_header(h: dict) -> "Axis":
        return Axis(
            name=header_value(h, "name", str),
            spacing=header_value(h, "spacing", str),
            lower=header_value(h, "lower", float),
            upper=header_value(h, "upper", float),
            count=header_value(h, "count", int),
            units=header_value(h, "units", str, ""),
        )


@dataclass(frozen=True)
class Grid:
    """One or two axes; values over the grid are row-major over axis order."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.axes) not in (1, 2):
            raise InvalidGrid(f"grids are 1D or 2D, got {len(self.axes)} axes")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise InvalidGrid(f"duplicate axis names: {names}")

    @staticmethod
    def of(*axes: Axis) -> "Grid":
        return Grid(tuple(axes))

    # -- lookups ------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    @property
    def node_count(self) -> int:
        n = 1
        for a in self.axes:
            n *= a.count
        return n

    def axis_index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise UnknownAxis(f"no axis named {name!r}; have {self.names}")

    # -- geometry -----------------------------------------------------------

    @property
    def box_volume(self) -> float:
        v = 1.0
        for a in self.axes:
            v *= a.length
        return v

    def weight_arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(a.weights for a in self.axes)

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays broadcastable to the grid shape (sparse)."""
        if self.ndim == 1:
            return (self.axes[0].nodes,)
        return (
            self.axes[0].nodes[:, None],
            self.axes[1].nodes[None, :],
        )

    def require_inside(self, points: Sequence[np.ndarray]) -> None:
        """Raise OutOfDomain unless every coordinate column is in the box."""
        for a, col in zip(self.axes, points):
            inside = a.contains(col)
            if not np.all(inside):
                bad = np.asarray(col, dtype=float)[~inside]
                raise OutOfDomain(
                    f"axis {a.name!r}: {bad.size} point(s) outside "
                    f"[{a.lower}, {a.upper}], e.g. {bad.flat[0]!r}"
                )

