"""In-memory spans around the inferspace functions each module calls in its neighbours.

Nothing in the package is edited.  While a ``Tracer`` is installed it replaces
module attributes such as ``inferspace.cli.read_theory``,
``inferspace.theory.accumulate_campaign`` or ``inferspace.coordinates.bilinear_many``
with wrappers that record a span (name, start, end, parent) per call, and puts
the originals back when it is removed.  Functions are found by name, so one
that moved to another module is still traced; one that no longer exists is
reported as absent.  Calls from inside a function's own module are traced
only where its ``Point`` says so: ``theory.run_campaign`` reaches
``simulate_experiment`` inside ``theory``, while the ``write_density`` calls
inside ``io.write_theory`` belong to the theory write.

A layer's self time is its span's duration minus the durations of the spans
directly nested in it.  Its inclusive time sums only outermost spans of a
name, so a function that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Point:
    """A function to trace, and the span name it reports under."""

    span: str                   # "<layer>.<function>"
    module: str                 # the inferspace module that defines it today
    own: bool = False           # also trace calls from inside that module
    # (counter name, argument name, count taken from the argument's value)
    counters: tuple[tuple[str, str, Callable], ...] = ()

    @property
    def func(self) -> str:
        return self.span.rsplit(".", 1)[1]


POINTS = (
    Point("io.write_theory", "io"),
    Point("io.read_theory", "io"),
    Point("io.write_density", "io"),
    Point("theory.analytic_fall_theory", "theory"),
    Point("theory.run_campaign", "theory"),
    Point("theory.simulate_experiment", "theory", own=True),
    Point("theory.accumulate_theory", "theory", own=True),
    Point("kernels.accumulate_campaign", "_kernels"),
    Point("kernels.bilinear_many", "_kernels", counters=(("points", "px", lambda px: int(np.size(px))),)),
    Point("priors.measurement_density", "priors"),
    Point("priors.make_prior", "priors"),
    Point("priors.null_information_density", "priors"),
    Point("algebra.and_combine", "algebra"),
    Point("algebra.symmetric_kl", "algebra"),
    Point("algebra.total_variation", "algebra"),
    Point("density.normalize", "density"),
    Point("density.marginalize", "density"),
    Point("density.evaluate", "density",
          counters=(("points", "points", lambda p: int(np.shape(p)[0]) if np.ndim(p) else 1),)),
    Point("density.integrate", "density"),
    Point("inference.intersect", "inference", own=True),
    Point("inference.summarize", "inference", own=True),
    Point("inference.predict", "inference"),
    Point("inference.borel_kolmogorov_demo", "inference"),
    Point("inference.conditional_density", "inference", own=True),
    Point("coordinates.push_forward", "coordinates",
          counters=(("target_nodes", "target_grid", lambda g: int(g.node_count)),)),
)
ROOT = "cli"  # the span around each whole ``inferspace.cli.main`` call


def _package_modules() -> list[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "inferspace" or name.startswith("inferspace."))]


def _find(point: Point, modules) -> types.FunctionType | None:
    """The function named ``point.func``: from its module, else the only one
    of that name anywhere in the package."""
    found = {id(v): v for m in modules for v in vars(m).values()
             if isinstance(v, types.FunctionType) and v.__qualname__ == point.func
             and v.__module__.startswith("inferspace")}
    home = [f for f in found.values() if f.__module__ == f"inferspace.{point.module}"]
    if len(home) == 1:
        return home[0]
    return next(iter(found.values())) if len(found) == 1 else None


class Tracer:
    """Spans and counts recorded while installed; kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, self.spans[idx][3])

    def _wrap(self, point: Point, fn):
        sig = inspect.signature(fn)
        counters = [c for c in point.counters if c[1] in sig.parameters]
        self.absent += [f"{point.span}.{c[0]}" for c in point.counters if c not in counters]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counters:
                bound = sig.bind(*args, **kwargs).arguments
                for counter, arg, count in counters:
                    if arg in bound:
                        self.counts[f"{point.span}.{counter}"] += count(bound[arg])
            return self.call(point.span, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Replace every package attribute bound to a traced function."""
        modules = _package_modules()
        patches = []
        self.absent = []
        try:
            for point in POINTS:
                fn = _find(point, modules)
                if fn is None:
                    self.absent.append(point.span)
                    continue
                wrapper = self._wrap(point, fn)
                for m in modules:
                    if m.__name__ == fn.__module__ and not point.own:
                        continue
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, fn in reversed(patches):
                setattr(m, attr, fn)

    def table(self) -> dict[str, float]:
        """``<span>.s``, ``<span>.self_s`` and ``<span>.calls`` for every span
        name, plus the recorded counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            out[f"{name}.self_s"] += (end - start) - child[i]
            out[f"{name}.calls"] += 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += end - start
        out.update(self.counts)
        return dict(out)
