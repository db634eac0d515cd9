"""Spans around the public functions of each lenspot layer.

The spans are recorded from the benchmark's side: each traced function is
wrapped here, and the wrapper is rebound in every lenspot module that holds
the original (a function imported by five modules is rebound in all five),
so calls between layers are seen as well as the benchmark's own calls.
Nothing in the package is edited; `Tracer.installed()` restores every
binding when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np


def _pair_evals(args, kwargs, result):
    return int(np.broadcast(args[1], args[2]).size)


def _boundary_pair_evals(args, kwargs, result):
    return int(np.broadcast(args[1], args[2].point).size)


def _density_evals(args, kwargs, result):
    return int(np.size(args[1].point))


def _area_nodes(args, kwargs, result):
    return int(result[0].size)


def _boundary_nodes(args, kwargs, result):
    return int(sum(w.size for _, w in result))


def _solved_points(args, kwargs, result):
    return len(args[4] if len(args) > 4 else kwargs["points"])


# (module, attribute path, span name, work counter).  The work counter turns
# a call's arguments or result into an exact count: (z, zeta) pairs for a
# kernel, nodes for a mesh, evaluation points for a solver.
TRACED = (
    ("circles", "reflect_point", "circles.reflect_point", None),
    ("circles", "reflect_circle", "circles.reflect_circle", None),
    ("domain", "classify_point", "domain.classify_point", None),
    ("domain", "boundary_distance", "domain.boundary_distance", None),
    ("domain", "sample_interior", "domain.sample_interior", None),
    ("kernels", "KernelField.green", "kernels.green", _pair_evals),
    ("kernels", "KernelField.green_regular", "kernels.green_regular", _pair_evals),
    ("kernels", "KernelField.neumann", "kernels.neumann", _pair_evals),
    ("kernels", "KernelField.neumann_regular", "kernels.neumann_regular", _pair_evals),
    ("kernels", "KernelField.poisson_kernel", "kernels.poisson_kernel", _boundary_pair_evals),
    ("kernels", "KernelField.normal_density", "kernels.normal_density", _density_evals),
    ("kernels", "evaluate_on_grid", "kernels.evaluate_on_grid", None),
    ("conformal", "SectorMap.green", "conformal.SectorMap.green", _pair_evals),
    ("quadrature", "area_mesh", "quadrature.area_mesh", _area_nodes),
    ("quadrature", "integrate_area", "quadrature.integrate_area", None),
    ("quadrature", "boundary_mesh", "quadrature.boundary_mesh", _boundary_nodes),
    ("quadrature", "integrate_boundary", "quadrature.integrate_boundary", None),
    ("solvers", "solve_dirichlet", "solvers.solve_dirichlet", _solved_points),
    ("solvers", "solve_neumann", "solvers.solve_neumann", _solved_points),
    ("solvers", "check_neumann_solvability", "solvers.check_neumann_solvability", None),
    ("validation", "run_checks", "validation.run_checks", None),
    ("cli", "main", "cli.main", None),
)

MODULES = ("circles", "domain", "kernels", "conformal", "quadrature",
           "solvers", "validation", "cli")


class Tracer:
    """In-memory spans plus per-name totals, filled while installed."""

    def __init__(self):
        # one row per span: [name, span id of the parent or -1, benchmark
        # call index or -1 for set-up, start ns, end ns]
        self.spans = []
        # name -> [calls, self ns, work count]
        self.totals = {name: [0, 0, 0] for _, _, name, _ in TRACED}
        self.call = -1
        self._open = []  # [span id, ns covered by child spans]

    def _wrap(self, name, fn, counter):
        totals = self.totals[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            row = [name, parent, self.call, 0, 0]
            self.spans.append(row)
            frame = [span, 0]
            self._open.append(frame)
            row[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = end = time.perf_counter_ns()
                self._open.pop()
                duration = end - row[3]
                if self._open:
                    self._open[-1][1] += duration
                totals[0] += 1
                totals[1] += duration - frame[1]
            if counter is not None:
                totals[2] += counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function for the duration of the block."""
        package = [m for name, m in sys.modules.items()
                   if name == "lenspot" or name.startswith("lenspot.")]
        undo = []
        try:
            for module_name, path, name, counter in TRACED:
                module = importlib.import_module("lenspot." + module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, original, counter))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original, counter)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def module_self_s(self, module):
        return sum(ns for name, (_, ns, _) in self.totals.items()
                   if name.split(".")[0] == module) / 1e9

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "call", "start_ns", "end_ns"],
                       "spans": self.spans}, fh)
