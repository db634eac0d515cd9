"""Dirichlet and Neumann solvers for the Poisson equation on lens domains.

Solutions are assembled pointwise from the representation formulas:

    dirichlet:  w(z) = 1/(2 pi) * int_boundary gamma * poisson_kernel
                     - 1/pi * int_area source * green
    neumann:    w(z) = 1/(4 pi) * int_boundary gamma * neumann
                     - 1/pi * int_area source * neumann      (+ any constant)

The Neumann problem is solvable iff int_boundary gamma = 4 * int_area f;
the solver enforces this and returns the zero-constant representative.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .conformal import SectorMap
from .domain import (LensParams, _is_number, arcs, classify_point,
                     normal_coeffs)
from .kernels import KernelField
from .quadrature import (QuadratureSpec, _fsum_weighted, area_mesh,
                         integrate_area, integrate_boundary)

TOL_SOLVABILITY = 1e-8


class SolvabilityError(ValueError):
    """Neumann data violating the compatibility condition."""

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs
        self.defect = abs(lhs - rhs)
        super().__init__(
            f"Neumann problem unsolvable: boundary integral {lhs:g} != "
            f"4 * area integral {rhs:g} (defect {self.defect:.3e})")


# ----------------------------------------------------------------------
# data descriptions

_CATALOG = ("const", "re", "im", "re_z2", "im_z2", "abs2", "re_zk", "im_zk")
# the kinds that need a payload, and what it is; the others take none
_PAYLOADS = {"const": "the value", "re_zk": "the power", "im_zk": "the power"}


def _expression(kind, payload):
    """The function of z that kind names; None for SourceTerm's zero."""
    if payload is None and kind in _PAYLOADS:
        raise ValueError(f"kind {kind!r} needs a payload: {_PAYLOADS[kind]}")
    if payload is not None and kind not in _PAYLOADS:
        raise ValueError(f"kind {kind!r} takes no payload, got {payload!r}")
    if kind == "zero":
        return None
    if kind == "const":
        if not _is_number(payload, numbers.Complex):
            raise ValueError(f"constant payload must be a number, "
                             f"got {payload!r}")
        c = complex(payload)
        if not cmath.isfinite(c):
            raise ValueError(f"constant payload must be finite, got {c}")
        return lambda z: np.broadcast_to(c, np.shape(z)).copy() if np.ndim(z) else c
    if kind == "re":
        return lambda z: np.asarray(z, complex).real
    if kind == "im":
        return lambda z: np.asarray(z, complex).imag
    if kind == "abs2":
        return lambda z: np.abs(np.asarray(z, complex)) ** 2
    if kind in ("re_z2", "im_z2"):
        k = 2
    elif kind in ("re_zk", "im_zk"):
        if not _is_number(payload, numbers.Integral):
            raise ValueError(f"power must be an integer, got {payload!r}")
        k = int(payload)
        if k < 0:
            raise ValueError("power must be nonnegative")
    else:
        raise ValueError(f"unknown expression kind {kind!r}")
    if kind.startswith("re"):
        return lambda z: (np.asarray(z, complex) ** k).real
    return lambda z: (np.asarray(z, complex) ** k).imag


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values, one function per arc, evaluated on point batches.

    Functions receive a BoundaryPoint batch.  Built either from the fixed
    expression catalog, from (arclen, value) sample tables interpolated
    piecewise-linearly along each arc, or from arbitrary callables.
    """

    funcs: dict

    def __call__(self, bp):
        return self.funcs[bp.arc_id](bp)

    @classmethod
    def constant(cls, value):
        return cls.from_expression("const", value)

    @classmethod
    def from_expression(cls, kind, payload=None):
        if kind not in _CATALOG:
            raise ValueError(f"unknown boundary data kind {kind!r}; "
                             f"expected one of {_CATALOG} or 'samples'")
        fn = _expression(kind, payload)
        point_fn = lambda bp: fn(bp.point)
        return cls(funcs={"C0": point_fn, "C1": point_fn})

    @classmethod
    def from_callable(cls, fn):
        """fn(BoundaryPoint batch) -> values, used for both arcs."""
        return cls(funcs={"C0": fn, "C1": fn})

    @classmethod
    def from_samples(cls, tables):
        """tables: arc_id -> (arclen array, complex value array)."""
        funcs = {}
        for arc_id, (s, vals) in tables.items():
            s = np.asarray(s, dtype=float)
            vals = np.asarray(vals, dtype=complex)
            if s.ndim != 1 or s.shape != vals.shape:
                raise ValueError("sample tables need matching 1-d arrays")
            if not (np.all(np.isfinite(s)) and np.all(np.isfinite(vals))):
                raise ValueError("sample tables must hold finite numbers")
            if np.any(np.diff(s) <= 0):
                raise ValueError("sample arc lengths must increase strictly")
            funcs[arc_id] = _interp(s, vals)
        return cls(funcs=funcs)

    @classmethod
    def from_json(cls, data, arc_ids=("C0", "C1")):
        """The gamma section of a problem file; samples name arc_ids."""
        _fields(data, "gamma", ("kind",), ("payload",))
        if data["kind"] != "samples":
            return cls.from_expression(data["kind"], data.get("payload"))
        _fields(data, "gamma", ("kind", "payload"))
        tables = {}
        for arc_id, tab in _fields(data["payload"], "samples", arc_ids).items():
            _fields(tab, f"samples table {arc_id}", ("arclen", "values"))
            tables[arc_id] = (_reals(tab["arclen"], f"{arc_id} sample arclen"),
                              _complex_pairs(tab["values"],
                                             f"{arc_id} sample value"))
        return cls.from_samples(tables)


def _reals(entries, what):
    """Floats from a JSON list of real numbers."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{what}s must be a list of real numbers")
    for i, entry in enumerate(entries):
        if not _is_number(entry, numbers.Real):
            raise ValueError(f"{what} {i} must be a real number, "
                             f"got {entry!r}")
    return [float(entry) for entry in entries]


def _complex_pairs(entries, what):
    """Complex numbers from a JSON list of [re, im] pairs of real numbers."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{what}s must be a list of [re, im] pairs")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(_is_number(v, numbers.Real) for v in entry)):
            raise ValueError(f"{what} {i} must be a pair of real numbers, "
                             f"got {entry!r}")
    return [complex(*entry) for entry in entries]


def _interp(s, vals):
    def fn(bp):
        x = np.asarray(bp.arclen, dtype=float)
        return np.interp(x, s, vals.real) + 1j * np.interp(x, s, vals.imag)
    return fn


@dataclass(frozen=True)
class SourceTerm:
    """Right-hand side of the Poisson equation, bounded on the closure."""

    func: object = None  # None means identically zero

    @property
    def is_zero(self):
        return self.func is None

    def __call__(self, z):
        if self.is_zero:
            return np.zeros(np.shape(z))
        return self.func(z)

    @classmethod
    def zero(cls):
        return cls(None)

    @classmethod
    def constant(cls, value):
        if value == 0:
            return cls.zero()
        return cls.from_expression("const", value)

    @classmethod
    def from_expression(cls, kind, payload=None):
        if kind not in (*_CATALOG, "zero"):
            raise ValueError(f"unknown source kind {kind!r}")
        return cls(_expression(kind, payload))

    @classmethod
    def from_callable(cls, fn):
        return cls(fn)

    @classmethod
    def from_json(cls, data):
        """The f section of a problem file."""
        _fields(data, "f", ("kind",), ("payload",))
        if data["kind"] == "samples":
            raise ValueError("sampled area sources are not supported; "
                             "use the expression catalog")
        return cls.from_expression(data["kind"], data.get("payload"))


def normal_derivative_data(params, dw_dz):
    """Boundary data equal to the outward normal derivative of a real field
    whose holomorphic derivative is dw_dz(point)."""
    def gamma(bp):
        q, _ = normal_coeffs(params, bp)
        return 2.0 * np.real(q * dw_dz(np.asarray(bp.point, complex)))
    return BoundaryData.from_callable(gamma)


# ----------------------------------------------------------------------
# solvers

def _check_points(params, points):
    points = [complex(p) for p in points]
    states = classify_point(params, np.array(points, dtype=complex))
    bad = np.flatnonzero(states != "interior")
    if bad.size:
        i = bad[0]
        raise ValueError(f"evaluation point {i} ({points[i]:g}) is "
                         f"{states[i]}, expected interior")
    return points


def _area_term(params, spec, f, area_kernel, z):
    """Area integral of f * area_kernel(z, .) on the mesh graded toward z,
    the kernel evaluated at the nodes' strip coordinates (x, y)."""
    nodes, weights, (x, y) = area_mesh(spec, params, singular_at=z)
    values = area_kernel(z, x, y).ravel() * np.asarray(f(nodes))
    return _fsum_weighted(weights, values)


def _represent(params, spec, gamma, f, points, boundary_kernel, scale,
               area_kernel):
    """Representation formula at each point: the boundary integral of
    gamma * boundary_kernel(z, bp) over scale, minus 1/pi times the area
    integral of f * area_kernel(z, x, y), a kernel taken in the strip
    coordinate x + iy of zeta."""
    out = []
    for z in _check_points(params, points):
        here = integrate_boundary(
            spec, params,
            lambda bp: np.asarray(gamma(bp)) * boundary_kernel(z, bp),
            near=z)
        w = here / scale
        if not f.is_zero:
            w = w - _area_term(params, spec, f, area_kernel, z) / math.pi
        out.append(complex(w))
    return np.array(out)


def solve_dirichlet(params, spec, gamma, f, points):
    """Solution values of w_{z conj(z)} = f, w = gamma on the boundary.

    Parameters
    ----------
    params : LensParams
    spec : QuadratureSpec
    gamma : BoundaryData
    f : SourceTerm
    points : iterable of interior complex evaluation points

    Returns a complex array, one value per point.
    """
    fld = KernelField(params)
    return _represent(params, spec, gamma, f, points, fld.poisson_kernel,
                      2.0 * math.pi, SectorMap(params).strip_green)


def check_neumann_solvability(params, spec, gamma, f):
    """Both sides of the compatibility condition and the verdict."""
    lhs = integrate_boundary(spec, params, gamma)
    rhs = 0.0 if f.is_zero else 4.0 * integrate_area(spec, params, f)
    defect = abs(lhs - rhs)
    satisfied = defect <= TOL_SOLVABILITY * (1.0 + abs(lhs) + abs(rhs))
    return {"satisfied": satisfied, "lhs": lhs, "rhs": rhs, "defect": defect}


def solve_neumann(params, spec, gamma, f, points):
    """Zero-constant representative of the Neumann solutions.

    Raises SolvabilityError when the data violates the compatibility
    condition; add any constant (or use a pin) to select another solution.
    """
    verdict = check_neumann_solvability(params, spec, gamma, f)
    if not verdict["satisfied"]:
        raise SolvabilityError(verdict["lhs"], verdict["rhs"])
    fld = KernelField(params)
    return _represent(params, spec, gamma, f, points,
                      lambda z, bp: fld.neumann(bp.point, z), 4.0 * math.pi,
                      SectorMap(params).strip_neumann)


def probe_normalization_constant(params, spec, zetas):
    """Boundary integral of density * neumann at each zeta, with spread.

    If the integral is independent of zeta, subtracting its (scaled) value
    would normalize the Neumann function; constancy is only conjectured,
    so this reports {values, spread} and passes no judgement.
    """
    fld = KernelField(params)
    values = []
    for zeta in zetas:
        zeta = complex(zeta)
        if classify_point(params, zeta) != "interior":
            raise ValueError("probe points must be interior")
        val = integrate_boundary(
            spec, params,
            lambda bp: fld.normal_density(bp) * fld.neumann(bp.point, zeta))
        values.append(float(np.real(val)))
    values = np.array(values)
    return {"values": values, "spread": float(values.max() - values.min())}


# ----------------------------------------------------------------------
# problem files

@dataclass(frozen=True)
class Problem:
    params: LensParams
    spec: QuadratureSpec
    gamma: BoundaryData
    source: SourceTerm
    points: tuple


def _fields(data, what, required, optional=()):
    """data, checked to be a JSON object that has every required key and
    no key outside required and optional; what names it in errors."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} needs the key {key!r}")
    allowed = (*required, *optional)
    for key in data:
        if key not in allowed:
            raise ValueError(f"{what} has an unknown key {key!r}; "
                             f"expected keys: {', '.join(allowed)}")
    return data


def load_problem(data):
    """Problem from a JSON dict or a path to a JSON file."""
    if isinstance(data, (str, os.PathLike)):
        with open(data, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    _fields(data, "problem", ("alpha", "n", "gamma", "points"),
            ("f", "quadrature"))
    params = LensParams(data["alpha"], data["n"])
    spec = QuadratureSpec(**_fields(data.get("quadrature", {}), "quadrature",
                                    (), vars(QuadratureSpec())))
    gamma = BoundaryData.from_json(data["gamma"], arcs(params))
    source = SourceTerm.from_json(data.get("f", {"kind": "zero"}))
    points = tuple(_complex_pairs(data["points"], "point"))
    return Problem(params, spec, gamma, source, points)


def solution_rows(points, values):
    """CSV rows (point_re, point_im, w_re, w_im) with round-trip floats."""
    rows = ["point_re,point_im,w_re,w_im"]
    for z, w in zip(points, values):
        rows.append(",".join(repr(float(v))
                             for v in (z.real, z.imag, w.real, w.imag)))
    return rows
