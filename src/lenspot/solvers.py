"""Dirichlet and Neumann solvers for the Poisson equation on lens domains.

Solutions are assembled pointwise from the representation formulas:

    dirichlet:  w(z) = 1/(2 pi) * int_boundary gamma * poisson_kernel
                     - 1/pi * int_area source * green
    neumann:    w(z) = 1/(4 pi) * int_boundary gamma * neumann
                     - 1/pi * int_area source * neumann      (+ any constant)

The Neumann problem is solvable iff int_boundary gamma = 4 * int_area f;
the solver enforces this and returns the zero-constant representative.

A source from the expression catalog has a particular solution w_p in
closed form (w_p,z conj(z) = f: c|z|^2 for a constant c, Re and Im of
z^(k+1) conj(z)/(k+1) for Re and Im z^k, |z|^4/4 for |z|^2), and the area
integral is then traded for boundary data:

    dirichlet:  w = w_p + (the formula with gamma - w_p and f = 0)
    neumann:    w = w_p + (the formula with gamma - dw_p/dnu and f = 0)
                    + 1/(4 pi) * int_boundary w_p * dN/dnu

the last term keeping the zero-constant representative (dN/dnu is
KernelField.normal_density's piecewise constant).  The compatibility
condition's right side is then int_boundary dw_p/dnu, equal to
4 * int_area f by the divergence theorem.  A source given as a callable
has no closed form and takes the area integral.

Every kernel is taken in the strip form of conformal.SectorMap, O(1) work
per node at any n: the Poisson kernel and N at the boundary nodes, G and N
at the area nodes' strip coordinates.  KernelField's product form is the
reference they are checked against.

The points of one call are solved together: their boundary integrals,
and the area integrals of a callable source, come from one evaluator,
quadrature._integrate.  It shares the plain boundary or area mesh among
the points and sums each point's own mesh, the plain one with the
point's patch laid over it, exactly.  So each answer is bit for bit the
one a call with that point alone gives.  probe_normalization_constant
takes its integrals from the same evaluator.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .conformal import sector_map
from .domain import (LensParams, _is_number, arcs, classify_point,
                     normal_coeffs)
from .kernels import KernelField
from .quadrature import (QuadratureSpec, _exact_total, _integrate_area,
                         _integrate_kernel, _plain_weights, integrate_area,
                         integrate_boundary)

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


def _constant(payload):
    """The value of a const payload; a real constant stays real, so real
    data keeps real sums."""
    if not _is_number(payload, numbers.Complex):
        raise ValueError(f"constant payload must be a number, "
                         f"got {payload!r}")
    c = (float(payload) if _is_number(payload, numbers.Real)
         else complex(payload))
    if not cmath.isfinite(c):
        raise ValueError(f"constant payload must be finite, got {c}")
    return c


# the powers k of the kinds Re z^k and Im z^k that name none
_POWERS = {"re": 1, "im": 1, "re_z2": 2, "im_z2": 2}


def _power(kind, payload):
    """The k of the kind Re z^k or Im z^k that kind names."""
    if kind in _POWERS:
        return _POWERS[kind]
    if not _is_number(payload, numbers.Integral):
        raise ValueError(f"power must be an integer, got {payload!r}")
    k = int(payload)
    if k < 0:
        raise ValueError("power must be nonnegative")
    return k


def _expression(kind, payload):
    """The function of z that kind names; None for SourceTerm's zero."""
    if payload is None and kind in _PAYLOADS:
        raise ValueError(f"kind {kind!r} needs a payload: {_PAYLOADS[kind]}")
    if payload is not None and kind not in _PAYLOADS:
        raise ValueError(f"kind {kind!r} takes no payload, got {payload!r}")
    if kind == "zero":
        return None
    if kind == "const":
        c = _constant(payload)
        return lambda z: np.broadcast_to(c, np.shape(z)).copy() if np.ndim(z) else c
    if kind == "re":
        return lambda z: np.asarray(z, complex).real
    if kind == "im":
        return lambda z: np.asarray(z, complex).imag
    if kind == "abs2":
        return lambda z: np.abs(np.asarray(z, complex)) ** 2
    if kind not in ("re_z2", "im_z2", "re_zk", "im_zk"):
        raise ValueError(f"unknown expression kind {kind!r}")
    k = _power(kind, payload)
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
        if bp.arc_id not in self.funcs:
            raise ValueError(f"boundary data has no values for arc "
                             f"{bp.arc_id}")
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


def _closed_form(kind, payload):
    """The particular solution of w_{z conj(z)} = f for the catalog source
    kind names, as (c, w, dw_dz): c * w(z) solves it, w being real with the
    holomorphic derivative dw_dz, so that its outward normal derivative is
    c * normal_derivative_data(params, dw_dz).

    const c gives c|z|^2, Re z^k and Im z^k give Re and Im of
    z^(k+1) conj(z)/(k + 1), and |z|^2 gives |z|^4/4; c is 1 but for
    const."""
    if kind == "const":
        return _constant(payload), lambda z: np.abs(z) ** 2, np.conj
    if kind == "abs2":
        return (1.0, lambda z: 0.25 * np.abs(z) ** 4,
                lambda z: 0.5 * np.abs(z) ** 2 * np.conj(z))
    k = _power(kind, payload)
    part = np.real if kind.startswith("re") else np.imag

    def w(z):
        # part(g), g = z^(k+1) conj(z)/(k+1)
        z = np.asarray(z, complex)
        return part(z ** (k + 1) * np.conj(z)) / (k + 1)

    def dw_dz(z):
        # d/dz of (g + conj(g))/2 or (g - conj(g))/2i, w = part(g)
        z = np.asarray(z, complex)
        zc = np.conj(z)
        g_z, conj_g_z = z ** k * zc, zc ** (k + 1) / (k + 1)
        if part is np.real:
            return 0.5 * (g_z + conj_g_z)
        return -0.5j * (g_z - conj_g_z)

    return 1.0, w, dw_dz


@dataclass(frozen=True)
class SourceTerm:
    """Right-hand side of the Poisson equation, bounded on the closure.

    A source from the expression catalog carries its particular solution
    in closed form (_closed_form), and the solvers take it on the boundary
    alone.  A callable source has none, and the solvers integrate it over
    the area.
    """

    func: object = None  # None means identically zero
    # (c, w, dw_dz) of _closed_form, set by from_expression; None for a
    # zero or callable source
    _particular: object = field(default=None, init=False, compare=False,
                                repr=False)

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
        term = cls(_expression(kind, payload))
        if not term.is_zero:
            object.__setattr__(term, "_particular",
                               _closed_form(kind, payload))
        return term

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


def _represent(params, spec, gamma, f, points, kernel, scale, area_kernel,
               plain_weights=None):
    """Representation formula at each point: the boundary integral of
    gamma * boundary kernel over scale, minus 1/pi times the area integral
    of f * area kernel.

    kernel and area_kernel are kernels of conformal.SectorMap in three
    steps (z side, node side, pair), the area kernel's node side taking
    strip coordinates.  quadrature._integrate takes both integrals for all
    the points together, the boundary one through _integrate_kernel, from
    plain_weights if given, and the area one through _integrate_area.  The
    points are interior (_check_points)."""
    w = [total / scale for total in _integrate_kernel(
        spec, params, gamma, kernel, points, plain_weights)]
    if not f.is_zero:
        w = [v - area / math.pi for v, area in zip(
            w, _integrate_area(spec, params, f, area_kernel, points))]
    return np.array([complex(v) for v in w], dtype=complex)


def solve_dirichlet(params, spec, gamma, f, points):
    """Solution values of w_{z conj(z)} = f, w = gamma on the boundary.

    Parameters
    ----------
    params : LensParams
    spec : QuadratureSpec
    gamma : BoundaryData
    f : SourceTerm
    points : iterable of interior complex evaluation points

    Returns a complex array, one value per point.  A catalog source is
    taken as w_p + (the harmonic solution with data gamma - w_p), w_p its
    particular solution (_closed_form).
    """
    points = _check_points(params, points)
    smap = sector_map(params)
    particular = f._particular
    if particular is not None:
        c, w_p, _ = particular
        gamma = _minus(gamma, lambda bp: c * w_p(bp.point))
        f = SourceTerm.zero()
    w = _represent(params, spec, gamma, f, points, smap.poisson_steps(),
                   2.0 * math.pi, smap.strip_green_steps())
    if particular is not None:
        w = w + c * w_p(np.array(points, dtype=complex))
    return w


def _minus(gamma, other):
    """Boundary data gamma - other, other a function of a BoundaryPoint
    batch."""
    return BoundaryData.from_callable(lambda bp: gamma(bp) - other(bp))


def _compatibility(spec, params, gamma, f):
    """The compatibility condition on the plain boundary mesh as (verdict,
    gamma * weights, flux), both arrays as quadrature._plain_weights forms
    them.  The left side is the exact sum of gamma * weights.  The right
    side is 4 times the area integral of f, or for a catalog source the
    exact sum of flux, dw_p/dnu times the weights, which equals it by the
    divergence theorem; flux is None for other sources."""
    weights = _plain_weights(spec, params, gamma)
    if f._particular is None:
        flux = None
        rhs = 0.0 if f.is_zero else 4.0 * integrate_area(spec, params, f)
    else:
        c, _, dw_dz = f._particular
        flux = c * _plain_weights(spec, params,
                                  normal_derivative_data(params, dw_dz))
        rhs = _exact_total(flux)
    lhs = _exact_total(weights)
    defect = abs(lhs - rhs)
    satisfied = defect <= TOL_SOLVABILITY * (1.0 + abs(lhs) + abs(rhs))
    return ({"satisfied": satisfied, "lhs": lhs, "rhs": rhs,
             "defect": defect}, weights, flux)


def check_neumann_solvability(params, spec, gamma, f):
    """Both sides of the compatibility condition and the verdict."""
    return _compatibility(spec, params, gamma, f)[0]


def solve_neumann(params, spec, gamma, f, points):
    """Zero-constant representative of the Neumann solutions.

    Raises SolvabilityError when the data violates the compatibility
    condition; add any constant (or use a pin) to select another solution.
    The condition's boundary side is the exact sum of the same
    gamma * weights on the plain mesh as the solution takes, and its
    verdict is check_neumann_solvability's (_compatibility).

    A catalog source is taken as w_p + (the harmonic solution with data
    gamma - dw_p/dnu) + c(w_p), w_p its particular solution (_closed_form)
    and c(w_p) = 1/(4 pi) int_boundary w_p * dN/dnu, the constant that
    keeps the representation formula's zero-constant representative.  On
    the plain mesh the data's weights are gamma's less the flux's of the
    compatibility condition.
    """
    verdict, plain_weights, flux = _compatibility(spec, params, gamma, f)
    if not verdict["satisfied"]:
        raise SolvabilityError(verdict["lhs"], verdict["rhs"])
    points = _check_points(params, points)
    particular = f._particular
    if particular is not None:
        c, w_p, dw_dz = particular
        normal = normal_derivative_data(params, dw_dz)
        gamma = _minus(gamma, lambda bp: c * normal(bp))
        plain_weights = plain_weights - flux
        f = SourceTerm.zero()
    smap = sector_map(params)
    w = _represent(params, spec, gamma, f, points, smap.neumann_steps(),
                   4.0 * math.pi, smap.strip_neumann_steps(),
                   plain_weights)
    if particular is not None:
        density = KernelField(params).normal_density
        shift = integrate_boundary(
            spec, params, lambda bp: density(bp) * w_p(bp.point))
        w = w + c * (w_p(np.array(points, dtype=complex))
                     + shift / (4.0 * math.pi))
    return w


def probe_normalization_constant(params, spec, zetas):
    """Boundary integral of density * neumann at each zeta, with spread.

    If the integral is independent of zeta, subtracting its (scaled) value
    would normalize the Neumann function; constancy is only conjectured,
    so this reports {values, spread} and passes no judgement.  The
    integrals are the solvers' own (quadrature._integrate_kernel), each on
    the boundary mesh graded toward its zeta.
    """
    zetas = _check_points(params, zetas)
    if not zetas:
        raise ValueError("the probe needs at least one point")
    values = np.real(_integrate_kernel(
        spec, params, KernelField(params).normal_density,
        sector_map(params).neumann_steps(), zetas))
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
