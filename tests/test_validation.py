"""The catalog's batched helpers against their per-sample definitions.

Each helper of `lenspot.validation` that evaluates a line's samples in one
kernel call must return exactly the values of the per-sample loop it
replaces, which is kept here as the reference: `lenspot validate` promises
byte-identical output, and array and scalar rounding must agree for that.
The helpers return every sample's value, not only the line's largest, so
that a value rounded differently cannot hide below the maximum.  The
geometry lines are checked against the quantities they name.
"""

import math

import numpy as np
import pytest

from lenspot import (KernelField, LensParams, QuadratureSpec, boundary_mesh,
                     boundary_point, normal_coeffs, sample_interior)
from lenspot.conformal import sector_map
from lenspot.domain import arcs
from lenspot.solvers import BoundaryData, SourceTerm, solve_dirichlet
import lenspot.validation
from lenspot.circles import CircleMatrix, form_gap
from lenspot.domain import arc_matrix
from lenspot.validation import (_QUICK, _attainment_errors, _domain_checks,
                                _fd_laplacian, _kernel_checks,
                                _normal_fd_gaps, _nodes, _orbit_product_gaps,
                                _strip_boundary_gaps, _worst, run_checks)

SETS = [LensParams(2 * math.pi / 3, 2), LensParams(math.pi / 2, 8),
        LensParams(0.9 * math.pi, 1)]
IDS = ["0.667pi-n2", "0.5pi-n8", "0.9pi-n1"]
SPEC = QuadratureSpec()


def samples(params, count, seed=0):
    return sample_interior(params, np.random.default_rng(seed), count)


def reference_normal_fd_gaps(params, nodes, sources, f, target, scale=1.0,
                             h=1e-5):
    gaps = []
    for bp in nodes:
        q, _ = normal_coeffs(params, bp)
        for s in sources:
            if abs(s - bp.point) < 0.05:
                continue
            # steps h and 2h, extrapolated to O(h^4)
            fd = [(f(s, bp.point + m * h * q) - f(s, bp.point - m * h * q))
                  / (2 * m * h) for m in (1, 2)]
            gaps.append(abs(target(s, bp) - scale * (4 * fd[0] - fd[1]) / 3))
    return gaps


def same_values(got, reference):
    """Equal as multisets of floats, bit for bit (the order may differ)."""
    return sorted(np.asarray(got).tolist()) == sorted(reference)


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_normal_fd_gaps_are_the_per_pair_loop(params):
    fld = KernelField(params)
    nodes = _nodes(params, 4)
    # the two catalog lines: p = -1/2 dG/dnu, and dN/dnu = its density
    for sources, f, target, scale in (
            (samples(params, 8), fld.green, fld.poisson_kernel, -0.5),
            (samples(params, 8, seed=1), lambda zeta, v: fld.neumann(v, zeta),
             lambda zeta, bp: fld.normal_density(bp), 1.0)):
        got = _normal_fd_gaps(params, 4, sources, f, target, scale=scale)
        reference = reference_normal_fd_gaps(params, nodes, sources, f,
                                             target, scale=scale)
        assert got.tolist() == reference
        assert len(reference) > len(nodes)


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_fd_laplacian_over_an_array_is_pointwise(params):
    fld = KernelField(params)
    z = samples(params, 8)
    zeta0 = complex(samples(params, 1, seed=1)[0])
    for f in (lambda v: fld.green(v, zeta0),
              lambda v: fld.neumann_regular(v, zeta0)):
        got = _fd_laplacian(f, z, 1e-4)
        assert got.tolist() == [_fd_laplacian(f, p, 1e-4) for p in z]


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_fd_laplacian_is_exact_on_polynomials(params):
    # the extrapolated stencil's truncation error vanishes on cubics, so
    # what is left is rounding, about 1e-8 at h = 1e-4
    z = samples(params, 8)
    assert np.allclose(_fd_laplacian(lambda v: np.abs(v) ** 2, z, 1e-4), 4.0,
                       rtol=0.0, atol=1e-6)
    assert np.allclose(_fd_laplacian(lambda v: np.real(v ** 3), z, 1e-4), 0.0,
                       rtol=0.0, atol=1e-6)
    # and on quartics, where the five-point stencil alone is 4 h^2 off
    assert np.allclose(_fd_laplacian(lambda v: np.abs(v) ** 4, z, 1e-2),
                       16.0 * np.abs(z) ** 2, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_poisson_line_catches_a_wrong_kernel(params, monkeypatch):
    poisson = "poisson kernel = -1/2 normal derivative"

    def line():
        checks = _kernel_checks(params, SPEC, np.random.default_rng(0), _QUICK)
        return next(c for c in checks if c.name == poisson)

    assert line().ok
    exact = KernelField.poisson_kernel
    monkeypatch.setattr(KernelField, "poisson_kernel",
                        lambda self, z, bp: (1 + 1e-5) * exact(self, z, bp))
    assert not line().ok


@pytest.mark.parametrize("params, names", [
    (LensParams(1.5807963267948966, 64), ["regularized neumann harmonic"]),
    (LensParams(0.999 * math.pi, 2),
     ["poisson kernel = -1/2 normal derivative",
      "neumann density matches normal derivative"])],
    ids=["pi/2+0.01-n64", "0.999pi-n2"])
def test_derivative_lines_pass_at_the_extreme_sets(params, names):
    # the O(h^2) differences failed these lines on their truncation error
    # next to the images of a pole or a tiny arc, not on the kernels
    checks = {c.name: c for c in run_checks(params, quick=True)}
    assert all(checks[name].ok for name in names)


@pytest.mark.parametrize("params", [LensParams(math.pi / 2 + 0.01, 64),
                                    LensParams(3 * math.pi / 5, 64)],
                         ids=["pi/2+0.01-n64", "3pi/5-n64"])
def test_green_positivity_passes_at_the_thin_lenses(params):
    # G is far below rounding between points near opposite corners there;
    # the product form's sign is noise, the strip form's log1p keeps it
    checks = {c.name: c for c in run_checks(params, quick=True)}
    line = checks["green positivity (min over samples)"]
    assert line.ok and line.value > 0.0


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_orbit_product_gaps_are_the_per_pair_loop(params):
    fld = KernelField(params)
    zs, nodes = samples(params, 3), _nodes(params, 5)
    reference = [
        abs(abs(fld.blaschke_product(z, bp.point))
            - fld.prefactor_abs(z) * math.exp(0.5 * fld.green(z, bp.point)))
        for bp in nodes for z in zs if abs(z - bp.point) >= 1e-3]
    assert same_values(_orbit_product_gaps(fld, zs, nodes), reference)


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_blaschke_products_are_lone_products(params):
    fld = KernelField(params)
    z = complex(samples(params, 1)[0])
    zetas = [bp.point for bp in _nodes(params, 5)]
    assert fld.blaschke_products(z, zetas) == [
        fld.blaschke_product(z, zeta) for zeta in zetas]


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_strip_boundary_gaps_are_the_per_point_loop(params):
    fld = KernelField(params)
    smap = sector_map(params)
    # one point next to the boundary, so that its mesh is graded
    bp = boundary_point(params, "C1", 0.3 * arcs(params)["C1"].half_width)
    q, _ = normal_coeffs(params, bp)
    zs = np.append(samples(params, 5), bp.point - 1e-3 * q)
    gaps = []
    for z in map(complex, zs):
        for nodes, _ in boundary_mesh(SPEC, params, near=z):
            for strip, product in (
                    (smap.strip_poisson(z, nodes.point),
                     fld.poisson_kernel(z, nodes)),
                    (smap.strip_neumann_at(z, nodes.point),
                     fld.neumann(nodes.point, z))):
                gaps += (np.abs(strip - product)
                         / np.maximum(1.0, np.abs(product))).tolist()
    assert same_values(_strip_boundary_gaps(params, SPEC, zs), gaps)


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_attainment_errors_are_one_point_solves(params):
    worst = {1e-2: 0.0, 1e-3: 0.0}
    for arc_id, arc in arcs(params).items():
        bp = boundary_point(params, arc_id, 0.35 * arc.half_width)
        q, _ = normal_coeffs(params, bp)
        for d in (1e-2, 1e-3):
            w = solve_dirichlet(params, SPEC,
                                BoundaryData.from_expression("re"),
                                SourceTerm.zero(), [bp.point - d * q])[0]
            worst[d] = max(worst[d], abs(w - bp.point.real))
    assert _attainment_errors(params, SPEC) == worst


def test_worst_is_the_largest_value_or_nan():
    assert _worst([]) == 0.0
    assert _worst(iter([1e-3, 2e-3])) == 2e-3
    assert _worst(np.array([-1.0, 3e-9])) == 3e-9
    assert math.isnan(_worst([1.0, math.nan, 2.0]))
    assert math.isnan(_worst(np.array([math.nan, 1.0])))


def geometry_lines(params):
    """The catalog's closure and corners lines at params."""
    lines = _domain_checks(params, np.random.default_rng(0), 4)
    return (next(r for r in lines if r.name.startswith("parqueting closure")),
            next(r for r in lines if r.name == "both corners lie on every arc"))


@pytest.mark.parametrize("params", SETS, ids=IDS)
def test_geometry_lines_measure_every_arc(params):
    # the closure line measures the parqueting identity, not a matrix
    # against itself, and the corners line every (arc, corner) pair
    closure, corners = geometry_lines(params)
    assert closure.ok and 0.0 < closure.value <= 1e-10
    assert corners.ok and corners.value == max(
        form_gap(arc_matrix(params, k), c)
        for k in range(2 * params.n) for c in params.corners)


def test_closure_line_holds_next_to_alpha_pi():
    # arcs 1 and 3 are one circle, and reflecting through the tiny arc 0
    # (radius 3.1e-3) magnifies any difference in their rounding: the line
    # read 2.9e-8 when each arc was formed on its own
    closure, corners = geometry_lines(LensParams(999 * math.pi / 1000, 2))
    assert closure.ok and closure.value <= 1e-10
    assert corners.ok


def test_an_arc_off_by_1e_6_fails_the_closure_line(monkeypatch):
    params = SETS[0]

    def off(params, k):
        m = arc_matrix(params, k)
        if k % (2 * params.n) == 1:
            return CircleMatrix(m.a, m.b + 1e-6, m.c)
        return m

    monkeypatch.setattr(lenspot.validation, "arc_matrix", off)
    closure, corners = geometry_lines(params)
    assert not closure.ok and closure.value > 1e-7
    assert not corners.ok
