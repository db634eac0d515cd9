"""The catalog's batched helpers against their per-sample definitions.

Each helper of `lenspot.validation` that evaluates a line's samples in one
kernel call must return exactly the values of the per-sample loop it
replaces, which is kept here as the reference: `lenspot validate` promises
byte-identical output, and array and scalar rounding must agree for that.
The helpers return every sample's value, not only the line's largest, so
that a value rounded differently cannot hide below the maximum.
"""

import math

import numpy as np
import pytest

from lenspot import (KernelField, LensParams, QuadratureSpec, boundary_mesh,
                     boundary_point, normal_coeffs, sample_interior)
from lenspot.conformal import sector_map
from lenspot.domain import arcs
from lenspot.solvers import BoundaryData, SourceTerm, solve_dirichlet
from lenspot.validation import (_attainment_errors, _fd_laplacian,
                                _normal_fd_gaps, _nodes, _orbit_product_gaps,
                                _strip_boundary_gaps, _worst)

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
            fd = (f(s, bp.point + h * q) - f(s, bp.point - h * q)) / (2 * h)
            gaps.append(abs(target(s, bp) - scale * fd))
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
