import math

import numpy as np
import pytest

from lenspot import (BoundaryData, KernelField, LensParams, QuadratureSpec,
                     SectorMap, SourceTerm, arcs, boundary_samples,
                     normal_derivative_data, probe_normalization_constant,
                     sample_interior, sector_map, solve_dirichlet,
                     solve_neumann)
from lenspot import conformal
from lenspot.domain import corner_distance
from lenspot.quadrature import _plain_area
from lenspot.validation import _pairs, run_checks

CASES = [LensParams(math.pi / 2, 2), LensParams(math.pi / 3, 3),
         LensParams(2 * math.pi / 3, 2), LensParams(math.pi / 4, 4),
         LensParams(0.9 * math.pi, 1)]
LARGE_N = [LensParams(math.pi / 2, 16), LensParams(math.pi / 2 + 0.01, 64)]
# the benchmark's four sets, and the acceptance catalog's other five
BENCH = [LensParams(math.pi / 2, 2), LensParams(math.pi / 3, 3),
         LensParams(math.pi / 2, 8), LensParams(math.pi / 2 + 0.01, 64)]
ACCEPTANCE = [LensParams(2 * math.pi / 3, 2), LensParams(math.pi / 4, 4),
              LensParams(math.pi / 3, 3), LensParams(0.9 * math.pi, 1),
              LensParams(math.pi / 2, 1)]


def pairs(params, count, seed=0):
    rng = np.random.default_rng(seed)
    z = sample_interior(params, rng, count)
    w = sample_interior(params, rng, count)
    keep = z != w
    return z[keep], w[keep]


@pytest.mark.parametrize("params", CASES)
def test_interior_maps_to_upper_halfplane(params):
    smap = SectorMap(params)
    z = sample_interior(params, np.random.default_rng(1), 50)
    assert smap.to_halfplane(z).imag.min() > 0.0


@pytest.mark.parametrize("params", CASES)
def test_boundary_maps_to_real_axis(params):
    smap = SectorMap(params)
    batches = [boundary_samples(params, "C1", 40)]
    if params.n > 1:
        batches.append(boundary_samples(params, "C0", 40))
    for batch in batches:
        img = smap.to_halfplane(batch.point)
        assert (np.abs(img.imag) / (1.0 + np.abs(img))).max() < 1e-9


def test_corner_rejected():
    smap = SectorMap(LensParams(math.pi / 2, 2))
    with pytest.raises(ValueError):
        smap.to_halfplane(1j)


def test_mobius_case_matches_disc_green():
    # n = 1 needs no power map: plain Mobius disc-to-halfplane transport
    params = LensParams(math.pi / 2, 1)
    smap = SectorMap(params)
    fld = KernelField(params)
    z, w = pairs(params, 100, seed=2)
    assert np.abs(smap.green(z, w) - fld.disc_green(z, w)).max() < 1e-10


@pytest.mark.parametrize("params", CASES)
def test_green_vanishes_on_boundary(params):
    smap = SectorMap(params)
    zeta = complex(sample_interior(params, np.random.default_rng(3), 1)[0])
    batch = boundary_samples(params, "C1", 30)
    assert np.abs(smap.green(batch.point, zeta)).max() < 1e-9


@pytest.mark.parametrize("params", CASES)
def test_green_symmetric(params):
    smap = SectorMap(params)
    z, w = pairs(params, 100, seed=4)
    assert np.abs(smap.green(z, w) - smap.green(w, z)).max() < 1e-12


@pytest.mark.parametrize("params", CASES + LARGE_N)
def test_agrees_with_product_kernel(params):
    smap = SectorMap(params)
    fld = KernelField(params)
    z, w = pairs(params, 200, seed=5)
    assert np.abs(smap.green(z, w) - fld.green(z, w)).max() < 1e-9


def test_pole_rejected():
    smap = SectorMap(LensParams(math.pi / 3, 3))
    with pytest.raises(ValueError):
        smap.green(0.5, 0.5)


@pytest.mark.parametrize("params", CASES + LARGE_N)
def test_strip_coordinate_and_pullback(params):
    smap = SectorMap(params)
    z = sample_interior(params, np.random.default_rng(6), 100)
    w = smap.to_w(z)
    assert np.all((-params.theta < w.imag) & (w.imag < 0.0))
    back, jacobian = smap.pullback(w.real, w.imag)
    assert np.abs(back - z).max() < 1e-9
    # |dz/dw|^2 against a central difference along x (dz/dw is analytic)
    h = 1e-5
    dz_dw = (smap.pullback(w.real + h, w.imag)[0]
             - smap.pullback(w.real - h, w.imag)[0]) / (2.0 * h)
    assert np.abs(jacobian / np.abs(dz_dw) ** 2 - 1.0).max() < 1e-7


def test_sector_map_is_built_once_per_lens(monkeypatch):
    # the solvers, the area quadrature and the catalog share one map per
    # lens, and none of them changes it
    built = []

    class Counting(SectorMap):
        def __init__(self, params):
            built.append(params)
            super().__init__(params)

    params = LensParams(math.pi / 2, 2)
    monkeypatch.setattr(conformal, "SectorMap", Counting)
    sector_map.cache_clear()
    _plain_area.cache_clear()
    try:
        smap = sector_map(params)
        before = dict(vars(smap))
        spec = QuadratureSpec()
        points = sample_interior(params, np.random.default_rng(4), 3)
        f = SourceTerm.constant(1.0)
        solve_dirichlet(params, spec, BoundaryData.from_expression("abs2"), f,
                        points)
        solve_neumann(params, spec, normal_derivative_data(params, np.conj),
                      f, points)
        probe_normalization_constant(params, spec, points)
        run_checks(params, quick=True)
        assert built == [params]
        assert sector_map(params) is smap
        assert vars(smap) == before
    finally:
        sector_map.cache_clear()
        _plain_area.cache_clear()


@pytest.mark.parametrize("params", BENCH, ids=lambda p: f"{p.alpha:.4g}-{p.n}")
def test_stacked_sides_are_one_point_calls(params):
    # the evaluator pairs many points' stacked z sides with one node side;
    # each row is the point's one-point call, bit for bit
    smap = sector_map(params)
    rng = np.random.default_rng(3)
    points = [complex(z) for z in sample_interior(params, rng, 5, margin=1e-3)]
    zeta = np.concatenate([boundary_samples(params, arc_id, 16).point
                           for arc_id in arcs(params)])
    w = smap.to_w(sample_interior(params, rng, 16, margin=1e-3))
    for kernel, args in ((smap.strip_green, (w.real, w.imag)),
                         (smap.strip_neumann, (w.real, w.imag)),
                         (smap.strip_neumann_at, (zeta,)),
                         (smap.strip_poisson, (zeta,))):
        assert isinstance(kernel, conformal.Kernel)
        sides = tuple(part[:, None] for part in kernel.sides(points))
        stacked = kernel.pair(sides, kernel.nodes(*args))
        assert stacked.shape == (5, args[0].size)
        assert np.array_equal(stacked, [kernel(z, *args) for z in points])


@pytest.mark.parametrize("params", BENCH + ACCEPTANCE,
                         ids=lambda p: f"{p.alpha:.4g}-{p.n}")
def test_normal_density_is_the_product_forms(params):
    # the solvers take dN/dnu from the map; it is the product form's exactly
    fld = KernelField(params)
    density = sector_map(params).normal_density
    assert sorted(density) == sorted(arcs(params))
    for arc_id in arcs(params):
        bp = boundary_samples(params, arc_id, 3)
        assert fld.normal_density(bp).tolist() == [density[arc_id]] * 3


# G at the thin lenses on the catalog's pair draw (validation._pairs, seed 0,
# 64 pairs), the pairs of the smallest values and a few others: the
# half-plane form 2 log|W(z) - conj(W(zeta))| / |W(z) - W(zeta)|, W being
# the map to the half plane, evaluated once in mpmath 1.3 at 400 digits from
# the pairs' double values.  Here G is far below rounding: the product form
# reads 23 and 21 of the 64 values as <= 0, and log(F2/F1) rounds 38 to 0.
THIN_GREEN = {
    LensParams(math.pi / 2 + 0.01, 64): {
        14: 6.8345024779397471e-58, 22: 0.36246093358699041,
        23: 0.25303864151727368, 28: 3.9410748579328259e-94,
        30: 7.2207224515431552e-122, 31: 1.295299826965618e-18,
        34: 4.3658355608411407e-62, 57: 1.564515074300002e-62},
    LensParams(3 * math.pi / 5, 64): {
        11: 2.0316492179164736e-55, 24: 1.1928412402713474e-66,
        26: 0.0036483640959404929, 30: 0.034179453797964316,
        36: 2.4762533020028518e-68, 49: 2.3988402359732882e-75,
        53: 2.7214001781260176e-21, 56: 7.4811934709367927e-80},
}


@pytest.mark.parametrize("params", THIN_GREEN,
                         ids=lambda p: f"{p.alpha:.4g}-{p.n}")
def test_strip_green_keeps_its_sign_at_the_thin_lenses(params):
    zs, ws = _pairs(params, np.random.default_rng(0), 64)
    smap = sector_map(params)
    w = smap.to_w(ws)
    g = smap.strip_green(zs, w.real, w.imag)
    assert g.size == 64 and g.min() > 0.0
    for index, value in THIN_GREEN[params].items():
        assert abs(g[index] - value) <= 1e-12 * value


def test_half_plane_oracle_raises_where_it_is_not_finite():
    # next to a corner at n = 128 the map's n-th power overflows: the oracle
    # raises there rather than return NaN with only a RuntimeWarning
    params = LensParams(0.3, 128)
    z = sample_interior(params, np.random.default_rng(0), 4000, margin=1e-9)
    order = np.argsort(corner_distance(params, z), kind="stable")
    near, rest = z[order[:20]], z[order[20:40]]
    smap = SectorMap(params)
    with pytest.raises(ValueError, match="not finite"):
        smap.green(near[0], rest[0])
    with pytest.raises(ValueError, match="not finite"):
        smap.green(near, rest)
    assert smap.green(near[1], rest[1]) >= 0.0


def test_half_plane_image_raises_where_it_is_not_finite():
    # |sector(z)| = 277.5 here, and its 128th power overflows
    smap = SectorMap(LensParams(0.3, 128))
    z = 0.9559508562363113 - 0.293488341369516j
    for points in (z, np.array([z, 0.99])):
        with pytest.raises(ValueError, match="not finite"):
            smap.to_halfplane(points)


# G between the points 1e-3, 1e-5 and 2e-7 from c+ and from c-, each
# stepped toward the strip's midline point pullback(0, -theta/2), at the six
# acceptance sets: the half-plane form as for THIN_GREEN, at 400 digits,
# with the corners and the map's rotation at their double values.  G falls
# as the distance to the power 2n, to 3.2e-55 at (pi/4, 4); points outside
# EPS_CORNER of the corners give no smaller G at n <= 4.
CORNER_GREEN = {
    LensParams(math.pi / 2, 2): (
        1.253271198048217e-13, 1.2500326645508424e-21, 2.0000010444305837e-28),
    LensParams(2 * math.pi / 3, 2): (
        2.9983492387951656e-14, 2.9774240112774757e-22, 4.763547946672076e-29),
    LensParams(math.pi / 4, 4): (
        1.2583449339988174e-25, 1.2500831500074796e-41, 3.2000042597586663e-55),
    LensParams(math.pi / 3, 3): (
        7.438908309974795e-20, 7.407721684758361e-32, 4.740744767942214e-42),
    LensParams(0.9 * math.pi, 1): (
        6.881594221915345e-06, 6.854376137901166e-10, 2.7416429790917506e-13),
    LensParams(math.pi / 2, 1): (
        1.0010007505003354e-06, 1.0000100000658984e-10, 4.0000008002301655e-14),
}


@pytest.mark.parametrize("params", CORNER_GREEN,
                         ids=lambda p: f"{p.alpha:.4g}-{p.n}")
def test_strip_green_between_opposite_corners(params):
    smap = sector_map(params)
    cp, cm = params.corners
    mid = complex(smap.pullback(0.0, -0.5 * params.theta)[0])
    for d, value in zip((1e-3, 1e-5, 2e-7), CORNER_GREEN[params]):
        z = cp + d * (mid - cp) / abs(mid - cp)
        zeta = cm + d * (mid - cm) / abs(mid - cm)
        w = smap.to_w(zeta)
        g = smap.strip_green(z, w.real, w.imag)
        assert g > 0.0 and abs(g - value) <= 1e-12 * value
