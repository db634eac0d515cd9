import math

import numpy as np
import pytest

import lenspot.kernels
from lenspot import (KernelField, LensParams, QuadratureSpec, SectorMap,
                     area_mesh, arcs, boundary_point, boundary_samples,
                     classify_point, evaluate_on_grid, normal_coeffs,
                     sample_interior)
from lenspot.domain import EPS_CORNER, corner_distance

HALF = LensParams(math.pi / 2, 2)
CURVED = LensParams(2 * math.pi / 3, 2)
LENS = LensParams(math.pi / 4, 4)
CASES = [HALF, CURVED, LENS, LensParams(math.pi / 3, 3)]


def interior_pairs(params, count, seed=0, margin=1e-3):
    rng = np.random.default_rng(seed)
    z = sample_interior(params, rng, count, margin=margin)
    w = sample_interior(params, rng, count, margin=margin)
    keep = z != w
    return z[keep], w[keep]


def all_boundary(params, count):
    out = [boundary_samples(params, "C1", count)]
    if params.n > 1:
        out.append(boundary_samples(params, "C0", count))
    return out


class TestGreen:
    @pytest.mark.parametrize("alpha", [0.9 * math.pi, math.pi / 2])
    def test_disc_reduction(self, alpha):
        params = LensParams(alpha, 1)
        fld = KernelField(params)
        z, w = interior_pairs(params, 200)
        assert np.abs(fld.green(z, w) - fld.disc_green(z, w)).max() < 1e-12

    @pytest.mark.parametrize("params", CASES)
    def test_boundary_vanishing(self, params):
        fld = KernelField(params)
        zeta = complex(sample_interior(params, np.random.default_rng(1), 1)[0])
        for batch in all_boundary(params, 50):
            assert np.abs(fld.green(batch.point, zeta)).max() < 1e-8

    @pytest.mark.parametrize("params", CASES)
    def test_symmetry_and_positivity(self, params):
        fld = KernelField(params)
        z, w = interior_pairs(params, 200)
        g = fld.green(z, w)
        assert np.abs(g - fld.green(w, z)).max() < 1e-12
        assert g.min() > 0.0

    def test_pole_and_corner_rejected(self):
        fld = KernelField(HALF)
        with pytest.raises(ValueError):
            fld.green(0.3, 0.3)
        with pytest.raises(ValueError):
            fld.green(1j, 0.3)

    def test_regular_part_finite_on_diagonal(self):
        fld = KernelField(CURVED)
        v = fld.green_regular(0.4 + 0.1j, 0.4 + 0.1j)
        assert math.isfinite(v)

    @pytest.mark.parametrize("params", CASES)
    def test_harmonic(self, params):
        fld = KernelField(params)
        rng = np.random.default_rng(2)
        zeta = complex(sample_interior(params, rng, 1, margin=0.05)[0])
        h = 1e-4
        for z in sample_interior(params, rng, 10, margin=0.05):
            if abs(z - zeta) <= 0.1:
                continue
            lap = (fld.green(z + h, zeta) + fld.green(z - h, zeta)
                   + fld.green(z + 1j * h, zeta) + fld.green(z - 1j * h, zeta)
                   - 4 * fld.green(z, zeta)) / h ** 2
            assert abs(lap) < 1e-3

    def test_derivative_matches_finite_difference(self):
        fld = KernelField(CURVED)
        z, zeta = 0.35 + 0.2j, 0.1 - 0.3j
        h = 1e-6
        # dG/dzeta = (d/dx - i d/dy)/2 of G in the zeta slot
        dx = (fld.green(z, zeta + h) - fld.green(z, zeta - h)) / (2 * h)
        dy = (fld.green(z, zeta + 1j * h) - fld.green(z, zeta - 1j * h)) / (2 * h)
        assert fld.d_green_dzeta(z, zeta) == pytest.approx((dx - 1j * dy) / 2,
                                                           abs=1e-7)


class TestPoisson:
    @pytest.mark.parametrize("params", CASES)
    def test_matches_normal_derivative(self, params):
        fld = KernelField(params)
        rng = np.random.default_rng(3)
        zs = sample_interior(params, rng, 5, margin=0.05)
        h = 1e-5
        for batch in all_boundary(params, 5):
            for t in np.atleast_1d(batch.t):
                bp = boundary_point(params, batch.arc_id, float(t))
                q, _ = normal_coeffs(params, bp)
                for z in zs:
                    fd = -0.5 * (fld.green(z, bp.point + h * q)
                                 - fld.green(z, bp.point - h * q)) / (2 * h)
                    assert abs(fld.poisson_kernel(z, bp) - fd) < 1e-6

    @pytest.mark.parametrize("params", CASES)
    def test_vanishes_for_boundary_source(self, params):
        fld = KernelField(params)
        batches = all_boundary(params, 6)
        for outer in batches:
            for t in np.atleast_1d(outer.t):
                bp = boundary_point(params, outer.arc_id, float(t))
                for inner in batches:
                    z = np.atleast_1d(inner.point)
                    z = z[np.abs(z - bp.point) > 1e-2]
                    assert np.abs(fld.poisson_kernel(z, bp)).max() < 1e-8

    def test_disc_reference_values(self):
        fld = KernelField(HALF)
        zeta = np.exp(0.7j)
        assert fld.disc_poisson(0.0, zeta) == pytest.approx(1.0)
        assert fld.disc_green(0.0, zeta) == pytest.approx(-math.log(abs(zeta) ** 2),
                                                          abs=1e-12)

    def test_reference_kernel_bundle(self):
        fld = KernelField(CURVED)
        bundle = fld.reference_kernels()
        assert set(bundle) == {"g0", "p0", "g1", "p1"}
        assert bundle["g1"](0.2, 0.5) == fld.disc_green(0.2, 0.5)
        assert bundle["p0"](0.2, 0.5) == fld.carrier_poisson(0.2, 0.5)

    @pytest.mark.parametrize("params", [CURVED, LENS])
    def test_carrier_green_vanishes_on_carrier(self, params):
        fld = KernelField(params)
        arc = arcs(params)["C0"]
        z = complex(sample_interior(params, np.random.default_rng(4), 1)[0])
        phis = np.linspace(0, 2 * math.pi, 7)[:-1]
        carrier_points = arc.center + arc.radius * np.exp(1j * phis)
        assert np.abs(fld.carrier_green(carrier_points, z)).max() < 1e-9


class TestNeumann:
    @pytest.mark.parametrize("params", CASES)
    def test_symmetry(self, params):
        fld = KernelField(params)
        z, w = interior_pairs(params, 100)
        assert np.abs(fld.neumann(z, w) - fld.neumann(w, z)).max() < 1e-11

    @pytest.mark.parametrize("params", CASES)
    def test_density_matches_normal_derivative(self, params):
        fld = KernelField(params)
        rng = np.random.default_rng(5)
        zeta = complex(sample_interior(params, rng, 1, margin=0.1)[0])
        h = 1e-5
        for batch in all_boundary(params, 6):
            for t in np.atleast_1d(batch.t):
                bp = boundary_point(params, batch.arc_id, float(t))
                q, _ = normal_coeffs(params, bp)
                fd = (fld.neumann(bp.point + h * q, zeta)
                      - fld.neumann(bp.point - h * q, zeta)) / (2 * h)
                assert abs(fd - fld.normal_density(bp)) < 1e-5

    def test_density_values(self):
        fld = KernelField(CURVED)
        a, t, n = CURVED.alpha, CURVED.theta, CURVED.n
        bp = boundary_point(CURVED, "C1", 0.3)
        assert fld.normal_density(bp) == -2 * n
        bp = boundary_point(CURVED, "C0", 0.1)
        assert fld.normal_density(bp) == pytest.approx(
            2 * n * math.sin(a - t) / math.sin(a))
        # chord case: the density vanishes on the straight side
        fld = KernelField(HALF)
        assert KernelField(HALF).normal_density(
            boundary_point(HALF, "C0", 0.2)) == 0.0

    def test_disc_reduction_density(self):
        # n = 1: the whole boundary carries density -2
        params = LensParams(math.pi / 2, 1)
        fld = KernelField(params)
        zeta = 0.2 + 0.1j
        h = 1e-5
        for phi in (0.4, 2.0, -2.5):
            z = np.exp(1j * phi)
            fd = (fld.neumann(z * (1 + h), zeta) - fld.neumann(z * (1 - h), zeta)) / (2 * h)
            assert fd == pytest.approx(-2.0, abs=1e-5)

    @pytest.mark.parametrize("params", CASES)
    def test_regularized_harmonic_near_diagonal(self, params):
        fld = KernelField(params)
        rng = np.random.default_rng(6)
        zeta = complex(sample_interior(params, rng, 1, margin=0.05)[0])
        h = 1e-4
        for z in list(sample_interior(params, rng, 6, margin=0.05)) + [zeta + 2 * h]:
            lap = (fld.neumann_regular(z + h, zeta)
                   + fld.neumann_regular(z - h, zeta)
                   + fld.neumann_regular(z + 1j * h, zeta)
                   + fld.neumann_regular(z - 1j * h, zeta)
                   - 4 * fld.neumann_regular(z, zeta)) / h ** 2
            assert abs(lap) < 1e-3


class TestPrefactorAndBlaschke:
    @pytest.mark.parametrize("params", CASES)
    def test_prefactor_unimodular_on_boundary(self, params):
        fld = KernelField(params)
        for batch in all_boundary(params, 50):
            assert np.abs(fld.prefactor_abs(batch.point) - 1.0).max() < 1e-10

    @pytest.mark.parametrize("params", CASES)
    def test_orbit_product_boundary_limit(self, params):
        fld = KernelField(params)
        zeta = complex(sample_interior(params, np.random.default_rng(7), 1)[0])
        for batch in all_boundary(params, 10):
            for z in np.atleast_1d(batch.point):
                assert abs(fld.blaschke_product(complex(z), zeta) - 1.0) < 1e-9

    def test_single_factor_for_disc(self):
        params = LensParams(0.9 * math.pi, 1)
        fld = KernelField(params)
        z, zeta = 0.3 + 0.2j, -0.1 + 0.4j
        expected = (zeta - 1 / np.conj(z)) / (zeta - z)
        assert fld.blaschke_product(z, zeta) == pytest.approx(expected)

    @pytest.mark.parametrize("params", CASES)
    def test_product_factorization(self, params):
        # |orbit product| = |kernel product| * |prefactor| everywhere
        fld = KernelField(params)
        z, w = interior_pairs(params, 20, seed=8)
        for zz, ww in zip(z, w):
            lhs = abs(fld.blaschke_product(zz, ww))
            rhs = fld.prefactor_abs(zz) * math.exp(0.5 * fld.green(zz, ww))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_orbit_point_hit_rejected(self):
        fld = KernelField(HALF)
        with pytest.raises(ValueError):
            fld.blaschke_product(0.3, 0.3)


class TestGridEvaluation:
    def test_shapes_and_masking(self):
        fld = KernelField(HALF)
        xs, ys, values = evaluate_on_grid(fld, "green", 0.4 + 0.1j, 12, 9)
        assert values.shape == (9, 12)
        assert np.isnan(values).any()          # exterior cells masked
        inside = ~np.isnan(values)
        assert inside.any()
        assert np.nanmin(values) > -1e-12      # Green is nonnegative up to eps
        for j, i in zip(*np.nonzero(inside)):
            z = complex(xs[i], ys[j])
            assert classify_point(HALF, z) != "exterior"

    def test_pole_cell_masked(self):
        fld = KernelField(HALF)
        xs, ys, values = evaluate_on_grid(fld, "neumann", 0.4 + 0.1j, 8, 8)
        # the grid does not depend on the pole: move the pole onto a node
        j, i = next((j, i) for j, i in zip(*np.nonzero(~np.isnan(values)))
                    if classify_point(HALF, complex(xs[i], ys[j])) == "interior")
        zeta = complex(xs[i], ys[j])
        xs, ys, values = evaluate_on_grid(fld, "neumann", zeta, 8, 8)
        assert np.isnan(values[j, i])
        assert np.isfinite(values[~np.isnan(values)]).all()

    @pytest.mark.parametrize("params", [LensParams(math.pi / 2, 1), HALF,
                                        LensParams(math.pi / 2 + 0.01, 64)])
    def test_matches_scalar_kernel(self, params):
        fld = KernelField(params)
        zeta = complex(sample_interior(params, np.random.default_rng(9), 1)[0])
        xs, ys, values = evaluate_on_grid(fld, "green", zeta, 15, 13)
        kept = ~np.isnan(values)
        assert kept.any() and not kept.all()
        for j, i in np.ndindex(values.shape):
            z = complex(xs[i], ys[j])
            if kept[j, i]:
                assert values[j, i] == fld.green(z, zeta)
            else:
                assert (classify_point(params, z) in ("exterior", "corner")
                        or corner_distance(params, z) <= EPS_CORNER
                        or z == zeta)

    def test_grid_classified_in_one_call(self, monkeypatch):
        shapes = []

        def counting(params, z, *args):
            shapes.append(np.shape(z))
            return classify_point(params, z, *args)

        monkeypatch.setattr(lenspot.kernels, "classify_point", counting)
        evaluate_on_grid(KernelField(HALF), "neumann", 0.4 + 0.1j, 12, 9)
        assert shapes == [(9, 12)]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            evaluate_on_grid(KernelField(HALF), "poisson", 0.3, 4, 4)


# the disc twice, the chord (alpha == theta), the thin lens of the
# benchmark and a curved lens
STRIP_CASES = [LensParams(0.9 * math.pi, 1), LensParams(math.pi / 2, 1),
               LensParams(math.pi / 3, 3), LensParams(math.pi / 2 + 0.01, 64),
               CURVED]


class TestStripForm:
    """SectorMap.strip_green/strip_neumann, which the solvers' area integrals
    use, against the product form at zeta's strip coordinate.  Largest
    differences seen at margin 1e-2 over these sets: 2.5e-14 for G and
    1.4e-13 for N (n = 64)."""

    @pytest.mark.parametrize("params", STRIP_CASES)
    def test_agrees_with_product_form(self, params):
        fld = KernelField(params)
        smap = SectorMap(params)
        z, zeta = interior_pairs(params, 200, margin=1e-2)
        w = smap.to_w(zeta)
        assert np.abs(smap.strip_green(z, w.real, w.imag)
                      - fld.green(z, zeta)).max() < 1e-13
        assert np.abs(smap.strip_neumann(z, w.real, w.imag)
                      - fld.neumann(z, zeta)).max() < 1e-12

    @pytest.mark.parametrize("params", [HALF, LensParams(math.pi / 3, 3),
                                        LensParams(math.pi / 2 + 0.01, 64)])
    def test_next_to_the_pole(self, params):
        # both forms round a coordinate of zeta and lose about eps/d there
        fld = KernelField(params)
        smap = SectorMap(params)
        z = sample_interior(params, np.random.default_rng(3), 20, margin=1e-2)
        for d in (1e-3, 1e-6):
            zeta = z + d * np.exp(1j * np.linspace(0.0, 6.0, z.size))
            w = smap.to_w(zeta)
            assert np.abs(smap.strip_green(z, w.real, w.imag)
                          - fld.green(z, zeta)).max() < 1e-14 / d
            assert np.abs(smap.strip_neumann(z, w.real, w.imag)
                          - fld.neumann(z, zeta)).max() < 1e-14 / d

    def test_rows_and_columns_match_flat_nodes(self):
        # the area mesh's factor layout gives the values at its flat points;
        # next to the pole both forms lose about eps/|zeta - z|
        params = LensParams(math.pi / 2 + 0.01, 64)
        fld = KernelField(params)
        smap = SectorMap(params)
        z = complex(sample_interior(params, np.random.default_rng(4), 1,
                                    margin=1e-3)[0])
        nodes, _, (x, y) = area_mesh(QuadratureSpec(), params, singular_at=z)
        for strip, product in ((smap.strip_green, fld.green),
                               (smap.strip_neumann, fld.neumann)):
            values = strip(z, x, y)
            assert values.shape == (y.shape[0], x.shape[1], x.shape[2])
            gap = np.abs(values.ravel() - product(z, nodes))
            assert np.all(gap < 1e-12 + 1e-14 / np.abs(nodes - z))

    def test_scalars_give_floats(self):
        smap = SectorMap(CURVED)
        w = complex(smap.to_w(0.1 - 0.2j))
        for strip in (smap.strip_green, smap.strip_neumann):
            assert isinstance(strip(0.4 + 0.1j, w.real, w.imag), float)

    def test_pole_and_corner_rejected(self):
        smap = SectorMap(CURVED)
        z = 0.4 + 0.1j
        w = complex(smap.to_w(z))
        for strip in (smap.strip_green, smap.strip_neumann):
            with pytest.raises(ValueError):
                strip(z, w.real, w.imag)
            with pytest.raises(ValueError):
                strip(CURVED.corners[0], w.real - 1.0, w.imag)


class TestBoundaryLimits:
    @pytest.mark.parametrize("params", CASES)
    def test_poisson_limits(self, params):
        # p approaches the reference kernel of whichever arc holds zeta
        fld = KernelField(params)
        cases = [("C1", 0.5, -0.35)]
        if params.n > 1:
            cases.append(("C0", 0.3, -0.5))
        for arc_id, u, v in cases:
            half = arcs(params)[arc_id].half_width
            bpz = boundary_point(params, arc_id, u * half)
            bpzeta = boundary_point(params, arc_id, v * half)
            q, _ = normal_coeffs(params, bpz)
            errs = []
            for d in (1e-4, 1e-6):
                z = bpz.point - d * q
                if arc_id == "C0":
                    ref = fld.carrier_poisson(z, bpzeta.point)
                else:
                    ref = fld.disc_poisson(z, bpzeta.point)
                errs.append(abs(fld.poisson_kernel(z, bpzeta) - ref))
            assert errs[0] < 1e-2
            assert errs[1] < 1e-4

    @pytest.mark.parametrize("params", CASES)
    def test_neumann_limits(self, params):
        # Re(coeff * dN/dz) - reference tends to the arc's density over 2
        fld = KernelField(params)
        a, t, n = params.alpha, params.theta, params.n
        cases = [("C1", 0.5, -0.35, -float(n))]
        if params.n > 1:
            cases.append(("C0", 0.3, -0.5, n * math.sin(a - t) / math.sin(a)))
        for arc_id, u, v, target in cases:
            half = arcs(params)[arc_id].half_width
            bpz = boundary_point(params, arc_id, u * half)
            bpzeta = boundary_point(params, arc_id, v * half)
            q, _ = normal_coeffs(params, bpz)
            errs = []
            for d in (1e-4, 1e-6):
                z = bpz.point - d * q
                if arc_id == "C0":
                    coeff = -(z * math.sin(a - t) + math.sin(t)) / math.sin(a)
                    ref = fld.carrier_poisson(z, bpzeta.point)
                else:
                    coeff = z
                    ref = fld.disc_poisson(z, bpzeta.point)
                combo = np.real(coeff * fld.d_neumann_dz(z, bpzeta.point))
                errs.append(abs(combo - ref - target))
            assert errs[0] < 1e-2
            assert errs[1] < 1e-4
