import math
import warnings

import numpy as np
import pytest

from lenspot import (BoundaryPoint, HomogeneousPoint, KernelField, LensParams,
                     arc_lengths, arc_matrix, arcs, boundary_distance,
                     boundary_point, boundary_samples, classify_point,
                     equivalent, normal_coeffs, reflect_point,
                     reflection_orbit, sample_interior, unit_circle)
from lenspot.domain import (EPS_CORNER, _arc_feet, _axis_crossings,
                            _bounding_box, boundary_forms, corner_distance,
                            neumann_flux)

HALF = LensParams(math.pi / 2, 2)           # alpha = theta: chord case
CURVED = LensParams(2 * math.pi / 3, 2)     # alpha > theta: concave second arc
LENS = LensParams(math.pi / 4, 2)           # alpha < theta: convex lens
DISC = LensParams(0.9 * math.pi, 1)         # degenerate: whole unit disc
ACCEPTANCE = [LensParams(a, n) for a, n in (
    (math.pi / 2, 2), (2 * math.pi / 3, 2), (math.pi / 4, 4),
    (math.pi / 3, 3), (0.9 * math.pi, 1), (math.pi / 2, 1))]
TABLE_ALPHAS = [math.pi / 4, math.pi / 2, math.pi / 2 + 0.01,
                2 * math.pi / 3, 999 * math.pi / 1000, None]
TABLE_IDS = ["pi/4", "pi/2", "pi/2+0.01", "2pi/3", "0.999pi", "chord"]


class TestLensParams:
    def test_theta(self):
        assert LensParams(1.0, 4).theta == math.pi / 4

    @pytest.mark.parametrize("alpha,n", [(0.0, 2), (math.pi, 2), (1.0, 0),
                                         (-1.0, 3), (1.0, True), (1.0, 2.5),
                                         (True, 2), ("1.5", 2),
                                         (math.nan, 2), (math.inf, 2)])
    def test_rejects_bad_values(self, alpha, n):
        with pytest.raises(ValueError):
            LensParams(alpha, n)

    @pytest.mark.parametrize("alpha", [np.float64(1.5), np.float32(1.5),
                                       np.int64(1), 1])
    def test_numpy_and_int_alpha_accepted(self, alpha):
        params = LensParams(alpha, 2)
        assert type(params.alpha) is float
        assert params.alpha == float(alpha)

    def test_corners(self):
        cp, cm = HALF.corners
        assert cp == pytest.approx(1j)
        assert cm == pytest.approx(-1j)


class TestArcMatrix:
    def test_k1_is_unit_circle(self):
        for params in (HALF, CURVED, LENS):
            assert equivalent(arc_matrix(params, 1), unit_circle())

    def test_k0_entries(self):
        a, t = CURVED.alpha, CURVED.theta
        m = arc_matrix(CURVED, 0)
        # minus the domain's defining form for the second arc (same circle)
        assert m.a == pytest.approx(-math.sin(a - t))
        assert m.b == pytest.approx(-math.sin(t))
        assert m.c == pytest.approx(math.sin(a + t))
        from lenspot import CircleMatrix
        defining = CircleMatrix(math.sin(a - t), math.sin(t), -math.sin(a + t))
        assert equivalent(m, defining)

    def test_periodicity_exact(self):
        for params in (HALF, CURVED, LENS, LensParams(1.1, 5)):
            for k in range(-3, 2 * params.n + 3):
                m1 = arc_matrix(params, k)
                m2 = arc_matrix(params, k + 2 * params.n)
                assert (m1.a, m1.b, m1.c) == (m2.a, m2.b, m2.c)

    def test_k_2n_equals_k0(self):
        assert equivalent(arc_matrix(CURVED, 2 * CURVED.n), arc_matrix(CURVED, 0))


class TestArcTable:
    # every arc coefficient comes from one table per lens, in which arcs k
    # and k + n, one circle, are exact negatives: formed each on its own
    # they differed by about 1e-13 relative next to alpha = pi

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
    @pytest.mark.parametrize("alpha", TABLE_ALPHAS, ids=TABLE_IDS)
    def test_opposite_arcs_are_exact_negatives(self, alpha, n):
        params = LensParams(math.pi / n if alpha is None else alpha, n)
        for k in range(2 * n):
            m, opposite = arc_matrix(params, k), arc_matrix(params, k + n)
            assert (opposite.a, opposite.b, opposite.c) == (-m.a, -m.b, -m.c)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
    @pytest.mark.parametrize("alpha", TABLE_ALPHAS, ids=TABLE_IDS)
    def test_lens_arcs_are_the_explicit_sines(self, alpha, n):
        self.assert_lens_arcs(LensParams(math.pi / n if alpha is None
                                         else alpha, n))

    @staticmethod
    def assert_lens_arcs(params):
        a, t = params.alpha, params.theta
        c0, c1 = arc_matrix(params, 0), arc_matrix(params, 1)
        assert (c1.a, c1.b, c1.c) == (-math.sin(a), 0.0, math.sin(a))
        assert (c0.a, c0.b, c0.c) == (-math.sin(a - t), -math.sin(t),
                                      math.sin(a + t))

    @pytest.mark.parametrize("params", ACCEPTANCE,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_geometry_equals_the_explicit_expressions(self, params):
        a, t, n = params.alpha, params.theta, params.n
        self.assert_lens_arcs(params)
        xs = np.linspace(-1.1, 1.1, 23)
        z = xs + 1j * xs[:, None]
        zz = np.abs(z) ** 2
        f0, f1 = boundary_forms(params, z)
        assert np.array_equal(f0, zz * math.sin(a - t) + 2.0 * z.real
                              * math.sin(t) - math.sin(a + t))
        assert np.array_equal(f1, zz - 1.0)
        assert neumann_flux(params, "C1") == -2.0 * n
        if n == 1:
            return
        c0 = arcs(params)["C0"]
        if params.is_chord:
            assert c0.half_width == math.sin(a)
        else:
            assert c0.center == complex(-math.sin(t) / math.sin(a - t), 0.0)
            assert c0.radius == math.sin(a) / abs(math.sin(a - t))
        bp = boundary_samples(params, "C0", 9)
        q, _ = normal_coeffs(params, bp)
        assert np.array_equal(q, -(bp.point * math.sin(a - t) + math.sin(t))
                              / math.sin(a))
        assert neumann_flux(params, "C0") == 2.0 * n * math.sin(a - t) / math.sin(a)


class TestOrbit:
    def test_base_identities(self):
        orb = reflection_orbit(CURVED, 0.3)
        assert orb.points[0] == pytest.approx(0.3)
        assert orb.points[1] == pytest.approx(1 / 0.3)

    def test_matches_matrix_reflections(self):
        # oracle: z_{2k+1} reflects z, z_{2k} reflects 1/conj(z), both at arc k+1
        orb = reflection_orbit(HALF, 0.5)
        for k in range(HALF.n):
            mat = arc_matrix(HALF, k + 1)
            odd = reflect_point(mat, 0.5)
            even = reflect_point(mat, HomogeneousPoint(1.0, 0.5))
            assert orb.homogeneous[2 * k + 1].close_to(odd)
            assert orb.homogeneous[2 * k].close_to(even)

    @pytest.mark.parametrize("params", [HALF, CURVED, LENS, LensParams(1.2, 5)])
    def test_matches_matrix_reflections_random(self, params):
        rng = np.random.default_rng(9)
        for z in sample_interior(params, rng, 25):
            orb = reflection_orbit(params, z)
            for k in range(params.n):
                mat = arc_matrix(params, k + 1)
                assert orb.homogeneous[2 * k + 1].close_to(reflect_point(mat, z))
                assert orb.homogeneous[2 * k].close_to(
                    reflect_point(mat, HomogeneousPoint(1.0, np.conj(z))))

    def test_sequential_walk(self):
        # z_{k+1} is z_k reflected at arc k+1, for the whole chain
        params = LensParams(1.2, 4)
        z = complex(sample_interior(params, np.random.default_rng(2), 1)[0])
        orb = reflection_orbit(params, z)
        walked = HomogeneousPoint.of(z)
        for k in range(2 * params.n - 1):
            walked = reflect_point(arc_matrix(params, k + 1), walked)
            assert orb.homogeneous[k + 1].close_to(walked)

    @pytest.mark.parametrize("params", [CURVED, LENS, LensParams(1.2, 5)])
    def test_boundary_coincidences(self, params):
        # odd orbit entries meet the next even one for seeds on the second arc;
        # consecutive pairs collapse for seeds on the unit-circle arc
        n = params.n
        for bp_t in (-0.4, 0.3):
            z = complex(arcs(params)["C0"].point(bp_t * arcs(params)["C0"].half_width))
            hom = reflection_orbit(params, z).homogeneous
            for k in range(n):
                assert hom[2 * k + 1].chordal_distance(
                    hom[(2 * k + 2) % (2 * n)]) < 1e-9
            z = complex(arcs(params)["C1"].point(bp_t * params.alpha))
            hom = reflection_orbit(params, z).homogeneous
            for k in range(n):
                assert hom[2 * k].chordal_distance(hom[2 * k + 1]) < 1e-9

    def test_disc_center_reflects_to_infinity(self):
        orb = reflection_orbit(CURVED, 0.0)
        assert orb.homogeneous[1].is_infinity
        assert math.isinf(abs(orb.points[1]))

    def test_corner_rejected(self):
        with pytest.raises(ValueError):
            reflection_orbit(HALF, 1j)

    def test_exterior_rejected(self):
        with pytest.raises(ValueError):
            reflection_orbit(HALF, 2.0 + 2.0j)


class TestClassify:
    def test_half_disc_cases(self):
        assert classify_point(HALF, 0.5) == "interior"
        assert classify_point(HALF, np.exp(1j * math.pi / 4)) == "boundary_C1"
        assert classify_point(HALF, 1j) == "corner"
        assert classify_point(HALF, 0.3j) == "boundary_C0"
        assert classify_point(HALF, -0.5) == "exterior"
        assert classify_point(HALF, 2.0) == "exterior"

    def test_disc_case(self):
        assert classify_point(DISC, 0.99j) == "interior"
        assert classify_point(DISC, -1.0) == "boundary_C1"
        assert classify_point(DISC, np.exp(0.9j * math.pi)) == "corner"

    def test_curved_case(self):
        # the second arc bulges to x = -2 + sqrt(3); just beyond is outside
        edge = -2 + math.sqrt(3)
        assert classify_point(CURVED, edge - 1e-3) == "exterior"
        assert classify_point(CURVED, edge + 1e-3) == "interior"
        assert classify_point(CURVED, edge) == "boundary_C0"

    @pytest.mark.parametrize("params", [HALF, CURVED, DISC])
    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.3, math.nan),
                                   complex(math.inf, 0.0), complex(0.0, -math.inf)])
    def test_non_finite_is_exterior(self, params, z):
        assert classify_point(params, z) == "exterior"

    @pytest.mark.parametrize("params", [HALF, CURVED, LENS, DISC,
                                        LensParams(math.pi / 3, 3),
                                        LensParams(math.pi / 3, 1),
                                        LensParams(math.pi / 2 + 0.01, 64)])
    def test_array_matches_scalar(self, params):
        rng = np.random.default_rng(0)
        box = rng.uniform(-1.1, 1.1, 400) + 1j * rng.uniform(-1.1, 1.1, 400)
        edge = np.concatenate([boundary_samples(params, arc_id, 50).point
                               for arc_id in arcs(params)])
        # relative noise of 1e-10 moves some samples beyond tol, not all
        near = edge * (1.0 + 1e-10 * rng.standard_normal(edge.size))
        corners = np.array(params.corners)
        z = np.concatenate([box, edge, near, corners, corners + 5e-8,
                            [complex(math.nan, 0.0), complex(math.inf, 1.0),
                             complex(0.3, -math.inf),
                             complex(math.inf, math.nan)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            states = classify_point(params, z.reshape(-1, 4))
            scalar = [classify_point(params, c) for c in z]
        assert all(type(s) is str for s in scalar)
        assert states.shape == (z.size // 4, 4)
        assert states.ravel().tolist() == scalar
        five = {"interior", "boundary_C0", "boundary_C1", "corner", "exterior"}
        assert set(scalar) == five - ({"boundary_C0"} if params.n == 1 else set())


class TestBoundaryParam:
    def test_unit_arc_midpoint(self):
        bp = boundary_point(HALF, "C1", 0.0)
        assert bp.point == pytest.approx(1.0)
        assert bp.arclen == pytest.approx(HALF.alpha)

    def test_chord_midpoint(self):
        bp = boundary_point(HALF, "C0", 0.0)
        assert bp.point == pytest.approx(0.0, abs=1e-15)

    def test_carrier_geometry(self):
        # oracle: center/radius of the circle matrix backing the second arc
        arc = arcs(CURVED)["C0"]
        mat = arc_matrix(CURVED, 0)
        assert arc.center == pytest.approx(mat.center)
        assert arc.radius == pytest.approx(mat.radius)
        assert arc.center == pytest.approx(-2.0)
        assert arc.radius == pytest.approx(math.sqrt(3.0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            boundary_point(HALF, "C1", 2.0)

    def test_empty_arc(self):
        with pytest.raises(ValueError):
            boundary_point(DISC, "C0", 0.0)

    def test_disc_has_one_arc(self):
        assert list(arcs(DISC)) == ["C1"]
        assert list(arcs(HALF)) == ["C0", "C1"]

    def test_arcs_built_once_and_read_only(self):
        # a memoized mapping that a caller could edit would change every
        # later caller's arcs
        arcmap = arcs(CURVED)
        assert arcs(LensParams(2 * math.pi / 3, 2)) is arcmap
        with pytest.raises(TypeError):
            arcmap["C0"] = arcmap["C1"]
        with pytest.raises(TypeError):
            del arcmap["C1"]
        assert list(arcs(CURVED)) == ["C0", "C1"]
        assert arcs(CURVED)["C0"].kind == "circle"

    @pytest.mark.parametrize("call", [
        lambda p, arc_id: boundary_point(p, arc_id, 0.0),
        lambda p, arc_id: boundary_samples(p, arc_id, 4),
        lambda p, arc_id: normal_coeffs(p, BoundaryPoint(arc_id, 0.0, 1.0, 0.0)),
        lambda p, arc_id: KernelField(p).poisson_kernel(
            0.1, BoundaryPoint(arc_id, 0.0, 1.0, 0.0)),
        lambda p, arc_id: KernelField(p).normal_density(
            BoundaryPoint(arc_id, 0.0, 1.0, 0.0)),
    ], ids=["boundary_point", "boundary_samples", "normal_coeffs",
            "poisson_kernel", "normal_density"])
    @pytest.mark.parametrize("params, arc_id", [(DISC, "C0"), (HALF, "C2")],
                             ids=["C0-n1", "C2-n2"])
    def test_missing_arc_rejected(self, call, params, arc_id):
        with pytest.raises(ValueError, match="has no arc"):
            call(params, arc_id)

    @pytest.mark.parametrize("count", [0, -3, 2.5, 4.0, True, "4", None])
    def test_bad_sample_count_rejected(self, count):
        with pytest.raises(ValueError, match="sample count"):
            boundary_samples(HALF, "C1", count)

    @pytest.mark.parametrize("count", [30, 64])
    @pytest.mark.parametrize("alpha, n", [
        (math.pi / 2, 2), (2 * math.pi / 3, 2), (math.pi / 4, 4),
        (math.pi / 3, 3), (0.9 * math.pi, 1), (math.pi / 2, 1)])
    def test_samples_near_a_corner_move_forward(self, alpha, n, count):
        # at the acceptance catalog's sets a sample within 1.5 EPS_CORNER
        # of a corner moves a quarter spacing forward, which clears it: at
        # n = 1 and 30 samples, some land on the marked corners mid-arc
        params = LensParams(alpha, n)
        for arc_id, arc in arcs(params).items():
            spacing = 2.0 * arc.half_width / count
            ts = -arc.half_width + spacing * (np.arange(count) + 0.5)
            near = corner_distance(params, arc.point(ts)) <= 1.5 * EPS_CORNER
            ts[near] += 0.25 * spacing
            assert boundary_samples(params, arc_id, count).t.tolist() == (
                ts.tolist())

    def test_last_sample_moves_back_from_its_corner(self):
        # on the C0 of (0.999 pi, 2), radius 3.1e-3, a quarter spacing
        # forward would take the last of 40000 samples within EPS_CORNER
        # of its corner; 10^5 samples are too dense to clear it either way
        params = LensParams(math.pi * 999 / 1000, 2)
        bp = boundary_samples(params, "C0", 40000)
        assert np.all(np.diff(bp.t) > 0)
        assert corner_distance(params, bp.point).min() > EPS_CORNER
        with pytest.raises(RuntimeError, match="clear of the corners"):
            boundary_samples(params, "C0", 10 ** 5)

    @pytest.mark.parametrize("params", [HALF, CURVED, LENS])
    def test_points_really_on_boundary(self, params):
        for arc_id in ("C0", "C1"):
            bp = boundary_samples(params, arc_id, 20)
            for z in np.atleast_1d(bp.point):
                assert classify_point(params, z) == f"boundary_{arc_id}"

    def test_arc_json(self):
        data = arcs(CURVED)["C0"].to_json()
        assert data["kind"] == "circle"
        assert data["center"][0] == pytest.approx(-2.0)
        data = arcs(HALF)["C0"].to_json()
        assert data["kind"] == "segment"


class TestNormals:
    def test_unit_arc(self):
        bp = boundary_point(CURVED, "C1", 0.3)
        q, qc = normal_coeffs(CURVED, bp)
        assert q == pytest.approx(bp.point)
        assert qc == pytest.approx(np.conj(bp.point))

    def test_chord(self):
        q, _ = normal_coeffs(HALF, boundary_point(HALF, "C0", 0.2))
        assert q == pytest.approx(-1.0)

    @pytest.mark.parametrize("params", [CURVED, LENS])
    def test_curved_arc_unit_outward(self, params):
        bp = boundary_point(params, "C0", 0.23 * arcs(params)["C0"].half_width)
        q, _ = normal_coeffs(params, bp)
        assert abs(q) == pytest.approx(1.0)
        # walking outward leaves the domain, walking inward stays
        assert classify_point(params, bp.point + 1e-4 * q) == "exterior"
        assert classify_point(params, bp.point - 1e-4 * q) == "interior"
        # and the direction is radial for the carrier circle
        arc = arcs(params)["C0"]
        radial = (bp.point - arc.center) / abs(bp.point - arc.center)
        assert min(abs(q - radial), abs(q + radial)) < 1e-12

    def test_corner_rejected(self):
        with pytest.raises(ValueError):
            normal_coeffs(HALF, boundary_point(HALF, "C1", HALF.alpha))


class TestArcLengths:
    def test_half_disc(self):
        l0, l1 = arc_lengths(HALF)
        assert l1 == pytest.approx(math.pi)
        assert l0 == pytest.approx(2.0)  # chord between the corners

    def test_chord_general(self):
        params = LensParams(math.pi / 3, 3)
        assert arc_lengths(params)[0] == pytest.approx(2 * math.sin(math.pi / 3))

    def test_curved(self):
        # radius sqrt(3) times subtended angle 2*(alpha - theta) = pi/3
        l0, l1 = arc_lengths(CURVED)
        assert l0 == pytest.approx(math.sqrt(3.0) * math.pi / 3)
        assert l1 == pytest.approx(2 * CURVED.alpha)

    def test_quadrature_cross_check(self):
        # oracle: numeric arc length from the parametrization speed
        arc = arcs(LENS)["C0"]
        ts = np.linspace(*arc.t_range, 20001)
        pts = arc.point(ts)
        numeric = np.abs(np.diff(pts)).sum()
        assert arc.length == pytest.approx(numeric, rel=1e-7)

    def test_disc_degenerate(self):
        l0, l1 = arc_lengths(DISC)
        assert l0 == 0.0
        assert l1 == pytest.approx(2 * math.pi)


class TestHelpers:
    def test_boundary_distance(self):
        d, arc_id, t = boundary_distance(HALF, 0.9)
        assert arc_id == "C1" and d == pytest.approx(0.1) and t == pytest.approx(0.0)
        d, arc_id, t = boundary_distance(HALF, 0.05 + 0.3j)
        assert arc_id == "C0" and d == pytest.approx(0.05)

    @pytest.mark.parametrize("params", [HALF, CURVED, LENS, DISC,
                                        LensParams(math.pi / 3, 3),
                                        LensParams(math.pi / 3, 1),
                                        LensParams(math.pi / 2 + 0.01, 64)])
    def test_boundary_distance_array_matches_scalar(self, params):
        rng = np.random.default_rng(0)
        box = rng.uniform(-1.1, 1.1, 400) + 1j * rng.uniform(-1.1, 1.1, 400)
        # the n = 1 seam: the unit arc's ends t = -pi and pi meet at -1
        seam = np.array([complex(-1.0 + eps, s * dy)
                         for eps in (0.0, 1e-9, 1e-3)
                         for dy in (0.0, 1e-16, 1e-9, 1e-3) for s in (1, -1)])
        # points on the axis halfway between the arcs' midpoints; where the
        # two distances round equal the first arc wins
        mid0, mid1 = (m.real for m in _axis_crossings(params))
        half = 0.5 * (mid0 + mid1)
        axis = half + np.spacing(half) * np.arange(-50.0, 50.0)
        ties = axis[np.abs(axis - mid0) == np.abs(mid1 - axis)]
        z = np.concatenate([box, seam, axis])
        d, arc_id, t = boundary_distance(params, z.reshape(-1, 2))
        assert d.shape == arc_id.shape == t.shape == (z.size // 2, 2)
        scalar = [boundary_distance(params, c) for c in z]
        assert all(list(map(type, s)) == [float, str, float] for s in scalar)
        assert d.ravel().tolist() == [s[0] for s in scalar]
        assert arc_id.ravel().tolist() == [s[1] for s in scalar]
        assert t.ravel().tolist() == [s[2] for s in scalar]
        if params in (CURVED, LENS):
            # the exact midpoint is representable at these two lenses
            assert ties.size
        if params.n > 1:
            tied = boundary_distance(params, ties + 0j)
            assert tied[1].tolist() == ["C0"] * ties.size
            assert tied[0].tolist() == np.abs(ties - mid1).tolist()
        assert all(a.shape == (0,) for a in boundary_distance(params, z[:0]))

    @pytest.mark.parametrize("params", [HALF, CURVED, LENS, DISC,
                                        LensParams(math.pi / 3, 3),
                                        LensParams(math.pi / 2 + 0.01, 64)])
    def test_arc_feet_rows_are_each_arcs_foot(self, params):
        rng = np.random.default_rng(1)
        z = rng.uniform(-1.1, 1.1, 300) + 1j * rng.uniform(-1.1, 1.1, 300)
        mid0, mid1 = (m.real for m in _axis_crossings(params))
        half = 0.5 * (mid0 + mid1)
        z = np.append(z, half + np.spacing(half) * np.arange(-50.0, 50.0))
        ds, ts = _arc_feet(params, z.reshape(-1, 2))
        assert ds.shape == ts.shape == (len(arcs(params)), z.size // 2, 2)
        ds, ts = (a.reshape(len(arcs(params)), -1) for a in (ds, ts))
        # each row is its arc's nearest point: on the arc, at the distance
        # it reports, and no farther than the nearest of dense samples
        for arc, d, t in zip(arcs(params).values(), ds, ts):
            assert np.all(np.abs(t) <= arc.half_width)
            assert d.tolist() == np.abs(z - arc.point(t)).tolist()
            dense = arc.point(np.linspace(-arc.half_width, arc.half_width,
                                          4001))
            closest = np.abs(z[:, None] - dense).min(1)
            assert np.all(d <= closest + 1e-12)
            assert np.all(closest - d <= arc.length / 4000)
        # boundary_distance reads its nearest arc's row, the first on a tie
        d, arc_id, t = boundary_distance(params, z)
        nearest = [list(arcs(params)).index(a) for a in arc_id.tolist()]
        assert d.tolist() == ds[nearest, np.arange(z.size)].tolist()
        assert t.tolist() == ts[nearest, np.arange(z.size)].tolist()
        tied = np.flatnonzero(ds[0] == ds[-1])
        assert set(np.asarray(nearest)[tied].tolist()) <= {0}
        if params in (CURVED, LENS):
            # the axis points hold exact ties at these two lenses
            assert tied.size

    def test_sample_interior_measures_each_block_once(self, monkeypatch):
        # one boundary_distance call per block drawn, an empty one for a
        # block with no interior candidate
        params = LensParams(0.3, 128)
        sizes, blocks = [], []
        measure, classify = boundary_distance, classify_point

        def spy_distance(params, z):
            sizes.append(np.shape(z))
            return measure(params, z)

        def spy_classify(params, z):
            blocks.append(np.shape(z))
            return classify(params, z)

        monkeypatch.setattr("lenspot.domain.boundary_distance", spy_distance)
        monkeypatch.setattr("lenspot.domain.classify_point", spy_classify)
        points = sample_interior(params, np.random.default_rng(1), 20)
        monkeypatch.undo()
        assert len(sizes) == len(blocks) and (0,) in sizes
        rng = np.random.default_rng(1)
        assert points.tolist() == _one_at_a_time(params, rng, 20, 1e-3)

    def test_sample_interior_margin(self):
        rng = np.random.default_rng(0)
        for z in sample_interior(CURVED, rng, 30, margin=0.05):
            assert classify_point(CURVED, z) == "interior"
            assert boundary_distance(CURVED, z)[0] >= 0.05

    @pytest.mark.parametrize("params",
                             [CURVED, DISC, LensParams(math.pi / 2, 8)])
    @pytest.mark.parametrize("count, margin",
                             [(1, 1e-3), (30, 1e-3), (7, 0.08)])
    def test_sample_interior_draws_one_candidate_at_a_time(self, params,
                                                           count, margin):
        # the definition: draw x, then y, keep the point if it clears the
        # margin; the blocks must give the same points and leave the
        # generator where this loop does
        rng = np.random.default_rng(count)
        expected = _one_at_a_time(params, rng, count, margin)
        after = rng.bit_generator.state
        rng = np.random.default_rng(count)
        assert sample_interior(params, rng, count, margin).tolist() == expected
        assert rng.bit_generator.state == after

    def test_sample_interior_gives_up_after_its_draw_budget(self):
        # one point needs 200000 draws to fail; margin 0.49998 of the lens
        # width on the axis leaves no room at this set
        params = LensParams(0.6 * math.pi, 64)
        mid0, mid1 = _axis_crossings(params)
        rng = np.random.default_rng(5)
        with pytest.raises(RuntimeError, match="did not converge"):
            sample_interior(params, rng, 1, margin=0.49998 * abs(mid1 - mid0))
        reference = np.random.default_rng(5)
        reference.random(2 * 200000)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_sample_interior_fails_fast(self):
        # margin 0.05 is more than half the width of this thin lens
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="did not converge"):
            sample_interior(LensParams(3 * math.pi / 5, 64), rng, 5,
                            margin=0.05)
        assert rng.bit_generator.state == state


def _one_at_a_time(params, rng, count, margin):
    """sample_interior's definition: draw x, then y, and keep the point if
    it is interior and clears the margin."""
    (x_lo, x_hi), (y_lo, y_hi) = _bounding_box(params)
    expected = []
    while len(expected) < count:
        z = complex(rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))
        if (classify_point(params, z) == "interior"
                and boundary_distance(params, z)[0] >= margin):
            expected.append(z)
    return expected
