import cmath
import json
import math

import numpy as np
import pytest

from lenspot import (KernelField, LensParams, QuadratureSpec, arc_lengths,
                     area_mesh, arcs, boundary_distance, boundary_mesh,
                     convergence_report, integrate_area, integrate_boundary,
                     load_problem, sample_interior)
from lenspot.domain import corner_distance
from lenspot.quadrature import _split
from lenspot.validation import analytic_area

HALF = LensParams(math.pi / 2, 2)
CURVED = LensParams(2 * math.pi / 3, 2)
LENS = LensParams(math.pi / 4, 4)
DISC = LensParams(0.9 * math.pi, 1)
CASES = [HALF, CURVED, LENS, LensParams(math.pi / 3, 3), DISC]
# the (alpha, n) sets of the benchmark
BENCH = [HALF, LensParams(math.pi / 3, 3), LensParams(math.pi / 2, 8),
         LensParams(math.pi / 2 + 0.01, 64)]


def near_boundary_points(params, depth=1e-3):
    """One point about depth inside each arc's midpoint, toward the other."""
    mids = [complex(arc.point(0.0)) for arc in arcs(params).values()]
    if len(mids) == 1:
        return [(1.0 - depth) * mids[0]]
    a, b = mids
    step = depth * (b - a) / abs(b - a)
    return [a + step, b - step]


class TestSpec:
    def test_defaults_valid(self):
        QuadratureSpec()

    @pytest.mark.parametrize("kwargs", [dict(gauss_order=0),
                                        dict(boundary_panels=0),
                                        dict(area_angular=0),
                                        dict(gauss_order=1.5),
                                        dict(boundary_panels=16.0),
                                        dict(area_radial=True),
                                        dict(area_angular="8"),
                                        dict(area_radial=math.nan),
                                        dict(gauss_order="8"),
                                        # over the 1e7 node budget
                                        dict(gauss_order=1000000),
                                        dict(boundary_panels=1000000000)])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_numpy_integers_accepted(self):
        assert QuadratureSpec(gauss_order=np.int64(5)).gauss_order == 5

    def test_json_roundtrip(self):
        spec = QuadratureSpec(gauss_order=5, boundary_panels=7)
        section = json.loads(json.dumps(vars(spec)))
        problem = load_problem({"alpha": math.pi / 2, "n": 2,
                                "gamma": {"kind": "re"}, "points": [[0.4, 0.1]],
                                "quadrature": section})
        assert problem.spec == spec

    def test_partial_json_uses_defaults(self):
        spec = QuadratureSpec(**json.loads('{"gauss_order": 3}'))
        assert spec.gauss_order == 3
        assert spec.boundary_panels == QuadratureSpec().boundary_panels

    def test_refined_doubles_panels(self):
        spec = QuadratureSpec().refined()
        assert spec.boundary_panels == 2 * QuadratureSpec().boundary_panels
        assert spec.gauss_order == QuadratureSpec().gauss_order


class TestBoundary:
    @pytest.mark.parametrize("params", CASES)
    def test_unit_weight_gives_length(self, params):
        total = integrate_boundary(QuadratureSpec(), params, lambda bp: 1.0)
        assert total == pytest.approx(sum(arc_lengths(params)), abs=1e-10)

    def test_half_disc_length_value(self):
        # chord of length 2 plus half the unit circle
        total = integrate_boundary(QuadratureSpec(), HALF, lambda bp: 1.0)
        assert total == pytest.approx(2.0 + math.pi, abs=1e-10)

    @pytest.mark.parametrize("params", CASES)
    def test_density_mass(self, params):
        fld = KernelField(params)
        total = integrate_boundary(QuadratureSpec(), params,
                                   lambda bp: fld.normal_density(bp))
        assert -total / (4 * math.pi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", CASES)
    def test_poisson_mass(self, params):
        fld = KernelField(params)
        z = complex(sample_interior(params, np.random.default_rng(1), 1,
                                    margin=0.1)[0])
        total = integrate_boundary(QuadratureSpec(), params,
                                   lambda bp: fld.poisson_kernel(z, bp))
        assert total == pytest.approx(2 * math.pi, abs=1e-6)

    # near alpha = pi the corner grading would end inside EPS_CORNER
    @pytest.mark.parametrize("params", CASES + [LensParams(0.999 * math.pi, 2)])
    def test_nodes_clear_of_corners(self, params):
        for bp, w in boundary_mesh(QuadratureSpec(), params):
            assert len(np.atleast_1d(bp.t)) == len(np.atleast_1d(w))
            assert corner_distance(params, bp.point).min() > 1e-7

    def test_refine_near_inserts_panels(self):
        spec = QuadratureSpec()

        def nodes(near):
            return sum(np.size(bp.t)
                       for bp, _ in boundary_mesh(spec, HALF, near=near))

        # 2e-3 inside the unit arc, and a point far from the boundary
        assert nodes(0.998 * cmath.exp(0.2j)) > nodes(None)
        assert nodes(0.5) == nodes(None)

    def test_complex_integrand(self):
        total = integrate_boundary(QuadratureSpec(), HALF, lambda bp: bp.point)
        # centroid of the half-disc boundary times its length; sanity: finite
        assert isinstance(total, complex)
        assert abs(total.imag) < 1e-12  # symmetric domain


class TestArea:
    @pytest.mark.parametrize("params", CASES)
    def test_unit_weight_gives_area(self, params):
        area = integrate_area(QuadratureSpec(), params, lambda z: 1.0)
        assert area == pytest.approx(analytic_area(params), abs=1e-8)

    def test_half_disc_value(self):
        area = integrate_area(QuadratureSpec(), HALF, lambda z: 1.0)
        assert area == pytest.approx(math.pi / 2, abs=1e-8)

    def test_chord_lens_segment_area(self):
        params = LensParams(math.pi / 3, 3)
        a = params.alpha
        area = integrate_area(QuadratureSpec(), params, lambda z: 1.0)
        assert area == pytest.approx(a - math.sin(a) * math.cos(a), abs=1e-8)

    def test_disc_area(self):
        area = integrate_area(QuadratureSpec(), DISC, lambda z: 1.0)
        assert area == pytest.approx(math.pi, abs=1e-8)

    def test_smooth_moment(self):
        # int |z|^2 over the unit disc = pi/2, via the degenerate n = 1 domain
        area = integrate_area(QuadratureSpec(), DISC,
                              lambda z: np.abs(z) ** 2)
        assert area == pytest.approx(math.pi / 2, abs=1e-8)

    @pytest.mark.parametrize("params", [HALF, CURVED, LENS])
    def test_singular_self_convergence(self, params):
        fld = KernelField(params)
        z0 = complex(sample_interior(params, np.random.default_rng(2), 1,
                                     margin=0.05)[0])
        spec = QuadratureSpec()
        v1 = integrate_area(spec, params, lambda w: fld.green(z0, w),
                            singular_at=z0)
        v2 = integrate_area(spec.refined(), params, lambda w: fld.green(z0, w),
                            singular_at=z0)
        assert math.isfinite(v1)
        assert abs(v1 - v2) < 1e-6

    def test_singular_log_exact_value(self):
        # over the unit disc (the n = 1 domain): the circle average of
        # log|z - z0| at radius r is log(max(r, |z0|)), so the 2-d integral
        # collapses to a 1-d radial integral that a dense trapezoid rule
        # evaluates independently of the strip machinery
        z0 = 0.35 + 0.2j
        val = integrate_area(QuadratureSpec(), DISC,
                             lambda z: np.log(np.abs(z - z0) ** 2),
                             singular_at=z0)
        rr = np.linspace(0, 1, 200001)[1:]
        oracle = 2 * math.pi * float(
            np.trapezoid(rr * 2 * np.log(np.maximum(rr, abs(z0))), rr))
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_boundary_singular_point_rejected(self):
        with pytest.raises(ValueError):
            integrate_area(QuadratureSpec(), HALF, lambda z: 1.0,
                           singular_at=1.0 + 0.0j)


class TestSplit:
    """_split, the one grading rule behind the boundary and area meshes."""

    @staticmethod
    def _edges(rng, count):
        return np.cumsum(rng.uniform(0.05, 1.0, count + 1)) - 1.0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_leaves_tile_boxes_within_allowance(self, dim, seed):
        rng = np.random.default_rng(seed)
        # abutting panels in 1-d, a tensor grid of cells in 2-d
        grids = np.meshgrid(*(self._edges(rng, 4) for _ in range(dim)),
                            indexing="ij")
        cut = (slice(None, -1),) * dim
        lo = np.stack([g[cut].ravel() for g in grids])
        hi = np.stack([g[tuple(slice(1, None) for _ in range(dim))].ravel()
                       for g in grids])
        attractors = [(rng.uniform(-1.5, 3.0, dim), rng.uniform(5e-3, 0.1, dim))
                      for _ in range(rng.integers(1, 4))]
        leaf_lo, leaf_hi = _split(lo, hi, attractors)
        width = leaf_hi - leaf_lo
        assert np.all(width > 0)

        allowance = np.full(leaf_lo.shape, np.inf)
        for point, floor in attractors:
            gap = np.maximum(np.maximum(leaf_lo - point[:, None],
                                        point[:, None] - leaf_hi), 0.0)
            d = np.sqrt((gap ** 2).sum(axis=0))
            allowance = np.minimum(allowance,
                                   np.maximum(floor[:, None], 0.7 * d))
        assert np.all(width <= allowance * (1 + 1e-12))

        for box_lo, box_hi in zip(lo.T, hi.T):
            inside = (np.all(leaf_lo >= box_lo[:, None], axis=0)
                      & np.all(leaf_hi <= box_hi[:, None], axis=0))
            a, b = leaf_lo[:, inside], leaf_hi[:, inside]
            if dim == 1:
                order = np.argsort(a[0])
                assert a[0, order[0]] == box_lo[0]
                assert b[0, order[-1]] == box_hi[0]
                assert np.array_equal(a[0, order[1:]], b[0, order[:-1]])
            else:
                overlap = np.all(np.maximum(a[:, :, None], a[:, None])
                                 < np.minimum(b[:, :, None], b[:, None]),
                                 axis=0)
                assert np.array_equal(overlap, np.eye(a.shape[1], dtype=bool))
                assert np.prod(b - a, axis=0).sum() == pytest.approx(
                    np.prod(box_hi - box_lo), rel=1e-12)
        # every leaf lies in some box
        assert sum(np.sum(np.all(leaf_lo >= bl[:, None], axis=0)
                          & np.all(leaf_hi <= bh[:, None], axis=0))
                   for bl, bh in zip(lo.T, hi.T)) == leaf_lo.shape[1]


class TestLocalMesh:
    """area_mesh(singular_at=z) splits only the cells near the image of z."""

    @pytest.mark.parametrize("params", CASES + BENCH[2:])
    def test_cells_tile_the_strip(self, params):
        points = list(sample_interior(params, np.random.default_rng(3), 3,
                                      margin=1e-3))
        for z0 in points + near_boundary_points(params):
            area = integrate_area(QuadratureSpec(), params, lambda z: 1.0,
                                  singular_at=z0)
            assert area == pytest.approx(analytic_area(params), abs=1e-12)

    @pytest.mark.parametrize("params", BENCH)
    def test_node_count_stays_local(self, params):
        plain = area_mesh(QuadratureSpec(), params)[0].size
        points = list(sample_interior(params, np.random.default_rng(4), 4,
                                      margin=1e-3))
        for z0 in points + near_boundary_points(params):
            nodes, weights, _ = area_mesh(QuadratureSpec(), params,
                                          singular_at=z0)
            assert nodes.size == weights.size
            assert plain < nodes.size < 150_000

    @pytest.mark.parametrize("params", BENCH)
    def test_near_boundary_matches_refined(self, params):
        fld = KernelField(params)
        spec = QuadratureSpec()
        points = list(sample_interior(params, np.random.default_rng(5), 2,
                                      margin=1e-3))
        for z0 in points + near_boundary_points(params):
            assert boundary_distance(params, z0)[0] >= 0.9e-3
            v1 = integrate_area(spec, params, lambda w: fld.green(z0, w),
                                singular_at=z0)
            v2 = integrate_area(spec.refined(), params,
                                lambda w: fld.green(z0, w), singular_at=z0)
            assert abs(v1 - v2) < 1e-6


class TestConvergence:
    def test_report_shape(self):
        rows = convergence_report(QuadratureSpec(gauss_order=3,
                                                 boundary_panels=2),
                                  HALF, lambda bp: np.exp(np.real(bp.point)),
                                  refinements=2)
        assert len(rows) == 3
        assert rows[0]["est_order"] is None
        assert rows[2]["est_order"] is not None

    def test_area_order_at_least_four(self):
        base = QuadratureSpec(gauss_order=3, area_radial=3, area_angular=2)
        rows = convergence_report(base, CURVED,
                                  lambda z: np.exp(np.real(z)),
                                  refinements=3, kind="area")
        orders = [r["est_order"] for r in rows if r["est_order"] is not None]
        assert max(orders) >= 4.0

    def test_spectral_order_doubling(self):
        weight = lambda bp: np.exp(2 * np.real(bp.point))  # noqa: E731
        exact = integrate_boundary(QuadratureSpec(), CURVED, weight)
        e1 = abs(integrate_boundary(QuadratureSpec(gauss_order=3,
                                                   boundary_panels=4),
                                    CURVED, weight) - exact)
        e2 = abs(integrate_boundary(QuadratureSpec(gauss_order=6,
                                                   boundary_panels=4),
                                    CURVED, weight) - exact)
        assert e1 / e2 >= 1e4

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(QuadratureSpec(), HALF, lambda bp: 1.0,
                               kind="volume")

    def test_deterministic(self):
        spec = QuadratureSpec()
        fld = KernelField(CURVED)
        z0 = 0.4 + 0.1j
        v1 = integrate_area(spec, CURVED, lambda w: fld.green(z0, w),
                            singular_at=z0)
        v2 = integrate_area(spec, CURVED, lambda w: fld.green(z0, w),
                            singular_at=z0)
        assert v1 == v2
