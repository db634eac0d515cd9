import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lenspot.quadrature
from lenspot import (KernelField, LensParams, QuadratureSpec, SectorMap,
                     arc_lengths, area_mesh, arcs, boundary_distance,
                     boundary_mesh, boundary_point, classify_point,
                     convergence_report, integrate_area, integrate_boundary,
                     load_problem, normal_coeffs, sample_interior,
                     sector_map, solve_dirichlet, solve_neumann)
from lenspot.domain import EPS_CORNER, _axis_crossings, corner_distance
from lenspot.quadrature import (_exact_sum, _exact_weighted_sum, _gauss,
                                _gauss_nodes, _boundary_patches,
                                _graded_edges, _integrate_area, _plain_area,
                                _plain_boundary, _plain_edges, _shrink,
                                _split)
from lenspot.solvers import BoundaryData, SourceTerm, normal_derivative_data
from lenspot.validation import analytic_area, run_checks

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

    @pytest.mark.parametrize("panels", [1, 2, 3, 16])
    @pytest.mark.parametrize("params", CASES)
    def test_plain_panels_have_positive_width(self, params, panels):
        # with one panel both ends' first corner level is the middle edge
        for _, edges, (bp, w) in _plain_boundary(
                QuadratureSpec(boundary_panels=panels), params):
            assert np.all(np.diff(edges) > 0.0)
            assert np.all(w > 0.0)

    def test_complex_integrand(self):
        total = integrate_boundary(QuadratureSpec(), HALF, lambda bp: bp.point)
        # centroid of the half-disc boundary times its length; sanity: finite
        assert isinstance(total, complex)
        assert abs(total.imag) < 1e-12  # symmetric domain

    def test_non_finite_integrand_raises(self):
        def f(bp):
            return np.where(bp.t > 0.0, np.nan, 1.0)

        with pytest.raises(ValueError, match="not finite"):
            integrate_boundary(QuadratureSpec(), HALF, f)


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

    @pytest.mark.parametrize("params", [CURVED, LensParams(0.3, 1), DISC],
                             ids=["2pi/3-2", "0.3-1", "0.9pi-1"])
    def test_refined_mesh_grades_toward_the_jacobian_poles(self, params):
        # divergence theorem for w_p = Re(z^4 conj(z)) / 4, whose w_{z conj(z)}
        # is Re z^3: 4 int Re z^3 dA equals the flux of w_p, which the
        # boundary rule takes to rounding.  The default mesh is off by
        # about 3e-10, and a refined spec refines next to the poles too
        spec = QuadratureSpec().refined()
        area = 4.0 * integrate_area(spec, params, lambda z: (z ** 3).real)
        flux = integrate_boundary(spec, params, normal_derivative_data(
            params, lambda z: 0.5 * z ** 3 * np.conj(z) + np.conj(z) ** 4 / 8))
        assert abs(area - flux) < 1e-12

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

    @pytest.mark.parametrize("alpha", [0.3, 0.9 * math.pi],
                             ids=["0.3", "0.9pi"])
    def test_singular_green_exact_on_disc(self, alpha):
        # on the unit disc (n = 1) w = 1 - |z|^2 solves w_{z conj(z)} = -1
        # with zero boundary values, so int G(z, .) dA = pi (1 - |z|^2)
        params = LensParams(alpha, 1)
        fld = KernelField(params)
        for r in (0.0, 0.3, 0.9, 0.99, 0.999, 0.9999):
            for angle in (0.4, 2.0, 4.5):
                z = r * cmath.exp(1j * angle)
                val = integrate_area(QuadratureSpec(), params,
                                     lambda w: fld.green(z, w), singular_at=z)
                assert abs(val - math.pi * (1.0 - r * r)) < 1e-11

    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.6, 0.9, 0.99, 0.999])
    def test_singular_log_closed_form(self, radius):
        # on the unit disc int log|z - z0|^2 dA = pi (|z0|^2 - 1) and
        # int G(z0, .) dA = pi (1 - |z0|^2); at alpha = pi/2 no Jacobian
        # pole comes near the strip, so this pins the Duffy star's own error
        params = LensParams(math.pi / 2, 1)
        fld = KernelField(params)
        for angle in (0.4, 2.0, 4.5):
            z0 = radius * cmath.exp(1j * angle)
            log = integrate_area(QuadratureSpec(), params,
                                 lambda z: np.log(np.abs(z - z0) ** 2),
                                 singular_at=z0)
            green = integrate_area(QuadratureSpec(), params,
                                   lambda w: fld.green(z0, w), singular_at=z0)
            assert abs(log - math.pi * (radius ** 2 - 1.0)) < 2e-13
            assert abs(green - math.pi * (1.0 - radius ** 2)) < 2e-13

    def test_star_clear_of_jacobian_pole(self):
        # at alpha = 0.97 pi the Jacobian's pole is 0.03 pi above the strip,
        # and the star's size is bounded by it as well as by the mirror
        # images; without that bound the gap reaches 1.7e-13
        params = LensParams(0.97 * math.pi, 1)
        fld = KernelField(params)
        for radius in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999):
            for angle in (0.4, 2.0, 4.5):
                z0 = radius * cmath.exp(1j * angle)
                green = integrate_area(QuadratureSpec(), params,
                                       lambda w: fld.green(z0, w),
                                       singular_at=z0)
                assert abs(green - math.pi * (1.0 - radius ** 2)) < 1.2e-13

    def test_boundary_singular_point_rejected(self):
        with pytest.raises(ValueError):
            integrate_area(QuadratureSpec(), HALF, lambda z: 1.0,
                           singular_at=1.0 + 0.0j)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_integrand_raises(self, value):
        def f(z):
            return np.where(z.real > 0.0, value, 1.0)

        for singular_at in (None, 0.3 + 0.2j):
            with pytest.raises(ValueError, match="not finite"):
                integrate_area(QuadratureSpec(), HALF, f,
                               singular_at=singular_at)


# magnitudes from the subnormals up to 1e300, so no sum of 40k overflows
_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _large_sums(draw, max_size=40_000):
    """Seeded arrays of up to max_size values: log-uniform magnitudes over
    a drawn span of decimal exponents (-323 reaches the subnormals), random
    signs, and a drawn share of the values cancelled by negated copies
    perturbed in their last bits or not at all, in shuffled order."""
    # half of the draws near max_size: plain integers favour small sizes
    n = draw(st.integers(0, max_size) | st.integers(3 * max_size // 4,
                                                    max_size))
    lo = draw(st.integers(-323, 300))
    hi = draw(st.integers(lo, 300))
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    wobble = draw(st.sampled_from([0.0, 1e-15, 1e-9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
    k = int(share * n) // 2
    x[n - k:] = -x[:k] * (1.0 + wobble * rng.standard_normal(k))
    return rng.permutation(x)


class TestExactSum:
    """_exact_sum is math.fsum's correctly rounded sum, bit for bit."""

    @staticmethod
    def check(x):
        expected = math.fsum(np.ravel(x).tolist())
        got = _exact_sum(x)
        assert isinstance(got, float)
        assert got.hex() == expected.hex()

    @settings(deadline=None)
    @given(hnp.arrays(float, st.integers(0, 300), elements=_FINITE),
           st.booleans())
    def test_drawn_values(self, x, cancel):
        if cancel:
            # the negated copies leave only the tail's own sum
            x = np.concatenate([x, -x[: x.size // 2]])
        self.check(x)

    @settings(deadline=None, max_examples=60)
    @given(_large_sums())
    def test_large_arrays(self, x):
        self.check(x)

    @settings(deadline=None, max_examples=40)
    @given(_large_sums(max_size=5000), _large_sums(max_size=5000))
    def test_strided_views(self, x, y):
        n = min(x.size, y.size)
        c = x[:n] + 1j * y[:n]
        for view in (c.real, c.imag, x[::3], x[::-1],
                     np.resize(x, (2, x.size)).T):
            self.check(view)
            assert _exact_sum(view) == _exact_sum(view.copy())

    @pytest.mark.parametrize("x", [
        # four tiers that cancel down to the smallest: a fixed number of
        # extraction passes leaves the wrong sign
        [1e300, 1e150, 1.0, 1e-150, -1e300, -1e150, -1.0],
        # the partials end on a tie, 1 + 2^-53, and 2^-170 breaks it
        # upward; a sum of the remainder that loses it against +-d rounds
        # the tie to even, down to 1
        [1.0, 2.0 ** -53, 1.2345 * 2.0 ** -104, 2.0 ** -170,
         -1.2345 * 2.0 ** -104],
        [], [-0.0], [0.0, -0.0], [5e-324] * 7, [5e-324, -1e-310, 1e-310],
        [2.0 ** 1000] * 40_000,
    ], ids=["tiers", "tie", "empty", "minus-zero", "zeros", "subnormal",
            "subnormal-cancel", "large"])
    def test_pinned(self, x):
        self.check(np.array(x, dtype=float))

    @pytest.mark.parametrize("x", [[1.0, math.inf], [math.nan, 1.0],
                                   [-math.inf, math.inf], [math.inf]])
    def test_non_finite_raises(self, x):
        with pytest.raises(ValueError, match="not finite"):
            _exact_sum(np.array(x))

    def test_overflow_raises(self):
        # fsum raises here too: its running sum overflows
        for x in ([1e308, 1e308, -1e308], [1.7e308]):
            with pytest.raises(OverflowError):
                _exact_sum(np.array(x))


class TestSplit:
    """_split, the one grading rule behind the boundary and area meshes."""

    @staticmethod
    def _boxes(seed, dim):
        """Abutting panels in 1-d, a tensor grid of cells in 2-d, and one to
        three attractors: (lo, hi, attractors)."""
        rng = np.random.default_rng(seed)
        grids = np.meshgrid(*(np.cumsum(rng.uniform(0.05, 1.0, 5)) - 1.0
                              for _ in range(dim)), indexing="ij")
        cut = (slice(None, -1),) * dim
        lo = np.stack([g[cut].ravel() for g in grids])
        hi = np.stack([g[tuple(slice(1, None) for _ in range(dim))].ravel()
                       for g in grids])
        attractors = [(rng.uniform(-1.5, 3.0, dim), rng.uniform(5e-3, 0.1, dim))
                      for _ in range(rng.integers(1, 4))]
        return lo, hi, attractors

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_leaves_tile_boxes_within_allowance(self, dim, seed):
        lo, hi, attractors = self._boxes(seed, dim)
        leaf_lo, leaf_hi, box = _split(lo, hi, attractors)
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
        # every leaf lies in some box, the one it names
        assert sum(np.sum(np.all(leaf_lo >= bl[:, None], axis=0)
                          & np.all(leaf_hi <= bh[:, None], axis=0))
                   for bl, bh in zip(lo.T, hi.T)) == leaf_lo.shape[1]
        assert np.all(leaf_lo >= lo[:, box]) and np.all(leaf_hi <= hi[:, box])

    # floors scaled by 1e-4 grade deep, where most leaves sit next to the
    # rule's threshold
    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    @pytest.mark.parametrize("seed", range(6))
    def test_graded_edges_are_split_leaves(self, seed, scale):
        # the scalar 1-d bisection gives _split's leaves bit for bit
        lo, hi, attractors = self._boxes(seed, 1)
        attractors = [(p, f * scale) for p, f in attractors]
        edges = np.append(lo[0], hi[0, -1])
        leaf_lo, *_ = _split(lo, hi, attractors)
        graded = _graded_edges(edges, [(p[0], f[0]) for p, f in attractors],
                               min_width=0.0)
        assert np.array_equal(graded, np.append(np.sort(leaf_lo[0]), edges[-1]))
        assert len(graded) > len(edges)


class TestPlainEdges:
    """_plain_edges, the one builder of a plain arc's panel edges."""

    def test_one_panel_on_a_symmetric_range(self):
        # both ends' first corner level is the middle edge, 0, taken once
        left = [-1.0 + 2.0 ** -k for k in range(7, -1, -1)]
        expected = [-1.0] + left + [-e for e in left[-2::-1]] + [1.0]
        assert _plain_edges(-1.0, 1.0, 1, 0.0).tolist() == expected
        assert _plain_edges(-1.0, 1.0, 1, 0.1).tolist() == [
            -1.0, -0.875, -0.75, -0.5, 0.0, 0.5, 0.75, 0.875, 1.0]
        assert _plain_edges(-1.0, 1.0, 1, math.inf).tolist() == [-1.0, 1.0]

    def test_marks_of_the_disc(self):
        # uniform edges with the marks inserted; marks at or beyond the ends
        # are left out
        assert _plain_edges(-4.0, 4.0, 4, math.inf,
                            (3.0, -3.0, 4.0, -5.0)).tolist() == [
            -4.0, -3.0, -2.0, 0.0, 2.0, 3.0, 4.0]
        (_, edges, _), = _plain_boundary(QuadratureSpec(), DISC)
        assert np.array_equal(edges, np.sort(np.append(
            np.linspace(-math.pi, math.pi, 17), [-DISC.alpha, DISC.alpha])))

    @pytest.mark.parametrize("offset", [4e-13, -4e-13, 7.9e-13])
    def test_mark_next_to_an_edge_leaves_no_degenerate_panel(self, offset):
        # within 1e-13 of the range (8e-13) of the edge 2: one of the two
        # goes, and the panels keep their widths
        edges = _plain_edges(-4.0, 4.0, 4, math.inf, (2.0 + offset,))
        assert edges.size == 5
        assert edges[:3].tolist() == [-4.0, -2.0, 0.0] and edges[4] == 4.0
        assert abs(edges[3] - 2.0) <= 8e-13
        assert np.diff(edges).min() > 1.0
        # next to the end, the mark is not an edge at all
        assert _plain_edges(-4.0, 4.0, 4, math.inf,
                            (4.0 - 4e-13,)).tolist() == [
            -4.0, -2.0, 0.0, 2.0, 4.0]

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-10.0, 10.0), width=st.floats(1e-6, 20.0),
           panels=st.integers(1, 64),
           corner=st.sampled_from([0.0, 1e-4, 0.05, math.inf]),
           fractions=st.lists(st.floats(-0.2, 1.2), max_size=4))
    def test_edges_increase_from_lo_to_hi_through_the_marks(
            self, lo, width, panels, corner, fractions):
        hi = lo + width
        marks = [lo + f * (hi - lo) for f in fractions]
        edges = _plain_edges(lo, hi, panels, corner, marks)
        assert edges[0] == lo and edges[-1] == hi
        assert np.all(np.diff(edges) > 0.0)
        tol = 1e-13 * (hi - lo)
        uniform = np.linspace(lo, hi, panels + 1)
        levels = (uniform[1] - lo) * 0.5 ** np.arange(1, 9)
        others = np.concatenate([uniform, lo + levels, hi - levels, marks])
        for m in marks:
            if not lo + 1e-12 < m < hi - 1e-12:
                continue
            if np.sum(np.abs(others - m) <= 2.0 * tol) > 1:
                # a near-duplicate: an edge stands for it
                assert np.abs(edges - m).min() <= 2.0 * tol
            else:
                assert m in edges


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
            # the Duffy star stops the grading at R, about 0.45 times the
            # distance to an edge
            assert nodes.size <= 42_000

    def test_singular_point_beyond_strip_cut(self):
        # an interior point closer than 1.5 * EPS_CORNER to a corner maps
        # past the strip's cut, where nothing is meshed or split
        smap = SectorMap(HALF)
        X = -math.log(1.5 * EPS_CORNER / (2.0 * math.sin(HALF.alpha)))
        z0 = complex(smap.pullback(X + 0.1, -HALF.theta / 2)[0])
        assert classify_point(HALF, z0) == "interior"
        nodes, weights, blocks = area_mesh(QuadratureSpec(), HALF,
                                           singular_at=z0)
        plain, plain_weights, _ = area_mesh(QuadratureSpec(), HALF)
        assert len(blocks) == 1
        assert np.array_equal(nodes, plain)
        assert np.array_equal(weights, plain_weights)

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


def singular_sum(spec, params, f, strip, z):
    """The area integral of f * strip(z, .) as one exact sum over z's own
    area_mesh(singular_at=z), the strip kernel of one point taken block by
    block: the reference of the solvers' area evaluator, which multiplies
    the kernel by f * weight."""
    nodes, weights, blocks = area_mesh(spec, params, singular_at=z)
    kernel = np.concatenate([strip(z, x, y).ravel() for x, y in blocks])
    with np.errstate(invalid="ignore"):
        data = np.asarray(f(nodes)) * weights
    return _exact_weighted_sum(data, kernel)


def area_kernels(params):
    """(strip kernel, source) for G and for N, one real and one complex
    source."""
    smap = sector_map(params)
    return [(smap.strip_green, lambda z: np.real(z ** 2)),
            (smap.strip_neumann, np.exp)]


def record_chunks(monkeypatch):
    """A list that _kernel_rows, the chunk loop of quadrature._integrate,
    appends (chunk points, kernel values' size, budget) to per chunk."""
    chunks = []
    kernel_rows = lenspot.quadrature._kernel_rows

    def recording(kernel, points, nodes):
        for chunk, sides, values in kernel_rows(kernel, points, nodes):
            chunks.append((list(chunk), values.size,
                           lenspot.quadrature._PAIR_BUDGET))
            yield chunk, sides, values

    monkeypatch.setattr(lenspot.quadrature, "_kernel_rows", recording)
    return chunks


class TestAreaEvaluator:
    """_integrate_area, the solvers' area evaluator, gives each point the
    exact sum over the nodes of its own area_mesh(singular_at=z), bit for
    bit, however the points of a call are chunked."""

    # the six acceptance sets and the thinnest benchmark set
    SETS = [HALF, CURVED, LENS, LensParams(math.pi / 3, 3), DISC,
            LensParams(math.pi / 2, 1), LensParams(math.pi / 2 + 0.01, 64)]
    SPECS = [QuadratureSpec(), QuadratureSpec().refined(),
             QuadratureSpec(gauss_order=5)]

    @pytest.mark.parametrize("spec", SPECS,
                             ids=["default", "refined", "order5"])
    @pytest.mark.parametrize("params", SETS,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_equals_singular_mesh(self, params, spec):
        rng = np.random.default_rng(51)
        # each margin at most a quarter of the lens's width on the real
        # axis, 0.048 at n = 64
        width = abs(np.subtract(*_axis_crossings(params)))
        points = [complex(z) for margin in (1e-3, 1e-2, 0.05)
                  for z in sample_interior(params, rng, 2,
                                           margin=min(margin, 0.25 * width))]
        for strip, f in area_kernels(params):
            assert _integrate_area(spec, params, f, strip, points) == [
                singular_sum(spec, params, f, strip, z) for z in points]

    @pytest.mark.parametrize("params", [HALF, DISC],
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_chunks_equal_one_point_calls(self, params, monkeypatch):
        # the points of a call go to _integrate in chunks of at most
        # _PAIR_BUDGET (point, node) pairs, here three points' plain rows
        spec = QuadratureSpec()
        near = near_boundary_points(params)
        points = near + [complex(z) for z in sample_interior(
            params, np.random.default_rng(52), 7 - len(near), margin=1e-3)]
        nodes = area_mesh(spec, params)[0].size
        monkeypatch.setattr(lenspot.quadrature, "_PAIR_BUDGET", 3 * nodes)
        chunks = record_chunks(monkeypatch)
        for strip, f in area_kernels(params):
            chunks.clear()
            got = _integrate_area(spec, params, f, strip, points)
            assert [len(chunk) for chunk, _, _ in chunks] == [3, 3, 1]
            # at most a budget of pairs per chunk, every point once
            assert all(pairs == len(chunk) * nodes and pairs <= budget
                       for chunk, pairs, budget in chunks)
            assert sum((chunk for chunk, _, _ in chunks), []) == points
            assert got == [_integrate_area(spec, params, f, strip, [z])[0]
                           for z in points]

    def test_point_beyond_the_cut_takes_the_plain_mesh(self):
        # its star vanishes, and the others of the call keep theirs
        spec = QuadratureSpec()
        smap = sector_map(HALF)
        X = -math.log(1.5 * EPS_CORNER / (2.0 * math.sin(HALF.alpha)))
        z0 = complex(smap.pullback(X + 0.1, -HALF.theta / 2)[0])
        points = [0.5 + 0.2j, z0, 0.3 + 0.6j]
        nodes, weights, ((x, y),) = area_mesh(spec, HALF)
        for strip, f in area_kernels(HALF):
            got = _integrate_area(spec, HALF, f, strip, points)
            assert got[1] == _exact_weighted_sum(
                f(nodes) * weights, strip(z0, x, y).ravel())
            assert got == [singular_sum(spec, HALF, f, strip, z)
                           for z in points]

    def test_infinite_source_value(self):
        # a value the point's own mesh sums is reported as not finite; one
        # at a plain node its patch replaces is left out, as that mesh has
        # no such node
        spec = QuadratureSpec()
        z = 0.4 + 0.3j
        plain = area_mesh(spec, HALF)[0]
        kept = np.isin(plain, area_mesh(spec, HALF, singular_at=z)[0])
        strip, _ = area_kernels(HALF)[0]
        for node in (plain[kept][0], plain[kept][-1]):
            with pytest.raises(ValueError, match="not finite"):
                _integrate_area(spec, HALF,
                                lambda w: np.where(w == node, np.inf, 1.0),
                                strip, [z])
        for node in (plain[~kept][0], plain[~kept][-1]):
            f = lambda w: np.where(w == node, np.inf, 1.0)  # noqa: E731
            assert _integrate_area(spec, HALF, f, strip, [z]) == [
                singular_sum(spec, HALF, f, strip, z)]


# the lens sets and specs the boundary patch is checked on
PATCH_SETS = BENCH + [DISC, LensParams(0.999 * math.pi, 2),
                      LensParams(0.3, 1), CURVED, LensParams(math.pi / 2, 1),
                      LensParams(0.3, 128), LensParams(0.001, 1)]
PATCH_SPECS = [QuadratureSpec(), QuadratureSpec().refined(2),
               QuadratureSpec(gauss_order=5), QuadratureSpec(boundary_panels=3)]


def whole_arc_mesh(spec, params, near):
    """boundary_mesh built whole: every arc's panel edges from the plain
    edges (at n = 1 with the marks), and on the graded arc _graded_edges
    over the whole arc toward near_t (and at n = 1 its image across the
    seam t = +-pi); nodes and weights for every panel."""
    near_arc = None
    if near is not None:
        d, near_arc, near_t = boundary_distance(params, near)
        floor = 0.5 * d * _shrink(spec, "boundary_panels")
        targets = [near_t]
        if params.n == 1:
            targets.append(near_t - math.copysign(2 * math.pi, near_t))
    first_node = 0.5 * (1.0 + _gauss(spec.gauss_order)[0][0])
    corner_arclen = 2.0 * EPS_CORNER / first_node
    out = []
    for arc in arcs(params).values():
        lo, hi = arc.t_range
        edges = _plain_edges(
            lo, hi, spec.boundary_panels,
            corner_arclen / arc.speed if params.n > 1 else math.inf,
            [-params.alpha, params.alpha] if params.n == 1 else [])
        if arc.arc_id == near_arc:
            edges = _graded_edges(edges,
                                  [(p, floor / arc.speed) for p in targets],
                                  1e-13 * (hi - lo))
        edges = np.asarray(edges)
        t, w = (a.ravel() for a in _gauss_nodes(edges[:-1], edges[1:],
                                                  spec.gauss_order))
        out.append((arc.arc_id, t, arc.point(t), arc.arclen(t), w * arc.speed))
    return out


def inside(params, arc, t, depth):
    """The point depth inside the arc along its normal at parameter t."""
    bp = boundary_point(params, arc.arc_id, t)
    if arc.kind == "unit":
        return (1.0 - depth) * bp.point
    return bp.point - depth * normal_coeffs(params, bp)[0]


def patch_points(params):
    """Points near each arc of the lens, 1e-2 to 1e-9 inside along the
    arc, and 0.2 to 0.6 inside at its middle; at n = 1 also near the seam
    t = +-pi."""
    points = []
    for arc in arcs(params).values():
        half = arc.half_width
        for frac in (-0.97, -0.6, -0.13, 0.0, 0.41, 0.88):
            for depth in (1e-2, 1e-4, 1e-7, 1e-9):
                points.append(inside(params, arc, frac * half, depth))
        # far from the arc, where the rule splits few panels or none
        points += [inside(params, arc, 0.0, depth)
                   for depth in (0.2, 0.35, 0.6)]
    if params.n == 1:
        # across the seam t = +-pi, where the circle's ends meet
        points += [inside(params, arc, t, depth)
                   for t in (-math.pi, math.pi - 1e-3)
                   for depth in (1e-2, 1e-5)]
    return points


class TestBoundaryPatch:
    """boundary_mesh(near=z) regrades only the panels the rule splits, and
    returns exactly the mesh built whole."""

    @staticmethod
    def _assert_same(spec, params, near):
        mesh = boundary_mesh(spec, params, near=near)
        expected = whole_arc_mesh(spec, params, near)
        assert [bp.arc_id for bp, _ in mesh] == [e[0] for e in expected]
        for (bp, w), (_, *arrays) in zip(mesh, expected):
            for got, want in zip((bp.t, bp.point, bp.arclen, w), arrays):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", PATCH_SPECS, ids=["default", "refined",
                                                       "order5", "panels3"])
    @pytest.mark.parametrize("params", PATCH_SETS,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_matches_whole_arc_mesh(self, params, spec):
        for z in [None] + patch_points(params):
            self._assert_same(spec, params, z)

    @pytest.mark.parametrize("spec", PATCH_SPECS, ids=["default", "refined",
                                                       "order5", "panels3"])
    @pytest.mark.parametrize("params", PATCH_SETS,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_call_patches_match_one_point_calls(self, params, spec):
        # the patches of a call's points, decided together, are each
        # point's own: its keep row, and its fresh edges within each span
        points = patch_points(params)
        keep, spans = _boundary_patches(spec, params, points)
        singles = [_boundary_patches(spec, params, [z]) for z in points]
        assert np.array_equal(keep, np.concatenate([k for k, _ in singles]))
        assert [index for index, *_ in spans] == sorted(
            {index for _, one in singles for index, *_ in one})
        for index, lo, hi, counts in spans:
            panels = counts // spec.gauss_order
            ends = np.cumsum(panels)
            for k, (_, one) in enumerate(singles):
                mine = [span for span in one if span[0] == index]
                if not counts[k]:
                    assert not mine
                    continue
                (_, lo_k, hi_k, counts_k), = mine
                assert counts_k.tolist() == [counts[k]]
                piece = slice(ends[k] - panels[k], ends[k])
                assert np.array_equal(lo[piece], lo_k)
                assert np.array_equal(hi[piece], hi_k)
            assert ends[-1] == lo.size == hi.size

    @pytest.mark.parametrize("params", PATCH_SETS,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_nearest_point_on_a_plain_edge(self, params):
        # near_t equal to a plain edge, or within 1e-13 of the arc's
        # parameter range of one: both panels there are at distance 0 or
        # nearly, and at n = 1 the edges include the marks at +-alpha
        spec = QuadratureSpec()
        hits = {"equal": 0, "near": 0}
        for arc, edges, _ in _plain_boundary(spec, params):
            tol = 1e-13 * (edges[-1] - edges[0])
            for e in edges[1:-1]:
                for dt in (0.0, 0.3 * tol, -0.3 * tol):
                    z = inside(params, arc, e + dt, 1e-3)
                    _, arc_id, near_t = boundary_distance(params, z)
                    if arc_id == arc.arc_id:
                        if near_t == e:
                            hits["equal"] += 1
                        elif abs(near_t - e) <= tol:
                            hits["near"] += 1
                    self._assert_same(spec, params, z)
        assert hits["equal"] > 0 and hits["near"] > 0

    def test_point_that_splits_nothing(self):
        # mid-lens on the real axis at (0.5, 2): every panel is below the
        # floor 0.1, so no leaf is new
        params = LensParams(0.5, 2)
        z = 0.5 * sum(complex(arc.point(0.0))
                      for arc in arcs(params).values())
        _, arc_id, near_t = boundary_distance(params, z)
        assert arc_id == "C1" and near_t == 0.0
        keep, spans = _boundary_patches(QuadratureSpec(), params, [z])
        assert keep.all() and not spans
        self._assert_same(QuadratureSpec(), params, z)
        plain = _plain_boundary(QuadratureSpec(), params)[1][2]
        bp, w = boundary_mesh(QuadratureSpec(), params, near=z)[1]
        assert np.array_equal(bp.t, plain[0].t)
        assert np.array_equal(w, plain[1])

    def test_far_point_gets_the_plain_mesh(self):
        spec = QuadratureSpec()
        plain = [pair for *_, pair in _plain_boundary(spec, HALF)]
        mesh = boundary_mesh(spec, HALF, near=0.5)
        assert all(a is b for (a, _), (b, _) in zip(mesh, plain))
        # a near point shares the other arc's batch with the plain mesh
        mesh = boundary_mesh(spec, HALF, near=0.999)
        assert mesh[0][0] is plain[0][0]
        assert mesh[1][0] is not plain[1][0]


class TestBoundaryCache:
    """The plain boundary mesh is cached per (spec, lens) and read-only."""

    def test_cached_arrays_read_only(self):
        spec = QuadratureSpec()
        before = integrate_boundary(spec, CURVED, lambda bp: bp.point)

        def write_point(bp):
            bp.point[0] = 0.0
            return 1.0

        def write_t(bp):
            bp.t[:] = 0.0
            return 1.0

        for f in (write_point, write_t):
            with pytest.raises(ValueError):
                integrate_boundary(spec, CURVED, f)
        for bp, w in boundary_mesh(spec, CURVED):
            assert not any(a.flags.writeable
                           for a in (bp.t, bp.point, bp.arclen, w))
        assert integrate_boundary(spec, CURVED, lambda bp: bp.point) == before

    @pytest.mark.parametrize("params", BENCH)
    def test_solves_cold_and_warm(self, params):
        spec = QuadratureSpec()
        points = sample_interior(params, np.random.default_rng(7), 8,
                                 margin=1e-3)
        problems = [
            (solve_dirichlet, BoundaryData.from_expression("re_zk", 3)),
            (solve_neumann,
             normal_derivative_data(params, lambda z: 1.5 * z ** 2))]

        def solve():
            return [fn(params, spec, gamma, SourceTerm.zero(), points)
                    for fn, gamma in problems]

        _plain_boundary.cache_clear()
        arcs.cache_clear()
        cold = solve()
        warm = solve()
        for a, b in zip(cold, warm):
            assert np.array_equal(a, b)


    def test_quick_catalog_of_two_lenses_fits_the_cache(self):
        # the quick catalog builds 8 boundary specs per lens, and the
        # benchmark alternates two lenses: a second round rebuilds nothing
        _plain_boundary.cache_clear()
        for _ in range(2):
            misses = _plain_boundary.cache_info().misses
            for params in (CURVED, LensParams(math.pi / 2, 8)):
                run_checks(params, quick=True)
        assert misses == _plain_boundary.cache_info().misses == 16


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
        # the first call builds the plain mesh, the second reuses it
        _plain_area.cache_clear()
        v1 = integrate_area(spec, CURVED, lambda w: fld.green(z0, w),
                            singular_at=z0)
        v2 = integrate_area(spec, CURVED, lambda w: fld.green(z0, w),
                            singular_at=z0)
        assert v1 == v2
