import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import lenspot.solvers
from lenspot import (BoundaryData, LensParams, QuadratureSpec,
                     SolvabilityError, SourceTerm, arc_lengths, arcs,
                     boundary_distance, boundary_mesh, boundary_point,
                     KernelField,
                     check_neumann_solvability,
                     classify_point, integrate_area, integrate_boundary,
                     load_problem, normal_coeffs,
                     normal_derivative_data, probe_normalization_constant,
                     sample_interior, sector_map, solution_rows,
                     solve_dirichlet, solve_neumann)
from lenspot.quadrature import (_PAIR_BUDGET, _exact_weighted_sum, _patch,
                                _plain_boundary)

HALF = LensParams(math.pi / 2, 2)
CURVED = LensParams(2 * math.pi / 3, 2)
CHORD3 = LensParams(math.pi / 3, 3)
SPEC = QuadratureSpec()


def interior(params, count, seed=0, margin=0.03):
    rng = np.random.default_rng(seed)
    return sample_interior(params, rng, count, margin=margin)


class TestBoundaryData:
    def test_expression_catalog(self):
        bp = boundary_point(HALF, "C1", 0.3)
        z = bp.point
        assert BoundaryData.constant(2.5)(bp) == 2.5
        assert BoundaryData.from_expression("re")(bp) == pytest.approx(z.real)
        assert BoundaryData.from_expression("im")(bp) == pytest.approx(z.imag)
        assert BoundaryData.from_expression("abs2")(bp) == pytest.approx(abs(z) ** 2)
        assert BoundaryData.from_expression("re_z2")(bp) == pytest.approx((z ** 2).real)
        assert BoundaryData.from_expression("im_z2")(bp) == pytest.approx((z ** 2).imag)
        assert BoundaryData.from_expression("re_zk", 3)(bp) == pytest.approx((z ** 3).real)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundaryData.from_expression("sin")

    def test_samples_interpolate(self):
        length = arc_lengths(HALF)[1]
        s = np.linspace(0, length, 200)
        tables = {"C1": (s, np.cos(s) + 0j), "C0": (np.array([0.0, 2.0]),
                                                    np.array([0j, 0j]))}
        data = BoundaryData.from_samples(tables)
        bp = boundary_point(HALF, "C1", 0.2)
        assert data(bp) == pytest.approx(math.cos(bp.arclen), abs=1e-4)

    def test_samples_validate(self):
        with pytest.raises(ValueError):
            BoundaryData.from_samples({"C1": (np.array([0.0, 0.0]),
                                              np.array([1j, 2j]))})

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_constant_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            BoundaryData.constant(value)

    @pytest.mark.parametrize("value", [1 + 2j, 3, np.float64(2.5),
                                       np.complex128(1 - 1j), np.int64(4)])
    def test_numeric_constants_accepted(self, value):
        bp = boundary_point(HALF, "C1", 0.3)
        assert BoundaryData.constant(value)(bp) == complex(value)
        assert SourceTerm.constant(value)(0.1j) == complex(value)

    @pytest.mark.parametrize("value", ["2", True, [1.0]])
    def test_non_numeric_constant_rejected(self, value):
        with pytest.raises(ValueError, match="constant payload"):
            BoundaryData.from_expression("const", value)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BoundaryData.from_samples({"C1": (np.array([0.0, 1.0, 2.0]),
                                              np.array([0j, math.nan, 1.0]))})

    @pytest.mark.parametrize("payload", [math.inf, math.nan, "three", None,
                                         2.7, True, "2"])
    def test_bad_power_rejected(self, payload):
        with pytest.raises(ValueError, match="power"):
            BoundaryData.from_expression("re_zk", payload)

    def test_json_roundtrip(self):
        data = BoundaryData.from_json({"kind": "re_zk", "payload": 3})
        bp = boundary_point(HALF, "C1", 0.1)
        assert data(bp) == pytest.approx((bp.point ** 3).real)

    def test_missing_arc_is_named(self):
        # samples for C1 alone, where the half disc also has the chord C0
        s = np.linspace(0.0, arc_lengths(HALF)[1], 5)
        data = BoundaryData.from_samples({"C1": (s, s + 0j)})
        with pytest.raises(ValueError, match="no values for arc C0"):
            solve_dirichlet(HALF, SPEC, data, SourceTerm.zero(), [0.5])
        with pytest.raises(ValueError, match="no values for arc C0"):
            check_neumann_solvability(HALF, SPEC, data, SourceTerm.zero())

    def test_samples_json(self):
        payload = {"C1": {"arclen": [0.0, 4.0], "values": [[1.0, 0.0], [1.0, 0.0]]},
                   "C0": {"arclen": [0.0, 2.0], "values": [[1.0, 0.0], [1.0, 0.0]]}}
        data = BoundaryData.from_json({"kind": "samples", "payload": payload})
        bp = boundary_point(HALF, "C0", 0.0)
        assert data(bp) == pytest.approx(1.0)


class TestSourceTerm:
    def test_zero_flag(self):
        assert SourceTerm.zero().is_zero
        assert SourceTerm.constant(0.0).is_zero
        assert not SourceTerm.constant(1.0).is_zero

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            SourceTerm.from_expression("const", value)
        with pytest.raises(ValueError, match="finite"):
            SourceTerm.constant(value)

    def test_sampled_sources_rejected(self):
        with pytest.raises(ValueError):
            SourceTerm.from_json({"kind": "samples", "payload": {}})

    def test_real_constant_stays_real(self):
        # a complex constant would make every sum exact twice, once over an
        # all-zero imaginary part: the boundary sums of a catalog constant's
        # particular solution, the area sums of a callable's
        f = SourceTerm.constant(1.0)
        assert isinstance(f(0.1j), float)
        assert f(np.array([0.1j, 0.2])).dtype == np.float64
        assert np.iscomplexobj(SourceTerm.constant(1 + 2j)(np.array([0.1j])))
        with pytest.raises(SolvabilityError,
                           match=r"4 \* area integral [0-9.]+ \(defect"):
            solve_neumann(HALF, SPEC, BoundaryData.constant(0.0), f, [0.1])
        # the answers do not depend on how the constant is stored: the real
        # catalog constant, solved in closed form, agrees with the complex
        # callable one, which takes the area integral, within the latter's
        # own error against |z|^2
        as_complex = SourceTerm.from_callable(
            lambda z: np.full(np.shape(z), 1.0 + 0j))
        z = interior(HALF, 2, seed=13)
        exact = np.abs(z) ** 2
        gamma = BoundaryData.from_expression("abs2")
        real, area = (solve_dirichlet(HALF, SPEC, gamma, g, z)
                      for g in (f, as_complex))
        assert np.abs(real - area).max() <= np.abs(area - exact).max() + 1e-15
        flux = normal_derivative_data(HALF, np.conj)
        real, area = (solve_neumann(HALF, SPEC, flux, g, z)
                      for g in (f, as_complex))
        assert (np.abs(real - area).max()
                <= np.ptp(np.real(area) - exact) + 1e-15)


class TestDirichlet:
    @pytest.mark.parametrize("params", [HALF, CHORD3, CURVED])
    def test_constant_data(self, params):
        pts = interior(params, 8)
        w = solve_dirichlet(params, SPEC, BoundaryData.constant(1.0),
                            SourceTerm.zero(), pts)
        assert np.abs(w - 1.0).max() < 1e-6

    @pytest.mark.parametrize("params", [HALF, CHORD3, CURVED,
                                        LensParams(0.999 * math.pi, 2)])
    def test_harmonic_cubic(self, params):
        pts = interior(params, 8, seed=1)
        w = solve_dirichlet(params, SPEC,
                            BoundaryData.from_expression("re_zk", 3),
                            SourceTerm.zero(), pts)
        assert np.abs(w - np.real(pts ** 3)).max() < 1e-5

    @pytest.mark.parametrize("params", [HALF, CHORD3, CURVED])
    def test_poisson_abs2(self, params):
        pts = interior(params, 6, seed=2)
        w = solve_dirichlet(params, SPEC, BoundaryData.from_expression("abs2"),
                            SourceTerm.constant(1.0), pts)
        assert np.abs(w - np.abs(pts) ** 2).max() < 1e-4

    @pytest.mark.parametrize("params", [LensParams(0.9 * math.pi, 1),
                                        LensParams(math.pi / 2, 1)],
                             ids=["0.9pi-1", "pi/2-1"])
    def test_disc_seam(self, params):
        # the disc's arc ends t = -pi and pi meet at z = -1, so a point next
        # to it is graded toward both sides of the seam
        pts = np.array([-0.999, -0.99 + 0.01j, -0.99 - 0.01j])
        w = solve_dirichlet(params, SPEC,
                            BoundaryData.from_expression("re_zk", 3),
                            SourceTerm.zero(), pts)
        assert np.abs(w - np.real(pts ** 3)).max() < 1e-12

    @pytest.mark.parametrize("params", [LensParams(0.9 * math.pi, 1),
                                        LensParams(0.999 * math.pi, 2)],
                             ids=["0.9pi-1", "0.999pi-2"])
    def test_harmonic_cubic_away_from_the_boundary(self, params):
        # 0.35 to 0.8 from the boundary the rule still splits the wider
        # plain panels; without them the error is about 1e-11
        pts = interior(params, 100, seed=6, margin=0.35)
        pts = pts[[boundary_distance(params, z)[0] < 0.8 for z in pts]]
        assert pts.size > 40
        w = solve_dirichlet(params, SPEC,
                            BoundaryData.from_expression("re_zk", 3),
                            SourceTerm.zero(), pts)
        assert np.abs(w - np.real(pts ** 3)).max() < 1e-13

    def test_complex_data(self):
        # real and imaginary parts solve independently
        pts = interior(HALF, 4, seed=3)
        gamma = BoundaryData.from_callable(
            lambda bp: np.asarray(bp.point) ** 2)
        w = solve_dirichlet(HALF, SPEC, gamma, SourceTerm.zero(), pts)
        assert np.abs(w - pts ** 2).max() < 1e-5

    def test_boundary_attainment(self):
        gamma = BoundaryData.from_expression("re")
        for arc_id in ("C0", "C1"):
            bp = boundary_point(CURVED, arc_id,
                                0.3 * arcs(CURVED)[arc_id].half_width)
            q, _ = normal_coeffs(CURVED, bp)
            errs = []
            for d in (1e-2, 1e-3):
                z = bp.point - d * q
                w = solve_dirichlet(CURVED, SPEC, gamma, SourceTerm.zero(), [z])[0]
                errs.append(abs(w - bp.point.real))
            assert errs[1] < errs[0]
            assert errs[1] < 5e-3

    def test_exterior_point_rejected(self):
        with pytest.raises(ValueError):
            solve_dirichlet(HALF, SPEC, BoundaryData.constant(1.0),
                            SourceTerm.zero(), [2.0 + 0j])

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="exterior"):
            solve_dirichlet(HALF, SPEC, BoundaryData.constant(1.0),
                            SourceTerm.zero(), [complex(math.nan, 0.1)])

    def test_points_classified_in_one_call(self, monkeypatch):
        shapes = []

        def counting(params, z, *args):
            shapes.append(np.shape(z))
            return classify_point(params, z, *args)

        monkeypatch.setattr(lenspot.solvers, "classify_point", counting)
        solve_dirichlet(HALF, SPEC, BoundaryData.constant(1.0),
                        SourceTerm.zero(), interior(HALF, 3))
        assert shapes == [(3,)]
        # the message names the first point that is not interior
        with pytest.raises(ValueError, match=r"point 1 \(2\+0j\) is exterior"):
            solve_dirichlet(HALF, SPEC, BoundaryData.constant(1.0),
                            SourceTerm.zero(), [0.5, 2.0, 1j])

    def test_two_specs_agree(self):
        pts = interior(HALF, 4, seed=4)
        gamma = BoundaryData.from_expression("im_z2")
        w1 = solve_dirichlet(HALF, SPEC, gamma, SourceTerm.zero(), pts)
        w2 = solve_dirichlet(HALF, SPEC.refined(), gamma, SourceTerm.zero(), pts)
        assert np.abs(w1 - w2).max() < 1e-6


class TestNeumannSolvability:
    def test_zero_data(self):
        verdict = check_neumann_solvability(HALF, SPEC, BoundaryData.constant(0.0),
                                            SourceTerm.zero())
        assert verdict["satisfied"]
        assert verdict["lhs"] == pytest.approx(0.0, abs=1e-14)

    def test_constant_flux_violates(self):
        verdict = check_neumann_solvability(HALF, SPEC, BoundaryData.constant(1.0),
                                            SourceTerm.zero())
        assert not verdict["satisfied"]
        assert verdict["lhs"] == pytest.approx(sum(arc_lengths(HALF)), abs=1e-9)

    def test_balanced_pair(self):
        # gamma = |bdry| / (4 area) against f = 1 balances by construction
        area = integrate_area(SPEC, HALF, lambda z: 1.0)
        total = sum(arc_lengths(HALF))
        gamma = BoundaryData.constant(1.0)
        f = SourceTerm.constant(total / (4.0 * area))
        verdict = check_neumann_solvability(HALF, SPEC, gamma, f)
        assert verdict["satisfied"]

    def test_divergence_theorem_pair(self):
        gamma = normal_derivative_data(HALF, np.conj)  # d/dnu of |z|^2
        verdict = check_neumann_solvability(HALF, SPEC, gamma,
                                            SourceTerm.constant(1.0))
        assert verdict["satisfied"]
        defect = verdict["defect"] / (1 + abs(verdict["lhs"]) + abs(verdict["rhs"]))
        assert defect < 1e-8

    @pytest.mark.parametrize("gamma", [
        BoundaryData.constant(1.0),
        BoundaryData.from_callable(lambda bp: np.asarray(bp.point) + 0.5),
        BoundaryData.from_samples({"C0": ([0.0, 2.0], [1.0, 3.0]),
                                   "C1": ([0.0, 3.2], [2.0, 1j])}),
        BoundaryData.from_expression("re_zk", 3)],
        ids=["constant", "complex", "samples", "re_z3"])
    @pytest.mark.parametrize("params", [HALF, CURVED], ids=["half", "curved"])
    def test_solver_checks_what_the_public_check_does(self, params, gamma):
        # solve_neumann sums the condition from its own plain gamma *
        # weights, each arc on its own as integrate_boundary does
        f = SourceTerm.constant(0.25)
        verdict = check_neumann_solvability(params, SPEC, gamma, f)
        assert not verdict["satisfied"]
        with pytest.raises(SolvabilityError) as err:
            solve_neumann(params, SPEC, gamma, f, interior(params, 1))
        assert (err.value.lhs, err.value.rhs) == (verdict["lhs"],
                                                  verdict["rhs"])


class TestNeumann:
    def test_zero_problem(self):
        pts = interior(HALF, 4, seed=5)
        w = solve_neumann(HALF, SPEC, BoundaryData.constant(0.0),
                          SourceTerm.zero(), pts)
        assert np.abs(w).max() < 1e-12

    @pytest.mark.parametrize("params", [HALF, CHORD3, CURVED])
    def test_harmonic_manufactured(self, params):
        pts = interior(params, 8, seed=6)
        gamma = normal_derivative_data(params, lambda z: z)  # w* = Re z^2
        w = solve_neumann(params, SPEC, gamma, SourceTerm.zero(), pts)
        diff = np.real(w) - np.real(pts ** 2)
        assert diff.max() - diff.min() < 1e-4
        assert np.abs(np.imag(w)).max() < 1e-8

    @pytest.mark.parametrize("params", [HALF, CHORD3])
    def test_poisson_manufactured(self, params):
        pts = interior(params, 6, seed=7)
        gamma = normal_derivative_data(params, np.conj)  # w* = |z|^2
        w = solve_neumann(params, SPEC, gamma, SourceTerm.constant(1.0), pts)
        diff = np.real(w) - np.abs(pts) ** 2
        assert diff.max() - diff.min() < 1e-4

    def test_violation_raises_with_defect(self):
        with pytest.raises(SolvabilityError) as err:
            solve_neumann(HALF, SPEC, BoundaryData.constant(1.0),
                          SourceTerm.zero(), [0.5])
        assert err.value.defect == pytest.approx(sum(arc_lengths(HALF)), abs=1e-9)

    def test_gauge_stability(self):
        pts = interior(HALF, 4, seed=8)
        gamma = normal_derivative_data(HALF, np.conj)
        w1 = solve_neumann(HALF, SPEC, gamma, SourceTerm.constant(1.0), pts)
        w2 = solve_neumann(HALF, SPEC.refined(), gamma,
                           SourceTerm.constant(1.0), pts)
        diff = np.real(w2 - w1)
        assert diff.max() - diff.min() < 1e-5


class TestNonFiniteData:
    """Data that is not finite on part of the domain raises instead of
    coming back as a nan or an infinite answer."""

    @pytest.mark.parametrize("solve", [solve_dirichlet, solve_neumann])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_boundary_data(self, solve, value):
        gamma = BoundaryData.from_callable(
            lambda bp: np.where(bp.t > 0.0, value, 0.0))
        with pytest.raises(ValueError, match="not finite"):
            solve(HALF, SPEC, gamma, SourceTerm.zero(), [0.3 + 0.2j])

    @pytest.mark.parametrize("solve", [solve_dirichlet, solve_neumann])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_source(self, solve, value):
        f = SourceTerm.from_callable(
            lambda z: np.where(np.real(z) > 0.0, value, 1.0))
        with pytest.raises(ValueError, match="not finite"):
            solve(HALF, SPEC, BoundaryData.constant(0.0), f, [0.3 + 0.2j])


def harmonic_problems(params, source):
    """(solve, gamma, f) for the benchmark's manufactured problems: |z|^2
    with f = 1, or Re z^3 with f = 0."""
    if source:
        f = SourceTerm.constant(1.0)
        return [(solve_dirichlet, BoundaryData.from_expression("abs2"), f),
                (solve_neumann, normal_derivative_data(params, np.conj), f)]
    f = SourceTerm.zero()
    return [(solve_dirichlet, BoundaryData.from_expression("re_zk", 3), f),
            (solve_neumann,
             normal_derivative_data(params, lambda z: 1.5 * z ** 2), f)]


def one_by_one(solve, params, spec, gamma, f, points):
    return np.array([solve(params, spec, gamma, f, [z])[0] for z in points])


def spliced(solve, params, spec, gamma, z):
    """The boundary term of a solve at z as one sum over z's own spliced
    boundary_mesh, with the public strip kernel of one point."""
    smap = sector_map(params)
    kernel, scale = {
        solve_dirichlet: (smap.strip_poisson, 2.0 * math.pi),
        solve_neumann: (smap.strip_neumann_at, 4.0 * math.pi)}[solve]
    mesh = boundary_mesh(spec, params, near=z)
    weights = np.concatenate([w * gamma(bp) for bp, w in mesh])
    zeta = np.concatenate([bp.point for bp, _ in mesh])
    return complex(_exact_weighted_sum(weights, kernel(z, zeta)) / scale)


class TestBatchedPoints:
    """The points of one call are solved together on the shared plain
    boundary mesh; every answer is bit for bit the one a call with that
    point alone gives, and the one of the point's own spliced mesh."""

    SETS = [LensParams(math.pi / 2, 2), LensParams(math.pi / 3, 3),
            LensParams(math.pi / 2, 8), LensParams(math.pi / 2 + 0.01, 64),
            LensParams(0.9 * math.pi, 1), LensParams(0.999 * math.pi, 2)]

    @pytest.mark.parametrize("source", [False, True], ids=["f0", "f1"])
    @pytest.mark.parametrize("params", SETS,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_call_equals_one_point_calls(self, params, source):
        rng = np.random.default_rng(21)
        points = np.concatenate([sample_interior(params, rng, 8, margin=1e-3),
                                 sample_interior(params, rng, 8, margin=1e-2)])
        for solve, gamma, f in harmonic_problems(params, source):
            w = solve(params, SPEC, gamma, f, points)
            assert w.dtype == complex and w.shape == (16,)
            assert np.array_equal(
                w, one_by_one(solve, params, SPEC, gamma, f, points))
            if not source:
                assert [spliced(solve, params, SPEC, gamma, z)
                        for z in points] == w.tolist()

    def test_call_larger_than_a_chunk(self, monkeypatch):
        # the boundary integral of a call goes to quadrature._integrate in
        # chunks of at most _PAIR_BUDGET (point, node) pairs; with f = 0 it
        # is the only integral a solve takes
        chunks = []
        kernel_rows = lenspot.quadrature._kernel_rows

        def recording(kernel, points, nodes, budget):
            for chunk, sides, values in kernel_rows(kernel, points, nodes,
                                                    budget):
                chunks.append((len(chunk), values.size))
                yield chunk, sides, values

        monkeypatch.setattr(lenspot.quadrature, "_kernel_rows", recording)
        spec = SPEC.refined()
        nodes = sum(w.size for *_, (_, w) in _plain_boundary(spec, CURVED))
        points = interior(CURVED, 200, seed=22, margin=1e-3)
        assert len(points) * nodes > 3 * _PAIR_BUDGET
        assert any(_patch(spec, CURVED, z) is not None for z in points)
        for solve, gamma, f in harmonic_problems(CURVED, False):
            chunks.clear()
            w = solve(CURVED, spec, gamma, f, points)
            # whole chunks of at most _PAIR_BUDGET pairs, every point once
            assert len(chunks) > 3
            assert all(pairs == rows * nodes and pairs <= _PAIR_BUDGET
                       for rows, pairs in chunks)
            assert sum(rows for rows, _ in chunks) == len(points)
            assert np.array_equal(
                w, one_by_one(solve, CURVED, spec, gamma, f, points))

    def test_patches_on_both_arcs_and_far_points(self):
        # the half disc: C0 is the chord x = 0, and (0.5, 0) is 0.5 from
        # the boundary
        points = [0.5, 0.45 + 0.05j, 0.999, 0.6 + 0.7j, 0.001 + 0.2j,
                  0.05 - 0.4j, 0.52 - 0.03j, 0.3 + 0.01j]
        patches = [_patch(SPEC, HALF, z) for z in points]
        assert {None if p is None else p[0] for p in patches} == {None, 0, 1}
        for solve, gamma, f in harmonic_problems(HALF, False):
            w = solve(HALF, SPEC, gamma, f, points)
            assert np.array_equal(
                w, one_by_one(solve, HALF, SPEC, gamma, f, points))
            assert [spliced(solve, HALF, SPEC, gamma, z)
                    for z in points] == w.tolist()

    def test_data_is_not_needed_where_a_patch_replaces_the_plain_mesh(self):
        # 1e-3 inside the chord of the half disc
        z = 0.001 + 0.3j
        index, *_ = _patch(SPEC, HALF, z)
        bp, _ = boundary_mesh(SPEC, HALF, near=z)[index]
        plain_bp = _plain_boundary(SPEC, HALF)[index][3][0]
        dropped = np.setdiff1d(plain_bp.t, bp.t)
        assert dropped.size > 0
        clean = BoundaryData.from_expression("re_zk", 3)

        def holes(batch):
            values = np.array(clean(batch), dtype=float)
            if batch.arc_id == bp.arc_id:
                values[np.isin(batch.t, dropped)] = math.nan
            return values

        gamma = BoundaryData.from_callable(holes)
        w = solve_dirichlet(HALF, SPEC, gamma, SourceTerm.zero(), [z])
        assert np.all(np.isfinite(w))
        assert np.array_equal(
            w, solve_dirichlet(HALF, SPEC, clean, SourceTerm.zero(), [z]))
        # a point whose mesh keeps those nodes does need the data there
        with pytest.raises(ValueError, match="not finite"):
            solve_dirichlet(HALF, SPEC, gamma, SourceTerm.zero(), [z, 0.5])
        # and so does the Neumann compatibility check, on the plain mesh
        with pytest.raises(ValueError, match="not finite"):
            solve_neumann(HALF, SPEC, gamma, SourceTerm.zero(), [z])

    @pytest.mark.parametrize("solve", [solve_dirichlet, solve_neumann])
    def test_no_points(self, solve):
        w = solve(HALF, SPEC, BoundaryData.constant(0.0), SourceTerm.zero(),
                  [])
        assert w.dtype == complex and w.shape == (0,)


def unit_source_problems(params, f):
    """(solve, gamma, f) for f = 1 with exact solution |z|^2 + Re z^3: the
    data is not the unit source's own particular solution |z|^2, so its
    harmonic part takes the boundary kernel on either route."""
    return [(solve_dirichlet, BoundaryData.from_callable(
                lambda bp: np.abs(bp.point) ** 2 + np.real(bp.point ** 3)), f),
            (solve_neumann, normal_derivative_data(
                params, lambda z: np.conj(z) + 1.5 * z ** 2), f)]


# f = 1 from the catalog, solved in closed form, and as a callable, which
# takes the area integral
UNIT_SOURCES = {"catalog": SourceTerm.constant(1.0),
                "callable": SourceTerm.from_callable(
                    lambda z: np.ones(np.shape(z)))}


@pytest.mark.parametrize("params", TestBatchedPoints.SETS,
                         ids=lambda p: f"{p.alpha:.4g}-{p.n}")
def test_integrate_boundary_rounds_once(params):
    # one correctly rounded sum over every node of every arc of the
    # graded mesh, not one per arc
    gamma = BoundaryData.from_expression("re_zk", 3)
    for z in interior(params, 40, seed=0, margin=1e-3):
        mesh = boundary_mesh(SPEC, params, near=z)
        products = np.concatenate([gamma(bp) * w for bp, w in mesh])
        assert (integrate_boundary(SPEC, params, gamma, near=z)
                == math.fsum(products.tolist()))


class TestUnitSourceRoutes:
    """Batched calls and refinement with a unit source, on both routes,
    with data whose harmonic part the boundary kernel must solve."""

    @pytest.mark.parametrize("route", list(UNIT_SOURCES))
    @pytest.mark.parametrize("params", TestBatchedPoints.SETS,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_call_equals_one_point_calls(self, params, route):
        rng = np.random.default_rng(21)
        points = np.concatenate([sample_interior(params, rng, 8, margin=1e-3),
                                 sample_interior(params, rng, 8, margin=1e-2)])
        for solve, gamma, f in unit_source_problems(params,
                                                    UNIT_SOURCES[route]):
            w = solve(params, SPEC, gamma, f, points)
            assert w.dtype == complex and w.shape == (16,)
            assert np.array_equal(
                w, one_by_one(solve, params, SPEC, gamma, f, points))

    @pytest.mark.parametrize("route", list(UNIT_SOURCES))
    def test_gauge_stability(self, route):
        pts = interior(HALF, 4, seed=8)
        _, (solve, gamma, f) = unit_source_problems(HALF, UNIT_SOURCES[route])
        w1, w2 = (solve(HALF, spec, gamma, f, pts)
                  for spec in (SPEC, SPEC.refined()))
        diff = np.real(w2 - w1)
        assert diff.max() - diff.min() < 1e-5
        exact = np.abs(pts) ** 2 + np.real(pts ** 3)
        diff = np.real(w1) - exact
        assert diff.max() - diff.min() < 1e-10


class TestAreaTerm:
    """The solvers take the area kernels in the strip form; a solve must
    equal the representation formula with the product-form kernels
    integrated on the same meshes.  The sources are callables, which take
    the area route: a catalog source is solved on the boundary alone."""

    CASES = [HALF, LensParams(math.pi / 2 + 0.01, 64),
             LensParams(0.9 * math.pi, 1)]

    @pytest.mark.parametrize("params", CASES)
    def test_dirichlet_area_part(self, params):
        fld = KernelField(params)
        f = SourceTerm.from_callable(lambda z: np.asarray(z, complex).real)
        for z in interior(params, 3, seed=9, margin=1e-3):
            w = solve_dirichlet(params, SPEC, BoundaryData.constant(0.0), f,
                                [z])[0]
            area = integrate_area(SPEC, params,
                                  lambda zeta: f(zeta) * fld.green(z, zeta),
                                  singular_at=z)
            assert abs(-math.pi * w - area) < 1e-13

    @pytest.mark.parametrize("params", CASES)
    def test_neumann_area_part(self, params):
        fld = KernelField(params)
        gamma = normal_derivative_data(params, np.conj)  # w* = |z|^2
        f = SourceTerm.from_callable(lambda z: np.ones(np.shape(z)))
        for z in interior(params, 3, seed=10, margin=1e-3):
            w = solve_neumann(params, SPEC, gamma, f, [z])[0]
            boundary = integrate_boundary(
                SPEC, params,
                lambda bp: np.asarray(gamma(bp)) * fld.neumann(bp.point, z),
                near=z)
            area = integrate_area(SPEC, params,
                                  lambda zeta: f(zeta) * fld.neumann(z, zeta),
                                  singular_at=z)
            assert abs(w - (boundary / (4.0 * math.pi) - area / math.pi)) < 1e-13

    def test_large_call_memory_is_bounded(self):
        # the points of a call share the plain area mesh in chunks of
        # bounded size: a 256-point call at n = 64, the set with the largest
        # patches, peaks below twice the 2.44 MB that taking each point's
        # own area mesh in turn peaked at (tracemalloc, numpy 2.4)
        params = LensParams(math.pi / 2 + 0.01, 64)
        points = interior(params, 256, seed=41, margin=1e-3)
        f = SourceTerm.from_callable(lambda z: np.real(z ** 2))
        gamma = BoundaryData.constant(0.0)
        # the plain meshes are built and cached before the measurement
        solve_dirichlet(params, SPEC, gamma, f, points[:1])
        tracemalloc.start()
        try:
            solve_dirichlet(params, SPEC, gamma, f, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2.443e6


class TestBoundaryTerm:
    """The solvers take the boundary kernels in the strip form; a harmonic
    solve must equal the boundary integral of gamma times the product-form
    kernel on the same mesh."""

    CASES = TestAreaTerm.CASES

    @pytest.mark.parametrize("params", CASES)
    def test_dirichlet_boundary_part(self, params):
        fld = KernelField(params)
        gamma = BoundaryData.from_expression("re_zk", 3)
        for z in interior(params, 3, seed=11, margin=1e-3):
            w = solve_dirichlet(params, SPEC, gamma, SourceTerm.zero(), [z])[0]
            boundary = integrate_boundary(
                SPEC, params,
                lambda bp: np.asarray(gamma(bp)) * fld.poisson_kernel(z, bp),
                near=z)
            assert abs(w - boundary / (2.0 * math.pi)) < 1e-13

    @pytest.mark.parametrize("params", CASES)
    def test_neumann_boundary_part(self, params):
        fld = KernelField(params)
        gamma = normal_derivative_data(params, lambda z: 1.5 * z ** 2)  # Re z^3
        for z in interior(params, 3, seed=12, margin=1e-3):
            w = solve_neumann(params, SPEC, gamma, SourceTerm.zero(), [z])[0]
            boundary = integrate_boundary(
                SPEC, params,
                lambda bp: np.asarray(gamma(bp)) * fld.neumann(bp.point, z),
                near=z)
            assert abs(w - boundary / (4.0 * math.pi)) < 1e-13


# central differences of order 8 on offsets -4..4: exact on polynomials of
# degree up to 8 (first derivative) and 9 (second), so on every particular
# solution below they leave only rounding
_D1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                4 / 5, -1 / 5, 4 / 105, -1 / 280])
_D2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                8 / 5, -1 / 5, 8 / 315, -1 / 560])
_STEP = 0.1


def _stencil(fn, z, direction, weights, order):
    offsets = np.multiply.outer(np.arange(-4, 5) * _STEP, direction)
    values = np.array([fn(z + d) for d in offsets])
    return np.tensordot(weights, values, axes=1) / _STEP ** order


def _polar_area_integral(params, f):
    """The area integral of f over the half disc or the (2 pi/3, 2) lens,
    in polar coordinates around 0: the lens is r < R(phi), R = 1 on the
    unit arc and behind C0 the nearer root of |r e^(i phi) + 2| = sqrt 3.
    f is a polynomial of degree at most 3 in x and y here, so 6 Gauss
    nodes take the radial integral exactly.  Behind C0, phi = pi +
    (pi/3) sin t turns R's square-root ends at the corners into an
    analytic integrand in t."""
    x, w = np.polynomial.legendre.leggauss(6)
    xo, wo = np.polynomial.legendre.leggauss(60)

    def radial(phi, radius):
        r = radius[:, None] * (1 + x) / 2
        values = np.asarray(f(r * np.exp(1j * phi)[:, None]))
        return radius / 2 * np.sum(w * r * values, axis=1)

    if params == HALF:
        phi = math.pi / 2 * xo
        return math.pi / 2 * np.sum(wo * radial(phi, np.ones_like(phi)))
    assert params == CURVED
    phi = 2 * math.pi / 3 * xo
    total = 2 * math.pi / 3 * np.sum(wo * radial(phi, np.ones_like(phi)))
    t = math.pi / 2 * xo
    c = np.cos(math.pi + math.pi / 3 * np.sin(t))
    radius = 1 / (np.sqrt(4 * c ** 2 - 1) - 2 * c)
    return total + math.pi / 3 * math.pi / 2 * np.sum(
        wo * np.cos(t) * radial(math.pi + math.pi / 3 * np.sin(t), radius))


CATALOG_SOURCES = (
    [("const", 1.0), ("const", -2.5), ("const", 1.5 - 0.5j), ("re", None),
     ("im", None), ("re_z2", None), ("im_z2", None), ("abs2", None)]
    + [(kind, k) for kind in ("re_zk", "im_zk") for k in (0, 1, 3, 5)])


def _source_id(source):
    kind, payload = source
    return kind if payload is None else f"{kind}-{payload}"


class TestParticularSolution:
    """Every catalog source has a closed-form particular solution w_p, and
    the solvers take it on the boundary alone: w_p + the harmonic solution
    with data gamma - w_p (Dirichlet) or gamma - dw_p/dnu (Neumann), plus
    the constant that keeps the Neumann representative."""

    SETS = [LensParams(math.pi / 2, 2), LensParams(math.pi / 3, 3),
            LensParams(math.pi / 2, 8), LensParams(math.pi / 2 + 0.01, 64),
            LensParams(0.9 * math.pi, 1), LensParams(2 * math.pi / 3, 2)]

    @pytest.mark.parametrize("source", CATALOG_SOURCES, ids=_source_id)
    def test_solves_the_poisson_equation(self, source):
        f = SourceTerm.from_expression(*source)
        c, w, dw_dz = f._particular
        rng = np.random.default_rng(30)
        z = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
        assert np.isrealobj(w(z))
        assert isinstance(c, complex) == np.iscomplexobj(f(z))
        dx = _stencil(w, z, 1.0, _D1, 1)
        dy = _stencil(w, z, 1j, _D1, 1)
        laplacian = _stencil(w, z, 1.0, _D2, 2) + _stencil(w, z, 1j, _D2, 2)
        scale = 1.0 + np.abs(f(z))
        assert np.abs(0.5 * (dx - 1j * dy) - dw_dz(z)).max() < 1e-10
        # w_{z conj(z)} = laplacian / 4, and d/dconj(z) of dw_p/dz
        assert np.abs(0.25 * c * laplacian - f(z)).max() / scale.max() < 1e-9
        dzbar_dz = 0.5 * (_stencil(dw_dz, z, 1.0, _D1, 1)
                          + 1j * _stencil(dw_dz, z, 1j, _D1, 1))
        assert np.abs(c * dzbar_dz - f(z)).max() / scale.max() < 1e-10

    @pytest.mark.parametrize("source", CATALOG_SOURCES, ids=_source_id)
    @pytest.mark.parametrize("params", [HALF, CURVED],
                             ids=["half", "curved"])
    def test_normal_flux(self, params, source):
        # dw_p/dnu, c * normal_derivative_data of dw_p/dz, against a
        # difference of w_p along the outward normal at the plain nodes;
        # the compatibility condition's flux is it times the weights
        f = SourceTerm.from_expression(*source)
        c, w, dw_dz = f._particular
        _, _, flux = lenspot.solvers._compatibility(
            SPEC, params, BoundaryData.constant(0.0), f)
        data = normal_derivative_data(params, dw_dz)
        plain = [mesh for *_, mesh in _plain_boundary(SPEC, params)]
        for bp, _ in plain:
            q, _ = normal_coeffs(params, bp)
            along = _stencil(w, bp.point, q, _D1, 1)
            assert np.abs(data(bp) - along).max() < 1e-10
        assert np.array_equal(flux, np.concatenate(
            [c * (weights * data(bp)) for bp, weights in plain]))

    def test_zero_and_callable_sources_have_none(self):
        assert SourceTerm.zero()._particular is None
        assert SourceTerm.constant(0.0)._particular is None
        assert SourceTerm.from_expression("zero")._particular is None
        assert SourceTerm.from_callable(lambda z: z.real)._particular is None
        assert "_particular" not in repr(SourceTerm.constant(1.0))

    @pytest.mark.parametrize("source", CATALOG_SOURCES, ids=_source_id)
    @pytest.mark.parametrize("params", [HALF, CURVED], ids=["half", "curved"])
    def test_catalog_source_with_harmonic_data(self, params, source):
        # data w_p + Re z^3 (or its flux): the closed-form route leaves
        # the kernel Re z^3 up to rounding, which the f = 0 solve of Re z^3
        # gets too
        f = SourceTerm.from_expression(*source)
        c, w, dw_dz = f._particular
        points = interior(params, 6, seed=33, margin=1e-3)
        w_p = c * w(points)
        exact = w_p + np.real(points ** 3)
        gamma = BoundaryData.from_callable(
            lambda bp: c * w(bp.point) + np.real(bp.point ** 3))
        cubic = BoundaryData.from_expression("re_zk", 3)
        got = solve_dirichlet(params, SPEC, gamma, f, points)
        harmonic = solve_dirichlet(params, SPEC, cubic, SourceTerm.zero(),
                                   points)
        assert np.abs(got - w_p - harmonic).max() < 1e-13
        assert np.abs(got - exact).max() < 1e-12
        normal = normal_derivative_data(params, dw_dz)
        cubic = normal_derivative_data(params, lambda z: 1.5 * z ** 2)
        flux = BoundaryData.from_callable(lambda bp: c * normal(bp) + cubic(bp))
        got = solve_neumann(params, SPEC, flux, f, points)
        harmonic = solve_neumann(params, SPEC, cubic, SourceTerm.zero(),
                                 points)
        for diff in (got - w_p - harmonic, got - exact):
            assert np.ptp(diff.real) < 1e-12 and np.ptp(diff.imag) < 1e-12

    @pytest.mark.parametrize("params", SETS,
                             ids=lambda p: f"{p.alpha:.4g}-{p.n}")
    def test_catalog_agrees_with_callable(self, params):
        # f = Re z^2 with exact solution Re(z^3 conj(z))/3 + Re z^3; the
        # two routes agree within the area route's own error
        points = interior(params, 12, seed=31, margin=1e-3)
        exact = np.real(points ** 3 * np.conj(points)) / 3 + np.real(points ** 3)
        catalog = SourceTerm.from_expression("re_z2")
        as_callable = SourceTerm.from_callable(lambda z: np.real(z ** 2))
        gamma = BoundaryData.from_callable(
            lambda bp: (np.real(bp.point ** 3 * np.conj(bp.point)) / 3
                        + np.real(bp.point ** 3)))
        closed, area = (solve_dirichlet(params, SPEC, gamma, f, points)
                        for f in (catalog, as_callable))
        assert np.abs(closed - area).max() <= np.abs(area - exact).max() + 1e-12
        flux = normal_derivative_data(
            params, lambda z: (0.5 * (z ** 2 * np.conj(z) + np.conj(z) ** 3 / 3)
                               + 1.5 * z ** 2))
        closed, area = (solve_neumann(params, SPEC, flux, f, points)
                        for f in (catalog, as_callable))
        # the answers are the same representative, not only up to a constant
        spread = np.ptp(np.real(area) - exact)
        assert np.abs(closed - area).max() <= spread + 1e-12

    @pytest.mark.parametrize("solve", [solve_dirichlet, solve_neumann])
    def test_routes(self, solve, monkeypatch):
        # a callable source takes the area integral at every point, the
        # answer being the f = 0 solve minus 1/pi times it; a catalog
        # source never does
        terms = []

        def recording(*args):
            values = integrate(*args)
            terms.extend(values)
            return values

        integrate = lenspot.solvers._integrate_area
        monkeypatch.setattr(lenspot.solvers, "_integrate_area", recording)
        points = interior(HALF, 3, seed=32)
        # Re z^2 integrates to 0 over the half disc, so this Neumann data
        # is compatible with both f = 0 and f = Re z^2
        gamma = normal_derivative_data(HALF, lambda z: z)
        w0 = solve(HALF, SPEC, gamma, SourceTerm.zero(), points)
        assert terms == []
        f = SourceTerm.from_callable(lambda z: np.real(z ** 2))
        w = solve(HALF, SPEC, gamma, f, points)
        assert len(terms) == len(points)
        assert w.tolist() == [complex(a - t / math.pi)
                              for a, t in zip(w0, terms)]
        terms.clear()
        solve(HALF, SPEC, gamma, SourceTerm.from_expression("re_z2"), points)
        assert terms == []

    @pytest.mark.parametrize("source", [("const", 1.0), ("const", 2 + 1j),
                                        ("abs2", None), ("re_zk", 0),
                                        ("re_z2", None), ("im_zk", 3)],
                             ids=_source_id)
    @pytest.mark.parametrize("params", [HALF, CURVED], ids=["half", "curved"])
    def test_compatibility_on_the_boundary(self, params, source):
        # the right side is the flux of w_p, which is 4 times the area
        # integral of f: against that integral taken in polar coordinates
        f = SourceTerm.from_expression(*source)
        gamma = BoundaryData.constant(1.0)
        verdict = check_neumann_solvability(params, SPEC, gamma, f)
        exact = 4.0 * _polar_area_integral(params, f)
        assert abs(verdict["rhs"] - exact) < 1e-13 * (1.0 + abs(exact))
        assert isinstance(verdict["rhs"], complex) == (source[1] == 2 + 1j)
        with pytest.raises(SolvabilityError) as err:
            solve_neumann(params, SPEC, gamma, f, interior(params, 1))
        assert (err.value.lhs, err.value.rhs) == (verdict["lhs"],
                                                  verdict["rhs"])

    @pytest.mark.parametrize("source", [("const", 1.0), ("abs2", None),
                                        ("re_zk", 0)], ids=_source_id)
    def test_unbalanced_pair_raises(self, source):
        with pytest.raises(SolvabilityError,
                           match=r"4 \* area integral [0-9.]+ \(defect"):
            solve_neumann(HALF, SPEC, BoundaryData.constant(0.0),
                          SourceTerm.from_expression(*source), [0.1])


class TestProbe:
    def test_disc_probe_nearly_constant(self):
        # closed form on the disc: the integral is independent of zeta, so
        # the observed spread is pure quadrature noise (reported, not asserted
        # as an invariant for general parameters)
        params = LensParams(0.9 * math.pi, 1)
        zetas = interior(params, 5, seed=9, margin=0.15)
        probe = probe_normalization_constant(params, SPEC, zetas)
        assert probe["spread"] < 1e-8
        # oracle: -2 * circumference * (-4 log sin a) + 0 + 0
        expected = 16 * math.pi * math.log(math.sin(params.alpha))
        assert probe["values"][0] == pytest.approx(expected, abs=1e-8)

    def test_reports_spread(self):
        zetas = interior(CURVED, 4, seed=10, margin=0.1)
        probe = probe_normalization_constant(CURVED, SPEC, zetas)
        assert math.isfinite(probe["spread"])
        assert len(probe["values"]) == len(zetas)

    def test_order_invariant(self):
        zetas = list(interior(HALF, 3, seed=11, margin=0.1))
        a = probe_normalization_constant(HALF, SPEC, zetas)
        b = probe_normalization_constant(HALF, SPEC, zetas[::-1])
        assert a["spread"] == pytest.approx(b["spread"], abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.9 * math.pi, math.pi / 2, 0.3])
    def test_disc_closed_form_next_to_the_boundary(self, alpha):
        # each zeta's own graded mesh resolves N's peak 1e-3 away
        params = LensParams(alpha, 1)
        zetas = interior(params, 8, seed=13, margin=1e-3)
        values = probe_normalization_constant(params, SPEC, zetas)["values"]
        expected = 16 * math.pi * math.log(math.sin(alpha))
        assert np.abs(values - expected).max() < 1e-12

    @pytest.mark.parametrize("params", [HALF, CURVED,
                                        LensParams(0.9 * math.pi, 1)],
                             ids=["half", "curved", "disc"])
    def test_converged_next_to_the_boundary(self, params):
        zetas = interior(params, 8, seed=14, margin=1e-3)
        probe = probe_normalization_constant(params, SPEC, zetas)
        fine = probe_normalization_constant(params, SPEC.refined(4), zetas)
        assert np.abs(probe["values"] - fine["values"]).max() < 1e-12
        assert probe["spread"] < 1e-12

    def test_point_off_the_domain_named(self):
        with pytest.raises(ValueError, match=r"evaluation point 1 \(1\+0j\) "
                                             r"is boundary_C1"):
            probe_normalization_constant(HALF, SPEC, [0.5, 1.0, 0.3])

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            probe_normalization_constant(HALF, SPEC, [])

    @pytest.mark.parametrize("params", [CURVED, LensParams(math.pi / 2, 8)],
                             ids=["curved", "n8"])
    def test_values_are_the_boundary_integrals(self, params):
        # bit for bit the integral of density * N taken one zeta at a
        # time on its own spliced boundary mesh, summed exactly; the 40
        # zetas take two chunks
        fld = KernelField(params)
        smap = sector_map(params)
        zetas = interior(params, 40, seed=12, margin=1e-3)
        values = probe_normalization_constant(params, SPEC, zetas)["values"]
        expected = []
        for z in zetas:
            mesh = boundary_mesh(SPEC, params, near=z)
            weights = np.concatenate([w * fld.normal_density(bp)
                                      for bp, w in mesh])
            zeta = np.concatenate([bp.point for bp, _ in mesh])
            expected.append(float(np.real(_exact_weighted_sum(
                weights, smap.strip_neumann_at(z, zeta)))))
        assert values.tolist() == expected


class TestProblemFiles:
    def test_roundtrip(self, tmp_path):
        payload = {
            "alpha": math.pi / 2, "n": 2,
            "gamma": {"kind": "abs2"},
            "f": {"kind": "const", "payload": 1.0},
            "points": [[0.4, 0.1], [0.2, -0.3]],
            "quadrature": {"boundary_panels": 12},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload))
        problem = load_problem(str(path))
        assert problem.params == HALF
        assert problem.spec.boundary_panels == 12
        w = solve_dirichlet(problem.params, problem.spec, problem.gamma,
                            problem.source, problem.points)
        expected = np.abs(np.array([0.4 + 0.1j, 0.2 - 0.3j])) ** 2
        assert np.abs(w - expected).max() < 1e-4

    @pytest.mark.parametrize("n", [math.inf, 2.5, True, "2"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            load_problem({"alpha": math.pi / 2, "n": n,
                          "gamma": {"kind": "re"}, "points": [[0.4, 0.1]]})

    def test_params_read_exactly(self):
        text = json.dumps({"alpha": CURVED.alpha, "n": CURVED.n,
                           "gamma": {"kind": "re"}, "points": [[0.4, 0.1]]})
        assert load_problem(json.loads(text)).params == CURVED

    def test_partial_quadrature_uses_defaults(self):
        problem = load_problem({"alpha": math.pi / 2, "n": 2,
                                "gamma": {"kind": "re"}, "points": [[0.4, 0.1]],
                                "quadrature": {"gauss_order": 3}})
        assert problem.spec == QuadratureSpec(gauss_order=3)

    def test_unknown_quadrature_key_rejected(self):
        with pytest.raises(ValueError, match="quadrature .*'panels'"):
            load_problem({"alpha": math.pi / 2, "n": 2,
                          "gamma": {"kind": "re"}, "points": [[0.4, 0.1]],
                          "quadrature": {"panels": 3}})

    def test_readme_example(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        problem = load_problem(json.loads(block))
        w = solve_dirichlet(problem.params, problem.spec, problem.gamma,
                            problem.source, problem.points)
        assert np.abs(w - np.abs(np.array(problem.points)) ** 2).max() < 1e-10

    def test_solution_rows(self):
        rows = solution_rows([0.5 + 0.25j], np.array([1.0 + 2.0j]))
        assert rows[0] == "point_re,point_im,w_re,w_im"
        assert rows[1] == "0.5,0.25,1.0,2.0"
