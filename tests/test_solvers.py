import json
import math
import pathlib

import numpy as np
import pytest

import lenspot.solvers
from lenspot import (BoundaryData, LensParams, QuadratureSpec, SolvabilityError,
                     SourceTerm, arc_lengths, arcs, boundary_point,
                     KernelField, check_neumann_solvability,
                     classify_point, integrate_area, integrate_boundary,
                     load_problem, normal_coeffs,
                     normal_derivative_data, probe_normalization_constant,
                     sample_interior, solution_rows, solve_dirichlet,
                     solve_neumann)

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


class TestAreaTerm:
    """The solvers take the area kernels in the strip form; a solve must
    equal the representation formula with the product-form kernels
    integrated on the same meshes."""

    CASES = [HALF, LensParams(math.pi / 2 + 0.01, 64),
             LensParams(0.9 * math.pi, 1)]

    @pytest.mark.parametrize("params", CASES)
    def test_dirichlet_area_part(self, params):
        fld = KernelField(params)
        f = SourceTerm.from_expression("re")
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
        f = SourceTerm.constant(1.0)
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
