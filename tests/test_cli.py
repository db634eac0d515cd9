import cmath
import csv
import io
import json
import math
import re

import numpy as np
import pytest

from lenspot import (KernelField, LensParams, arcs, boundary_point,
                     boundary_samples, sample_interior, sector_map)
from lenspot.cli import main

# a valid problem file: |z|^2 solves the Poisson equation with f = 1
_GOOD = {"alpha": math.pi / 2, "n": 2, "gamma": {"kind": "abs2"},
         "f": {"kind": "const", "payload": 1.0}, "points": [[0.4, 0.1]]}

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParquet:
    def test_structure(self, capsys):
        code, out, _ = run(capsys, "parquet", "--alpha-pi", "1/2", "--n", "2",
                           "--sample", "0.3,0.0")
        assert code == 0
        data = json.loads(out)
        assert data["params"] == {"alpha": math.pi / 2, "n": 2}
        assert len(data["matrices"]) == 4
        assert data["arcs"][0]["kind"] == "segment"
        orbit = [complex(re, im) for re, im in data["orbit"]]
        assert orbit[0] == pytest.approx(0.3)
        assert orbit[1] == pytest.approx(1 / 0.3)

    def test_orbit_infinity_is_null(self, capsys):
        code, out, _ = run(capsys, "parquet", "--alpha-pi", "2/3", "--n", "2",
                           "--sample", "0,0")
        assert code == 0
        assert json.loads(out)["orbit"][1] is None

    def test_disc_lists_one_arc(self, capsys):
        code, out, _ = run(capsys, "parquet", "--alpha-pi", "9/10", "--n", "1")
        assert code == 0
        assert [arc["arc"] for arc in json.loads(out)["arcs"]] == ["C1"]

    def test_deterministic(self, capsys):
        args = ("parquet", "--alpha", "1.1", "--n", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestGrids:
    def test_disc_grid_matches_reference(self, capsys):
        code, out, _ = run(capsys, "green", "--alpha", "1.5707963", "--n", "1",
                           "--zeta", "0.3,0.0", "--grid", "4,4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 17
        fld = KernelField(LensParams(1.5707963, 1))
        values = 0
        for line in lines[1:]:
            x, y, value = line.split(",")
            if value:
                z = complex(float(x), float(y))
                assert float(value) == pytest.approx(fld.disc_green(z, 0.3),
                                                     abs=1e-12)
                values += 1
        assert values == 4  # the interior third of the 4x4 box

    def test_exterior_cells_empty(self, capsys):
        _, out, _ = run(capsys, "neumann", "--alpha-pi", "1/2", "--n", "2",
                        "--zeta", "0.4,0.1", "--grid", "3,3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert any(r[2] == "" for r in rows)

    def test_exterior_zeta_rejected(self, capsys):
        code, _, err = run(capsys, "green", "--alpha-pi", "1/2", "--n", "2",
                           "--zeta", "2.0,0.0", "--grid", "3,3")
        assert code == 2
        assert "interior" in err

    def test_nan_zeta_rejected(self, capsys):
        code, out, err = run(capsys, "green", "--alpha-pi", "1/2", "--n", "2",
                             "--zeta", "nan,0", "--grid", "3,3")
        assert code == 2
        assert out == ""
        assert "interior" in err

    @pytest.mark.parametrize("grid", ["30000,30000", "10000001,1"])
    def test_oversized_grid_exits_two(self, capsys, grid):
        # more cells than the node budget exits before any array is built
        with pytest.raises(SystemExit) as err:
            main(["green", "--alpha-pi", "1/2", "--n", "2",
                  "--zeta", "0.4,0.1", "--grid", grid])
        assert err.value.code == 2
        assert "more than 10000000" in capsys.readouterr().err


class TestPoissonTab:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "poisson", "--alpha-pi", "1/2", "--n", "2",
                           "--z", "0.4,0.1", "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "arc,t,x,y,p"
        assert sum(line.startswith("C0") for line in lines) == 5
        assert sum(line.startswith("C1") for line in lines) == 5

    @pytest.mark.parametrize("p, q, n", [(1, 2, 2), (999, 1000, 2),
                                         (9, 10, 1)])
    def test_rows_are_the_strip_kernel(self, capsys, p, q, n):
        # the tabulated kernel is SectorMap.strip_poisson at the samples
        code, out, _ = run(capsys, "poisson", "--alpha-pi", f"{p}/{q}",
                           "--n", str(n), "--z", "0.4,0.1", "--samples", "16")
        assert code == 0
        params = LensParams(math.pi * p / q, n)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 16 * len(arcs(params))
        for arc_id in arcs(params):
            mine = [r for r in rows if r[0] == arc_id]
            bp = boundary_samples(params, arc_id, 16)
            assert [float(r[1]) for r in mine] == list(bp.t)
            expected = sector_map(params).strip_poisson(0.4 + 0.1j, bp.point)
            assert [float(r[4]) for r in mine] == list(expected)

    def test_many_samples_clear_the_corners(self, capsys):
        # on the C0 of (999/1000 pi, 2) a quarter spacing forward would take
        # the last of 40000 samples within EPS_CORNER of its corner
        code, out, err = run(capsys, "poisson", "--alpha-pi", "999/1000",
                             "--n", "2", "--z", "0.999,0",
                             "--samples", "40000")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 80001

    def test_nan_z_rejected(self, capsys):
        code, _, err = run(capsys, "poisson", "--alpha-pi", "1/2", "--n", "2",
                           "--z", "nan,0")
        assert code == 2
        assert "interior" in err

    # 900000000 is past the node budget; it exits before any array is built
    @pytest.mark.parametrize("samples", ["0", "-3", "900000000"])
    def test_samples_below_one_exit_two(self, capsys, samples):
        with pytest.raises(SystemExit) as err:
            main(["poisson", "--alpha-pi", "1/2", "--n", "2", "--z", "0.4,0.1",
                  "--samples", samples])
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err


class TestSolveCommands:
    @pytest.fixture
    def dirichlet_problem(self, tmp_path):
        payload = {"alpha": math.pi / 2, "n": 2,
                   "gamma": {"kind": "abs2"},
                   "f": {"kind": "const", "payload": 1.0},
                   "points": [[0.4, 0.1]]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.fixture
    def neumann_problem(self, tmp_path):
        # gamma = 2 Re(q conj(z)) on the half-disc written as samples is
        # awkward; use the solvable catalog pair gamma = const balanced by f
        payload = {"alpha": math.pi / 2, "n": 2,
                   "gamma": {"kind": "const", "payload": 1.0},
                   "f": {"kind": "const",
                         "payload": (2 + math.pi) / (4 * (math.pi / 2))},
                   "points": [[0.4, 0.1], [0.2, 0.2]]}
        path = tmp_path / "neumann.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_solve_dirichlet(self, capsys, dirichlet_problem):
        code, out, _ = run(capsys, "solve-dirichlet", "--problem",
                           dirichlet_problem)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "point_re,point_im,w_re,w_im"
        _, _, w_re, w_im = (float(v) for v in lines[1].split(","))
        assert w_re == pytest.approx(abs(0.4 + 0.1j) ** 2, abs=1e-4)
        assert w_im == pytest.approx(0.0, abs=1e-10)

    def test_solve_neumann_with_pin(self, capsys, neumann_problem):
        code, out, _ = run(capsys, "solve-neumann", "--problem", neumann_problem,
                           "--pin", "0.4,0.1=0.0")
        assert code == 0
        lines = out.strip().splitlines()
        _, _, w_re, _ = (float(v) for v in lines[1].split(","))
        assert w_re == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("pin", ["0.4,0.1=1,2,3", "0.4,0.1=nan",
                                     "0.4,0.1=inf", "0.4,0.1=0,-inf"],
                             ids=["three_parts", "nan", "inf", "inf_im"])
    def test_bad_pin_exits_two(self, capsys, neumann_problem, pin):
        with pytest.raises(SystemExit) as err:
            main(["solve-neumann", "--problem", neumann_problem, "--pin", pin])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--pin" in captured.err

    def test_exterior_pin_exits_two(self, capsys, neumann_problem):
        # the pin point is named as --pin, not as an evaluation point the
        # problem file does not hold
        code, out, err = run(capsys, "solve-neumann", "--problem",
                             neumann_problem, "--pin", "2,0=1")
        assert code == 2
        assert out == ""
        assert "--pin must name an interior point" in err
        assert "evaluation point" not in err

    def test_violating_neumann_exits_one(self, capsys, tmp_path):
        payload = {"alpha": math.pi / 2, "n": 2,
                   "gamma": {"kind": "const", "payload": 1.0},
                   "f": {"kind": "zero"}, "points": [[0.4, 0.1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "solve-neumann", "--problem", str(path))
        assert code == 1
        assert "defect" in err

    def test_nan_point_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"alpha": 1.5707963267948966, "n": 2, '
                        '"gamma": {"kind": "re"}, "points": [[NaN, 0.1]]}')
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code != 0
        assert out == ""
        assert "exterior" in err

    @pytest.mark.parametrize("entries", [
        '"gamma": {"kind": "const", "payload": NaN}',
        '"gamma": {"kind": "abs2"}, "f": {"kind": "const", "payload": Infinity}',
        '"gamma": {"kind": "samples", "payload": {'
        '"C1": {"arclen": [0, 1, 2], "values": [[0, 0], [NaN, 0], [1, 0]]}, '
        '"C0": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}}}',
    ], ids=["nan_gamma", "inf_source", "nan_sample"])
    def test_non_finite_data_exits_one(self, capsys, tmp_path, entries):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 1.5707963267948966, "n": 2, ' + entries
                        + ', "points": [[0.4, 0.1]]}')
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("entries", [
        '"n": Infinity, "gamma": {"kind": "re"}',
        '"n": 2.5, "gamma": {"kind": "re"}',
        '"n": true, "gamma": {"kind": "re"}',
        '"n": "2", "gamma": {"kind": "re"}',
        '"n": 2, "gamma": {"kind": "re_zk", "payload": 2.7}',
    ], ids=["inf_n", "fractional_n", "bool_n", "string_n", "fractional_power"])
    def test_non_integer_exits_one(self, capsys, tmp_path, entries):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 1.5707963267948966, ' + entries
                        + ', "points": [[0.4, 0.1]]}')
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code == 1
        assert out == ""
        assert "integer" in err

    @pytest.mark.parametrize("quadrature", ['{"gauss_order": 1.5}',
                                            '{"area_radial": true}',
                                            '{"epsilon_corner": 1e-07}',
                                            '{"corner_grading": 0.5}',
                                            '{"gauss_order": 1000000}',
                                            '{"boundary_panels": 1000000000}'])
    def test_bad_quadrature_exits_one(self, capsys, tmp_path, quadrature):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 1.5707963267948966, "n": 2, '
                        '"gamma": {"kind": "abs2"}, "quadrature": '
                        + quadrature + ', "points": [[0.4, 0.1]]}')
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code == 1
        assert out == ""
        assert err

    @pytest.mark.parametrize("entries", [
        '"alpha": true, "gamma": {"kind": "re"}, "points": [[0.4, 0.1]]',
        '"alpha": "1.5707963267948966", "gamma": {"kind": "re"}, '
        '"points": [[0.4, 0.1]]',
        '"alpha": 1.5707963267948966, "gamma": {"kind": "re"}, '
        '"points": [["0.4", 0.1]]',
        '"alpha": 1.5707963267948966, "gamma": {"kind": "re"}, '
        '"points": [[0.4, 0.1, 7]]',
        '"alpha": 1.5707963267948966, "gamma": {"kind": "re"}, "points": 5',
        '"alpha": 1.5707963267948966, "gamma": {"kind": "samples", "payload": {'
        '"C1": {"arclen": [0, 1], "values": [["1", 0], [1, 0]]}, '
        '"C0": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}}}, '
        '"points": [[0.4, 0.1]]',
    ], ids=["bool_alpha", "string_alpha", "string_point", "triple_point",
            "points_not_list", "string_sample"])
    def test_non_real_exits_one(self, capsys, tmp_path, entries):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, ' + entries + '}')
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "real number" in err or "[re, im] pairs" in err

    @pytest.mark.parametrize("n, tables, arc_id", [
        (2, '"C1": {"arclen": [0, 3], "values": [[0, 0], [1, 0]]}', "C0"),
        (2, '"C1": {"arclen": [0, 3], "values": [[0, 0], [1, 0]]}, '
            '"C0": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}, '
            '"C7": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}', "C7"),
        (1, '"C1": {"arclen": [0, 6], "values": [[0, 0], [1, 0]]}, '
            '"C0": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}', "C0"),
    ], ids=["missing_arc", "unknown_arc", "disc_c0"])
    def test_sample_arcs_must_match_lens(self, capsys, tmp_path, n, tables,
                                         arc_id):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"alpha": 1.5707963267948966, "n": {n}, '
                        f'"gamma": {{"kind": "samples", "payload": {{{tables}}}}}, '
                        f'"points": [[0.4, 0.1]]}}')
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: samples ")
        assert repr(arc_id) in err

    def test_table_missing_part_of_its_arc_exits_one(self, capsys,
                                                     tmp_path):
        # Re z^3 in 40-sample tables; C1's covers the first half of the arc
        params = LensParams(math.pi / 2, 2)
        tables = {}
        for arc_id, share in (("C0", 1.0), ("C1", 0.5)):
            arc = arcs(params)[arc_id]
            bp = boundary_point(params, arc_id, np.linspace(
                -arc.half_width, (2.0 * share - 1.0) * arc.half_width, 40))
            tables[arc_id] = {"arclen": bp.arclen.tolist(),
                              "values": [[(z ** 3).real, 0.0]
                                         for z in bp.point.tolist()]}
        path = tmp_path / "half.json"
        path.write_text(json.dumps({
            "alpha": math.pi / 2, "n": 2,
            "gamma": {"kind": "samples", "payload": tables},
            "points": [[0.4, 0.1]]}))
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: the C1 sample table spans")

    # Re z^3 with f = 0 on the half disc, so the answers come from the
    # boundary kernel alone: (points, rows, bound)
    @pytest.mark.parametrize("points, count, bound", [
        # 1e-3 and 0.01 inside the unit arc, 1e-3 and 5e-4 from the chord:
        # the boundary mesh regrades both arcs next to a point
        ([0.999, 0.001, 0.7 + 0.7j, 0.0005 + 0.5j], 4, 1e-10),
        # 1e-2 or more inside: the 512 plain boundary nodes let the solver
        # take 64 points at a time, so the call runs in 4 chunks
        (sample_interior(LensParams(math.pi / 2, 2), np.random.default_rng(0),
                         200, margin=1e-2).tolist(), 200, 1e-10),
        # 1e-9 inside, two at the unit arc and one at the chord: the mesh is
        # graded down to half a point's distance, so they read about 1e-9
        # (2.1e-3 with a fixed 1e-8 floor on that grading)
        ([(1 - 1e-9) * cmath.exp(0.7j), (1 - 1e-9) * cmath.exp(-0.2j),
          1e-9 + 0.3j, 0.5 + 0.1j], 4, 1e-8),
    ], ids=["near", "many", "deep"])
    def test_harmonic_problem_files(self, capsys, tmp_path, points, count,
                                    bound):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "alpha": math.pi / 2, "n": 2,
            "gamma": {"kind": "re_zk", "payload": 3}, "f": {"kind": "zero"},
            "points": [[z.real, z.imag] for z in map(complex, points)]}))
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == count
        z = np.array([complex(float(r["point_re"]), float(r["point_im"]))
                      for r in rows])
        gaps = np.abs([float(r["w_re"]) for r in rows] - np.real(z ** 3))
        assert gaps.max() <= bound

    @pytest.mark.parametrize("problem, name", [
        (dict(_GOOD, source={"kind": "const", "payload": 1.0}), "'source'"),
        (dict(_GOOD, gamma={"kind": "const", "value": 2.0}), "'value'"),
        (dict(_GOOD, gamma={"kind": "re_z2", "payload": 3}), "payload"),
        (dict(_GOOD, gamma={"kind": "const"}), "payload"),
        ([_GOOD], "problem"),
        (dict(_GOOD, gamma=3), "gamma"),
        (dict(_GOOD, f=None), "f must"),
        (dict(_GOOD, gamma={"kind": "samples"}), "'payload'"),
        (dict(_GOOD, gamma={"kind": "samples", "payload": [0, 1]}), "samples"),
        (dict(_GOOD, gamma={"kind": "samples", "payload": {
            "C1": [[0, 0], [1, 0]],
            "C0": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}}}),
         "samples table C1"),
        ({k: v for k, v in _GOOD.items() if k != "gamma"}, "'gamma'"),
        (dict(_GOOD, gamma={"kind": "samples", "payload": {
            "C1": {"arclen": {}, "values": [[0, 0], [1, 0]]},
            "C0": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}}}),
         "C1 sample arclens must be a list"),
        (dict(_GOOD, gamma={"kind": "samples", "payload": {
            "C1": {"arclen": ["0", "4"], "values": [[0, 0], [1, 0]]},
            "C0": {"arclen": [0, 2], "values": [[0, 0], [0, 0]]}}}),
         "C1 sample arclen 0 must be a real number, got '0'"),
        (dict(_GOOD, gamma={"kind": "const", "payload": "2"}),
         "constant payload must be a number, got '2'"),
        (dict(_GOOD, gamma={"kind": "const", "payload": True}),
         "constant payload must be a number, got True"),
    ], ids=["source_key", "gamma_value", "payload_on_re_z2",
            "const_without_payload", "top_level_list", "gamma_number",
            "null_f", "samples_without_payload", "samples_list",
            "table_list", "missing_gamma", "arclen_object",
            "string_arclen", "string_const", "bool_const"])
    def test_malformed_problem_exits_one(self, capsys, tmp_path, problem, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(problem))
        code, out, err = run(capsys, "solve-dirichlet", "--problem", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "solve-dirichlet", "--problem",
                           "/nonexistent.json")
        assert code == 1
        assert err


class TestValidateCommand:
    def test_passes_and_reports_mass(self, capsys):
        code, out, _ = run(capsys, "validate", "--alpha", "1.5707963",
                           "--n", "2", "--quick")
        assert code == 0
        assert "mass identity: 1.000000000000" in out
        assert "checks passed" in out

    # the CLI promises byte-identical output, and the benchmark grades it
    # that way
    @pytest.mark.parametrize("alpha_pi, n", [("2/3", "2"), ("1/2", "8")])
    def test_deterministic_output(self, capsys, alpha_pi, n):
        args = ("validate", "--alpha-pi", alpha_pi, "--n", n, "--quick")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_sampling_failure_exits_one(self, capsys, monkeypatch):
        def fail(params, quick=False):
            raise RuntimeError("interior sampling did not converge")

        monkeypatch.setattr("lenspot.cli.run_checks", fail)
        code, out, err = run(capsys, "validate", "--alpha-pi", "3/5",
                             "--n", "64", "--quick")
        assert code == 1
        assert out == ""
        assert err == "error: interior sampling did not converge\n"

    @pytest.mark.parametrize("alpha", [["--alpha-pi", "3/5"],
                                       ["--alpha", "1.5807963267948966"]])
    def test_thin_lens_reaches_its_summary(self, capsys, alpha):
        # the catalog's sampling margins shrink to fit a lens this thin
        code, out, err = run(capsys, "validate", *alpha, "--n", "64",
                             "--quick")
        assert code in (0, 1)
        assert err == ""
        assert re.fullmatch(r"\d+/50 checks passed",
                            out.splitlines()[-1])

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "validate", "--alpha-pi", "1/2", "--n", "2",
                           "--quick", "--output", str(path))
        assert code == 0
        assert out == ""
        assert "mass identity" in path.read_text()


class TestNegativeCoordinates:
    """An RE,IM pair with a negative real part follows its option as a word
    of its own, as the --option=value form has it; the disc holds such
    points."""

    @pytest.fixture
    def disc_neumann_problem(self, tmp_path):
        # gamma = 1 on the unit circle, balanced by f = 1/2: 2 pi = 4 pi / 2
        payload = {"alpha": math.pi / 2, "n": 1,
                   "gamma": {"kind": "const", "payload": 1.0},
                   "f": {"kind": "const", "payload": 0.5},
                   "points": [[0.4, 0.1], [-0.2, -0.3]]}
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.mark.parametrize("command, option, value", [
        (["poisson", "--alpha-pi", "1/2", "--n", "1", "--samples", "8"],
         "--z", "-0.5,0.1"),
        (["green", "--alpha-pi", "1/2", "--n", "1", "--grid", "5,5"],
         "--zeta", "-0.5,0"),
        (["parquet", "--alpha-pi", "1/2", "--n", "1"], "--sample", "-0.5,0"),
    ], ids=["poisson", "green", "parquet"])
    def test_as_a_word_and_after_equals(self, capsys, command, option, value):
        code, out, err = run(capsys, *command, option, value)
        assert code == 0 and not err
        assert run(capsys, *command, f"{option}={value}") == (0, out, "")
        if option == "--z":
            assert len(out.splitlines()) == 9
        if option == "--sample":
            assert json.loads(out)["orbit"][0] == [-0.5, 0.0]

    def test_pin(self, capsys, disc_neumann_problem):
        command = ["solve-neumann", "--problem", disc_neumann_problem]
        code, out, err = run(capsys, *command, "--pin", "-0.5,0.1=0")
        assert code == 0 and not err
        assert run(capsys, *command, "--pin=-0.5,0.1=0") == (0, out, "")
        # the pin moves the values: 0 at -0.5+0.1i is not 0 at 0.4+0.1i
        _, other, _ = run(capsys, *command, "--pin", "0.4,0.1=0")
        assert other != out

    def test_negative_value_still_checked(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["poisson", "--alpha-pi", "1/2", "--n", "1", "--z", "-0.5"])
        assert err.value.code == 2
        assert "expected re,im pair" in capsys.readouterr().err


class TestArguments:
    def test_bad_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_alpha_exits_two(self, capsys):
        code, _, err = run(capsys, "parquet", "--n", "2")
        assert code == 2
        assert "alpha" in err

    def test_both_alphas_exit_two(self, capsys):
        code, _, _ = run(capsys, "parquet", "--alpha", "1.0", "--alpha-pi",
                         "1/2", "--n", "2")
        assert code == 2

    def test_bad_alpha_pi_exits_two(self, capsys):
        code, _, _ = run(capsys, "parquet", "--alpha-pi", "x/y", "--n", "2")
        assert code == 2

    def test_bad_complex_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["green", "--alpha", "1.0", "--n", "2", "--zeta", "nope",
                  "--grid", "2,2"])
        assert err.value.code == 2

    def test_threads_env_ignored(self, capsys, monkeypatch):
        # LENS_THREADS is accepted for compatibility and never read
        monkeypatch.setenv("LENS_THREADS", "zero")
        code, out, err = run(capsys, "parquet", "--alpha", "1.0", "--n", "2")
        assert code == 0
        assert out and not err
