"""The benchmark workloads and their reference checks.

BENCHMARK.json gates three of them: solve_source, solve_harmonic and
validate_quick.  kernel_grid runs the same way when named, but is not in
BENCHMARK.json: its wall time spread between runs by more than the 25%
bound on a shared host (see README.md).

Each workload draws every input from its seed, hands the program only those
inputs, and grades the answers afterwards, outside the timed region.  One
*call* is one request to the program (a solve, a CLI grid, a CLI validate);
one *operation* is the unit that is graded and counted: a solved point, a
grid cell or an invariant check.

Calls come in rounds.  A round holds, in a seeded order, one call of each
of the two kinds for every parameter set.  The call sizes rotate through a
short list with a seeded offset per parameter set, and the second kind
takes the size mirrored in the list (first with last, and so on), so each
parameter set gets about the same work in every round.  A run makes whole
periods of `period` rounds, after which every parameter set and kind has
had every size once, so every run makes the same calls up to the points,
poles and order its seed picks.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

# Traced functions are looked up on the package at call time, so that the
# wrappers tracing.py installs there are the ones called.
import lenspot
import lenspot.cli
from lenspot import (BoundaryData, KernelField, LensParams, QuadratureSpec,
                     SectorMap, SourceTerm, arcs, normal_derivative_data)

# The four (alpha, n) choices named in ROADMAP.md.
PARAMS = ((math.pi / 2, 2), (math.pi / 3, 3), (math.pi / 2, 8),
          (math.pi / 2 + 0.01, 64))
# QuadratureSpec's defaults are tuned for ~1e-8 on smooth data.
THRESHOLD = 1e-8
MARGIN = 1e-3


class Grade:
    """Graded operations of one call.

    Accuracy is kept as a sum and a count of min(16, -log10(error)) over
    the operations that carry an error (an exact answer scores 16), so a
    long run holds no per-operation data.
    """

    def __init__(self, attempted, failed, errors, well_formed=True):
        errors = np.asarray(errors, dtype=float)
        with np.errstate(divide="ignore"):
            digits = np.minimum(16.0, -np.log10(errors))
        self.attempted = attempted
        self.failed = failed
        self.digits_sum = float(np.sum(digits))
        self.digits_count = int(digits.size)
        self.well_formed = well_formed


def failed_call(attempted):
    """A call that raised or returned malformed output: every operation
    fails and scores 0 digits."""
    grade = Grade(attempted, attempted, [], well_formed=False)
    grade.digits_count = attempted
    return grade


def balanced_rounds(rng, kinds, sizes):
    """Endless (parameter index, kind, size) calls (see module doc)."""
    offsets = rng.permutation(np.arange(len(PARAMS)) % len(sizes))
    combos = [(i, k) for i in range(len(PARAMS)) for k in range(len(kinds))]
    r = 0
    while True:
        for c in rng.permutation(len(combos)):
            i, k = combos[c]
            j = (r + offsets[i]) % len(sizes)
            yield i, kinds[k], sizes[len(sizes) - 1 - j if k else j]
        r += 1


def _reference_point(params):
    """Fixed interior point halfway between the two arc midpoints."""
    arcmap = arcs(params)
    return 0.5 * (complex(arcmap["C1"].point(0.0))
                  + complex(arcmap["C0"].point(0.0)))


# ----------------------------------------------------------------------
# solve_source and solve_harmonic

class SolveWorkload:
    """Alternating Dirichlet and Neumann solves of a manufactured problem.

    With a source the exact solution is |z|^2 (f = 1); without one it is
    Re z^3.  Neumann answers are compared modulo one additive constant per
    parameter set, fixed once from a solve at `_reference_point`.
    """

    kinds = ("dirichlet", "neumann")
    round_calls = len(PARAMS) * len(kinds)

    def __init__(self, source, sizes, pool):
        self.source = source
        self.sizes = sizes
        self.period = len(sizes)
        self.pool = pool

    def exact(self, z):
        z = np.asarray(z, dtype=complex)
        return np.abs(z) ** 2 if self.source else np.real(z ** 3)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        params = [LensParams(a, n) for a, n in PARAMS]
        problems = []
        for p in params:
            if self.source:
                f = SourceTerm.constant(1.0)
                problems.append({
                    "dirichlet": (BoundaryData.from_expression("abs2"), f),
                    "neumann": (normal_derivative_data(p, np.conj), f)})
            else:
                f = SourceTerm.zero()
                problems.append({
                    "dirichlet": (BoundaryData.from_expression("re_zk", 3), f),
                    "neumann": (normal_derivative_data(p, lambda z: 1.5 * z ** 2), f)})
        pools = [lenspot.sample_interior(p, rng, self.pool, margin=MARGIN) for p in params]
        return {"params": params, "problems": problems, "pools": pools,
                "spec": QuadratureSpec(),
                "order_seed": int(rng.integers(2 ** 63))}

    def warm_up(self, inp):
        for kind in self.kinds:
            self._solve(inp, 0, kind, inp["pools"][0][:1])

    def references(self, inp):
        consts = []
        for i, p in enumerate(inp["params"]):
            z = _reference_point(p)
            w = self._solve(inp, i, "neumann", [z])[0]
            consts.append(w - self.exact(z))
        return consts

    def calls(self, inp):
        cursor = [0] * len(PARAMS)
        for i, kind, size in balanced_rounds(
                np.random.default_rng(inp["order_seed"]), self.kinds, self.sizes):
            pool = inp["pools"][i]
            points = pool[(cursor[i] + np.arange(size)) % len(pool)]
            cursor[i] += size
            yield (i, kind, points)

    def _solve(self, inp, i, kind, points):
        gamma, f = inp["problems"][i][kind]
        solve = (lenspot.solve_dirichlet if kind == "dirichlet"
                 else lenspot.solve_neumann)
        return solve(inp["params"][i], inp["spec"], gamma, f, points)

    def run(self, inp, call):
        i, kind, points = call
        return self._solve(inp, i, kind, points)

    def collect(self, inp, call, output):
        return output

    def grade(self, inp, refs, call, record):
        i, kind, points = call
        w = np.asarray(record)
        if w.shape != points.shape or not np.all(np.isfinite(w)):
            return failed_call(len(points))
        if kind == "neumann":
            w = w - refs[i]
        errors = np.abs(w - self.exact(points))
        return Grade(len(points), int(np.sum(errors > THRESHOLD)), errors)


# ----------------------------------------------------------------------
# kernel_grid

def _take(path):
    """Contents of a CLI output file, which is then removed so a later call
    that writes nothing cannot be graded on stale output."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return None
    os.remove(path)
    return text


def _form_values(params, z):
    """The two circle forms of the domain, written out independently."""
    zz = np.abs(z) ** 2
    a, t = params.alpha, params.theta
    return (zz * math.sin(a - t) + 2.0 * z.real * math.sin(t) - math.sin(a + t),
            zz - 1.0)


class GridWorkload:
    """`lenspot green|neumann --grid` through the in-process CLI.

    Green grids are compared cell by cell with the conformal-map oracle
    `SectorMap.green`; Neumann grids with the kernel evaluated with its
    arguments swapped (the kernel is symmetric).  Cells well inside the
    domain must hold a value and cells well outside must be empty.
    """

    kinds = ("green", "neumann")
    round_calls = len(PARAMS) * len(kinds)
    sides = (100, 110, 120, 130)
    period = len(sides)
    poles = 16

    def __init__(self, out_dir):
        self.path = os.path.join(out_dir, "grid.csv")

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        params = [LensParams(a, n) for a, n in PARAMS]
        poles = [lenspot.sample_interior(p, rng, self.poles, margin=MARGIN) for p in params]
        return {"params": params, "poles": poles,
                "order_seed": int(rng.integers(2 ** 63))}

    def warm_up(self, inp):
        for kind in self.kinds:
            self.run(inp, (0, kind, inp["poles"][0][0], 8))
            _take(self.path)

    def references(self, inp):
        return {"oracles": [SectorMap(p) for p in inp["params"]],
                "fields": [KernelField(p) for p in inp["params"]]}

    def calls(self, inp):
        cursor = [0] * len(PARAMS)
        for i, kind, side in balanced_rounds(
                np.random.default_rng(inp["order_seed"]), self.kinds, self.sides):
            poles = inp["poles"][i]
            pole = poles[cursor[i] % len(poles)]
            cursor[i] += 1
            yield (i, kind, pole, side)

    def run(self, inp, call):
        i, kind, pole, side = call
        alpha, n = PARAMS[i]
        return lenspot.cli.main([
            kind, "--alpha", repr(alpha), "--n", str(n),
            "--zeta", f"{float(pole.real)!r},{float(pole.imag)!r}",
            "--grid", f"{side},{side}", "--output", self.path])

    def collect(self, inp, call, output):
        text = _take(self.path)
        if output != 0 or text is None:
            return None
        lines = text.splitlines()
        if not lines or lines[0] != "x,y,value":
            return None
        rows = [line.split(",") for line in lines[1:]]
        if any(len(r) != 3 for r in rows):
            return None
        xy = np.array([[float(r[0]), float(r[1])] for r in rows]).reshape(-1, 2)
        values = np.array([float(r[2]) if r[2] else math.nan for r in rows])
        return xy[:, 0] + 1j * xy[:, 1], values

    def grade(self, inp, refs, call, record):
        i, kind, pole, side = call
        cells = side * side
        if record is None or record[0].size != cells:
            return failed_call(cells)
        z, values = record
        params = inp["params"][i]
        f0, f1 = _form_values(params, z)
        inside = (f0 > 1e-9) & (f1 < -1e-9)
        outside = (f0 < -1e-9) | (f1 > 1e-9)
        valued = ~np.isnan(values)
        bad = (inside & ~valued) | (outside & valued)
        if kind == "green":
            ref = refs["oracles"][i].green(z[valued], complex(pole))
        else:
            ref = refs["fields"][i].neumann(complex(pole), z[valued])
        errors = np.abs(values[valued] - ref)
        errors[~np.isfinite(errors)] = math.inf
        bad[valued] |= errors > THRESHOLD
        return Grade(cells, int(np.sum(bad)), errors)


# ----------------------------------------------------------------------
# validate_quick

_CHECK_LINE = re.compile(r"^(?P<name>.+): (?P<value>\S+)  \[(?P<tol>[^\]]+)\]  "
                         r"(?P<status>PASS|FAIL)$")
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


class ValidateWorkload:
    """`lenspot validate --quick` through the in-process CLI.

    Each check line counts as one operation and fails when it reports FAIL
    or when the output differs from the first output of the run at the same
    parameters (the CLI promises byte-identical output).  Accuracy is taken
    over the checks that report an error below a positive tolerance.
    """

    params = (("2/3", 2), ("1/2", 8))
    round_calls = len(params)
    period = 1

    def __init__(self, out_dir):
        self.path = os.path.join(out_dir, "validate.txt")

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"first": int(rng.integers(len(self.params)))}

    def warm_up(self, inp):
        p, n = self.params[inp["first"]]
        lenspot.cli.main(["parquet", "--alpha-pi", p, "--n", str(n),
                          "--output", self.path])
        _take(self.path)

    def references(self, inp):
        return {}  # the first output per parameter set, filled while grading

    def calls(self, inp):
        k = inp["first"]
        while True:
            yield k
            k = (k + 1) % len(self.params)

    def run(self, inp, call):
        p, n = self.params[call]
        return lenspot.cli.main(["validate", "--alpha-pi", p, "--n", str(n),
                                 "--quick", "--output", self.path])

    def collect(self, inp, call, output):
        text = _take(self.path)
        if output is None or text is None:
            return None
        return output, text

    def grade(self, inp, refs, call, record):
        if record is None:
            known = refs.get(call, "").count("\n")
            return failed_call(max(1, known - 1))
        rc, text = record
        first = refs.setdefault(call, text)
        lines = text.splitlines()
        checks = [_CHECK_LINE.match(line) for line in lines[:-1]]
        summary = _SUMMARY_LINE.match(lines[-1]) if lines else None
        if not checks or None in checks or summary is None:
            return failed_call(max(1, len(first.splitlines()) - 1))
        first_lines = first.splitlines()
        failed = 0
        errors = []
        for k, m in enumerate(checks):
            differs = k >= len(first_lines) or lines[k] != first_lines[k]
            failed += m["status"] == "FAIL" or differs
            tol = m["tol"]
            if tol.startswith("tol="):
                value, tol = float(m["value"]), float(tol[4:])
                if 0.0 < tol and value <= tol:
                    errors.append(value)
        passed = len(checks) - sum(m["status"] == "FAIL" for m in checks)
        consistent = (text == first and int(summary[1]) == passed
                      and int(summary[2]) == len(checks)
                      and rc == (0 if passed == len(checks) else 1))
        return Grade(len(checks), failed, errors, well_formed=consistent)


def make(name, out_dir):
    if name == "solve_source":
        return SolveWorkload(source=True, sizes=(1, 3, 3), pool=64)
    if name == "solve_harmonic":
        return SolveWorkload(source=False, sizes=(1, 4, 16), pool=256)
    if name == "kernel_grid":
        return GridWorkload(out_dir)
    if name == "validate_quick":
        return ValidateWorkload(out_dir)
    raise ValueError(f"unknown workload {name!r}")

