"""Acceptance gate: the full invariant catalog at six parameter sets.

Every invariant is computed in `lenspot.validation`; this module only runs
its full tier and prints each check line with its measured value and pinned
tolerance.  Criteria c01-c11 assert their own catalog lines at their sets.
"""

import functools
import math

import pytest

from lenspot import LensParams
from lenspot.validation import run_checks

P2, T2, Q4 = (math.pi / 2, 2), (2 * math.pi / 3, 2), (math.pi / 4, 4)
R3, N9, H1 = (math.pi / 3, 3), (0.9 * math.pi, 1), (math.pi / 2, 1)
KERNEL_SETS = [P2, T2, Q4]
SETS = KERNEL_SETS + [R3, N9, H1]


@functools.lru_cache(maxsize=None)
def catalog(alpha, n):
    return run_checks(LensParams(alpha, n))


def assert_passes(alpha, n, names=None):
    """The named lines (all if None) are all present and none reads FAIL."""
    lines = [r for r in catalog(alpha, n) if names is None or r.name in names]
    for result in lines:
        print(f"({alpha / math.pi:.3g}pi, {n}) {result.render()}")
    assert names is None or sorted(r.name for r in lines) == sorted(names)
    assert [r.render() for r in lines if not r.ok] == []


@pytest.mark.parametrize("alpha, n", SETS,
                         ids=[f"{a / math.pi:.3g}pi-n{n}" for a, n in SETS])
def test_full_catalog_passes(alpha, n):
    assert_passes(alpha, n)


def criterion(sets, *names):
    def test():
        for alpha, n in sets:
            assert_passes(alpha, n, names)
    return test


test_c01_disc_reduction = criterion([N9, H1],
                                    "n=1 reduction to the disc kernel")
test_c02_conformal_oracle_equivalence = criterion(
    [P2, R3, T2, Q4], "oracle agrees with the product kernel")
test_c03_boundary_vanishing_and_symmetry = criterion(
    KERNEL_SETS, "green vanishes on the boundary", "green symmetry")
test_c04_prefactor_unimodular = criterion(
    KERNEL_SETS, "orbit prefactor unimodular on boundary")
test_c05_poisson_kernel = criterion(
    KERNEL_SETS, "poisson kernel = -1/2 normal derivative",
    "poisson kernel mass is 1", "poisson kernel vanishes boundary-to-boundary")
test_c06_neumann_density_and_mass = criterion(
    KERNEL_SETS, "neumann density matches normal derivative", "mass identity")
test_c07_neumann_boundary_limits = criterion(
    KERNEL_SETS, "neumann boundary limit (dist 1e-4)",
    "neumann boundary limit (dist 1e-6)")
test_c08_dirichlet_manufactured = criterion(
    [P2, R3], "dirichlet reproduces w = 1", "dirichlet reproduces Re z^3",
    "dirichlet reproduces |z|^2 with unit source")
test_c09_neumann_solver = criterion(
    [P2, R3], "divergence-theorem pair is solvable",
    "neumann reproduces Re z^2 up to a constant",
    "neumann reproduces |z|^2 up to a constant")
test_c10_quadrature_ground_truths = criterion(
    KERNEL_SETS + [N9], "boundary length matches closed form",
    "area matches segment sums")
test_c11_normalization_probe_reports = criterion(
    [T2, N9], "normalization-constant probe spread")
