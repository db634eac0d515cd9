"""Harmonic Green/Neumann kernels and Poisson solvers for two-arc lens domains."""

from .circles import (CircleMatrix, HomogeneousPoint, INFINITY, circle_contains,
                      equivalent, from_center_radius, real_axis, reflect_circle,
                      reflect_point, unit_circle)
from .conformal import SectorMap, sector_map
from .domain import (Arc, BoundaryPoint, LensParams, ReflectionOrbit, arc_lengths,
                     arc_matrix, arcs, boundary_distance, boundary_point,
                     boundary_samples, classify_point, normal_coeffs,
                     reflection_orbit, sample_interior)
from .kernels import KernelField, evaluate_on_grid
from .quadrature import (QuadratureSpec, area_mesh, boundary_mesh,
                         convergence_report, integrate_area, integrate_boundary)
from .solvers import (BoundaryData, Problem, SolvabilityError, SourceTerm,
                      check_neumann_solvability, load_problem,
                      normal_derivative_data, probe_normalization_constant,
                      solution_rows, solve_dirichlet, solve_neumann)

__version__ = "0.1.0"

__all__ = [
    "Arc", "BoundaryData", "BoundaryPoint", "CircleMatrix", "HomogeneousPoint",
    "INFINITY", "KernelField", "LensParams", "Problem", "QuadratureSpec",
    "ReflectionOrbit", "SectorMap", "SolvabilityError", "SourceTerm",
    "arc_lengths", "arc_matrix", "arcs", "area_mesh", "boundary_distance",
    "boundary_mesh", "boundary_point", "boundary_samples",
    "check_neumann_solvability", "circle_contains", "classify_point",
    "convergence_report", "equivalent", "evaluate_on_grid",
    "from_center_radius", "integrate_area",
    "integrate_boundary", "load_problem", "normal_coeffs",
    "normal_derivative_data", "probe_normalization_constant", "real_axis",
    "reflect_circle", "reflect_point", "reflection_orbit", "sample_interior",
    "sector_map", "solution_rows", "solve_dirichlet", "solve_neumann",
    "unit_circle",
]
