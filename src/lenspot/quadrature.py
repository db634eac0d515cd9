"""Composite Gauss-Legendre quadrature over the lens boundary and interior.

Boundary arcs integrate in their native parameter with panels graded
geometrically into the corners (kernels are at worst logarithmic there).
Area integrals pull the domain back through the strip coordinate
w = log of the corner-pinning Mobius map (conformal.SectorMap, which owns
the map, its pullback and its check): the image is a strip of height pi/n
for every parameter choice, the corners sit at x = -inf/+inf where the
exact Jacobian |2i sin(alpha) s / (s-1)^2|^2 decays like exp(-2|x|), and
the strip is cut only at the corner exclusion zone, 1.5 * EPS_CORNER from
the corners.  area_mesh hands back the nodes' strip coordinates with the
points, so the solvers evaluate their area kernels in the strip, where
they cost O(1) per node at any n.

Every other grading follows one rule (_split): a panel or cell is halved
until it is at most max(floor, _ATTRACT_RATIO * d) wide along each axis,
d being its distance to an attractor.  The attractors are the nearest
boundary point of boundary_mesh's near point, if closer than
_NEAR_BOUNDARY; the Jacobian's poles outside the strip, if closer than
a panel width (grading the strip's x and y edges); and the image w0 of
area_mesh's singular point, snapped onto panel edges, toward which only
the nearby strip cells are split.  The singular point's reflection images
are the mirror images of w0 in the strip's edges, never closer to a strip
point than w0, so they need no grading of their own.  Floors shrink as
panel counts grow, so refined specs refine the mesh everywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .conformal import SectorMap
from .domain import (EPS_CORNER, BoundaryPoint, _is_number, arcs,
                     boundary_distance, classify_point)

_CORNER_LEVELS = 8          # graded panels appended at each corner
_CORNER_GRADING = 0.5       # width ratio of successive corner panels
_ATTRACT_RATIO = 0.7        # panel width allowed per unit distance to attractor
_NEAR_BOUNDARY = 0.35       # kernel peak width ~ distance; grade panels below this
_SINGULAR_FLOOR = 1e-5      # smallest panel width forced at a log singularity
_NODE_BUDGET = 10 ** 7      # largest plain boundary or area mesh a spec may ask for


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs; defaults are tuned for ~1e-8 on smooth data."""

    gauss_order: int = 8
    boundary_panels: int = 16
    area_radial: int = 24
    area_angular: int = 8

    def __post_init__(self):
        counts = tuple(vars(self).values())
        if not all(_is_number(c, numbers.Integral) for c in counts):
            raise ValueError("all quadrature counts must be integers")
        if min(counts) < 1:
            raise ValueError("all quadrature counts must be >= 1")
        order = int(self.gauss_order)
        nodes = max(int(self.boundary_panels) * order,
                    int(self.area_radial) * int(self.area_angular) * order ** 2)
        if nodes > _NODE_BUDGET:
            raise ValueError(f"quadrature counts ask for {nodes} nodes, "
                             f"more than {_NODE_BUDGET}")

    def refined(self, factor=2):
        """Same rule with all panel counts multiplied (order kept)."""
        return replace(self, boundary_panels=self.boundary_panels * factor,
                       area_radial=self.area_radial * factor,
                       area_angular=self.area_angular * factor)


@lru_cache(maxsize=32)
def _gauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _insert_edges(edges, positions):
    out = list(edges)
    lo, hi = out[0], out[-1]
    for p in positions:
        if lo + 1e-12 < p < hi - 1e-12:
            out.append(p)
    out = sorted(set(out))
    # drop near-duplicate edges that would create degenerate panels
    kept = [out[0]]
    for e in out[1:]:
        if e - kept[-1] > 1e-13 * (hi - lo):
            kept.append(e)
    if kept[-1] != hi:
        kept[-1] = hi
    return kept


def _split(lo, hi, attractors):
    """Bisect boxes toward attractors; returns the leaves as (lo, hi).

    lo and hi hold the boxes' corners, one row per axis, in any dimension;
    each attractor is a (point, floor) pair of per-axis sequences.  Every
    leaf is at most min over attractors of max(floor, _ATTRACT_RATIO * d)
    wide along each axis, d being its Euclidean distance to the attractor's
    point.  Each level halves every box still too wide across the axis that
    overshoots its allowance most (the first on a tie), for the whole batch
    at once.
    """
    dim = len(lo)
    attractors = [(np.array(p, dtype=float)[:, None],
                   np.array(f, dtype=float)[:, None]) for p, f in attractors]
    boxes = np.concatenate([lo, hi])   # rows: lo by axis, then hi by axis
    leaves = []
    while boxes.shape[1]:
        lo, hi = boxes[:dim], boxes[dim:]
        allowances = []
        for point, floor in attractors:
            gap = np.maximum(np.maximum(lo - point, point - hi), 0.0)
            allowances.append(np.maximum(floor,
                                         _ATTRACT_RATIO * reduce(np.hypot, gap)))
        over = (hi - lo) / reduce(np.minimum, allowances)
        axis = over.argmax(axis=0)
        split = over.max(axis=0) > 1.0
        leaves.append(boxes[:, ~split])
        # halves grouped by the axis cut: node order sets math.fsum's cost
        halves = []
        for k in range(dim):
            first = boxes[:, split & (axis == k)]
            second = first.copy()
            first[dim + k] = second[k] = 0.5 * (first[k] + first[dim + k])
            halves += [first, second]
        boxes = np.concatenate(halves, axis=1)
    leaves = np.concatenate(leaves, axis=1)
    return leaves[:dim], leaves[dim:]


def _graded_edges(edges, attractors, min_width):
    """Panel edges after _split toward (position, floor) attractors; no
    panel is split below twice min_width."""
    if not attractors:
        return edges
    edges = np.asarray(edges, dtype=float)
    lo, _ = _split(edges[None, :-1], edges[None, 1:],
                   [((p,), (max(f, 2.0 * min_width),)) for p, f in attractors])
    return np.append(np.sort(lo[0]), edges[-1])


def _shrink(spec, count):
    """Attractor floors shrink with the panel count named count, so doubled
    counts refine the mesh everywhere and self-convergence studies stay
    honest."""
    return min(1.0, getattr(QuadratureSpec(), count) / getattr(spec, count))


def _graded_base_edges(lo, hi, panels, corner_width):
    """Uniform panel edges, graded geometrically into both ends; grading
    levels narrower than corner_width are left out (all if it is inf)."""
    base = list(np.linspace(lo, hi, panels + 1))
    h = base[1] - base[0]
    levels = [k for k in range(1, _CORNER_LEVELS + 1)
              if h * _CORNER_GRADING ** k >= corner_width]
    left = [lo + h * _CORNER_GRADING ** k for k in reversed(levels)]
    right = [hi - h * _CORNER_GRADING ** k for k in levels]
    return [lo] + left + base[1:-1] + right + [hi]


def _gauss_nodes(lo, hi, order):
    """Gauss-Legendre nodes and weights on the panels [lo, hi], one row
    per panel."""
    x, w = _gauss(order)
    half = 0.5 * (hi - lo)[..., None]
    return 0.5 * (lo + hi)[..., None] + half * x, half * w


def _fsum_weighted(weights, values):
    contrib = np.asarray(values) * weights
    if np.iscomplexobj(contrib):
        return complex(math.fsum(contrib.real.ravel().tolist()),
                       math.fsum(contrib.imag.ravel().tolist()))
    return math.fsum(contrib.ravel().tolist())


# ----------------------------------------------------------------------
# boundary

def boundary_mesh(spec, params, near=None):
    """Quadrature nodes along the whole boundary.

    With near set (an evaluation point), panels are graded toward its
    nearest boundary point when that is closer than _NEAR_BOUNDARY, down to
    about half the distance, so kernels peaked there are resolved.  Returns
    [(BoundaryPoint batch, weights), ...]; nodes never coincide with the
    corner points.
    """
    near_arc = None
    if near is not None:
        d, arc_id, near_t = boundary_distance(params, near)
        if d < _NEAR_BOUNDARY:
            near_arc = arc_id
            floor = max(max(0.5 * d, 1e-8) * _shrink(spec, "boundary_panels"),
                        1e-10)
    # a corner panel at least this long keeps its first Gauss node
    # 2 * EPS_CORNER clear of the corner
    first_node = 0.5 * (1.0 + _gauss(spec.gauss_order)[0][0])
    corner_arclen = 2.0 * EPS_CORNER / first_node
    out = []
    for arc in arcs(params).values():
        lo, hi = arc.t_range
        edges = _graded_base_edges(
            lo, hi, spec.boundary_panels,
            corner_arclen / arc.speed if params.n > 1 else math.inf)
        if params.n == 1:
            # keep nodes clear of the two marked points on the circle
            edges = _insert_edges(edges, [-params.alpha, params.alpha])
        if arc.arc_id == near_arc:
            edges = _graded_edges(_insert_edges(edges, [near_t]),
                                  [(near_t, floor / arc.speed)],
                                  1e-13 * (hi - lo))
        edges = np.asarray(edges)
        t, w = (a.ravel() for a in _gauss_nodes(edges[:-1], edges[1:],
                                                  spec.gauss_order))
        bp = BoundaryPoint(arc.arc_id, t, arc.point(t), arc.arclen(t))
        out.append((bp, w * arc.speed))
    return out


def integrate_boundary(spec, params, f, near=None):
    """Arc-length line integral of f over the boundary.

    f maps a BoundaryPoint batch to values (scalars broadcast); corner
    singularities up to logarithmic strength are absorbed by the graded
    panels, and near names an evaluation point to grade toward (see
    boundary_mesh).  Summation is compensated, so the result is
    reproducible.
    """
    total = 0.0
    for bp, w in boundary_mesh(spec, params, near):
        total = total + _fsum_weighted(w, f(bp))
    return total


# ----------------------------------------------------------------------
# area

def area_mesh(spec, params, singular_at=None):
    """Nodes for area integrals over the domain: (points, weights, (x, y)).

    points and weights are flat arrays.  x and y are the nodes' strip
    coordinates w = x + iy as factors shaped (1, order, cells) and
    (order, 1, cells): any g(x, y) built from them broadcasts to
    (order, order, cells) and its ravel lines up with points, so a kernel
    evaluated in the strip pays for the x and y factors once per cell
    (SectorMap.strip_green and strip_neumann).

    With singular_at set (a strictly interior point), the image w0 of that
    point is snapped onto panel edges and the cells near it are split
    locally (see _split), so integrands with a log singularity
    there converge at full order.  The strip is truncated where nodes
    would enter the corner exclusion zone; the Jacobian is ~1e-14 there,
    so nothing of the integral is lost.
    """
    smap = SectorMap(params)
    X = -math.log(1.5 * EPS_CORNER / (2.0 * math.sin(params.alpha)))
    theta = params.theta

    hx = 2.0 * X / spec.area_radial
    hy = theta / spec.area_angular
    fx = _shrink(spec, "area_radial")
    fy = _shrink(spec, "area_angular")
    x_att = []
    y_att = []
    gap = min(smap.gap_top, smap.gap_bottom)
    if gap < 1.5 * hx:
        x_att.append((0.0, _ATTRACT_RATIO * gap * fx))
    if smap.gap_top < 1.5 * hy:
        y_att.append((0.0, _ATTRACT_RATIO * smap.gap_top * fy))
    if smap.gap_bottom < 1.5 * hy:
        y_att.append((-theta, _ATTRACT_RATIO * smap.gap_bottom * fy))

    w0 = None
    if singular_at is not None:
        z0 = complex(singular_at)
        if classify_point(params, z0) != "interior":
            raise ValueError("singular point must lie strictly inside the domain")
        w0 = complex(smap.to_w(z0))

    x_edges = _insert_edges(np.linspace(-X, X, spec.area_radial + 1),
                            [] if w0 is None else [w0.real])
    x_edges = _graded_edges(x_edges, x_att, min_width=1e-13 * X)
    y_edges = _insert_edges(np.linspace(-theta, 0.0, spec.area_angular + 1),
                            [] if w0 is None else [w0.imag])
    y_edges = _graded_edges(y_edges, y_att, min_width=1e-13 * theta)

    grid = np.meshgrid(x_edges, y_edges, indexing="ij")
    lo = np.stack([g[:-1, :-1].ravel() for g in grid])
    hi = np.stack([g[1:, 1:].ravel() for g in grid])
    if w0 is not None:
        lo, hi = _split(lo, hi, [((w0.real, w0.imag),
                                  (_SINGULAR_FLOOR * fx, _SINGULAR_FLOOR * fy))])

    # Gauss tensor nodes on every cell, the cells along the last axis so
    # that products of x and y factors run along it
    xn, wx, yn, wy = (np.ascontiguousarray(g.T) for axis in zip(lo, hi)
                      for g in _gauss_nodes(*axis, spec.gauss_order))
    x, y = xn[None, :, :], yn[:, None, :]
    points, jacobian = smap.pullback(x, y)
    weights = wx[None, :, :] * wy[:, None, :] * jacobian
    return points.ravel(), weights.ravel(), (x, y)


def integrate_area(spec, params, f, singular_at=None):
    """Area integral of f over the domain (dx dy measure).

    f maps complex points to values and may carry a logarithmic
    singularity at singular_at, which must be strictly interior.
    """
    points, weights, _ = area_mesh(spec, params, singular_at)
    return _fsum_weighted(weights, f(points))


# ----------------------------------------------------------------------
# convergence studies

def convergence_report(spec, params, f, refinements=2, kind="boundary",
                       singular_at=None):
    """Repeat an integral at doubled panel counts; estimate the order.

    Returns one row per level: {level, resolution, value, est_order}; the
    order entry compares successive differences and needs three levels.
    """
    rows = []
    values = []
    s = spec
    for level in range(refinements + 1):
        if kind == "boundary":
            value = integrate_boundary(s, params, f)
            resolution = s.boundary_panels
        elif kind == "area":
            value = integrate_area(s, params, f, singular_at=singular_at)
            resolution = s.area_radial
        else:
            raise ValueError("kind must be 'boundary' or 'area'")
        values.append(value)
        order = None
        if level >= 2:
            e_prev = abs(values[level - 1] - values[level - 2])
            e_last = abs(values[level] - values[level - 1])
            if e_last == 0.0:
                order = math.inf
            elif e_prev == 0.0:
                order = -math.inf
            else:
                order = math.log2(e_prev / e_last)
        rows.append({"level": level, "resolution": resolution,
                     "value": value, "est_order": order})
        s = s.refined()
    return rows
