"""Composite Gauss-Legendre quadrature over the lens boundary and interior.

Boundary arcs integrate in their native parameter with panels graded
geometrically into the corners (kernels are at worst logarithmic there),
plus optional extra grading toward a caller-named parameter, used when a
kernel is evaluated very close to the boundary.

Area integrals pull the domain back through w = log of the corner-pinning
Mobius map: the image is an axis-aligned strip rectangle of height pi/n
for every parameter choice, the corners sit at x = -inf/+inf where the
exact Jacobian |2i sin(alpha) s / (s-1)^2|^2 decays like exp(-2|x|), and a
declared logarithmic singularity is handled by snapping its image w0 onto
panel edges and splitting only the cells near w0, each until it is at most
_ATTRACT_RATIO times its distance to w0 wide.  The reflection images of
the singular point are the mirror images of w0 in the strip's edges; no
strip point is closer to an image than to w0, so they need no grading of
their own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .conformal import CornerMobius
from .domain import EPS_CORNER, BoundaryPoint, _is_number, arcs, classify_point

_STRIP_HALF_LENGTH = 20.0   # exp(-2x) tail below 4e-18
_CORNER_LEVELS = 8          # graded panels appended at each corner
_ATTRACT_RATIO = 0.7        # panel width allowed per unit distance to attractor
_SINGULAR_FLOOR = 1e-5      # smallest panel width forced at a log singularity


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs; defaults are tuned for ~1e-8 on smooth data."""

    gauss_order: int = 8
    boundary_panels: int = 16
    area_radial: int = 24
    area_angular: int = 8
    corner_grading: float = 0.5

    def __post_init__(self):
        counts = (self.gauss_order, self.boundary_panels,
                  self.area_radial, self.area_angular)
        if not all(_is_number(c, numbers.Integral) for c in counts):
            raise ValueError("all quadrature counts must be integers")
        if min(counts) < 1:
            raise ValueError("all quadrature counts must be >= 1")
        if not (_is_number(self.corner_grading, numbers.Real)
                and math.isfinite(self.corner_grading)):
            raise ValueError("corner_grading must be a finite number")
        if not 0.0 < self.corner_grading < 1.0:
            raise ValueError("corner_grading must lie in (0, 1)")

    def refined(self, factor=2):
        """Same rule with all panel counts multiplied (order kept)."""
        return replace(self, boundary_panels=self.boundary_panels * factor,
                       area_radial=self.area_radial * factor,
                       area_angular=self.area_angular * factor)

    def to_json(self):
        return {"gauss_order": self.gauss_order,
                "boundary_panels": self.boundary_panels,
                "area_radial": self.area_radial,
                "area_angular": self.area_angular,
                "corner_grading": self.corner_grading}

    @classmethod
    def from_json(cls, data):
        """Build from a (possibly partial) dict; defaults fill the rest."""
        known = cls().to_json()
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown quadrature settings: {sorted(unknown)}")
        known.update(data)
        return cls(**known)


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


def _refine_edges(edges, attractors, min_width):
    """Bisect panels until each is narrower than its attractor allowance."""
    if not attractors:
        return list(edges)

    def allowed(a, b):
        best = math.inf
        for pos, floor in attractors:
            dist = max(a - pos, pos - b, 0.0)
            best = min(best, max(floor, _ATTRACT_RATIO * dist))
        return best

    out = []

    def emit(a, b):
        width = b - a
        if width > allowed(a, b) and width > 2.0 * min_width:
            mid = 0.5 * (a + b)
            emit(a, mid)
            emit(mid, b)
        else:
            out.append((a, b))

    for a, b in zip(edges[:-1], edges[1:]):
        emit(a, b)
    result = [out[0][0]] + [b for _, b in out]
    return result


def _graded_base_edges(lo, hi, panels, ratio, grade_ends=True, levels=_CORNER_LEVELS):
    base = list(np.linspace(lo, hi, panels + 1))
    if not grade_ends:
        return base
    h = base[1] - base[0]
    left = [lo + h * ratio ** k for k in range(levels, 0, -1)]
    right = [hi - h * ratio ** k for k in range(1, levels + 1)]
    return [lo] + left + base[1:-1] + right + [hi]


def _panel_nodes(edges, order):
    x, w = _gauss(order)
    ts = []
    ws = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        ts.append(0.5 * (a + b) + half * x)
        ws.append(half * w)
    return np.concatenate(ts), np.concatenate(ws)


def _fsum_weighted(weights, values):
    contrib = np.asarray(values) * weights
    if np.iscomplexobj(contrib):
        return complex(math.fsum(contrib.real.ravel().tolist()),
                       math.fsum(contrib.imag.ravel().tolist()))
    return math.fsum(contrib.ravel().tolist())


# ----------------------------------------------------------------------
# boundary

def boundary_mesh(spec, params, refine_near=()):
    """Quadrature nodes along the whole boundary.

    refine_near is a sequence of (arc_id, t, scale) triples; panels around
    each named parameter are bisected until their width is comparable to
    scale (in arc length).  Returns [(BoundaryPoint batch, weights), ...];
    nodes never coincide with the corner points.
    """
    out = []
    for arc in arcs(params).values():
        if arc.kind == "empty":
            continue
        lo, hi = arc.t_range
        edges = _graded_base_edges(lo, hi, spec.boundary_panels,
                                   spec.corner_grading,
                                   grade_ends=params.n > 1)
        if params.n == 1:
            # keep nodes clear of the two marked points on the circle
            edges = _insert_edges(edges, [-params.alpha, params.alpha])
        fb = min(1.0, QuadratureSpec().boundary_panels / spec.boundary_panels)
        att = [(t, max(scale * fb, 1e-10) / arc.speed)
               for arc_id, t, scale in refine_near if arc_id == arc.arc_id]
        if att:
            edges = _insert_edges(edges, [p for p, _ in att])
            edges = _refine_edges(edges, att, min_width=1e-13 * (hi - lo))
        t, w = _panel_nodes(edges, spec.gauss_order)
        bp = BoundaryPoint(arc.arc_id, t, arc.point(t), arc.arclen(t))
        out.append((bp, w * arc.speed))
    return out


def integrate_boundary(spec, params, f, refine_near=()):
    """Arc-length line integral of f over the boundary.

    f maps a BoundaryPoint batch to values (scalars broadcast); corner
    singularities up to logarithmic strength are absorbed by the graded
    panels.  Summation is compensated, so the result is reproducible.
    """
    total = 0.0
    for bp, w in boundary_mesh(spec, params, refine_near):
        total = total + _fsum_weighted(w, f(bp))
    return total


# ----------------------------------------------------------------------
# area

class _StripMap(CornerMobius):
    """w = log of the corner-pinning map: the lens becomes {y in (-theta, 0)}."""

    def __init__(self, params):
        super().__init__(params)
        self.height = params.theta
        # the pullback Jacobian has poles at w = i(pi - alpha) - 2 pi i k;
        # these sit outside the strip at the following distances
        self.gap_top = math.pi - params.alpha
        self.gap_bottom = math.pi + params.alpha - params.theta
        self._check()

    def to_w(self, z):
        return np.log(self.sector(np.asarray(z, dtype=complex)))

    def pullback(self, x, y):
        """Points z(w) and Jacobians |dz/dw|^2 at w = x + iy, x and y
        broadcast against each other.  exp(w) is formed as exp(x) times
        exp(iy), so a tensor grid pays for its rows and columns only."""
        ex = np.exp(x)
        s = ex * (np.exp(1j * np.asarray(y)) / self.rotation)
        d = s - 1.0
        d2 = d.real * d.real + d.imag * d.imag
        scale = 2.0 * math.sin(self.params.alpha)
        return (self.cm * s - self.cp) / d, (scale * ex) ** 2 / (d2 * d2)

    def _check(self):
        w = complex(self.to_w(self.interior))
        back = complex(self.pullback(w.real, w.imag)[0])
        if not -self.height < w.imag < 0.0 or abs(back - self.interior) > 1e-9:
            raise RuntimeError("an interior point did not map into the strip "
                               "and back")


def _refine_cells(cells, w0, floor_x, floor_y):
    """Split cells (rows x0, x1, y0, y1) locally toward the point w0.

    Every leaf is at most max(floor, _ATTRACT_RATIO * d) wide along each
    side, d being its Euclidean distance to w0.  Each level halves every
    cell still too wide across the side that overshoots its allowance by
    more, for the whole batch at once.  w0 lies on base edges, so it never
    enters a cell.
    """
    leaves = []
    while cells.shape[1]:
        dx = np.maximum(np.maximum(cells[0] - w0.real, w0.real - cells[1]), 0.0)
        dy = np.maximum(np.maximum(cells[2] - w0.imag, w0.imag - cells[3]), 0.0)
        reach = _ATTRACT_RATIO * np.hypot(dx, dy)
        over_x = (cells[1] - cells[0]) / np.maximum(floor_x, reach)
        over_y = (cells[3] - cells[2]) / np.maximum(floor_y, reach)
        split_x = (over_x > 1.0) & (over_x >= over_y)
        split_y = (over_y > 1.0) & ~split_x
        leaves.append(cells[:, ~(split_x | split_y)])
        cells = np.concatenate([_halves(cells[:, split_x], 0),
                                _halves(cells[:, split_y], 2)], axis=1)
    return np.concatenate(leaves, axis=1)


def _halves(cells, lo):
    """Both halves of each cell, cut across rows lo and lo + 1; cells
    (a fresh copy made by the caller's mask) is overwritten."""
    second = cells.copy()
    cells[lo + 1] = second[lo] = 0.5 * (cells[lo] + cells[lo + 1])
    return np.concatenate([cells, second], axis=1)


def area_mesh(spec, params, singular_at=None):
    """Flat arrays (points, weights) for area integrals over the domain.

    With singular_at set (a strictly interior point), the image w0 of that
    point is snapped onto panel edges and the cells near it are split
    locally (see _refine_cells), so integrands with a log singularity
    there converge at full order.  The strip is truncated where nodes
    would enter the corner exclusion zone; the Jacobian is ~1e-14 there,
    so nothing of the integral is lost.
    """
    smap = _StripMap(params)
    X = min(_STRIP_HALF_LENGTH,
            -math.log(1.5 * EPS_CORNER / (2.0 * math.sin(params.alpha))))
    theta = smap.height

    hx = 2.0 * X / spec.area_radial
    hy = theta / spec.area_angular
    # attractor floors shrink with refinement so doubled panel counts refine
    # the mesh everywhere, keeping self-convergence studies honest
    default = QuadratureSpec()
    fx = min(1.0, default.area_radial / spec.area_radial)
    fy = min(1.0, default.area_angular / spec.area_angular)
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

    x_edges = _insert_edges(list(np.linspace(-X, X, spec.area_radial + 1)),
                            [] if w0 is None else [w0.real])
    x_edges = _refine_edges(x_edges, x_att, min_width=1e-13 * X)
    y_edges = _insert_edges(list(np.linspace(-theta, 0.0, spec.area_angular + 1)),
                            [] if w0 is None else [w0.imag])
    y_edges = _refine_edges(y_edges, y_att, min_width=1e-13 * theta)

    x0, y0 = np.meshgrid(x_edges[:-1], y_edges[:-1], indexing="ij")
    x1, y1 = np.meshgrid(x_edges[1:], y_edges[1:], indexing="ij")
    cells = np.stack([x0.ravel(), x1.ravel(), y0.ravel(), y1.ravel()])
    if w0 is not None:
        cells = _refine_cells(cells, w0, _SINGULAR_FLOOR * fx,
                              _SINGULAR_FLOOR * fy)

    # Gauss tensor nodes on every cell
    g, gw = _gauss(spec.gauss_order)
    x0, x1, y0, y1 = cells[:, :, None]
    half_x, half_y = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    xn = 0.5 * (x0 + x1) + half_x * g
    yn = 0.5 * (y0 + y1) + half_y * g
    points, jacobian = smap.pullback(xn[:, :, None], yn[:, None, :])
    weights = (half_x * gw)[:, :, None] * (half_y * gw)[:, None, :] * jacobian
    return points.ravel(), weights.ravel()


def integrate_area(spec, params, f, singular_at=None):
    """Area integral of f over the domain (dx dy measure).

    f maps complex points to values and may carry a logarithmic
    singularity at singular_at, which must be strictly interior.
    """
    points, weights = area_mesh(spec, params, singular_at)
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
