"""Composite Gauss-Legendre quadrature over the lens boundary and interior.

Boundary arcs integrate in their native parameter with panels graded
geometrically into the corners (kernels are at worst logarithmic there).
One builder, _plain_edges, gives each arc's plain panel edges: the uniform
edges, the corner levels and, on the disc (n = 1), its two marked points,
merged by one sort and one test that drops near-duplicates.
Area integrals pull the domain back through the strip coordinate
w = log of the corner-pinning Mobius map (conformal.SectorMap, which owns
the map, its pullback and its check): the image is a strip of height pi/n
for every parameter choice, the corners sit at x = -inf/+inf where the
exact Jacobian |2i sin(alpha) s / (s-1)^2|^2 decays like exp(-2|x|), and
the strip is cut only at the corner exclusion zone, 1.5 * EPS_CORNER from
the corners.  area_mesh hands back the nodes' strip coordinates with the
points, so the solvers evaluate their area kernels in the strip, where
they cost O(1) per node at any n.

Every other grading follows one rule: a panel or cell is halved until it
is at most max(floor, _ATTRACT_RATIO * d) wide along each axis, d being
its distance to an attractor.  _split applies it to the area's cells and
_graded_edges, a scalar bisection with the same arithmetic and leaves, to
panel edges.  The attractors are the nearest boundary point of
boundary_mesh's near point, at any distance (far from the boundary its
floor, half the distance, keeps every plain panel), and at n = 1 also its
image across the seam t = +-pi, where the circle's ends meet; the
Jacobian's poles outside the strip, grading the strip's x and y edges;
and the image w0 of area_mesh's singular point.  Floors shrink as panel
counts grow, so refined specs refine the mesh everywhere, next to the
poles too.

Both plain meshes, boundary and area, are built once per (spec, params)
and kept read-only: the last 16 pairs of the boundary's, as many as the
quick catalog builds for two lenses, and the last 8 of the area's.  A
point lays a patch over
a plain mesh.  On the boundary a near point regrades only its nearest
arc, and there only the span from the first plain panel the rule splits
to the last (_boundary_patches): the panels before and after it keep
their plain nodes, and every other arc keeps its plain batch.  These
patches are decided arc by arc, for all of a call's points at once, from
one table of each arc's nearest point to each of them (domain._arc_feet),
the table boundary_distance takes its minimum over.  In the area a
singular point replaces only the plain cells the rule would split toward
w0: a square around w0 becomes a Duffy star of 8 triangles with
apex w0, whose radial panels are graded geometrically (_reference_star),
and the rest of those cells is split toward w0 with no floor.  The
singular point's reflection images are the mirror images of w0 in the
strip's edges; they bound the star's size, which stays below half of
w0's distance to an edge, and the rule's cells are never closer to them
than to w0.  boundary_mesh(near=z) and area_mesh(singular_at=z) put z's
kept plain nodes and its patch's nodes together into one mesh.

_integrate, the one evaluator of the boundary and area integrals of the
solvers and the normalization probe, keeps the two apart.  It takes a
kernel on the plain mesh once for all the points of a call, in chunks of
at most _PAIR_BUDGET (point, node) pairs, and multiplies it by the plain
mesh's data times weights.  Each point then leaves out the plain nodes
its patch replaces, adds the values on its patch's nodes, and sums its
nodes exactly, so that every value is the one that point's own mesh
gives, rounded once.  What differs per mesh is only the patches'
producer: _boundary_patches gives the fresh panels of each graded arc,
_singular_patches two blocks of nodes, the split cells and the Duffy
stars.  The producers place nodes only.  Each decides the patches of all
a call's points at once, and boundary_mesh(near=z) and
area_mesh(singular_at=z) call it for z alone; the evaluator's two
wrappers, _integrate_kernel and _integrate_area, put the data on the
fresh nodes and yield them to _integrate one block at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from itertools import accumulate, compress

import numpy as np

from .conformal import sector_map
from .domain import (EPS_CORNER, BoundaryPoint, _arc_feet, _is_number, arcs,
                     classify_point)

_CORNER_LEVELS = 8          # graded panels appended at each corner
_CORNER_GRADING = 0.5       # width ratio of successive corner panels
_ATTRACT_RATIO = 0.7        # panel width allowed per unit distance to attractor
_SINGULAR_FLOOR = 1e-5      # reach of the Duffy star's innermost panel in w
_STAR_RATIO = 0.225         # Duffy star half-width per unit distance to a singularity
_NODE_BUDGET = 10 ** 7      # largest plain boundary or area mesh a spec may ask for
_PAIR_BUDGET = 2 ** 15      # (point, node) pairs a kernel takes at once


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


_DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=32)
def _gauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _split(lo, hi, attractors):
    """Bisect boxes toward attractors; returns the leaves as (lo, hi, box),
    box holding the index of the box each leaf came from.

    lo and hi hold the boxes' corners, one row per axis, in any dimension;
    each attractor is a (point, floor) pair of per-axis arrays, one value
    per axis or one column per box (each box then has its own point or
    floor).  Every leaf is at most min over attractors of
    max(floor, _ATTRACT_RATIO * d) wide along each axis, d being its
    Euclidean distance to the attractor's point.  Each level halves every
    box still too wide across the axis that overshoots its allowance most
    (the first on a tie), for the whole batch at once.  The area mesh's
    cells go through here; _graded_edges gives the same leaves for panel
    edges.
    """
    dim, count = lo.shape
    # rows: lo by axis, hi by axis, each attractor's point and floor by
    # axis, and the box index, so that a half carries all of its box's rows
    rows = [lo, hi]
    for pair in attractors:
        rows += [np.broadcast_to(np.asarray(a, dtype=float).reshape(dim, -1),
                                 (dim, count)) for a in pair]
    boxes = np.concatenate(rows + [np.arange(count, dtype=float)[None]])
    leaves = []
    while True:
        lo, hi = boxes[:dim], boxes[dim:2 * dim]
        allowances = []
        for k in range(2, 2 + 2 * len(attractors), 2):
            point, floor = boxes[k * dim:(k + 1) * dim], boxes[(k + 1) * dim:
                                                             (k + 2) * dim]
            gap = np.maximum(np.maximum(lo - point, point - hi), 0.0)
            allowances.append(np.maximum(floor,
                                         _ATTRACT_RATIO * reduce(np.hypot, gap)))
        over = (hi - lo) / reduce(np.minimum, allowances)
        axis = over.argmax(axis=0)
        split = over.max(axis=0) > 1.0
        leaves.append(boxes[:, ~split])
        # halves grouped by the axis cut, so each group is cut by one
        # slice assignment
        halves = []
        for k in range(dim):
            first = boxes[:, split & (axis == k)]
            second = first.copy()
            first[dim + k] = second[k] = 0.5 * (first[k] + first[dim + k])
            halves += [first, second]
        boxes = np.concatenate(halves, axis=1)
        if not boxes.shape[1]:
            break
    leaves = np.concatenate(leaves, axis=1)
    return leaves[:dim], leaves[dim:2 * dim], leaves[-1].astype(int)


def _graded_edges(edges, attractors, min_width):
    """Panel edges after _split's rule toward (position, floor)
    attractors, in order; no panel is split below twice min_width.

    A scalar bisection with _split's arithmetic, so the leaves are _split's
    in one dimension.  Only a handful of panels are active at each level,
    and _split's array round trip per level would cost several times more.
    """
    attractors = [(p, max(f, 2.0 * min_width)) for p, f in attractors]
    out = []
    stack = list(zip(edges[:-1], edges[1:]))[::-1]
    while stack:
        lo, hi = stack.pop()
        allowance = math.inf
        for p, floor in attractors:
            bound = _ATTRACT_RATIO * (lo - p if lo > p else
                                      p - hi if p > hi else 0.0)
            if bound < floor:
                bound = floor
            if bound < allowance:
                allowance = bound
        if (hi - lo) / allowance > 1.0:
            mid = 0.5 * (lo + hi)
            stack += [(mid, hi), (lo, mid)]
        else:
            out.append(lo)
    out.append(edges[-1])
    return out


def _shrink(spec, count):
    """Attractor floors shrink with the panel count named count, so doubled
    counts refine the mesh everywhere and self-convergence studies stay
    honest."""
    return min(1.0, getattr(_DEFAULT_SPEC, count) / getattr(spec, count))


def _plain_edges(lo, hi, panels, corner_width, marks=()):
    """Panel edges of a plain arc: panels uniform panels, graded
    geometrically into both ends, and the marks inside the range as edges
    of their own, merged by one sort.  Grading levels narrower than
    corner_width are left out (all if it is inf).  An edge at most 1e-13
    of the range past the one before it is dropped, and the last edge is
    hi, so no panel is degenerate."""
    edges = np.linspace(lo, hi, panels + 1)
    widths = (edges[1] - edges[0]) * _CORNER_GRADING ** np.arange(
        1, _CORNER_LEVELS + 1)
    widths = widths[widths >= corner_width]
    marks = [m for m in marks if lo + 1e-12 < m < hi - 1e-12]
    # the near-duplicate test drops exact duplicates too (np.unique would
    # import numpy.ma, 1.6 MB, for that alone)
    edges = np.sort(np.concatenate([edges, lo + widths, hi - widths, marks]))
    edges = edges[np.append(True, np.diff(edges) > 1e-13 * (hi - lo))]
    edges[-1] = hi
    return edges


def _gauss_nodes(lo, hi, order):
    """Gauss-Legendre nodes and weights on the panels [lo, hi], one row
    per panel."""
    x, w = _gauss(order)
    half = 0.5 * (hi - lo)[..., None]
    return 0.5 * (lo + hi)[..., None] + half * x, half * w


def _exact_sum(x):
    """The correctly rounded sum of a real array, math.fsum's result, by
    error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    2008, AccSum) in whole-array numpy operations.

    Each pass splits r (at first x) into q = fl(fl(sigma + r) - sigma) and
    r - q, both exact, with sigma = 2^(m + e), 2^e > max|r| and
    2^m >= n + 2: every q is then a multiple of ulp(sigma) / 2 and their
    sum is exact in any order.  The sum of x is the q-sums plus the sum of
    r, exactly.  A floating-point sum of r is off by at most
    (n - 1) 2^-53 sum|r|, in any order, and the passes stop once twice that
    bound, n^2 2^-52 max|r|, cannot change the rounded total: AccSum's own
    test gives a faithful sum, this one the correctly rounded sum.  Every
    pass takes 53 - m bits off max|r|, and the remainder vanishes at the
    bottom of the subnormals.

    Raises ValueError on a non-finite value and OverflowError where sigma
    would overflow, |x| >~ 2^(1024 - m).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = x.size
    m = (n + 1).bit_length()
    err_per_max = float(n) * float(n) * 2.0 ** -52
    partials = []
    r = x
    mu = max(r.max(), -r.min()) if n else 0.0
    while True:
        if not math.isfinite(mu):
            raise ValueError("integrand is not finite")
        if mu == 0.0:
            return math.fsum(partials)
        e = m + math.frexp(mu)[1]       # mu < 2^(e - m)
        if e > 1023:
            raise OverflowError(f"integrand too large to sum exactly "
                                f"(|value| up to {mu:g})")
        sigma = math.ldexp(1.0, e)
        q = r + sigma
        q -= sigma
        partials.append(float(q.sum()))
        # the remainder overwrites q: one temporary per pass keeps large
        # sums in cache
        r = np.subtract(r, q, out=q)
        mu = max(r.max(), -r.min())
        rest = float(r.sum())
        err = err_per_max * mu
        total = math.fsum(partials + [rest, err])
        if math.fsum(partials + [rest, -err]) == total:
            return total


def _exact_weighted_sum(weights, values):
    """The correctly rounded sum of weights * values, complex values part
    by part."""
    with np.errstate(invalid="ignore"):
        # inf times a zero weight is nan, which _exact_sum reports
        contrib = np.asarray(values) * weights
    return _exact_total(contrib)


def _exact_total(x):
    """The correctly rounded sum of an array, a complex one part by part."""
    if np.iscomplexobj(x):
        return complex(_exact_sum(x.real), _exact_sum(x.imag))
    return _exact_sum(x)


# ----------------------------------------------------------------------
# the evaluator of both meshes

@lru_cache(maxsize=16)
def _plain_nodes(spec, params, nodes_of, area):
    """A kernel's node side on a plain mesh of (spec, params), built once
    and read-only: on the area mesh's strip coordinates if area, else on
    the boundary mesh's points, all arcs in one batch."""
    if area:
        args = _plain_area(spec, params)[6:]
    else:
        args = (np.concatenate([bp.point for *_, (bp, _)
                                in _plain_boundary(spec, params)]),)
    nodes = nodes_of(*args)
    for a in nodes:
        a.setflags(write=False)
    return nodes


def _kernel_rows(kernel, points, nodes):
    """(chunk, z sides, values) over chunks of points, values holding the
    kernel of each point against the nodes' side, one row per point; no
    chunk has more than _PAIR_BUDGET (point, node) pairs.  The z sides are
    the chunk's kernel.sides, one row each, with one more axis for each
    axis of the nodes' arrays."""
    shape = np.broadcast(*nodes).shape
    rows = max(1, _PAIR_BUDGET // math.prod(shape))
    for i in range(0, len(points), rows):
        chunk = points[i:i + rows]
        sides = tuple(part.reshape((-1,) + (1,) * len(shape))
                      for part in kernel.sides(chunk))
        yield chunk, sides, kernel.pair(sides, nodes)


def _integrate(kernel, points, nodes, weights, patches):
    """The integral of weight * kernel(z, .) at each of the points z, as a
    list: the correctly rounded sum over the nodes of z's own mesh, the
    plain mesh with z's patch laid over it.

    kernel is one of conformal.SectorMap's strip kernels (a Kernel), nodes
    its node side on the plain mesh and weights the plain mesh's data times
    quadrature weight, flat.  patches(chunk) gives (keep, blocks): keep,
    shaped as the kernel's values, marks the plain nodes each point keeps,
    and blocks yields the fresh nodes one block at a time as (data times
    weights, node side's arguments, counts), the points' nodes one after
    the other along the last axis, counts per point.  Each block's nodes
    are let go before the next one is asked for."""
    out = []
    for chunk, sides, values in _kernel_rows(kernel, points, nodes):
        keep, blocks = patches(chunk)
        keep = keep.reshape(len(chunk), -1)
        with np.errstate(invalid="ignore"):
            values = values.reshape(len(chunk), -1) * weights
        fresh = []
        for block_weights, args, counts in blocks:
            mine = tuple(np.repeat(part.reshape(-1), counts) for part in sides)
            with np.errstate(invalid="ignore"):
                block = kernel.pair(mine, kernel.nodes(*args)) * block_weights
            # this block's nodes are let go before the next one is built
            del block_weights, args, mine
            ends = np.cumsum(counts).tolist()
            fresh.append([block[..., start:end] for start, end
                          in zip([0] + ends[:-1], ends)])
        # the plain nodes a patch replaces are left out, not zeroed, so that
        # the data need not be finite there
        out += [_exact_total(np.concatenate(
                    [row[mask]] + [a.ravel() for a in new if a.size]))
                for row, mask, *new in zip(values, keep, *fresh)]
    return out


# ----------------------------------------------------------------------
# boundary

def _arc_nodes(arc, lo, hi, order):
    """Gauss nodes on the arc's panels [lo, hi]: (t, point, arclen,
    weights), one row per panel, the weights per unit arc length."""
    t, w = _gauss_nodes(lo, hi, order)
    return t, arc.point(t), arc.arclen(t), w * arc.speed


@lru_cache(maxsize=16)
def _plain_boundary(spec, params):
    """The plain boundary mesh of (spec, params), built once and read-only:
    per arc (arc, edges, (BoundaryPoint, weights)), the edges _plain_edges'
    and the BoundaryPoint batch and weights holding _arc_nodes' arrays on
    the panels between successive edges, flat.  The last 16 are kept: the
    quick catalog builds 8 specs per lens, and its benchmark alternates
    two lenses."""
    # a corner panel at least this long keeps its first Gauss node
    # 2 * EPS_CORNER clear of the corner; the disc (n = 1) has no corners,
    # and its nodes keep clear of the two marked points on the circle
    first_node = 0.5 * (1.0 + _gauss(spec.gauss_order)[0][0])
    corner_arclen = 2.0 * EPS_CORNER / first_node if params.n > 1 else math.inf
    marks = (-params.alpha, params.alpha) if params.n == 1 else ()
    out = []
    for arc in arcs(params).values():
        edges = _plain_edges(*arc.t_range, spec.boundary_panels,
                             corner_arclen / arc.speed, marks)
        t, point, arclen, w = (a.ravel() for a in _arc_nodes(
            arc, edges[:-1], edges[1:], spec.gauss_order))
        for a in (edges, t, point, arclen, w):
            a.setflags(write=False)
        out.append((arc, edges,
                    (BoundaryPoint(arc.arc_id, t, point, arclen), w)))
    return tuple(out)


def _boundary_patches(spec, params, points):
    """The patches that boundary_mesh(near=z) lays over the plain boundary
    mesh, for all the points z together: (keep, spans).  keep marks the
    plain nodes each point keeps, one row per point, all arcs in one row.
    spans holds (index, lo, hi, counts) for each arc some point regrades,
    the index-th of _plain_boundary: the fresh panels [lo, hi] of all its
    points one after the other, and counts their nodes per point.

    A point regrades its nearest arc toward its nearest boundary point
    near_t, and at n = 1 also toward near_t's image across the seam
    t = +-pi, where the circle's ends meet.  The patches are decided arc by
    arc from domain._arc_feet, one row per arc of each point's foot on it:
    an arc takes the points whose nearest arc it is, and is passed over
    when there are none.  The rule treats each panel on its own, so the
    panels it splits are marked by _graded_edges' test in one (points x
    panels) array pass over the arc, each point with its own floor.
    _graded_edges then runs per point, only over the span from its first
    marked panel to its last; the panels between them that it keeps come
    out as they were, and the plain panels before and after the span stay
    in keep.
    """
    plain = _plain_boundary(spec, params)
    starts = list(accumulate((w.size for *_, (_, w) in plain), initial=0))
    keep = np.ones((len(points), starts[-1]), dtype=bool)
    leaves = [[] for _ in plain]
    counts = np.zeros((len(plain), len(points)), dtype=int)
    ds, ts = _arc_feet(params, np.asarray(points, dtype=complex))
    nearest = ds.argmin(0)
    shrink = _shrink(spec, "boundary_panels")
    for index in sorted(set(nearest.tolist())):
        arc, edges, _ = plain[index]
        # one row per point whose nearest arc this is, one column per panel
        mine = np.flatnonzero(nearest == index)
        floor = 0.5 * ds[index, mine, None] * shrink / arc.speed
        tol = 1e-13 * (edges[-1] - edges[0])
        targets = [ts[index, mine, None]]
        if params.n == 1:
            targets.append(targets[0] - np.copysign(2.0 * math.pi, targets[0]))
        lo, hi = edges[:-1], edges[1:]
        # the allowance grows with the distance: the nearer target sets it
        gap = reduce(np.minimum, [np.maximum(lo - p, p - hi) for p in targets])
        least = np.maximum(floor, 2.0 * tol)
        marked = hi - lo > np.maximum(_ATTRACT_RATIO * gap, least)
        # each point's span, from its first marked panel to its last
        rows = zip(mine.tolist(), marked.argmax(1).tolist(),
                   (marked.shape[1] - marked[:, ::-1].argmax(1)).tolist(),
                   *(a[:, 0].tolist() for a in (floor, *targets)))
        for k, first, end, f, *near in compress(rows, marked.any(1).tolist()):
            new = np.array(_graded_edges(edges[first:end + 1].tolist(),
                                         [(p, f) for p in near], tol))
            keep[k, starts[index] + first * spec.gauss_order:
                 starts[index] + end * spec.gauss_order] = False
            leaves[index].append(new)
            counts[index, k] = (new.size - 1) * spec.gauss_order
    return keep, [(index, np.concatenate([a[:-1] for a in fresh]),
                   np.concatenate([a[1:] for a in fresh]), counts[index])
                  for index, fresh in enumerate(leaves) if fresh]


def boundary_mesh(spec, params, near=None):
    """Quadrature nodes along the whole boundary.

    With near set (an evaluation point), the nearest arc's panels are
    graded by the splitting rule toward near's nearest boundary point (at
    n = 1 from both sides of the seam t = +-pi), down to about half the
    distance, so kernels peaked there are resolved; a point far from the
    boundary splits no panel.  Returns [(BoundaryPoint batch, weights),
    ...], t increasing along each arc; nodes never coincide with the corner
    points.

    The plain mesh of (spec, params) is built once and kept read-only
    (_plain_boundary).  Every arc that is not graded returns it as it is,
    and on the graded arc the plain nodes near keeps and the fresh nodes
    of its patch are put in t order.  The patch is _boundary_patches' for
    this point alone, the code that builds the boundary patches of
    _integrate, the solvers' evaluator; this mesh is the reference it is
    tested against.
    """
    plain = _plain_boundary(spec, params)
    out = [mesh for *_, mesh in plain]
    if near is None:
        return out
    keep, spans = _boundary_patches(spec, params, [near])
    for index, lo, hi, _ in spans:
        arc, _, (bp, w) = plain[index]
        start = sum(m.size for *_, (_, m) in plain[:index])
        mine = keep[0, start:start + w.size]
        nodes = [np.concatenate([old[mine], new.ravel()]) for old, new
                 in zip((bp.t, bp.point, bp.arclen, w),
                        _arc_nodes(arc, lo, hi, spec.gauss_order))]
        by_t = np.argsort(nodes[0], kind="stable")
        t, point, arclen, w = (a[by_t] for a in nodes)
        out[index] = (BoundaryPoint(arc.arc_id, t, point, arclen), w)
    return out


def integrate_boundary(spec, params, f, near=None):
    """Arc-length line integral of f over the boundary.

    f maps a BoundaryPoint batch to values (scalars broadcast); corner
    singularities up to logarithmic strength are absorbed by the graded
    panels, and near names an evaluation point to grade toward (see
    boundary_mesh).  The weighted sum over the nodes of every arc is exact
    up to one final rounding (_exact_sum), so it does not depend on the
    nodes' order.
    """
    mesh = boundary_mesh(spec, params, near)
    return _exact_weighted_sum(
        np.concatenate([w for _, w in mesh]),
        np.concatenate([np.broadcast_to(f(bp), w.shape) for bp, w in mesh]))


def _plain_weights(spec, params, gamma):
    """gamma times the weights on the plain boundary mesh of (spec, params),
    all arcs in one array."""
    return np.concatenate([w * gamma(bp)
                           for *_, (bp, w) in _plain_boundary(spec, params)])


def _arc_block(spec, arc, gamma, lo, hi):
    """The fresh nodes on the arc's panels [lo, hi] as a block of
    _integrate: (gamma * weights, (points,))."""
    t, point, arclen, w = (a.ravel() for a in _arc_nodes(
        arc, lo, hi, spec.gauss_order))
    return w * gamma(BoundaryPoint(arc.arc_id, t, point, arclen)), (point,)


def _integrate_kernel(spec, params, gamma, kernel, points,
                      plain_weights=None):
    """The boundary integral of gamma * kernel(z, .) at each of the
    interior points z (_integrate), over the nodes of z's own
    boundary_mesh(near=z): the patches are _boundary_patches', each span's
    fresh panels built as one block (_arc_block) when _integrate asks for
    it.  gamma maps a BoundaryPoint batch to values; gamma * weights on the
    plain mesh may be passed in as plain_weights (_plain_weights' array)."""
    if plain_weights is None:
        plain_weights = _plain_weights(spec, params, gamma)
    plain = _plain_boundary(spec, params)

    def patches(chunk):
        keep, spans = _boundary_patches(spec, params, chunk)
        return keep, ((*_arc_block(spec, plain[index][0], gamma, lo, hi),
                       counts) for index, lo, hi, counts in spans)

    return _integrate(kernel, points,
                      _plain_nodes(spec, params, kernel.nodes, False),
                      plain_weights, patches)


# ----------------------------------------------------------------------
# area

def _cell_nodes(smap, lo, hi, order):
    """Gauss tensor nodes on the strip cells [lo, hi]: (points, weights,
    x, y), x and y shaped (1, order, cells) and (order, 1, cells), the
    cells along the last axis so that products of x and y factors run
    along it."""
    xn, wx, yn, wy = (np.ascontiguousarray(g.T) for axis in zip(lo, hi)
                      for g in _gauss_nodes(*axis, order))
    x, y = xn[None, :, :], yn[:, None, :]
    points, jacobian = smap.pullback(x, y)
    return points, wx[None, :, :] * wy[:, None, :] * jacobian, x, y


@lru_cache(maxsize=8)
def _plain_area(spec, params):
    """The plain strip mesh of (spec, params), built once and read-only:
    (smap, X, lo, hi, points, weights, x, y), lo and hi holding the cells'
    corners and the node arrays laid out as in _cell_nodes."""
    smap = sector_map(params)
    X = -math.log(1.5 * EPS_CORNER / (2.0 * math.sin(params.alpha)))
    theta = params.theta
    fx = _shrink(spec, "area_radial")
    fy = _shrink(spec, "area_angular")
    # the Jacobian's poles sit at x = 0, above and below the strip
    gap = min(smap.gap_top, smap.gap_bottom)
    x_edges = _graded_edges(np.linspace(-X, X, spec.area_radial + 1),
                            [(0.0, _ATTRACT_RATIO * gap * fx)],
                            min_width=1e-13 * X)
    y_edges = _graded_edges(
        np.linspace(-theta, 0.0, spec.area_angular + 1),
        [(0.0, _ATTRACT_RATIO * smap.gap_top * fy),
         (-theta, _ATTRACT_RATIO * smap.gap_bottom * fy)],
        min_width=1e-13 * theta)

    grid = np.meshgrid(x_edges, y_edges, indexing="ij")
    lo = np.stack([g[:-1, :-1].ravel() for g in grid])
    hi = np.stack([g[1:, 1:].ravel() for g in grid])
    mesh = (lo, hi) + _cell_nodes(smap, lo, hi, spec.gauss_order)
    for a in mesh:
        a.setflags(write=False)
    return (smap, X) + mesh


def _carve(lo, hi, center, half):
    """The boxes [lo, hi] cut along the edge lines of squares, box i's
    square having half-width half[i] around center[:, i], the pieces inside
    the squares left out.  Returns the pieces as (lo, hi, box), box holding
    the index of the box each piece came from."""
    # per axis: the parts below, across and above the square's span
    cuts = [np.clip(center[k] + s * half, lo[k], hi[k]) for k in range(2)
            for s in (-1.0, 1.0)]
    spans = [((lo[k], cuts[2 * k]), (cuts[2 * k], cuts[2 * k + 1]),
              (cuts[2 * k + 1], hi[k])) for k in range(2)]
    pieces = [(np.stack([a, c]), np.stack([b, d]))
              for i, (a, b) in enumerate(spans[0])
              for j, (c, d) in enumerate(spans[1]) if (i, j) != (1, 1)]
    lo = np.concatenate([p for p, _ in pieces], axis=1)
    hi = np.concatenate([q for _, q in pieces], axis=1)
    box = np.tile(np.arange(center.shape[1]), len(pieces))
    keep = np.all(hi > lo, axis=0)
    return lo[:, keep], hi[:, keep], box[keep]


@lru_cache(maxsize=64)
def _reference_star(levels, order):
    """The Duffy star around 0 with half-width 1 and levels graded radial
    panels, read-only: (legs, s^2, weights), each star node being
    w0 + half * leg * s^2 with weight half^2 * weight times the Jacobian
    (_stars).

    The square of half-width half around w0 is cut into 8 right triangles
    with apex w0, each the image of the unit square under
    w = w0 + u * half * e * (1 + i t v), e running over the four axis
    directions and t over +-1, with Jacobian u * half^2 (Duffy, SIAM J.
    Numer. Anal. 19, 1982).  The log pole log|w - w0| = log u + log half +
    log|1 + i v| then splits off the smooth part.

    Gauss-Legendre is not full order for u log u (8 nodes on [0, 1] are off
    by 4.9e-5), so u = s^2 and the panels in s halve toward 0 levels times;
    in s the integrand is s^3 log s, which 8 nodes on [0, 1] integrate to
    3.6e-8.  v takes two more nodes than s: log(1 + v^2) has poles at
    v = +-i, and 8 nodes leave 3.9e-12 of its integral where 10 leave
    5.5e-15."""
    edges = 0.5 ** np.arange(levels, -1, -1.0)
    s, ws = (g.ravel() for g in _gauss_nodes(np.append(0.0, edges[:-1]),
                                               edges, order))
    v, wv = (g[0] for g in _gauss_nodes(np.zeros(1), np.ones(1), order + 2))
    legs = np.array([e * (1.0 + 1j * t * v) for t in (1.0, -1.0)
                     for e in (1.0, 1j, -1.0, -1j)])[:, :, None]
    # u du = 2 s^3 ds
    weights = np.broadcast_to(wv[:, None] * (2.0 * s ** 3 * ws),
                              (8, order + 2, s.size)).ravel()
    star = (legs, s * s, weights)
    for a in star:
        a.setflags(write=False)
    return star


def _stars(smap, w0, half, levels, order):
    """Nodes of the Duffy stars of half-width half[k] around w0[k] with
    levels[k] graded radial panels, point by point (_reference_star):
    (points, weights, x, y) as flat arrays."""
    x, y, weights = ([None] * len(levels) for _ in range(3))
    for level in set(levels):
        mine = [k for k, n in enumerate(levels) if n == level]
        legs, s2, unit = _reference_star(level, order)
        h = half[mine]
        w = (w0[mine, None, None, None] + h[:, None, None, None] * legs * s2
             ).reshape(len(mine), -1)
        rows = zip(w.real, w.imag, unit * (h * h)[:, None])
        for k, (xk, yk, wk) in zip(mine, rows):
            x[k], y[k], weights[k] = xk, yk, wk
    x, y, weights = (np.concatenate(a) if a else np.zeros(0)
                     for a in (x, y, weights))
    points, jacobian = smap.pullback(x, y)
    return points, weights * jacobian, x, y


def _f_on(f, points):
    """f at the points, an array of their shape (f's values broadcast)."""
    return np.broadcast_to(np.asarray(f(points.ravel())),
                           points.size).reshape(points.shape)


def _area_block(f, nodes):
    """A block of area nodes (points, weights, x, y) as _integrate takes
    it: (f * weights, (x, y)).  The points are let go before a kernel is
    taken on the block."""
    points, weights, x, y = nodes
    with np.errstate(invalid="ignore"):
        return _f_on(f, points) * weights, (x, y)


def _singular_patches(spec, params, points):
    """The patches that area_mesh(singular_at=z) lays over the plain area
    mesh, for all the interior points z together: (keep, blocks).  Only
    nodes are placed here; the data meet them in the caller.

    keep holds one row per point, shaped as the plain nodes (order, order,
    cells), marking the plain cells it keeps: all but those its patch
    replaces.  blocks holds two (build, counts) pairs, build() giving a
    block of nodes as (points, weights, x, y), the points' nodes one after
    the other along the last axis, and counts their number per point along
    it: first the rest of the replaced cells after splitting toward w0
    (_cell_nodes), then the Duffy stars (_stars).  The blocks are built on
    demand, so a caller can take one at a time.  A point whose star
    vanishes (w0 beyond the strip's cut) has no patch.  The marking,
    carving and splitting run over all the points' cells at once; each
    point's cells come out as a call with that point alone gives them."""
    smap, X, lo, hi = _plain_area(spec, params)[:4]
    order = spec.gauss_order
    w0 = np.array([complex(smap.to_w(z)) for z in points])
    top, bottom = -w0.imag, w0.imag + params.theta
    shrink = min(_shrink(spec, "area_radial"), _shrink(spec, "area_angular"))
    half = _STAR_RATIO * shrink * np.minimum.reduce(
        [2.0 * top, 2.0 * bottom, top + smap.gap_top, bottom + smap.gap_bottom,
         2.0 * (X - np.abs(w0.real))])
    live = np.flatnonzero(half > 0.0)
    w0, half = w0[live], half[live]

    center = np.stack([w0.real, w0.imag])
    box_center, box_half = center.T[:, :, None], half[:, None, None]
    gap = np.maximum(np.maximum(lo - box_center, box_center - hi), 0.0)
    gap = np.hypot(gap[:, 0], gap[:, 1])
    zone = (np.any(hi - lo > _ATTRACT_RATIO * gap[:, None], axis=1)
            | np.all((lo < box_center + box_half)
                     & (hi > box_center - box_half), axis=1))
    zones = np.zeros((len(points), lo.shape[1]), dtype=bool)
    zones[live] = zone
    keep = np.broadcast_to(~zones[:, None, None, :],
                           (len(points), order, order, lo.shape[1]))
    owner, cell = np.nonzero(zone)
    piece_lo, piece_hi, box = _carve(lo[:, cell], hi[:, cell],
                                     center[:, owner], half[owner])
    leaf_lo, leaf_hi, piece = _split(piece_lo, piece_hi,
                                     [(center[:, owner[box]], np.zeros(2))])
    leaf_owner = live[owner[box[piece]]]
    by_owner = np.argsort(leaf_owner, kind="stable")
    cells = (partial(_cell_nodes, smap, leaf_lo[:, by_owner],
                     leaf_hi[:, by_owner], order),
             np.bincount(leaf_owner, minlength=len(points)))

    # the innermost radial panel reaches at most this far from w0
    floor = _SINGULAR_FLOOR * shrink
    levels = [max(0, math.ceil(0.5 * math.log2(h / floor))) for h in half]
    counts = np.zeros(len(points), dtype=int)
    counts[live] = [8 * (order + 2) * (level + 1) * order for level in levels]
    stars = partial(_stars, smap, w0, half, levels, order), counts
    return keep, (cells, stars)


def area_mesh(spec, params, singular_at=None):
    """Nodes for area integrals over the domain: (points, weights, blocks).

    points and weights are flat arrays.  blocks is a tuple of (x, y) pairs,
    the nodes' strip coordinates w = x + iy: any g(x, y) evaluated block by
    block, each raveled and concatenated, lines up with points.  In the
    blocks of tensor cells x and y are factors shaped (1, order, cells) and
    (order, 1, cells), so a kernel evaluated in the strip pays for the x and
    y factors once per cell (SectorMap.strip_green and strip_neumann); the
    Duffy star's x and y are flat.

    Without singular_at this is the plain mesh of (spec, params), built
    once and kept read-only.  With singular_at set (a strictly interior
    point), only the plain cells that _split would split toward its image
    w0 are replaced: the square of half-width R around w0 becomes the Duffy
    star (_reference_star), and the rest of those cells is split toward w0
    by the same rule with no floor, which leaves the cells bordering the
    square at most 0.7 R wide.  R is _STAR_RATIO times the distance from w0
    to the nearest singularity of the integrand's smooth part (the mirror
    images of w0 in the strip's edges and the Jacobian's poles beyond them)
    or to the mirror of the strip's cut, so the star stays inside the
    strip.  The strip is truncated where nodes would enter the corner
    exclusion zone; the Jacobian is ~1e-14 there, so nothing of the
    integral is lost.

    The patch is _singular_patches' for this point alone, the code that
    builds the area patches of _integrate, the solvers' evaluator; its
    blocks' points and weights are this mesh's as they come.  This mesh is
    the reference the evaluator is tested against.
    """
    points, weights, x, y = _plain_area(spec, params)[4:]
    plain = (points.ravel(), weights.ravel(), ((x, y),))
    if singular_at is None:
        return plain
    z0 = complex(singular_at)
    if classify_point(params, z0) != "interior":
        raise ValueError("singular point must lie strictly inside the domain")
    keep, patches = _singular_patches(spec, params, [z0])
    cells = keep[0, 0, 0]
    if cells.all():
        # no cell is replaced: w0 lies beyond the strip's cut, where nothing
        # is meshed
        return plain
    blocks = ([tuple(a[..., cells] for a in (points, weights, x, y))]
              + [build() for build, _ in patches])
    return (np.concatenate([b[0].ravel() for b in blocks]),
            np.concatenate([b[1].ravel() for b in blocks]),
            tuple(b[2:] for b in blocks))


def _integrate_area(spec, params, f, kernel, points):
    """The area integral of f * kernel(z, .) at each of the interior points
    z (_integrate), over the nodes of z's own area_mesh(singular_at=z).  f
    maps complex points to values, and the kernel's node side takes strip
    coordinates x and y.  f meets each block of _singular_patches' nodes
    here (_area_block), one block at a time."""
    def patches(chunk):
        keep, blocks = _singular_patches(spec, params, chunk)
        return keep, ((*_area_block(f, build()), counts)
                      for build, counts in blocks)

    weights, _ = _area_block(f, _plain_area(spec, params)[4:])
    return _integrate(kernel, points,
                      _plain_nodes(spec, params, kernel.nodes, True),
                      weights.reshape(-1), patches)


def integrate_area(spec, params, f, singular_at=None):
    """Area integral of f over the domain (dx dy measure).

    f maps complex points to values and may carry a logarithmic
    singularity at singular_at, which must be strictly interior.
    """
    points, weights, _ = area_mesh(spec, params, singular_at)
    return _exact_weighted_sum(weights, f(points))


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
