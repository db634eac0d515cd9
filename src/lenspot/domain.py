"""Lens domains bounded by a unit-circle arc and a second circular arc.

The domain is the set

    |z| <= 1  and  |z|^2 sin(alpha-theta) + 2 Re(z) sin(theta) - sin(alpha+theta) >= 0

with corners e^{+i alpha}, e^{-i alpha} and interior angle theta = pi/n.
Reflecting the domain across its arcs 2n-1 times tiles the plane; the
generated arcs C_k and the reflection orbit of a seed point have closed
forms, which this module provides together with boundary parametrization,
outward normals, membership classification and arc lengths.

Every coefficient sin(alpha +- k theta) and sin(k theta) is read off one
table per lens, arc_coefficients: the (a, b, c) of C_0 .. C_{2n-1}.  It
forms the n distinct circles once and sets C_{k+n} to C_k with every sign
flipped, so arcs k and k + n, one circle, agree exactly.  The geometry
here, the product kernels (kernels.KernelField) and the catalog
(validation) all take their sines from it, through boundary_sines where
they need only the lens's own two arcs.

Degenerate cases: alpha == theta makes the second arc a straight chord;
n == 1 collapses the second arc entirely and the domain is the whole unit
disc, bounded by the unit-circle arc C1 alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .circles import CircleMatrix, HomogeneousPoint

EPS_CORNER = 1e-7
_CHORD_TOL = 1e-12  # |alpha - theta| below this is treated as the chord case
_ON_TOL = 1e-10     # |form value| below this puts a point on that arc
_DRAW_BLOCK = 64    # candidates sample_interior draws and measures at once
# classify_point's states, indexed by on C0 + 2 * on C1 + 4 * outside
_STATES = np.array(["interior", "boundary_C0", "boundary_C1", "corner"]
                   + ["exterior"] * 4)


@dataclass(frozen=True)
class LensParams:
    """Opening half-angle alpha of the corners and tiling order n."""

    alpha: float
    n: int

    def __post_init__(self):
        if not (_is_number(self.alpha, numbers.Real)
                and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a finite real number, "
                             f"got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if not _is_number(self.n, numbers.Integral):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.0 < self.alpha < math.pi:
            raise ValueError("alpha must lie strictly between 0 and pi")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def theta(self):
        return math.pi / self.n

    @property
    def corners(self):
        return (complex(math.cos(self.alpha), math.sin(self.alpha)),
                complex(math.cos(self.alpha), -math.sin(self.alpha)))

    @property
    def is_chord(self):
        return abs(self.alpha - self.theta) <= _CHORD_TOL

    def to_json(self):
        return {"alpha": self.alpha, "n": self.n}


def _is_number(value, kind):
    """value is an instance of the numbers ABC kind, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def corner_distance(params, z):
    cp, cm = params.corners
    z = np.asarray(z, dtype=complex)
    return np.minimum(np.abs(z - cp), np.abs(z - cm))


@lru_cache(maxsize=64)
def arc_coefficients(params):
    """The (a, b, c) of the parqueting arcs C_0 .. C_{2n-1}, a tuple of float
    triples with C_k = (-sin(alpha + (k-1) theta), sin((k-1) theta),
    sin(alpha - (k-1) theta)); C_0 and C_1 bound the lens.  Only C_0 ..
    C_{n-1} are formed, and C_{k+n} is C_k with every sign flipped, exactly.
    The n = 1 disc forms both of its arcs, so that its closure line still
    reflects one rounded circle in another.  Built once per lens (the last
    64)."""
    alpha, theta, n = params.alpha, params.theta, params.n
    table = [(-math.sin(alpha + ang), math.sin(ang), math.sin(alpha - ang))
             for ang in ((k - 1) * theta for k in range(max(n, 2)))]
    return tuple(table + [(-a, -b, -c) for a, b, c in table[:2 * n - len(table)]])


def boundary_sines(params):
    """(sin(alpha - theta), sin(theta), sin(alpha + theta), sin(alpha)), read
    off C_0 = (-sin(alpha - theta), -sin(theta), sin(alpha + theta)) and
    C_1 = (-sin(alpha), 0, sin(alpha)) in arc_coefficients."""
    (a, b, c), (_, _, sin_a) = arc_coefficients(params)[:2]
    return -a, -b, c, sin_a


def arc_matrix(params, k):
    """Matrix of the k-th parqueting arc; any integer k, period 2n exact."""
    return CircleMatrix(*arc_coefficients(params)[k % (2 * params.n)])


@dataclass(frozen=True)
class ReflectionOrbit:
    """The 2n reflection images of a seed point, kept in homogeneous form."""

    base: complex
    homogeneous: tuple

    @property
    def points(self):
        """Orbit as complex values; (inf+0j) marks a point at infinity."""
        return [p.value() for p in self.homogeneous]


def reflection_orbit(params, z):
    """Closed-form orbit z_0 .. z_{2n-1} of a non-corner point of the domain.

    Index 2k is the image of 1/conj(z) under reflection through arc k+1,
    index 2k+1 the image of z itself; z_0 == z and z_1 == 1/conj(z).
    """
    z = complex(z)
    if corner_distance(params, z) <= EPS_CORNER:
        raise ValueError("orbit degenerates at the corner points")
    if classify_point(params, z) == "exterior":
        raise ValueError("seed point must lie in the closed domain")
    zc = z.conjugate()
    pairs = []
    # arc k+1 is (-sin(alpha + k theta), sin(k theta), sin(alpha - k theta))
    for a, sk, sm in arc_coefficients(params)[1:params.n + 1]:
        sp = -a
        even = HomogeneousPoint(-z * sm - sk, z * sk - sp).canonical()
        odd = HomogeneousPoint(zc * sk + sm, zc * sp - sk).canonical()
        pairs.extend((even, odd))
    return ReflectionOrbit(base=z, homogeneous=tuple(pairs))


def boundary_forms(params, z):
    """The two defining form values (f0 >= 0 and f1 <= 0 inside)."""
    z = np.asarray(z, dtype=complex)
    zz = np.abs(z) ** 2
    f1 = zz - 1.0
    s_minus, s_theta, s_plus, _ = boundary_sines(params)
    return zz * s_minus + 2.0 * z.real * s_theta - s_plus, f1


def classify_point(params, z):
    """One of interior, boundary_C0, boundary_C1, corner, exterior; an
    array of those names for an array of points.

    Non-finite points are exterior."""
    z = np.asarray(z, dtype=complex)
    finite = np.isfinite(z)
    # 2 stands in for non-finite points: exterior, and no warnings
    z = np.where(finite, z, 2.0)
    f0, f1 = boundary_forms(params, z)
    on1 = abs(f1) <= _ON_TOL
    if params.n == 1:
        # the whole disc; of C0 only the two marked corner points remain
        outside = f1 > _ON_TOL
        on0 = on1 & (corner_distance(params, z) <= EPS_CORNER)
    else:
        outside = (f1 > _ON_TOL) | (f0 < -_ON_TOL)
        on0 = abs(f0) <= _ON_TOL
    state = _STATES[on0 + 2 * on1 + 4 * outside]
    return str(state) if state.ndim == 0 else state


@dataclass(frozen=True)
class Arc:
    """One boundary arc with its native parametrization.

    kind "unit" and "circle" trace center + radius*exp(i(phi_mid+t)); kind
    "segment" is the vertical chord center + i*t.  t runs over
    [-half_width, half_width] and arc length is measured from
    t = -half_width.  Circle arcs evaluate anchored at their apex point:
    near the chord case the carrier radius blows up like 1/(alpha - theta)
    and the naive center + radius*e^{i phi} form loses all precision to
    cancellation.
    """

    arc_id: str
    kind: str
    center: complex
    radius: float
    phi_mid: float
    half_width: float
    apex: float = 0.0  # x of the arc midpoint, computed in a stable form

    @property
    def speed(self):
        return self.radius if self.kind in ("unit", "circle") else 1.0

    @property
    def length(self):
        return 2.0 * self.half_width * self.speed

    @property
    def t_range(self):
        return (-self.half_width, self.half_width)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "unit":
            return self.center + self.radius * np.exp(1j * (self.phi_mid + t))
        if self.kind == "circle":
            sign = 1.0 if self.phi_mid == 0.0 else -1.0
            sag = 2.0 * self.radius * np.sin(0.5 * t) ** 2
            return (self.apex - sign * sag) + 1j * (sign * self.radius * np.sin(t))
        return self.center + 1j * t

    def arclen(self, t):
        return self.speed * (np.asarray(t, dtype=float) + self.half_width)

    def to_json(self):
        data = {"arc": self.arc_id, "kind": self.kind,
                "t_range": [-self.half_width, self.half_width]}
        if self.kind == "segment":
            lo = self.point(-self.half_width)
            hi = self.point(self.half_width)
            data["endpoints"] = [[lo.real, lo.imag], [hi.real, hi.imag]]
        else:
            data["center"] = [self.center.real, self.center.imag]
            data["radius"] = self.radius
        return data


@lru_cache(maxsize=64)
def arcs(params):
    """The boundary arcs keyed by arc id: C0 and C1, or C1 alone for the
    n == 1 disc.  Built once per lens (the last 64) and returned as a
    read-only mapping."""
    alpha, theta = params.alpha, params.theta
    if params.n == 1:
        return MappingProxyType(
            {"C1": Arc("C1", "unit", 0.0, 1.0, 0.0, math.pi)})
    c1 = Arc("C1", "unit", 0.0, 1.0, 0.0, alpha)
    s_minus, s_theta, _, sin_a = boundary_sines(params)
    if params.is_chord:
        c0 = Arc("C0", "segment", complex(math.cos(alpha), 0.0), 0.0, 0.0,
                 sin_a)
    else:
        m = -s_theta / s_minus
        r = sin_a / abs(s_minus)
        phi_mid = 0.0 if alpha > theta else math.pi
        # cancellation-free arc midpoint: equals m +/- r
        apex = math.cos(0.5 * (alpha + theta)) / math.cos(0.5 * (alpha - theta))
        c0 = Arc("C0", "circle", complex(m, 0.0), r, phi_mid,
                 abs(alpha - theta), apex)
    return MappingProxyType({"C0": c0, "C1": c1})


def arc_of(params, arc_id):
    """The arc named arc_id; ValueError if the lens has no such arc (C0 of
    the n == 1 disc, or an unknown id)."""
    arcmap = arcs(params)
    if arc_id not in arcmap:
        raise ValueError(f"the lens with n = {params.n} has no arc {arc_id!r}")
    return arcmap[arc_id]


def _axis_crossings(params):
    """The points where the boundary crosses the real axis: the C0 and C1
    arc midpoints, with -1 in place of C0's for the n == 1 disc."""
    arcmap = arcs(params)
    mid1 = complex(arcmap["C1"].point(0.0))
    mid0 = complex(arcmap["C0"].point(0.0)) if "C0" in arcmap else -mid1
    return mid0, mid1


@dataclass(frozen=True)
class BoundaryPoint:
    """Point on a named arc: native parameter, location and arc length.

    Fields hold scalars or numpy arrays of matching shape, so one instance
    can describe a whole batch of quadrature nodes on the same arc.
    """

    arc_id: str
    t: object
    point: object
    arclen: object


def boundary_point(params, arc_id, t):
    arc = arc_of(params, arc_id)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > arc.half_width + 1e-12):
        raise ValueError(f"parameter outside [{-arc.half_width:g}, {arc.half_width:g}]")
    if t.ndim == 0:
        t = float(t)
        return BoundaryPoint(arc_id, t, complex(arc.point(t)), float(arc.arclen(t)))
    return BoundaryPoint(arc_id, t, arc.point(t), arc.arclen(t))


def arc_lengths(params):
    """(C0 length, C1 length); C0's is 0.0 for the n == 1 disc."""
    a = arcs(params)
    return (a["C0"].length if "C0" in a else 0.0, a["C1"].length)


def normal_coeffs(params, bp):
    """Coefficients (q, conj(q)) of d/dzeta and d/dconj(zeta) in the outward
    normal derivative at a non-corner boundary point; |q| == 1."""
    pt = np.asarray(bp.point, dtype=complex)
    if np.any(corner_distance(params, pt) <= EPS_CORNER):
        raise ValueError("normal derivative undefined at the corner points")
    if arc_of(params, bp.arc_id).kind == "unit":
        q = pt
    else:
        s_minus, s_theta, _, sin_a = boundary_sines(params)
        # reduces to q = -1 in the chord case, where sin(alpha-theta) = 0
        q = -(pt * s_minus + s_theta) / sin_a
    if np.ndim(bp.point) == 0:
        q = complex(q)
        return (q, q.conjugate())
    return (q, np.conj(q))


def neumann_flux(params, arc_id):
    """dN/dnu on the arc arc_id: the outward normal derivative of the Neumann
    function, constant on each arc, -2n on C1 and 2n sin(alpha - theta) /
    sin(alpha) on C0 (-2n times the arc's curvature, signed positive where
    the lens is convex).  ValueError for an arc the lens does not have."""
    if arc_of(params, arc_id).kind == "unit":
        return -2.0 * params.n
    s_minus, _, _, sin_a = boundary_sines(params)
    return 2.0 * params.n * s_minus / sin_a


def _arc_feet(params, z):
    """Each arc's nearest point to each of the points z, its foot:
    (distances, parameters), one row per arc of arcs(params), each row of
    z's shape."""
    feet = []
    for arc in arcs(params).values():
        w = z - arc.center
        t = (w.imag if arc.kind == "segment"
             else _wrap(np.arctan2(w.imag, w.real) - arc.phi_mid))
        t = np.minimum(np.maximum(t, -arc.half_width), arc.half_width)
        feet.append((np.abs(z - arc.point(t)), t))
    return tuple(np.array(rows) for rows in zip(*feet))


def boundary_distance(params, z):
    """Distance from z to the boundary, with the nearest arc and parameter.

    Returns (distance, arc_id, t) for the closest point over both arcs, the
    first arc of arcs(params) where both are as close: Python float, str
    and float for a point, arrays of z's shape for an array of points.
    """
    z = np.asarray(z, dtype=complex)
    ds, ts = _arc_feet(params, z)
    nearest = ds.argmin(0)
    d, t = ds.min(0), np.choose(nearest, ts)
    arc_id = np.array(list(arcs(params)))[nearest]
    if z.ndim == 0:
        return float(d), str(arc_id), float(t)
    return d, arc_id, t


def _wrap(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def sample_interior(params, rng, count, margin=1e-3):
    """Random interior points at least `margin` away from the boundary.

    Candidates are drawn one after another, each as rng.uniform over the
    bounding box's x range and then its y range, and kept in draw order.
    They are drawn, classified and measured in blocks; the generator is
    then wound back to just after the last candidate looked at, so the
    points and the generator's state are those of drawing one candidate at
    a time.  Fails before drawing anything when margin is at least half the
    lens width on the real axis, which no interior point can clear, and
    after 100000 draws per point asked for."""
    mid0, mid1 = _axis_crossings(params)
    if margin >= 0.5 * abs(mid1 - mid0):
        raise RuntimeError("interior sampling did not converge")
    (x_lo, x_hi), (y_lo, y_hi) = _bounding_box(params)
    low, high = np.array([x_lo, y_lo]), np.array([x_hi, y_hi])
    out = []
    budget = 100000 * (count + 1)
    while len(out) < count:
        if budget <= 0:
            raise RuntimeError("interior sampling did not converge")
        block = min(_DRAW_BLOCK, budget)
        state = rng.bit_generator.state
        z = rng.uniform(low, high, size=(block, 2)).view(complex)[:, 0]
        inside = np.flatnonzero(classify_point(params, z) == "interior")
        # the corners end the arcs, so this also keeps z clear of them
        clear = inside[boundary_distance(params, z[inside])[0] >= margin]
        clear = clear[:count - len(out)]
        out += z[clear].tolist()
        used = int(clear[-1]) + 1 if len(out) == count else block
        budget -= used
        if used < block:
            rng.bit_generator.state = state
            rng.uniform(low, high, size=(used, 2))
    return np.array(out)


def boundary_samples(params, arc_id, count):
    """Evenly spread non-corner sample points along one arc."""
    if not (_is_number(count, numbers.Integral) and count >= 1):
        raise ValueError(f"sample count must be an integer >= 1, "
                         f"got {count!r}")
    arc = arc_of(params, arc_id)
    spacing = 2.0 * arc.half_width / count
    ts = -arc.half_width + spacing * (np.arange(count) + 0.5)
    # the n = 1 circle passes through the marked corners mid-range, and
    # many samples put the first and last next to the arc's ends: a sample
    # that close moves a quarter spacing forward, or back where forward is
    # within EPS_CORNER of a corner (the last sample, next to the far end)
    bad = corner_distance(params, arc.point(ts)) <= 1.5 * EPS_CORNER
    ts[bad] += 0.25 * spacing
    back = bad & (corner_distance(params, arc.point(ts)) <= EPS_CORNER)
    ts[back] -= 0.5 * spacing
    if np.any(corner_distance(params, arc.point(ts)) <= EPS_CORNER):
        raise RuntimeError("could not place samples clear of the corners")
    return boundary_point(params, arc_id, ts)


def _bounding_box(params):
    pts = []
    for arc in arcs(params).values():
        ts = np.linspace(-arc.half_width, arc.half_width, 257)
        pts.append(arc.point(ts))
    pts = np.concatenate(pts)
    return ((pts.real.min(), pts.real.max()), (pts.imag.min(), pts.imag.max()))
