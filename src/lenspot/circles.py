"""Circles in the extended complex plane as 2x2 Hermitian matrices.

A circle or straight line is the zero set of

    a*|z|^2 + conj(b)*z + b*conj(z) + c = 0

with a, c real, b complex and a*c - |b|^2 < 0; a == 0 gives a line.  The
triple (a, b, c) is determined only up to a nonzero real factor.  Points
are kept in homogeneous form [z : w] so that membership and reflection
work at infinity without special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EPS_GEOM = 1e-10


@dataclass(frozen=True)
class HomogeneousPoint:
    """Point of the extended plane as a projective pair [z : w]."""

    z: complex
    w: complex

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "w", complex(self.w))
        if self.z == 0 and self.w == 0:
            raise ValueError("homogeneous coordinates cannot both be zero")

    @classmethod
    def of(cls, value):
        if isinstance(value, HomogeneousPoint):
            return value
        v = complex(value)
        if math.isinf(v.real) or math.isinf(v.imag):
            return cls(1.0, 0.0)
        return cls(v, 1.0)

    def canonical(self):
        """Scale the component of largest modulus to exactly 1."""
        if abs(self.z) >= abs(self.w):
            return HomogeneousPoint(1.0, self.w / self.z)
        return HomogeneousPoint(self.z / self.w, 1.0)

    @property
    def is_infinity(self):
        return self.canonical().w == 0

    def value(self):
        """The complex number represented; (inf+0j) for the point at infinity."""
        c = self.canonical()
        if c.w == 0:
            return complex(math.inf, 0.0)
        return c.z / c.w

    def chordal_distance(self, other):
        """Projective distance |z1 w2 - z2 w1| over canonical pairs;
        scale-free and branch-free (equal points give ~1e-16 even when the
        canonical forms pick different components)."""
        a, b = self.canonical(), HomogeneousPoint.of(other).canonical()
        return abs(a.z * b.w - b.z * a.w)

    def close_to(self, other, tol=EPS_GEOM):
        return self.chordal_distance(other) <= tol


INFINITY = HomogeneousPoint(1.0, 0.0)


@dataclass(frozen=True)
class CircleMatrix:
    """Hermitian matrix [[a, conj(b)], [b, c]] with negative determinant."""

    a: float
    b: complex
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", float(self.c))
        if not self.det() < 0:
            raise ValueError(f"a*c - |b|^2 = {self.det():g} must be negative")

    def det(self):
        return self.a * self.c - abs(self.b) ** 2

    @property
    def is_line(self):
        return self.a == 0.0

    @property
    def center(self):
        if self.is_line:
            raise ValueError("a straight line has no center")
        return -self.b / self.a

    @property
    def radius(self):
        if self.is_line:
            raise ValueError("a straight line has no radius")
        return math.sqrt(abs(self.b) ** 2 - self.a * self.c) / abs(self.a)

    def scaled(self, factor):
        return CircleMatrix(self.a * factor, self.b * factor, self.c * factor)

    def normalized(self):
        """Canonical representative: largest entry at modulus 1, sign fixed.

        Sign convention: a > 0 where possible, otherwise Re(b) > 0,
        otherwise Im(b) > 0.
        """
        m = max(abs(self.a), abs(self.b), abs(self.c))
        a, b, c = self.a / m, self.b / m, self.c / m
        if a != 0:
            s = 1.0 if a > 0 else -1.0
        elif b.real != 0:
            s = 1.0 if b.real > 0 else -1.0
        else:
            s = 1.0 if b.imag > 0 else -1.0
        return CircleMatrix(a * s, b * s, c * s)

    def form(self, point):
        """Hermitian form [z w] M [conj(z) conj(w)]^T; real by construction."""
        p = HomogeneousPoint.of(point)
        z, w = p.z, p.w
        v = (self.a * z * z.conjugate() + self.b * w * z.conjugate()
             + self.b.conjugate() * z * w.conjugate() + self.c * w * w.conjugate())
        return v.real


def unit_circle():
    return CircleMatrix(1.0, 0.0, -1.0)


def real_axis():
    # Im z = 0, written as -i*z + i*conj(z) = 0
    return CircleMatrix(0.0, 1j, 0.0)


def from_center_radius(center, radius):
    center = complex(center)
    return CircleMatrix(1.0, -center, abs(center) ** 2 - radius ** 2)


def circle_contains(circle, point, tol=EPS_GEOM):
    """Whether the point satisfies the circle equation, up to tol.

    Scale-free: the matrix is normalized by its largest entry and the point
    is taken in canonical form, so the verdict does not depend on the
    representatives chosen.
    """
    return form_gap(circle, point) <= tol


def form_gap(circle, point):
    """|form| of the point in canonical form over the matrix's largest
    entry: how far the point is from the circle, as circle_contains
    measures it."""
    m = max(abs(circle.a), abs(circle.b), abs(circle.c))
    return abs(circle.form(HomogeneousPoint.of(point).canonical()) / m)


def reflect_point(circle, point):
    """Anti-conformal reflection of a point through the circle.

    Involutive; infinity is a legal input and output.
    """
    p = HomogeneousPoint.of(point)
    zc, wc = p.z.conjugate(), p.w.conjugate()
    num = -(circle.b * zc + circle.c * wc)
    den = circle.a * zc + circle.b.conjugate() * wc
    return HomogeneousPoint(num, den).canonical()


def reflect_circle(mirror, circle):
    """Image of `circle` under reflection through `mirror`.

    The image is mirror @ adj(circle) @ mirror up to a real scalar; the
    adjugate stands in for the inverse since both give the same projective
    class.
    """
    a1, b1, c1 = mirror.a, mirror.b, mirror.c
    a2, b2, c2 = circle.c, -circle.b, circle.a  # adjugate entries
    m00 = a1 * a2 + b1.conjugate() * b2
    m01 = a1 * b2.conjugate() + b1.conjugate() * c2
    m10 = b1 * a2 + c1 * b2
    m11 = b1 * b2.conjugate() + c1 * c2
    r00 = m00 * a1 + m01 * b1
    r01 = m00 * b1.conjugate() + m01 * c1
    r10 = m10 * a1 + m11 * b1
    r11 = m10 * b1.conjugate() + m11 * c1
    b = (r10 + r01.conjugate()) / 2.0  # exact Hermitian symmetrization
    return CircleMatrix(r00.real, b, r11.real)


def equivalent(first, second, tol=EPS_GEOM):
    """Same circle up to a nonzero real scalar; sign ambiguity allowed."""
    return equivalence_gap(first, second) <= tol


def equivalence_gap(first, second):
    """How far two circles are from one, as equivalent measures it: the
    largest entry difference of their matrices, each scaled by its largest
    entry, under the sign that makes it smaller."""
    va = _entries(first)
    vb = _entries(second)
    d_plus = max(abs(x - y) for x, y in zip(va, vb))
    d_minus = max(abs(x + y) for x, y in zip(va, vb))
    return min(d_plus, d_minus)


def _entries(circle):
    m = max(abs(circle.a), abs(circle.b), abs(circle.c))
    return (circle.a / m, circle.b.real / m, circle.b.imag / m, circle.c / m)
