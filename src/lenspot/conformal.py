"""The corner-pinning conformal map: strip coordinate, pullback, kernels.

The Mobius map (z - c+)/(z - c-) pins the two corners at 0 and infinity,
turning both boundary arcs into rays from the origin and the lens into an
infinite sector of opening pi/n.  Its logarithm w opens the sector into the
strip -pi/n < Im w < 0, in which the area quadrature lays out its mesh and
pulls it back with the exact Jacobian.  Rotating so the unit-circle arc
lands on the positive real axis and raising to the n-th power opens the
sector into a half plane, where the Green function is elementary.
Conformal invariance of the Green function then provides ground-truth
values that are entirely independent of the reflection-product
construction.

In the strip the 2n reflection images of the paper's products are the
method of images for the half plane e^{nw}, so both kernels take a closed
form with O(1) work per node at any n.  With w0 = x0 + i y0 the image of
z, d = -n|x - x0|, A = expm1(d)^2, B = 4 exp(d), S-+ = sin^2(n(y -+ y0)/2),
F1 = A + B S- and F2 = A + B S+ (so |e^{nw} - e^{n w0}|^2 =
e^{2n max(x, x0)} F1, and F2 likewise for conj(w0)):

    G = log(F2/F1) = log1p(B sin(n y) sin(n y0) / F1)
    N = -log(F1 F2) - 4n max(x, x0) + 2n L(w) + 2n L(w0)
        - 8n log|c+ - c-| + 4n log 2

where L(w) = log|s - 1|^2 with s = e^w/rotation, so that
|zeta - c-| = |c+ - c-|/|s - 1|.  The constant makes N equal the paper's
product form, not just up to a constant, so the two forms are
interchangeable in every integral of a Neumann solve.  The solvers' area
integrals use strip_green and strip_neumann on the nodes the area mesh
lays out in w; their boundary integrals use strip_poisson and
strip_neumann_at on the boundary nodes, N being symmetric.  Each is a
Kernel, a z side, a node side and their pair, so that many points share
one node side.  G takes the log1p form, since F2 - F1 = B (S+ - S-) =
B sin(n y) sin(n y0) by sin^2 a - sin^2 b = sin(a + b) sin(a - b): both
sines are negative inside the strip, so G keeps its sign and relative
accuracy where it is far below rounding, as between points near the
corners of a thin lens.  On the boundary F1 = F2, so the Poisson kernel
-1/2 dG/dnu takes one gap and two sines (see SectorMap._poisson_pair).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .domain import (EPS_CORNER, _axis_crossings, arcs, corner_distance,
                     neumann_flux)


def _image_terms(n, x, x0):
    """(A, B) = (expm1(d)^2, 4 exp(d)) with d = -n|x - x0|.  B is not
    4(expm1(d) + 1): expm1(d) rounds to -1 once n|x - x0| exceeds about 37,
    and B, which carries all of F's dependence on y, would come out 0."""
    d = -n * np.abs(x - x0)
    em = np.expm1(d)
    return em * em, 4.0 * np.exp(d)


def _image_gaps(n, x, y, x0, y0s):
    """[F(y0) for y0 in y0s] with |e^{nw} - e^{n(x0 + i y0)}|^2 =
    exp(2n max(x, x0)) F(y0) at w = x + iy.  x and y broadcast against each
    other; A and B are formed on x and the sines on y, so a tensor grid
    pays one multiply-add per node and image."""
    a, b = _image_terms(n, x, x0)
    return [a + b * np.sin(0.5 * n * (y - y0)) ** 2 for y0 in y0s]


class Kernel(NamedTuple):
    """A strip kernel in three steps, for many points against one set of
    nodes: kernel(z, *args) == pair(source(z), nodes(*args)).  source(z)
    is the z side of one point, nodes(*args) the part that does not depend
    on z, and pair takes the z sides of many points stacked part by part
    (sides), shaped to broadcast against the nodes' arrays.  The node-side
    and pair ufuncs give the same values at any array length."""

    source: Callable
    nodes: Callable
    pair: Callable

    def __call__(self, z, *args):
        return self.pair(self.source(z), self.nodes(*args))

    def sides(self, points):
        """The z sides of the points stacked part by part, one flat array
        per part.  Single points' z sides are stacked rather than the z side
        of an array taken: they come from numpy scalar arithmetic, whose
        complex multiply can round differently from the array loop's, and
        stacked they keep every answer equal to a one-point call's."""
        return tuple(map(np.array, zip(*map(self.source, points))))


class SectorMap:
    """z -> rotation * (z - c+) / (z - c-), with c+ at 0 and c- at infinity.

    The rotation sends the unit-circle arc's midpoint z = 1 to +1, so that
    arc maps onto the positive real ray and the lens onto the sector of
    opening pi/n just below it.  Checked at build time: an interior point
    maps into the strip and back.

    The strip kernels are Kernel attributes.  strip_green(z, x, y) and
    strip_neumann(z, x, y) are G and N at the zeta whose strip coordinate
    is x + iy, equal to KernelField.green and neumann, N's additive
    constant included.  strip_neumann_at(z, zeta) is N at the points zeta
    rather than their strip coordinates; N is symmetric, so this is
    N(zeta, z) too.  strip_poisson(z, zeta) is the Poisson kernel
    p(z, zeta) = -1/2 dG/dnu at non-corner boundary points zeta, equal to
    KernelField.poisson_kernel.  Each raises ValueError at the corners,
    which have no image, and where its value is not finite (zeta at z).
    normal_density maps each arc id to dN/dnu there, the constant
    domain.neumann_flux, as KernelField.normal_density returns.
    """

    def __init__(self, params):
        self.params = params
        self.cp, self.cm = params.corners
        self.rotation = -np.exp(-1j * params.alpha)
        # the pullback Jacobian has poles at w = i(pi - alpha) - 2 pi i k;
        # these sit outside the strip at the following distances, and
        # gap_top is also Im w of the pole just above it
        self.gap_top = math.pi - params.alpha
        self.gap_bottom = math.pi + params.alpha - params.theta
        n = params.n
        self._neumann_const = (-8.0 * n * math.log(abs(self.cp - self.cm))
                               + 4.0 * n * math.log(2.0))
        self.normal_density = {arc_id: neumann_flux(params, arc_id)
                               for arc_id in arcs(params)}
        # strip_green's node side is the strip coordinates themselves
        self.strip_green = Kernel(self._green_source, lambda x, y: (x, y),
                                  self._green_pair)
        self.strip_neumann = Kernel(self._neumann_source, self._neumann_nodes,
                                    self._neumann_pair)
        self.strip_neumann_at = Kernel(self._neumann_source,
                                       self._neumann_nodes_at,
                                       self._neumann_pair)
        self.strip_poisson = Kernel(self._poisson_source, self._poisson_nodes,
                                    self._poisson_pair)
        # the boundary crosses the real axis only at these two points, so
        # the point halfway between them is interior
        mid0, mid1 = _axis_crossings(params)
        interior = 0.5 * (mid0 + mid1)
        w = complex(self.to_w(interior))
        back = complex(self.pullback(w.real, w.imag)[0])
        if not -params.theta < w.imag < 0.0 or abs(back - interior) > 1e-9:
            raise RuntimeError("an interior point did not map into the strip "
                               "and back")

    def sector(self, z):
        return self.rotation * (z - self.cp) / (z - self.cm)

    def to_w(self, z):
        """Strip coordinate w = log(sector(z)); the lens is -theta < Im w < 0."""
        return np.log(self.sector(np.asarray(z, dtype=complex)))

    def pullback(self, x, y):
        """Points z(w) and Jacobians |dz/dw|^2 at w = x + iy, x and y
        broadcast against each other.  exp(w) is formed as exp(x) times
        exp(iy), so a tensor grid pays for its rows and columns only."""
        ex = np.exp(x)
        s = ex * (np.exp(1j * np.asarray(y)) / self.rotation)
        d = s - 1.0
        d2 = d.real * d.real
        d2 += d.imag * d.imag
        # z = (c- s - c+) / d formed in place, each array let go once used:
        # the area patches pull back many nodes at once
        z = self.cm * s
        del s
        z -= self.cp
        z /= d
        del d
        d2 *= d2
        scale = 2.0 * math.sin(self.params.alpha)
        return z, (scale * ex) ** 2 / d2

    def _log_gap(self, x, y):
        """L(w) = log|e^w/rotation - 1|^2 at w = x + iy, the Jacobian pole
        w = i(pi - alpha) taken as an image: 2 max(x, 0) + log(pole gap)."""
        gap, = _image_gaps(1, x, y, 0.0, (self.gap_top,))
        return 2.0 * np.maximum(x, 0.0) + np.log(gap)

    def _gaps(self, z):
        """z - c+ and z - c- as complex arrays, and the product of their
        moduli; ValueError at the corners, which have no image."""
        z = np.asarray(z, dtype=complex)
        to_plus, to_minus = z - self.cp, z - self.cm
        near_plus, near_minus = np.abs(to_plus), np.abs(to_minus)
        if np.any(np.minimum(near_plus, near_minus) <= EPS_CORNER):
            raise ValueError("kernel undefined at the corner points")
        return to_plus, to_minus, near_plus * near_minus

    def _image(self, to_plus, to_minus):
        """w0 = to_w(z) from z - c+ and z - c-, by the same expression, so
        w0 is the apex of area_mesh's Duffy star."""
        return np.log(self.rotation * to_plus / to_minus)

    @staticmethod
    def _finite(value):
        if not np.all(np.isfinite(value)):
            raise ValueError("kernel has a singularity at zeta == z")
        return value

    def _green_source(self, z):
        """x0, y0 and sin(n y0), w0 = x0 + i y0 being the image of z."""
        to_plus, to_minus, _ = self._gaps(z)
        w0 = self._image(to_plus, to_minus)
        return w0.real, w0.imag, np.sin(self.params.n * w0.imag)

    def _green_pair(self, source, nodes):
        """G = log1p((F2 - F1)/F1), F2 - F1 = B sin(n y) sin(n y0) taken
        whole: log(F2/F1) rounds F2/F1 to 1 where G is below rounding, and
        loses its sign."""
        x0, y0, sin0 = source
        x, y = nodes
        n = self.params.n
        a, b = _image_terms(n, x, x0)
        with np.errstate(divide="ignore", invalid="ignore"):
            f1 = a + b * np.sin(0.5 * n * (y - y0)) ** 2
            # (F2 - F1)/F1 and G in place, the sines multiplied before they
            # meet B's shape: the evaluator pairs many nodes at a time.  A
            # scalar pair goes through as a 0-d array and comes out a float
            g = np.asarray(b * (np.sin(n * y) * sin0))
            g /= f1
            return self._finite(np.log1p(g, out=g)[()])

    def _poisson_source(self, z):
        """z, z - c+, z - c- and y0 = Im w0."""
        z = np.asarray(z, dtype=complex)
        z_plus, z_minus, _ = self._gaps(z)
        return z, z_plus, z_minus, self._image(z_plus, z_minus).imag

    def _poisson_nodes(self, zeta):
        """zeta, zeta - c+, zeta - c- and |w'(zeta)|."""
        zeta = np.asarray(zeta, dtype=complex)
        to_plus, to_minus, corner_product = self._gaps(zeta)
        return (zeta, to_plus, to_minus,
                abs(self.cp - self.cm) / corner_product)

    def _poisson_pair(self, source, nodes):
        """The Poisson kernel from the z sides and node sides.

        With w = x + iy the image of zeta, dG/dnu = sigma dG/dy |w'(zeta)|,
        the outward normal being +y on the edge Im w = 0 (sigma = +1) and -y
        on Im w = -theta (sigma = -1), and |w'(zeta)| = |c+ - c-| /
        (|zeta - c+| |zeta - c-|).  On either edge F1 = F2 = F =
        A + B sin^2(n v/2) with u + iv = w - w0, and dG/dy = -n B sin(n v)/F,
        so p = sigma n B sin(n v) |w'(zeta)| / (2F).

        u and v are not taken from w and w0, each rounded on its own: next
        to the boundary v is small, and p would lose a factor 1/|w'| at its
        peak.  Instead w - w0 = log(r), r = s(zeta)/s(z) = 1 + q with
        q = (zeta - z)(c+ - c-) / ((zeta - c-)(z - c+)).  Where |q| < 1/2,
        u and v come from q, which keeps its relative accuracy as zeta nears
        z.  Elsewhere u = log|r| and v = Im w - y0 with Im w set to its edge
        value, so a node rounded off the boundary does not move v.  The edge
        is the one Im w = arg(r) + y0 lies nearer; unlike Im to_w(zeta) this
        does not wrap to +pi at n = 1.
        """
        z, z_plus, z_minus, y0 = source
        zeta, to_plus, to_minus, speed = nodes
        den = to_minus * z_plus
        r = to_plus * z_minus / den
        q = (zeta - z) * (self.cp - self.cm) / den
        close = np.abs(q) < 0.5
        q = np.asarray(q)[close]
        n, theta = self.params.n, self.params.theta
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.asarray(np.log(np.abs(r)))
            upper = np.angle(r) + y0 > -0.5 * theta
            v = np.asarray(np.where(upper, 0.0, -theta) - y0)
            # next to z: log|1 + q| = log1p(2 Re q + |q|^2) / 2 and
            # v = arg(1 + q)
            u[close] = 0.5 * np.log1p(q.real * (2.0 + q.real)
                                      + q.imag * q.imag)
            v[close] = np.arctan2(q.imag, 1.0 + q.real)
            a, b = _image_terms(n, u, 0.0)
            # sigma |w'(zeta)| / 2
            scale = np.where(upper, 0.5, -0.5) * speed
            return self._finite(scale * n * b * np.sin(n * v)
                                / (a + b * np.sin(0.5 * n * v) ** 2))

    def _neumann_source(self, z):
        """x0, y0 and the terms of N in z alone: the constant and 2n L(w0)."""
        to_plus, to_minus, _ = self._gaps(z)
        w0 = self._image(to_plus, to_minus)
        x0, y0 = w0.real, w0.imag
        return (x0, y0, self._neumann_const
                + 2.0 * self.params.n * self._log_gap(x0, y0))

    def _neumann_nodes(self, x, y):
        """x, y and the terms of N in zeta alone: 2n log of the pole gap and
        max(x, 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            pole, = _image_gaps(1, x, y, 0.0, (self.gap_top,))
            return x, y, 2.0 * self.params.n * np.log(pole), np.maximum(x, 0.0)

    def _neumann_nodes_at(self, zeta):
        w = self.to_w(zeta)
        return self._neumann_nodes(w.real, w.imag)

    def _neumann_pair(self, source, nodes):
        x0, y0, row = source
        x, y, log_pole, x_plus = nodes
        n = self.params.n
        with np.errstate(divide="ignore", invalid="ignore"):
            f1, f2 = _image_gaps(n, x, y, x0, (y0, -y0))
            # the rest of the terms in x alone: the x part of zeta's L(w)
            # and -4n max(x, x0)
            row = row + 4.0 * n * (x_plus - np.maximum(x, x0))
            return self._finite(log_pole - np.log(f1 * f2) + row)

    def to_halfplane(self, z):
        """Image in the closed upper half plane; corners are excluded."""
        z = np.asarray(z, dtype=complex)
        if np.any(corner_distance(self.params, z) <= EPS_CORNER):
            raise ValueError("the corner points map to 0 and infinity")
        # the sector lies below the real ray, so its n-th power fills the
        # lower half plane
        w = np.conj(self.sector(z) ** self.params.n)
        if np.ndim(z) == 0:
            return complex(w)
        return w

    def green(self, z, zeta):
        """Half-plane Green function pulled back through the map; raises
        ValueError where it is not finite, as where the n-th power of the
        sector map overflows next to a corner at large n."""
        if np.any(np.asarray(z) == np.asarray(zeta)):
            raise ValueError("Green function has a singularity at zeta == z")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            wz, wzeta = self.to_halfplane(z), self.to_halfplane(zeta)
            val = 2.0 * (np.log(np.abs(wz - np.conj(wzeta)))
                         - np.log(np.abs(wz - wzeta)))
        if not np.all(np.isfinite(val)):
            raise ValueError("half-plane Green function is not finite here")
        if np.ndim(z) == 0 and np.ndim(zeta) == 0:
            return float(val)
        return val


@lru_cache(maxsize=64)
def sector_map(params):
    """The SectorMap of a lens, built and checked once (the last 64 lenses)
    and shared by the solvers, the quadrature and the catalog; no method
    changes it."""
    return SectorMap(params)
