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
z, em = expm1(-n|x - x0|), A = em^2, B = 4(em + 1), S-+ = sin^2(n(y -+ y0)/2),
F1 = A + B S- and F2 = A + B S+ (so |e^{nw} - e^{n w0}|^2 =
e^{2n max(x, x0)} F1, and F2 likewise for conj(w0)):

    G = log(F2/F1)
    N = -log(F1 F2) - 4n max(x, x0) + 2n L(w) + 2n L(w0)
        - 8n log|c+ - c-| + 4n log 2

where L(w) = log|s - 1|^2 with s = e^w/rotation, so that
|zeta - c-| = |c+ - c-|/|s - 1|.  The constant makes N equal the paper's
product form, not just up to a constant: the boundary integrals keep that
form, so an area kernel off by any function of z would change the answer.
The solvers' area integrals use strip_green and strip_neumann on the nodes
quadrature.area_mesh lays out in w.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import EPS_CORNER, _axis_crossings, corner_distance


def _image_gaps(n, x, y, x0, y0s):
    """[F(y0) for y0 in y0s] with |e^{nw} - e^{n(x0 + i y0)}|^2 =
    exp(2n max(x, x0)) F(y0) at w = x + iy.  x and y broadcast against each
    other; em, A and B are formed on x and the sines on y, so a tensor grid
    pays one multiply-add per node and image."""
    em = np.expm1(-n * np.abs(x - x0))
    a = em * em
    b = 4.0 * (em + 1.0)
    return [a + b * np.sin(0.5 * n * (y - y0)) ** 2 for y0 in y0s]


class SectorMap:
    """z -> rotation * (z - c+) / (z - c-), with c+ at 0 and c- at infinity.

    The rotation sends the unit-circle arc's midpoint z = 1 to +1, so that
    arc maps onto the positive real ray and the lens onto the sector of
    opening pi/n just below it.  Checked at build time: an interior point
    maps into the strip and back.
    """

    def __init__(self, params):
        self.params = params
        self.cp, self.cm = params.corners
        self.rotation = -np.exp(-1j * params.alpha)
        # the pullback Jacobian has poles at w = i(pi - alpha) - 2 pi i k;
        # these sit outside the strip at the following distances
        self.gap_top = math.pi - params.alpha
        self.gap_bottom = math.pi + params.alpha - params.theta
        # Im w of the Jacobian pole just above the strip
        self._pole = math.pi - params.alpha
        n = params.n
        self._neumann_const = (-8.0 * n * math.log(abs(self.cp - self.cm))
                               + 4.0 * n * math.log(2.0))
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
        d2 = d.real * d.real + d.imag * d.imag
        scale = 2.0 * math.sin(self.params.alpha)
        return (self.cm * s - self.cp) / d, (scale * ex) ** 2 / (d2 * d2)

    def _log_gap(self, x, y):
        """L(w) = log|e^w/rotation - 1|^2 at w = x + iy, the Jacobian pole
        w = i(pi - alpha) taken as an image: 2 max(x, 0) + log(pole gap)."""
        gap, = _image_gaps(1, x, y, 0.0, (self._pole,))
        return 2.0 * np.maximum(x, 0.0) + np.log(gap)

    def _strip(self, z, x, y, kernel):
        """kernel(n, x, y, x0, y0) with w0 = x0 + i y0 the image of z;
        ValueError at the corners, which have no image, and where the value
        is not finite (zeta at z)."""
        if np.any(corner_distance(self.params, z) <= EPS_CORNER):
            raise ValueError("kernel undefined at the corner points")
        w0 = self.to_w(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = kernel(self.params.n, x, y, w0.real, w0.imag)
        if not np.all(np.isfinite(value)):
            raise ValueError("kernel has a singularity at zeta == z")
        return value

    def strip_green(self, z, x, y):
        """Green function G(z, zeta) at zeta with strip coordinate x + iy;
        equals KernelField.green."""
        def green(n, x, y, x0, y0):
            f1, f2 = _image_gaps(n, x, y, x0, (y0, -y0))
            return np.log(f2 / f1)
        return self._strip(z, x, y, green)

    def strip_neumann(self, z, x, y):
        """Neumann function N(z, zeta) at zeta with strip coordinate x + iy;
        equals KernelField.neumann, its additive constant included."""
        def neumann(n, x, y, x0, y0):
            f1, f2 = _image_gaps(n, x, y, x0, (y0, -y0))
            pole, = _image_gaps(1, x, y, 0.0, (self._pole,))
            # the terms in x alone: the constant, z's L(w0), the x part of
            # zeta's L(w) and -4n max(x, x0)
            row = (self._neumann_const + 2.0 * n * self._log_gap(x0, y0)
                   + 4.0 * n * (np.maximum(x, 0.0) - np.maximum(x, x0)))
            return 2.0 * n * np.log(pole) - np.log(f1 * f2) + row
        return self._strip(z, x, y, neumann)

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
        """Half-plane Green function pulled back through the map."""
        if np.any(np.asarray(z) == np.asarray(zeta)):
            raise ValueError("Green function has a singularity at zeta == z")
        wz = self.to_halfplane(z)
        wzeta = self.to_halfplane(zeta)
        val = 2.0 * (np.log(np.abs(wz - np.conj(wzeta)))
                     - np.log(np.abs(wz - wzeta)))
        if np.ndim(z) == 0 and np.ndim(zeta) == 0:
            return float(val)
        return val
