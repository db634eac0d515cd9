"""The corner-pinning conformal map: strip coordinate, pullback, oracle.

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
"""

from __future__ import annotations

import math

import numpy as np

from .domain import EPS_CORNER, _axis_crossings, corner_distance


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
