"""Independent Green-function reference via an explicit conformal map.

The Mobius map (z - c+)/(z - c-) pins the two corners at 0 and infinity,
turning both boundary arcs into rays from the origin and the lens into an
infinite sector of opening pi/n.  Rotating so the unit-circle arc lands on
the positive real axis and raising to the n-th power opens the sector into
a half plane, where the Green function is elementary.  Conformal
invariance of the Green function then provides ground-truth values that
are entirely independent of the reflection-product construction.
"""

from __future__ import annotations

import numpy as np

from .domain import EPS_CORNER, _axis_crossings, corner_distance


class CornerMobius:
    """z -> rotation * (z - c+) / (z - c-) with c+ at 0 and c- at infinity.

    The rotation sends the unit-circle arc's midpoint z = 1 to +1, so that
    arc maps onto the positive real ray and the lens onto the sector of
    opening pi/n just below it.  The area quadrature's strip map is the
    logarithm of this map.
    """

    def __init__(self, params):
        self.params = params
        self.cp, self.cm = params.corners
        self.rotation = -np.exp(-1j * params.alpha)
        # the boundary crosses the real axis only at these two points, so
        # the point halfway between them is interior
        mid0, mid1 = _axis_crossings(params)
        self.interior = 0.5 * (mid0 + mid1)

    def sector(self, z):
        return self.rotation * (z - self.cp) / (z - self.cm)


class SectorMap(CornerMobius):
    """Map from the lens to the upper half plane, checked at build time."""

    def __init__(self, params):
        super().__init__(params)
        if self.to_halfplane(self.interior).imag <= 0.0:
            raise RuntimeError("an interior point did not map into the upper "
                               "half plane")

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
