"""Harmonic kernels of the lens domain in closed product form.

All kernels are built from 2n factor polynomials indexed by k < n,

    num_k = conj(z)*zeta*sin(a+k*t) - (conj(z)+zeta)*sin(k*t) - sin(a-k*t)
    den_k = z*zeta*sin(k*t) + z*sin(a-k*t) - zeta*sin(a+k*t) + sin(k*t)

with a the corner half-angle and t = pi/n.  Both are affine in zeta and are
evaluated in that form,

    num_k = (conj(z)*sin(a+k*t) - sin(k*t))*zeta - (conj(z)*sin(k*t) + sin(a-k*t))
    den_k = (z*sin(k*t) - sin(a+k*t))*zeta + (z*sin(a-k*t) + sin(k*t))

so with a scalar z each factor over a node batch costs one multiply and
one add.  The Green function is the log of the squared modulus of
prod(num_k/den_k); the Neumann function is minus the log of the squared
modulus of prod(num_k)*prod(den_k).  Products are accumulated as sums of
log-moduli so large n and near-corner points do not overflow.  The k = 0
denominator equals (z - zeta)*sin(a) and carries the only diagonal zero;
the *_regular variants divide it out analytically and stay finite across
zeta == z.

This product form is the paper's definition and the reference for every
other evaluation.  The loop over k costs O(n) per node, so the solvers'
area integrals take G and N instead in the strip coordinate of the corner-
pinning map, where the products collapse to O(1) work per node
(conformal.SectorMap.strip_green and strip_neumann, which equal these
kernels, the Neumann constant included); boundary kernels stay here.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (EPS_CORNER, BoundaryPoint, _bounding_box, arc_of,
                     classify_point, corner_distance, reflection_orbit)


class KernelField:
    """Evaluators for one lens domain; immutable and cheap to construct."""

    def __init__(self, params):
        self.params = params
        n, alpha, theta = params.n, params.alpha, params.theta
        k = np.arange(n)
        self._sk = np.sin(k * theta)
        self._sp = np.sin(alpha + k * theta)
        self._sm = np.sin(alpha - k * theta)
        self._skp = np.sin((k + 1) * theta)
        self._smp = np.sin(alpha - (k + 1) * theta)
        self._log_sin_alpha = math.log(math.sin(alpha))
        self._density_c0 = 2.0 * n * math.sin(alpha - theta) / math.sin(alpha)

    # ------------------------------------------------------------------
    # the kernel core: factor polynomials and the one loop over k

    def _num_coeffs(self, k, z):
        """(a, b) with num_k = a*zeta - b."""
        zc = np.conj(z)
        return zc * self._sp[k] - self._sk[k], zc * self._sk[k] + self._sm[k]

    def _den_coeffs(self, k, z):
        """(c, d) with den_k = c*zeta + d."""
        return z * self._sk[k] - self._sp[k], z * self._sm[k] + self._sk[k]

    def _num(self, k, z, zeta):
        a, b = self._num_coeffs(k, z)
        return a * zeta - b

    def _den(self, k, z, zeta):
        c, d = self._den_coeffs(k, z)
        return c * zeta + d

    def _log_num(self, k, z, zeta):
        return np.log(np.abs(self._num(k, z, zeta)))

    def _log_den(self, k, z, zeta, regular):
        """log|den_k|; the regular k = 0 term drops the diagonal zero
        (z - zeta) and keeps log sin(alpha)."""
        if regular and k == 0:
            return self._log_sin_alpha
        return np.log(np.abs(self._den(k, z, zeta)))

    def _sum(self, term):
        """sum of term(k) over k < n, each term over the whole node batch.

        The loop stays over k: a broadcast (n, nodes) table is slower on
        the large area meshes.  Each term should be one operator expression
        with no named intermediates, so numpy can reuse its temporaries.
        """
        total = 0.0
        for k in range(self.params.n):
            total = total + term(k)
        return total

    def _log_ratio(self, z, zeta, regular):
        return self._sum(lambda k: self._log_num(k, z, zeta)
                         - self._log_den(k, z, zeta, regular))

    def _log_product(self, z, zeta, regular):
        return self._sum(lambda k: self._log_num(k, z, zeta)
                         + self._log_den(k, z, zeta, regular))

    # ------------------------------------------------------------------
    # arguments and results

    def _args(self, *values, corners=False, pole=True):
        """values as complex arrays; ValueError at a corner (when asked)
        or where the first two values coincide (the pole)."""
        values = [np.asarray(v, dtype=complex) for v in values]
        if corners and any(np.any(corner_distance(self.params, v) <= EPS_CORNER)
                           for v in values):
            raise ValueError("kernel undefined at the corner points")
        if pole and np.any(values[0] == values[1]):
            raise ValueError("kernel has a singularity at zeta == z")
        return values

    @staticmethod
    def _out(value, *inputs, scalar=float):
        if all(np.ndim(v) == 0 for v in inputs):
            return scalar(value)
        return value

    # ------------------------------------------------------------------
    # Green side

    def green(self, z, zeta):
        """Green function: positive inside, zero on the boundary, log pole
        at zeta == z."""
        z, zeta = self._args(z, zeta, corners=True)
        return self._out(2.0 * self._log_ratio(z, zeta, False), z, zeta)

    def green_regular(self, z, zeta):
        """green + log|zeta - z|^2, finite and harmonic across the diagonal."""
        z, zeta = self._args(z, zeta, corners=True, pole=False)
        return self._out(2.0 * self._log_ratio(z, zeta, True), z, zeta)

    def d_green_dzeta(self, z, zeta):
        """Holomorphic zeta-derivative of the Green function."""
        z, zeta = self._args(z, zeta, corners=True)
        total = self._sum(lambda k: self._num_coeffs(k, z)[0]
                          / self._num(k, z, zeta)
                          - self._den_coeffs(k, z)[0] / self._den(k, z, zeta))
        return self._out(total, z, zeta, scalar=complex)

    def poisson_kernel(self, z, bp: BoundaryPoint):
        """Poisson kernel against a non-corner boundary point batch."""
        z, zeta = self._args(z, bp.point, corners=True)
        if arc_of(self.params, bp.arc_id).kind == "unit":
            value = self.params.n - 2.0 * self._sum(
                lambda k: np.real(self._den_coeffs(k, z)[1]
                                  / self._den(k, z, zeta)))
        else:
            value = -0.5 * self._density_c0 + 2.0 * self._sum(
                lambda k: np.real((z * self._smp[k] + self._skp[k])
                                  / self._den(k, z, zeta)))
        return self._out(value, z, zeta)

    # ------------------------------------------------------------------
    # Neumann side

    def neumann(self, z, zeta):
        """Neumann function, defined up to an additive constant; has the
        same log pole as the Green function and piecewise-constant outward
        normal derivative on the boundary."""
        z, zeta = self._args(z, zeta)
        return self._out(-2.0 * self._log_product(z, zeta, False), z, zeta)

    def neumann_regular(self, z, zeta):
        """neumann + log|zeta - z|^2, finite across the diagonal."""
        z, zeta = self._args(z, zeta, pole=False)
        return self._out(-2.0 * self._log_product(z, zeta, True), z, zeta)

    def d_neumann_dz(self, z, zeta):
        """Holomorphic z-derivative of the Neumann function."""
        z, zeta = self._args(z, zeta)
        total = -self._sum(lambda k: (zeta * self._sk[k] + self._sm[k])
                           / self._den(k, z, zeta)
                           + (np.conj(zeta) * self._sp[k] - self._sk[k])
                           / np.conj(self._num(k, z, zeta)))
        return self._out(total, z, zeta, scalar=complex)

    def normal_density(self, bp: BoundaryPoint):
        """Outward normal derivative of the Neumann function on the
        boundary: a piecewise constant (-2n on the unit-circle arc)."""
        pt, = self._args(bp.point, corners=True, pole=False)
        if arc_of(self.params, bp.arc_id).kind == "unit":
            value = -2.0 * self.params.n
        else:
            value = self._density_c0
        if np.ndim(bp.point) == 0:
            return value
        return np.full(pt.shape, value)

    # ------------------------------------------------------------------
    # reference kernels of the two carrier regions

    def disc_green(self, z, zeta):
        z, zeta = self._args(z, zeta)
        val = 2.0 * (np.log(np.abs(np.conj(z) * zeta - 1.0))
                     - np.log(np.abs(z - zeta)))
        return self._out(val, z, zeta)

    def disc_poisson(self, z, zeta):
        z, zeta = self._args(z, zeta)
        return self._out(1.0 - 2.0 * np.real(z / (z - zeta)), z, zeta)

    def carrier_green(self, z, zeta):
        """Green function of the region cut out by the C0 carrier circle."""
        z, zeta = self._args(z, zeta)
        alpha, theta = self.params.alpha, self.params.theta
        num = (np.conj(z) * zeta * math.sin(alpha - theta)
               + (np.conj(z) + zeta) * math.sin(theta) - math.sin(alpha + theta))
        val = 2.0 * (np.log(np.abs(num)) - np.log(np.abs(z - zeta))
                     - self._log_sin_alpha)
        return self._out(val, z, zeta)

    def carrier_poisson(self, z, zeta):
        z, zeta = self._args(z, zeta)
        alpha, theta = self.params.alpha, self.params.theta
        val = (-math.sin(alpha - theta) / math.sin(alpha)
               + 2.0 * np.real((z * math.sin(alpha - theta) + math.sin(theta))
                               / ((z - zeta) * math.sin(alpha))))
        return self._out(val, z, zeta)

    def reference_kernels(self):
        """The four comparison kernels keyed g0/p0 (carrier region) and
        g1/p1 (unit disc), used by the boundary-limit tests."""
        return {"g0": self.carrier_green, "p0": self.carrier_poisson,
                "g1": self.disc_green, "p1": self.disc_poisson}

    # ------------------------------------------------------------------
    # diagnostics

    def prefactor_abs(self, z):
        """Modulus of prod_k (z sin(kt) - sin(a+kt))/(conj(z) sin(a+kt) - sin(kt));
        identically 1 on the boundary."""
        z, = self._args(z, pole=False)
        total = self._sum(lambda k: np.log(np.abs(self._den_coeffs(k, z)[0]))
                          - np.log(np.abs(self._num_coeffs(k, z)[0])))
        return self._out(np.exp(total), z)

    def blaschke_product(self, z, zeta):
        """prod_k (zeta - z_{2k+1})/(zeta - z_{2k}) over the orbit of z,
        evaluated projectively so orbit points at infinity are fine."""
        zeta = complex(zeta)
        orbit = reflection_orbit(self.params, complex(z))
        num = complex(1.0)
        den = complex(1.0)
        for k in range(self.params.n):
            even = orbit.homogeneous[2 * k]
            odd = orbit.homogeneous[2 * k + 1]
            hit_odd = zeta * odd.w - odd.z
            hit_even = zeta * even.w - even.z
            if abs(hit_odd) == 0.0 or abs(hit_even) == 0.0:
                raise ValueError("zeta coincides with a reflection orbit point")
            # orbit points at infinity (w == 0) contribute a clean 0 or pole
            num *= hit_odd * even.w
            den *= hit_even * odd.w
        if den == 0.0:
            return complex(math.inf, 0.0)
        return num / den


def evaluate_on_grid(field, kind, zeta, nx, ny):
    """Kernel values over the domain's bounding box.

    Returns (xs, ys, values) with values shaped (ny, nx); cells outside the
    closed domain, at the corners, or on the pole are NaN.  kind selects
    "green" or "neumann"; zeta is the pole.  Raises ValueError where the
    kernel is undefined at zeta itself.
    """
    if kind not in ("green", "neumann"):
        raise ValueError("kind must be 'green' or 'neumann'")
    zeta = complex(zeta)
    params = field.params
    (x_lo, x_hi), (y_lo, y_hi) = _bounding_box(params)
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    z = xs + 1j * ys[:, None]
    state = classify_point(params, z)
    keep = (state != "exterior") & (state != "corner") & (z != zeta)
    if kind == "green":
        keep &= corner_distance(params, z) > EPS_CORNER
    evaluate = field.green if kind == "green" else field.neumann
    values = np.full((ny, nx), np.nan)
    values[keep] = evaluate(z[keep], zeta)
    return xs, ys, values
