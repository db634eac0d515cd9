"""The Neumann counterpart: constant-flux kernel and its density.

The same orbit polynomial, taken as one big product instead of a ratio,
yields a kernel whose outward normal derivative is piecewise constant on
the boundary: 2n sin(a-t)/sin(a) on the second arc and -2n on the
unit-circle arc.  The scaled total flux is exactly 1, which is what makes
the Neumann representation formula work.  The normalizing boundary
integral is probed at several interior points; whether it is constant is
an open question, so the spread is only reported.  Each integral is taken
on the boundary mesh graded toward its point, and at the lenses below the
spread comes out at rounding level, about 2e-14.
"""

import numpy as np

from lenspot import (KernelField, LensParams, QuadratureSpec, boundary_point,
                     integrate_boundary, normal_coeffs,
                     probe_normalization_constant, sample_interior)

spec = QuadratureSpec()
for params in (LensParams(2 * np.pi / 3, 2), LensParams(np.pi / 2, 2)):
    fld = KernelField(params)
    a, t, n = params.alpha, params.theta, params.n
    print(f"alpha = {a:.4f}, n = {n}")
    print(f"  density on C0: {2 * n * np.sin(a - t) / np.sin(a):+.6f}"
          f"   on C1: {-2.0 * n:+.6f}")

    zeta = 0.4 + 0.1j
    h = 1e-5
    bp = boundary_point(params, "C1", 0.7)
    q, _ = normal_coeffs(params, bp)
    fd = (fld.neumann(bp.point + h * q, zeta)
          - fld.neumann(bp.point - h * q, zeta)) / (2 * h)
    print(f"  finite-difference flux on C1: {fd:+.8f}")

    mass = integrate_boundary(spec, params, lambda bp: fld.normal_density(bp))
    print(f"  -(1/4pi) x total flux: {-mass / (4 * np.pi):.12f}")

    zetas = sample_interior(params, np.random.default_rng(0), 5, margin=0.1)
    probe = probe_normalization_constant(params, spec, zetas)
    print(f"  normalization probe: values around {probe['values'][0]:+.6f}, "
          f"spread {probe['spread']:.2e}\n")

print("on the disc (n = 1) the probe is analytically constant:")
params = LensParams(0.9 * np.pi, 1)
zetas = sample_interior(params, np.random.default_rng(1), 5, margin=0.15)
probe = probe_normalization_constant(params, QuadratureSpec(), zetas)
expected = 16 * np.pi * np.log(np.sin(params.alpha))
print(f"  values {probe['values'][0]:+.8f} (closed form {expected:+.8f}), "
      f"spread {probe['spread']:.2e}")
