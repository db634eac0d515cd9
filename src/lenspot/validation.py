"""The single catalog of lenspot's invariants.

Every property that the paper states or a module promises, from the
reflection geometry to both representation formulas, is computed here
and nowhere else.  Each check returns the measured value (usually a max
error, sometimes the quantity itself) with its tolerance; `run_checks`
collects the table for one parameter choice.  `lenspot validate` renders
it and sets the exit code, and the acceptance test asserts the full tier
at six parameter sets.  The quick tier draws fewer samples against the
same tolerances.  All randomness is seeded, so runs are byte-identical.

Each line evaluates its samples in batched calls, per arc or per node
rather than per (z, zeta) pair, and every batched helper returns exactly
the values of the per-sample loop it replaced (tests/test_validation.py).
Where a batched form would round differently and move a printed value,
the scalar evaluation is kept: the orbit product and G on the
orbit-product line.  The singular area integral takes the strip form of
G through the solvers' own area evaluator (quadrature._integrate_area).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circles import (CircleMatrix, HomogeneousPoint, equivalence_gap,
                      form_gap, from_center_radius, reflect_circle,
                      reflect_point)
from .conformal import sector_map
from .domain import (BoundaryPoint, _axis_crossings, arc_lengths, arc_matrix,
                     arcs, boundary_point, boundary_samples, boundary_sines,
                     neumann_flux, normal_coeffs, reflection_orbit,
                     sample_interior)
from .kernels import KernelField
from .quadrature import (QuadratureSpec, _integrate_area, boundary_mesh,
                         convergence_report, integrate_area,
                         integrate_boundary)
from .solvers import (BoundaryData, SourceTerm, check_neumann_solvability,
                      normal_derivative_data, probe_normalization_constant,
                      solve_dirichlet, solve_neumann)

_SEED = 20260809


@dataclass(frozen=True)
class _Tier:
    """Sample counts of one tier; the tolerances do not depend on it."""

    circles: int        # random mirror/circle pairs
    domain: int         # interior orbit seeds
    pairs: int          # kernel and oracle (z, zeta) pairs; samples per arc
    fd_points: int      # interior points of the normal-derivative checks
    fd_nodes: int       # boundary nodes per arc of those checks
    mass_points: int    # Poisson-kernel mass points
    zero_nodes: int     # nodes per arc of the boundary-to-boundary check
    solver_points: int
    solver_margin: float
    probe_points: int


_QUICK = _Tier(circles=12, domain=10, pairs=30, fd_points=3, fd_nodes=4,
               mass_points=3, zero_nodes=4, solver_points=4,
               solver_margin=0.03, probe_points=3)
_FULL = _Tier(circles=40, domain=40, pairs=200, fd_points=13, fd_nodes=8,
              mass_points=10, zero_nodes=16, solver_points=20,
              solver_margin=0.02, probe_points=5)


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float
    ok: bool
    fmt: str = field(default="{:.3e}", compare=False)

    def render(self):
        status = "PASS" if self.ok else "FAIL"
        value = self.fmt.format(self.value)
        tol = "report-only" if math.isinf(self.tol) else f"tol={self.tol:g}"
        return f"{self.name}: {value}  [{tol}]  {status}"


def _err_check(name, value, tol):
    value = float(value)
    return CheckResult(name, value, tol, ok=value <= tol)


def _worst(values):
    """Largest of the values, 0.0 if there are none; NaN if any is NaN, so
    the check fails."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    return np.max(values, initial=0.0)


# ----------------------------------------------------------------------
# samples

def _pairs(params, rng, count):
    zs = sample_interior(params, rng, count)
    ws = sample_interior(params, rng, count)
    mask = zs != ws
    return zs[mask], ws[mask]


def _margin(params, margin):
    """margin, capped at 0.3 times the lens width on the real axis, so that
    thin lenses keep room for interior samples."""
    mid0, mid1 = _axis_crossings(params)
    return min(margin, 0.3 * abs(mid1 - mid0))


def _batches(params, count):
    """count evenly spread samples on each arc, a batch per arc."""
    return [boundary_samples(params, arc_id, count) for arc_id in arcs(params)]


def _nodes(params, count):
    """The samples of _batches, one scalar BoundaryPoint each."""
    return [BoundaryPoint(b.arc_id, float(t), complex(pt), float(s))
            for b in _batches(params, count)
            for t, pt, s in zip(b.t, b.point, b.arclen)]


def _on_boundary(params, count, f):
    """Largest |f(batch)| over the boundary samples."""
    return _worst(np.abs(f(b)).max() for b in _batches(params, count))


def _normal_fd_gaps(params, count, sources, f, target, scale=1.0, h=1e-5):
    """|target(s, bp) - scale * d/dnu f(s, .)| for each of the count
    boundary nodes bp per arc (_nodes) and each source s, by central
    differences along the outward normal with steps h and 2h, extrapolated
    to O(h^4) as (4 D(h) - D(2h)) / 3; node by node in one array, and the
    four points of each pair in one f call.  f and target take an arc's
    (source, node) pairs as two arrays.  Pairs closer than 0.05 are
    skipped: the truncation error grows with (h/distance)^4 relative."""
    sources = np.asarray(sources)
    gaps = []
    for b in _batches(params, count):
        node, source = np.nonzero(np.abs(sources - b.point[:, None]) >= 0.05)
        bp = BoundaryPoint(b.arc_id, b.t[node], b.point[node], b.arclen[node])
        step = h * normal_coeffs(params, bp)[0]
        s = sources[source]
        v = f(s, bp.point + np.array([1.0, -1.0, 2.0, -2.0])[:, None] * step)
        fd = (v[0] - v[1]) / (2 * h), (v[2] - v[3]) / (4 * h)
        gaps.append(np.abs(target(s, bp) - scale * (4 * fd[0] - fd[1]) / 3))
    return np.concatenate(gaps)


def _fd_laplacian(f, z, h):
    """Five-point Laplacian of f at the points z with steps h and 2h,
    extrapolated to O(h^4) as (4 D(h) - D(2h)) / 3: one f call on all nine
    points of the stencil."""
    # the center, then steps h and 2h along each axis
    v = f(np.add.outer(np.array([0, 1, -1, 1j, -1j, 2, -2, 2j, -2j]) * h, z))
    near = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h ** 2
    wide = (v[5] + v[6] + v[7] + v[8] - 4 * v[0]) / (2 * h) ** 2
    return (4 * near - wide) / 3


# ----------------------------------------------------------------------
# reflection geometry

def _random_circles(rng, count):
    out = []
    for _ in range(count):
        if rng.uniform() < 0.25:
            phi = rng.uniform(0, 2 * math.pi)
            b = np.exp(1j * phi)
            out.append(CircleMatrix(0.0, b, rng.uniform(-2, 2)))
        else:
            center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            out.append(from_center_radius(center, rng.uniform(0.2, 2.5)))
    return out


def _points_on_circle(circle, rng, count):
    if circle.is_line:
        direction = 1j * circle.b / abs(circle.b)
        base = -0.5 * circle.c * circle.b / abs(circle.b) ** 2
        return [base + direction * rng.uniform(-3, 3) for _ in range(count)]
    phis = rng.uniform(0, 2 * math.pi, count)
    return [circle.center + circle.radius * np.exp(1j * p) for p in phis]


def _circle_geometry_checks(rng, size):
    mirrors = _random_circles(rng, size)
    others = _random_circles(rng, size)
    inv, image_gap, fixed, circ_inv = [], [], [], []
    for mirror, other in zip(mirrors, others):
        image = reflect_circle(mirror, other)
        m = max(abs(image.a), abs(image.b), abs(image.c))
        for z in _points_on_circle(other, rng, 4):
            p = HomogeneousPoint.of(z)
            back = reflect_point(mirror, reflect_point(mirror, p))
            q = p.canonical()
            inv.append(abs(back.z - q.z) + abs(back.w - q.w))
            refl = reflect_point(mirror, p)
            image_gap.append(abs(image.form(refl.canonical()) / m))
        fixed.append(equivalence_gap(reflect_circle(mirror, mirror), mirror))
        twice = reflect_circle(mirror, image)
        circ_inv.append(equivalence_gap(twice, other))
    return [
        _err_check("point reflection involutive", _worst(inv), 1e-10),
        _err_check("reflected points lie on reflected circle",
                   _worst(image_gap), 1e-10),
        _err_check("self-reflection fixes the mirror", _worst(fixed), 1e-10),
        _err_check("circle reflection involutive", _worst(circ_inv), 1e-9),
    ]


def _domain_checks(params, rng, size):
    n = params.n
    # parqueting: each arc reflects its neighbours into one another
    closure = [equivalence_gap(reflect_circle(arc_matrix(params, k),
                                              arc_matrix(params, k - 1)),
                               arc_matrix(params, k + 1))
               for k in range(2 * n)]

    orbit_gap = []
    for z in sample_interior(params, rng, size):
        hom = reflection_orbit(params, z).homogeneous
        for k in range(n):
            mirror = arc_matrix(params, k + 1)
            even = reflect_point(mirror, HomogeneousPoint(1.0, np.conj(z)))
            orbit_gap.append(hom[2 * k].chordal_distance(even))
            orbit_gap.append(hom[2 * k + 1].chordal_distance(
                reflect_point(mirror, z)))

    # on C1 each even orbit point coincides with the next odd one; on C0
    # each odd one with the next even one, cyclically
    coincide = []
    for bp in _nodes(params, 7):
        hom = reflection_orbit(params, bp.point).homogeneous
        for k in range(n):
            i, j = ((2 * k, 2 * k + 1) if bp.arc_id == "C1"
                    else (2 * k + 1, (2 * k + 2) % (2 * n)))
            coincide.append(hom[i].chordal_distance(hom[j]))

    on_arcs = [form_gap(arc_matrix(params, k), c)
               for k in range(2 * n) for c in params.corners]
    return [
        _err_check("parqueting closure (C_(k+1) is C_(k-1) reflected in C_k)",
                   _worst(closure), 1e-10),
        _err_check("orbit matches matrix reflections", _worst(orbit_gap), 1e-10),
        _err_check("orbit coincidences on the boundary", _worst(coincide), 1e-9),
        _err_check("both corners lie on every arc", _worst(on_arcs), 1e-10),
    ]


# ----------------------------------------------------------------------
# kernels

def _kernel_checks(params, spec, rng, tier):
    fld = KernelField(params)
    zs, ws = _pairs(params, rng, tier.pairs)
    g_zw = fld.green(zs, ws)
    # the sign is read from the strip form, which keeps it where G is far
    # below rounding (thin lenses); the product form's is noise there
    w = sector_map(params).to_w(ws)
    least = sector_map(params).strip_green(zs, w.real, w.imag).min()
    out = [
        _err_check("green symmetry", np.abs(g_zw - fld.green(ws, zs)).max(),
                   1e-12),
        CheckResult("green positivity (min over samples)", float(least),
                    0.0, ok=bool(least > 0.0), fmt="{:.6f}"),
        _err_check("green vanishes on the boundary",
                   _on_boundary(params, tier.pairs,
                                lambda b: fld.green(b.point, ws[0])), 1e-8),
        _err_check("orbit prefactor unimodular on boundary",
                   _on_boundary(params, tier.pairs,
                                lambda b: fld.prefactor_abs(b.point) - 1.0),
                   1e-10),
        _err_check("neumann symmetry",
                   np.abs(fld.neumann(zs, ws) - fld.neumann(ws, zs)).max(),
                   1e-11),
    ]

    h = 1e-4
    zeta0 = ws[0]
    near = zs[:max(4, tier.pairs // 4)]
    far = near[np.abs(near - zeta0) > 0.1]
    out.append(_err_check("green harmonic away from the pole", _worst(np.abs(
        _fd_laplacian(lambda v: fld.green(v, zeta0), far, h))), 1e-3))
    out.append(_err_check("regularized neumann harmonic", _worst(np.abs(
        _fd_laplacian(lambda v: fld.neumann_regular(v, zeta0), near, h))),
        1e-3))

    out.append(_err_check("orbit product = kernel product * prefactor", _worst(
        _orbit_product_gaps(fld, zs[:3], _nodes(params, 5))), 1e-9))

    out.append(_err_check(
        "poisson kernel = -1/2 normal derivative",
        _worst(_normal_fd_gaps(params, tier.fd_nodes, zs[:tier.fd_points],
                               fld.green, fld.poisson_kernel, scale=-0.5)),
        1e-6))

    # grading the panels toward z, as the solvers do, resolves the
    # kernel's peak for mass points close to the boundary
    out.append(_err_check("poisson kernel mass is 1", _worst(
        abs(integrate_boundary(spec, params,
                               lambda bp: fld.poisson_kernel(z, bp), near=z)
            / (2 * math.pi) - 1.0)
        for z in map(complex, sample_interior(
            params, rng, tier.mass_points, margin=_margin(params, 0.08)))),
        1e-6))

    zb = np.concatenate([b.point[::2]
                         for b in _batches(params, tier.zero_nodes)])
    out.append(_err_check("poisson kernel vanishes boundary-to-boundary", _worst(
        np.abs(fld.poisson_kernel(zb[np.abs(zb - bp.point) > 1e-2], bp)).max()
        for bp in _nodes(params, tier.zero_nodes)), 1e-8))

    out.append(_err_check(
        "neumann density matches normal derivative",
        _worst(_normal_fd_gaps(params, tier.fd_nodes, ws[:tier.fd_points],
                               lambda zeta, v: fld.neumann(v, zeta),
                               lambda zeta, bp: fld.normal_density(bp))),
        1e-5))

    mass = -integrate_boundary(spec, params,
                               lambda bp: fld.normal_density(bp)) / (4 * math.pi)
    out.append(CheckResult("mass identity", float(mass), 1e-12,
                           ok=abs(mass - 1.0) <= 1e-12, fmt="{:.12f}"))

    out.extend(_limit_checks(params, fld))

    if params.n == 1:
        out.append(_err_check("n=1 reduction to the disc kernel",
                              np.abs(g_zw - fld.disc_green(zs, ws)).max(),
                              1e-12))
    return out


def _orbit_product_gaps(fld, zs, nodes):
    """||B(z, zeta)| - |prefactor(z)| e^(G(z, zeta)/2)| for each point z
    and node zeta at least 1e-3 from z, as a list, B being the orbit
    product (Blaschke product) of z.  The orbit and the prefactor are built
    once per z; B and G stay scalar per zeta, because their batched forms
    round differently."""
    gaps = []
    for z in zs:
        zetas = [bp.point for bp in nodes if abs(z - bp.point) >= 1e-3]
        prefactor = fld.prefactor_abs(z)
        gaps += [abs(abs(b) - prefactor * math.exp(0.5 * fld.green(z, zeta)))
                 for zeta, b in zip(zetas, fld.blaschke_products(z, zetas))]
    return gaps


def _limit_checks(params, fld):
    """Two-distance convergence of the boundary limits of p and of the
    Neumann derivative combination against the reference kernels."""
    s_minus, s_theta, _, sin_a = boundary_sines(params)
    cases = [("C1", 0.55, -0.4)]
    if params.n > 1:
        cases.append(("C0", 0.3, -0.45))
    gaps = {(kind, d): [] for kind in ("poisson", "neumann")
            for d in (1e-4, 1e-6)}
    for arc_id, u, v in cases:
        half = arcs(params)[arc_id].half_width
        bpz = boundary_point(params, arc_id, u * half)
        bpzeta = boundary_point(params, arc_id, v * half)
        q, _ = normal_coeffs(params, bpz)
        for d in (1e-4, 1e-6):
            z = bpz.point - d * q
            if arc_id == "C0":
                ref = fld.carrier_poisson(z, bpzeta.point)
                coeff = -(z * s_minus + s_theta) / sin_a
            else:
                ref = fld.disc_poisson(z, bpzeta.point)
                coeff = z
            target = 0.5 * neumann_flux(params, arc_id)
            gaps["poisson", d].append(abs(fld.poisson_kernel(z, bpzeta) - ref))
            combo = np.real(coeff * fld.d_neumann_dz(z, bpzeta.point))
            gaps["neumann", d].append(abs(combo - ref - target))
    return [_err_check(f"{kind} boundary limit (dist {label})",
                       _worst(gaps[kind, d]), tol)
            for kind in ("poisson", "neumann")
            for d, label, tol in ((1e-4, "1e-4", 1e-2), (1e-6, "1e-6", 1e-4))]


def _strip_boundary_gaps(params, spec, zs):
    """The gaps between the strip-form boundary kernels of the solvers and
    the product kernels, p and N at the boundary_mesh(near=z) nodes of
    every arc, relative to max(1, |value|), in one array.

    Each arc's nodes of all the points go into one call per kernel, with
    each point repeated once per node of its own.  The strip forms take the
    points' stacked z sides (Kernel.sides), as the solvers do, so every
    value equals a one-point call's."""
    fld = KernelField(params)
    smap = sector_map(params)
    zs = [complex(z) for z in zs]
    meshes = [boundary_mesh(spec, params, near=z) for z in zs]
    gaps = []
    for arc_meshes in zip(*meshes):
        batches = [bp for bp, _ in arc_meshes]
        counts = [bp.point.size for bp in batches]
        bp = BoundaryPoint(batches[0].arc_id,
                           *(np.concatenate([getattr(b, part) for b in batches])
                             for part in ("t", "point", "arclen")))
        z = np.repeat(zs, counts)
        for kernel, product in (
                (smap.strip_poisson, fld.poisson_kernel(z, bp)),
                (smap.strip_neumann_at, fld.neumann(bp.point, z))):
            sides = tuple(np.repeat(part, counts) for part in kernel.sides(zs))
            strip = kernel.pair(sides, kernel.nodes(bp.point))
            gaps.append(np.abs(strip - product)
                        / np.maximum(1.0, np.abs(product)))
    return np.concatenate(gaps)


def _conformal_checks(params, spec, rng, tier):
    fld = KernelField(params)
    smap = sector_map(params)
    zs, ws = _pairs(params, rng, tier.pairs)
    oracle = smap.green(zs, ws)
    w = smap.to_w(ws)
    strip_gap = max(
        np.abs(smap.strip_green(zs, w.real, w.imag) - fld.green(zs, ws)).max(),
        np.abs(smap.strip_neumann(zs, w.real, w.imag)
               - fld.neumann(zs, ws)).max())

    def off_axis(batch):
        # relative: |image| grows without bound toward one corner
        img = smap.to_halfplane(batch.point)
        return img.imag / (1.0 + np.abs(img))

    return [
        _err_check("oracle agrees with the product kernel",
                   np.abs(fld.green(zs, ws) - oracle).max(), 1e-9),
        # G and N with its constant, as the solvers' area integrals use them
        _err_check("strip form agrees with product kernel", strip_gap, 1e-12),
        # p and N as the solvers' boundary integrals use them
        _err_check("strip boundary kernels agree with product kernels",
                   _worst(_strip_boundary_gaps(params, spec,
                                               zs[:max(4, tier.pairs // 4)])),
                   1e-11),
        _err_check("oracle symmetric",
                   np.abs(oracle - smap.green(ws, zs)).max(), 1e-12),
        _err_check("oracle vanishes on the boundary",
                   _on_boundary(params, tier.pairs,
                                lambda b: smap.green(b.point, ws[0])), 1e-9),
        _err_check("boundary maps to the real axis (relative)",
                   _on_boundary(params, tier.pairs, off_axis), 1e-9),
    ]


# ----------------------------------------------------------------------
# quadrature

def _segment_area(half_angle, radius):
    return radius * radius * (half_angle
                              - math.sin(half_angle) * math.cos(half_angle))


def analytic_area(params):
    """Area of the domain from circular-segment sums."""
    alpha, theta = params.alpha, params.theta
    disc_part = _segment_area(alpha, 1.0)
    if params.n == 1:
        return math.pi
    if params.is_chord:
        return disc_part
    c0 = arcs(params)["C0"]
    bulge = _segment_area(c0.half_width, c0.radius)
    return disc_part - bulge if alpha > theta else disc_part + bulge


def _quadrature_checks(params, spec, rng):
    out = []
    length = integrate_boundary(spec, params, lambda bp: 1.0)
    out.append(_err_check("boundary length matches closed form",
                          abs(length - sum(arc_lengths(params))), 1e-10))
    area = integrate_area(spec, params, lambda z: 1.0)
    out.append(_err_check("area matches segment sums",
                          abs(area - analytic_area(params)), 1e-8))

    weight = lambda bp: np.exp(2.0 * np.real(bp.point))  # noqa: E731
    exact = integrate_boundary(spec, params, weight)
    e1, e2 = (abs(integrate_boundary(
        QuadratureSpec(gauss_order=order, boundary_panels=4), params, weight)
        - exact) for order in (3, 6))
    ratio = e1 / max(e2, 1e-15 * abs(exact))
    out.append(CheckResult("doubled gauss order error drop (>= 1e4)",
                           float(ratio), 1e4, ok=ratio >= 1e4, fmt="{:.3e}"))

    z0 = complex(sample_interior(params, rng, 1,
                                 margin=_margin(params, 0.05))[0])
    green = sector_map(params).strip_green
    v1, v2 = (_integrate_area(s, params, lambda w: 1.0, green, [z0])[0]
              for s in (spec, spec.refined()))
    out.append(_err_check("singular area integral self-converges",
                          abs(v1 - v2), 1e-6))

    base = QuadratureSpec(gauss_order=3, boundary_panels=1,
                          area_radial=spec.area_radial,
                          area_angular=spec.area_angular)
    rows = convergence_report(base, params, weight, refinements=3)
    order = max(r["est_order"] for r in rows if r["est_order"] is not None)
    out.append(CheckResult("self-convergence order (>= 4)", float(order),
                           4.0, ok=order >= 4.0, fmt="{:.2f}"))
    return out


# ----------------------------------------------------------------------
# representation formulas

def _solver_checks(params, spec, rng, tier):
    out = []
    pts = sample_interior(params, rng, tier.solver_points,
                          margin=_margin(params, tier.solver_margin))

    for name, gamma, f, exact, tol in (
            ("w = 1", BoundaryData.constant(1.0), SourceTerm.zero(), 1.0, 1e-6),
            ("Re z^3", BoundaryData.from_expression("re_zk", 3),
             SourceTerm.zero(), np.real(pts ** 3), 1e-5),
            # |z|^2 is the unit source's own particular solution, so the
            # harmonic Re z^3 is added to keep the boundary kernel at work
            ("|z|^2 with unit source", BoundaryData.from_callable(
                lambda bp: np.abs(bp.point) ** 2 + np.real(bp.point ** 3)),
             SourceTerm.constant(1.0), np.abs(pts) ** 2 + np.real(pts ** 3),
             1e-4)):
        w = solve_dirichlet(params, spec, gamma, f, pts)
        out.append(_err_check(f"dirichlet reproduces {name}",
                              np.abs(w - exact).max(), tol))

    coarse, fine = (solve_dirichlet(params, s,
                                    BoundaryData.from_expression("re_z2"),
                                    SourceTerm.zero(), pts[:3])
                    for s in (spec, spec.refined()))
    out.append(_err_check("dirichlet stable under refinement",
                          np.abs(coarse - fine).max(), 1e-6))

    worst = _attainment_errors(params, spec)
    decreasing = worst[1e-3] < worst[1e-2]
    out.append(CheckResult("dirichlet boundary attainment (final error)",
                           worst[1e-3], 5e-3,
                           ok=decreasing and worst[1e-3] < 5e-3))

    gamma = normal_derivative_data(params, lambda z: z)  # w* = Re z^2
    w = solve_neumann(params, spec, gamma, SourceTerm.zero(), pts)
    diff = np.real(w - np.real(pts ** 2))
    out.append(_err_check("neumann reproduces Re z^2 up to a constant",
                          diff.max() - diff.min(), 1e-4))

    gamma = normal_derivative_data(params, np.conj)  # w* = |z|^2
    # f = 1 as a callable, whose right side is 4 times integrate_area's
    unit = SourceTerm.from_callable(lambda z: np.ones(np.shape(z)))
    verdict = check_neumann_solvability(params, spec, gamma, unit)
    out.append(_err_check("divergence-theorem pair is solvable",
                          verdict["defect"] / (1.0 + abs(verdict["lhs"])
                                               + abs(verdict["rhs"])), 1e-8))
    # w* = |z|^2 + Re z^3, so that the data is not the unit source's own
    gamma = normal_derivative_data(params, lambda z: np.conj(z) + 1.5 * z ** 2)
    w = solve_neumann(params, spec, gamma, SourceTerm.constant(1.0), pts)
    diff = np.real(w - np.abs(pts) ** 2 - np.real(pts ** 3))
    out.append(_err_check("neumann reproduces |z|^2 up to a constant",
                          diff.max() - diff.min(), 1e-4))

    w2 = solve_neumann(params, spec.refined(), gamma, SourceTerm.constant(1.0),
                       pts)
    gauge = np.real(w2 - w)
    out.append(_err_check("neumann gauge: refinement shifts by a constant",
                          gauge.max() - gauge.min(), 1e-5))

    bad = check_neumann_solvability(params, spec, BoundaryData.constant(1.0),
                                    SourceTerm.zero())
    out.append(CheckResult("constant flux correctly rejected",
                           bad["defect"], 1e-8, ok=not bad["satisfied"]))

    arc = arcs(params)["C1"]
    bp = boundary_point(params, "C1", 0.25 * arc.half_width)
    q, _ = normal_coeffs(params, bp)
    d = _margin(params, 1e-2)
    hh = d / 10
    gamma = normal_derivative_data(params, lambda z: z)
    stencil = [bp.point - (d + s * hh) * q for s in (-1.0, 1.0)]
    wv = solve_neumann(params, spec, gamma, SourceTerm.zero(), stencil)
    # first stencil point is the outward one, so this is d/d(nu)
    fd = np.real(wv[0] - wv[1]) / (2 * hh)
    exact = 2.0 * np.real(q * (bp.point - d * q))
    out.append(_err_check("neumann derivative attainment", abs(fd - exact), 1e-3))

    # the constant is zeta-independent (see probe_normalization_constant),
    # so the spread is quadrature error; reported only, as a tolerance
    # below 7.405e-10, the quick tier's spread at (pi/2, 8), would fail
    # there until the thin-lens grading is mended
    spread = probe_normalization_constant(
        params, spec, pts[:tier.probe_points])["spread"]
    out.append(CheckResult("normalization-constant probe spread", spread,
                           math.inf, ok=math.isfinite(spread)))
    return out + _area_route_checks(params, spec, pts)


def _area_route_checks(params, spec, pts):
    """f = Re z^2 as a callable, which takes the singular area integral,
    against the same f from the catalog, solved on the boundary alone with
    its particular solution w_p = Re(z^3 conj(z))/3.  The data is w_p's own
    (gamma = w_p, dw_p/dnu), so the closed-form route returns w_p up to
    rounding (plus its Neumann constant), and each line measures the area
    route's quadrature against an exact answer.  The tolerance is the
    default spec's target on smooth data."""
    catalog = SourceTerm.from_expression("re_z2")
    as_callable = SourceTerm.from_callable(lambda z: np.real(z ** 2))
    w_p = lambda z: np.real(z ** 3 * np.conj(z)) / 3.0
    out = []
    gamma = BoundaryData.from_callable(lambda bp: w_p(bp.point))
    area, closed = (solve_dirichlet(params, spec, gamma, f, pts)
                    for f in (as_callable, catalog))
    out.append(_err_check("dirichlet area route agrees with closed-form "
                          "source", np.abs(area - closed).max(), 1e-8))
    gamma = normal_derivative_data(
        params, lambda z: 0.5 * (z ** 2 * np.conj(z) + np.conj(z) ** 3 / 3.0))
    area, closed = (solve_neumann(params, spec, gamma, f, pts)
                    for f in (as_callable, catalog))
    diff = np.real(area - closed)
    out.append(_err_check("neumann area route agrees with closed-form source "
                          "(up to a constant)", diff.max() - diff.min(), 1e-8))
    return out


def _attainment_errors(params, spec):
    """{d: largest |w - Re zeta|} for the Dirichlet solution w of Re z at
    the points z = zeta - d s nu, d = 1e-2 and 1e-3, inside one node zeta of
    each arc; all of them in one solve.  s is 1, or less in a lens too thin
    for 1e-2 (_margin)."""
    scale = _margin(params, 1e-2) / 1e-2
    near = []
    for arc_id, arc in arcs(params).items():
        bp = boundary_point(params, arc_id, 0.35 * arc.half_width)
        q, _ = normal_coeffs(params, bp)
        near += [(d, bp.point, bp.point - d * scale * q) for d in (1e-2, 1e-3)]
    w = solve_dirichlet(params, spec, BoundaryData.from_expression("re"),
                        SourceTerm.zero(), [z for *_, z in near])
    worst = {1e-2: 0.0, 1e-3: 0.0}
    for (d, zeta, _), value in zip(near, w):
        worst[d] = max(worst[d], abs(value - zeta.real))
    return worst


def run_checks(params, quick=False):
    """Invariant table for one parameter choice, at the default quadrature
    spec, for which the tolerances are set; quick draws fewer samples."""
    spec = QuadratureSpec()
    tier = _QUICK if quick else _FULL
    rng = np.random.default_rng(_SEED)
    return (_circle_geometry_checks(rng, tier.circles)
            + _domain_checks(params, rng, tier.domain)
            + _kernel_checks(params, spec, rng, tier)
            + _conformal_checks(params, spec, rng, tier)
            + _quadrature_checks(params, spec, rng)
            + _solver_checks(params, spec, rng, tier))
