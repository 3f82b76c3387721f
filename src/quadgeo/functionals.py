"""Energy functionals on Legendre grids and gradient descent.

Three densities are computed and cross-checked: the Grassmannian density
<S_u, S_v> of the conformal Gauss map, the curvature-line density
du(kappa1) dv(kappa2) / (kappa1 - kappa2)^2 of a Euclidean surface, and the
asymptotic-coordinate density p q of a projective surface.  Up to the fixed
sign between the curvature-line convention and the Gauss-map convention they
agree to discretization error, and all are invariant under the appropriate
transformation groups.
"""

from dataclasses import dataclass

import numpy as np

from . import gauss_map as gm
from . import legendre as lg
from . import pseudo_linalg as pl
from . import surfaces as sf
from .errors import NotAsymptoticChartError, UmbilicError
from .grids import GridChart, d_u, d_v, divided_difference, interior, node_list
from .surfaces import EUCLIDEAN3, PROJECTIVE3, umbilic_mask

MARGIN = gm.DENSITY_MARGIN


@dataclass
class EnergyReport:
    """A density field with its midpoint-rule total over interior nodes."""

    total: float
    density: np.ndarray
    excluded_nodes: list
    chart: GridChart


def willmore_energy(gauss):
    """Energy of the conformal Gauss map: midpoint sum of <S_u, S_v>."""
    density = gm.willmore_density(gauss)
    inside = np.zeros(density.shape, dtype=bool)
    inside[MARGIN:-MARGIN, MARGIN:-MARGIN] = True
    inside &= ~gauss.degenerate
    area = gauss.chart.hu * gauss.chart.hv
    return EnergyReport(
        total=float(np.sum(np.where(inside, density.real, 0.0)).real * area),
        density=density,
        excluded_nodes=node_list(gauss.degenerate & ~inside),
        chart=gauss.chart,
    )


def lie_density(kappa1, kappa2, chart):
    """Curvature-line density du(k1) dv(k2) / (k1 - k2)^2.

    This is the sign convention of the curvature-line functional; its
    negative matches the Gauss-map density <S_u,S_v>.
    """
    if umbilic_mask(kappa1, kappa2).any():
        raise UmbilicError("umbilic nodes in the density domain")
    dk1 = d_u(kappa1, chart)
    dk2 = d_v(kappa2, chart)
    return dk1 * dk2 / (kappa1 - kappa2) ** 2


def _det3(m):
    """Batched 3x3 determinant as the triple product of the rows."""
    return np.einsum("...k,...k->...", m[..., 0, :], np.cross(m[..., 1, :], m[..., 2, :]))


def proj_density(surface):
    """Asymptotic-coordinate density p q from the homogeneous lift.

    The coefficients are extracted as determinant ratios
    p = det(f, f_u, f_uu, f_uv) / det(f, f_u, f_v, f_uv) (and symmetrically
    for q), which are exactly SL(4)-equivariant; a least-squares regression
    would pick up transform-dependent errors through its Euclidean residual.
    The mixed derivative completes the frame (f_uv leaves span{f, f_u, f_v}
    precisely when the net is nondegenerate), and the components of f_uu,
    f_vv off that span witness the asymptotic property of the chart (at most
    `lg.ASYMPTOTIC_CHART_TOL`, as in `lg.proj_lift`).  The density p q is
    float64 when it is exactly real (`pl.real_if_exact`).  The ratios
    multiply by 1/det(f, f_u, f_v, f_uv), so on a real chart the float64
    density equals the complex computation bit for bit.
    """
    if surface.geometry != PROJECTIVE3:
        raise ValueError("proj_density needs a projective surface")
    f, ch = surface.points, surface.chart
    fu, fv = d_u(f, ch), d_v(f, ch)
    fuu, fvv = d_u(fu, ch), d_v(fv, ch)
    fuv = d_v(fu, ch)

    def det4(*cols):
        # LAPACK rounds a float64 determinant differently from a complex
        # one; the complex determinant of real columns is exactly real
        m = np.stack(cols, axis=-1)
        det = np.linalg.det(m.astype(complex, copy=False))
        return det if np.iscomplexobj(m) else det.real

    # chart witness: second derivatives must stay in span{f, f_u, f_v}; the
    # covector f* that annihilates it is the signed 3x3 cofactors of
    # (f; f_u; f_v), normalized (its sign and phase are immaterial: only
    # |f* . f_uu| and |f* . f_vv| are read)
    span = np.stack([f, fu, fv], axis=-2)
    fstar = np.stack([(-1) ** k * _det3(np.delete(span, k, axis=-1)) for k in range(4)],
                     axis=-1)
    fstar /= np.linalg.norm(fstar, axis=-1, keepdims=True)
    scale = max(
        np.max(interior(np.linalg.norm(fuu, axis=-1))),
        np.max(interior(np.linalg.norm(fvv, axis=-1))),
        np.max(interior(np.linalg.norm(fu, axis=-1))) ** 2,
    )
    worst = max(
        np.max(interior(np.abs(np.einsum("...k,...k->...", fstar, fuu)))),
        np.max(interior(np.abs(np.einsum("...k,...k->...", fstar, fvv)))),
    ) / scale
    if worst > lg.ASYMPTOTIC_CHART_TOL:
        raise NotAsymptoticChartError(
            f"off-span residual {worst:.2e}: chart is not asymptotic"
        )
    inv_den = 1.0 / det4(f, fu, fv, fuv)
    p = det4(f, fu, fuu, fuv) * inv_den
    q = -det4(f, fv, fvv, fuv) * inv_den
    return pl.real_if_exact(p * q)[0]


def willmore_gradient_density(gauss):
    """Euler-Lagrange density g of the Willmore energy: tau* sigma = g l.

    sigma is any section of S_perp with <s, sigma> = 1 (the choice is
    immaterial since tau* kills s-perp within S_perp).  g vanishes exactly
    when the conformal Gauss map is harmonic; float64 when it is exactly
    real (`pl.real_if_exact`).
    """
    sp = gauss.space
    # the dot products run in complex: float64 einsums sum in another order
    basis_p = np.ascontiguousarray(gauss.span_p).astype(complex, copy=False)
    s = basis_p[..., 0, :]
    l = np.ascontiguousarray(gauss.span_s)[..., 0, :].astype(complex, copy=False)
    w = sp.pair(basis_p, s[..., None, :])  # <e_k, s>
    wh = w.conj() / np.maximum(np.einsum("...k,...k->...", w, w.conj()).real, 1e-300)[..., None]
    if np.max(np.abs(np.einsum("...k,...k->...", wh, w) - 1.0)) > 1e-6:
        raise ValueError("<s, .> degenerates on the stored S_perp basis")
    sigma = np.einsum("...k,...ki->...i", wh, basis_p)
    tau_star = sp.adjoint(gm._tau(gauss))
    img = np.einsum("...ij,...j->...i", tau_star, sigma)
    num = np.einsum("...k,...k->...", img, l.conj())
    den = np.einsum("...k,...k->...", l, l.conj()).real
    return pl.real_if_exact(num / den)[0]


def _surface_energy(surface):
    """Full-pipeline Willmore energy of a Euclidean surface with kappa."""
    gauss = gm.conformal_gauss(lg.lie_lift(surface))
    return willmore_energy(gauss), gauss


def _bump(chart):
    """Smooth full-chart bump vanishing at the boundary (compact support)."""
    wu = np.sin(np.linspace(0.0, np.pi, chart.nu)) ** 2
    wv = np.sin(np.linspace(0.0, np.pi, chart.nv)) ** 2
    return wu[:, None] * wv[None, :]


def _move_surface(surface, amplitude):
    """Normal motion f + a n with the unit normal transported to first order.

    n' = unit(n - grad_s a): the normal is never re-derived by finite
    differences of the moved points (mixing one-sided boundary stencils into
    the point data would leave a stencil seam that the tension field's third
    differences amplify); curvatures are refit from the Rodrigues equations.
    """
    ch = surface.chart
    fu = divided_difference(surface.points, ch.hu, 0)
    fv = divided_difference(surface.points, ch.hv, 1)
    au = divided_difference(amplitude, ch.hu, 0)
    av = divided_difference(amplitude, ch.hv, 1)
    e = np.einsum("...k,...k->...", fu, fu)
    f = np.einsum("...k,...k->...", fu, fv)
    g = np.einsum("...k,...k->...", fv, fv)
    det = e * g - f * f
    grad = ((g * au - f * av) / det)[..., None] * fu + ((e * av - f * au) / det)[..., None] * fv
    n = surface.normal - grad
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return sf.SurfaceGrid(
        EUCLIDEAN3,
        surface.points + amplitude[..., None] * surface.normal,
        ch,
        normal=n,
        meta=dict(surface.meta),
    )


def willmore_descent(surface, steps=50, step_size=2e-6):
    """Explicit gradient descent of W by normal motion of the point surface.

    The descent direction is the Euler-Lagrange density g of the starting
    state, shaped by a smooth bump so the variation is compactly supported in
    the chart.  Each step moves f along n by -step * g, transports the
    normal to first order, refits curvatures from the Rodrigues equations
    (residual at most 0.2) and rebuilds the lift / Gauss map to evaluate W;
    steps that fail to decrease W are halved (up to 20 times), so the
    reported energy sequence is non-increasing.

    The direction is evaluated once, at the analytic-quality starting state:
    the tension field takes three derivatives of the splitting, so refreshing
    g from a refit state feeds its own discretization noise back with gain
    ~ step/h^3 per step and diverges at any useful step size.  W itself is a
    second-derivative quantity and is stable under the rebuild (evaluation
    noise ~1e-6 at 33^2, two orders below a single step's decrease).

    The sign convention between g and a W-decreasing normal motion carries an
    undetermined positive constant, so the first step probes both
    orientations at the full step size: the candidate that decreases W more
    is that step's result and fixes the orientation.  If neither decreases
    W, the step repeats W and the next step probes again.  Returns (energy
    reports, final surface).
    """
    if surface.geometry != EUCLIDEAN3 or not surface.has_kappa():
        raise ValueError("descent needs a Euclidean surface with kappa fields")
    current = surface
    report, gauss = _surface_energy(surface)
    reports = [report]
    if step_size == 0.0:
        return reports + [report] * steps, current
    direction = willmore_gradient_density(gauss) * _bump(surface.chart)
    orientation = 0.0

    def attempt(amplitude):
        cand = _move_surface(current, amplitude)
        cand = sf.principal_data(cand, residual_tol=0.2)
        return cand, _surface_energy(cand)[0]

    for _ in range(steps):
        accepted = None
        if orientation == 0.0:
            # the probe's better decreasing candidate is this step's result
            best_drop = 0.0
            for sgn in (+1.0, -1.0):
                try:
                    cand, rep = attempt(-sgn * step_size * direction)
                except UmbilicError:
                    continue
                drop = reports[-1].total - rep.total
                if drop > best_drop:
                    best_drop, orientation, accepted = drop, sgn, (cand, rep)
        else:
            size = step_size
            for _ in range(21):  # one try, then up to 20 halvings
                try:
                    cand, rep = attempt(-orientation * size * direction)
                except UmbilicError:
                    size *= 0.5
                    continue
                if rep.total <= reports[-1].total:
                    accepted = (cand, rep)
                    break
                size *= 0.5
        if accepted is None:
            reports.append(reports[-1])
            continue
        current, report = accepted
        reports.append(report)
    return reports, current


def density_deviation(density, reference):
    """max |density - reference| over interior nodes, relative to max |reference|."""
    ref = interior(reference)
    return float(np.max(np.abs(interior(density) - ref)) / np.max(np.abs(ref)))
