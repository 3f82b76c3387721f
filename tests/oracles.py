"""Oracles and inputs that only the tests use.

Independent references (the Hodge star of a quadric form, the group defect
of a frame, the lift, its residuals and the Gauss map computed in
complex128 throughout) and test
surfaces (a chart that is not curvature-line, exact asymptotic and elliptic
graph charts) that no suite or command needs.
"""

from dataclasses import dataclass

import numpy as np

from quadgeo import gauss_map as gm
from quadgeo import legendre as lg
from quadgeo import pseudo_linalg as pl
from quadgeo.grids import d_u, d_uu, d_v, d_vv, interior
from quadgeo.pseudo_linalg import _BIVECTOR_PAIRS, plucker_space
from quadgeo.surfaces import EUCLIDEAN3, PROJECTIVE3, ProjectiveGraphSampler, _unit

# ---------------------------------------------------------------------------
# quadric forms and their Hodge star


@dataclass(frozen=True)
class QuadricForm:
    """A nondegenerate symmetric pairing on R^4, determined up to scale."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (4, 4) or not np.allclose(q, q.T, atol=1e-10):
            raise ValueError("q must be a symmetric 4x4 matrix")
        d = np.linalg.det(q)
        if abs(d) < 1e-14:
            raise ValueError("q is degenerate")
        ev = np.linalg.eigvalsh(q)
        pos = int((ev > 0).sum())
        if pos not in (1, 2, 3):
            raise ValueError("quadric must have signature (2,2) or Lorentz")
        object.__setattr__(self, "q", q)

    def normalized(self):
        """Rescale so |det q| = 1 (vol_Q = vol)."""
        d = abs(np.linalg.det(self.q))
        return QuadricForm(self.q / d ** 0.25)


def lambda2(a):
    """6x6 action of a 4x4 map on bivectors: (Lambda^2 a)(x^y) = ax ^ ay."""
    a = np.asarray(a)
    out = np.zeros((6, 6), dtype=np.result_type(a.dtype, float))
    for col, (i, j) in enumerate(_BIVECTOR_PAIRS):
        for row, (k, m) in enumerate(_BIVECTOR_PAIRS):
            out[row, col] = a[k, i] * a[m, j] - a[m, i] * a[k, j]
    return out


def hodge_star(quadric):
    """Hodge star of a quadric form: vol(v ^ star w) = Q(v, w) on bivectors.

    The input is always normalized to unit |det| first (even one that
    `normalized` returned), so star^2 = +1 for signature (2,2) and -1 for
    Lorentz Q.
    """
    g = plucker_space().gram  # involutive: g @ g = identity
    return g @ lambda2(quadric.normalized().q)


# ---------------------------------------------------------------------------
# frames


def orthogonality_defect(f, gram):
    """Batched norm of F^T G F - G."""
    e = np.asarray(f).swapaxes(-1, -2) @ gram @ np.asarray(f) - gram
    return np.sqrt(np.abs(e * e.conj()).sum(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# the lift in complex128
#
# On a real chart the package's float64 lift, residuals, conjugate
# coefficients and projective density must equal these bit for bit: every
# field is complex128 and differenced by the stencils of `grids` (on complex
# data their multiply by 1/(2h) is numpy's division by 2h), and every other
# division is a division.


def complex_lie_lift(surface):
    """`lg.lie_lift` with complex128 sphere fields."""
    f, n = surface.points.astype(float), surface.normal.astype(float)
    phi = np.zeros(f.shape[:2] + (6,), dtype=complex)
    phi[..., lg.V_ZERO] = 1.0
    phi[..., 2:5] = f
    phi[..., lg.V_INF] = np.einsum("...k,...k->...", f, f)
    nu = np.zeros(f.shape[:2] + (6,), dtype=complex)
    nu[..., lg.V_MINUS] = 1.0
    nu[..., 2:5] = n
    nu[..., lg.V_INF] = 2.0 * np.einsum("...k,...k->...", n, f)
    return lg.LegendreGrid(pl.lie_space(), nu + surface.kappa1[..., None] * phi,
                           nu + surface.kappa2[..., None] * phi, surface.chart)


def _complex_plucker(x, y):
    out = np.empty(x.shape[:-1] + (6,), dtype=complex)
    for k, (i, j) in enumerate(_BIVECTOR_PAIRS):
        out[..., k] = x[..., i] * y[..., j] - x[..., j] * y[..., i]
    return out


def complex_proj_lift(surface):
    """`lg.proj_lift` on f cast to complex128, without its refusals."""
    f = surface.points.astype(complex)
    fu, fv = d_u(f, surface.chart), d_v(f, surface.chart)
    return lg.LegendreGrid(pl.plucker_space(), _complex_plucker(f, fu), _complex_plucker(f, fv),
                           surface.chart)


def _complex_hdot(x, y):
    return np.einsum("...k,...k->...", x.conj(), y)


def _complex_focal_basis(l, s):
    r11 = np.linalg.norm(l, axis=-1)
    q1 = l / r11[..., None]
    r12 = _complex_hdot(q1, s)
    t = s - q1 * r12[..., None]
    r22 = np.linalg.norm(t, axis=-1)
    dependent = r22 <= 1e-12 * np.linalg.norm(s, axis=-1)
    r22[dependent] = 0.0
    q2 = t / np.where(dependent, 1.0, r22)[..., None]
    q2[dependent] = 0.0
    return q1, q2, r11, r12, r22


def complex_validate(grid):
    """`lg.validate` on (l, s) cast to complex128: the residual fields."""
    sp, ch = grid.space, grid.chart
    l, s = (np.asarray(x, dtype=complex) for x in (grid.l, grid.s))
    el, es = np.linalg.norm(l, axis=-1), np.linalg.norm(s, axis=-1)
    null_f = np.maximum(
        np.abs(sp.pair(l, l)) / (el * el),
        np.maximum(np.abs(sp.pair(s, s)) / (es * es), np.abs(sp.pair(l, s)) / (el * es)),
    )
    lu, lv, su, sv = d_u(l, ch), d_v(l, ch), d_u(s, ch), d_v(s, ch)
    scale_d = max(np.max(interior(np.linalg.norm(w, axis=-1))) for w in (lu, sv, lv, su))
    scale_f = max(np.max(interior(el)), np.max(interior(es)))
    leg_f = np.maximum.reduce([np.abs(sp.pair(lu, s)), np.abs(sp.pair(lv, s)),
                               np.abs(sp.pair(su, l)), np.abs(sp.pair(sv, l))])
    q1, q2, *_ = _complex_focal_basis(l, s)

    def off_span(w):
        w = w - q1 * _complex_hdot(q1, w)[..., None] - q2 * _complex_hdot(q2, w)[..., None]
        return np.linalg.norm(w, axis=-1)

    return {"nullity": null_f, "legendre": leg_f / (scale_d * scale_f),
            "focal": np.maximum(off_span(lu), off_span(sv)) / scale_d}


def complex_conjugate_coefficients(grid):
    """`lg.conjugate_coefficients` on (l, s) cast to complex128, without its refusal."""
    l, s = (np.asarray(x, dtype=complex) for x in (grid.l, grid.s))
    q1, q2, r11, r12, r22 = _complex_focal_basis(l, s)
    lu, sv = d_u(l, grid.chart), d_v(s, grid.chart)
    p = _complex_hdot(q2, lu) / r22
    q = (_complex_hdot(q1, sv) - r12 * (_complex_hdot(q2, sv) / r22)) / r11
    return lg.ConjugateCoefficients(p, q)


def complex_apply_group(grid, g):
    """`lg.apply_group` with g and (l, s) cast to complex128."""
    g = np.asarray(g, dtype=complex)
    l, s = (np.einsum("ij,...j->...i", g, np.asarray(x, dtype=complex)) for x in (grid.l, grid.s))
    return lg.LegendreGrid(grid.space, l, s, grid.chart)


def complex_proj_density(surface):
    """`fn.proj_density` on f cast to complex128, without its chart refusal."""
    ch = surface.chart
    f = surface.points.astype(complex)
    fu, fv = d_u(f, ch), d_v(f, ch)
    fuu, fvv, fuv = d_u(fu, ch), d_v(fv, ch), d_v(fu, ch)

    def det4(*cols):
        return np.linalg.det(np.stack(cols, axis=-1))

    den = det4(f, fu, fv, fuv)
    return (det4(f, fu, fuu, fuv) / den) * (-det4(f, fv, fvv, fuv) / den)


# ---------------------------------------------------------------------------
# the Gauss map in complex128


def complex_gauss_map(grid):
    """`gm.conformal_gauss` computed in complex128 throughout, P built at once.

    The lift is cast to complex128 and differenced by the stencils of
    `grids`, which round complex data as a division by 2h and h^2 does;
    every other division, by a real or a complex quantity, is a division,
    and the 3x3 Gram is inverted in complex.  On a real chart the package's
    float64 path must equal these fields bit for bit.
    """
    sp, ch = grid.space, grid.chart
    l, s = (np.asarray(x, dtype=complex) for x in (grid.l, grid.s))
    span_s = np.stack([l, d_v(l, ch), d_vv(l, ch)], axis=-2)
    span_p = np.stack([s, d_u(s, ch), d_uu(s, ch)], axis=-2)
    gram_s = sp.pair(span_s[..., :, None, :], span_s[..., None, :, :])
    scale = np.linalg.norm(span_s, axis=-1) ** 2
    scale3 = scale[..., 0] * scale[..., 1] * scale[..., 2]
    degenerate = np.abs(np.linalg.det(gram_s)) < 1e-8 * np.maximum(scale3, 1e-300)
    with np.errstate(all="ignore"):
        basis_s, signs_s = _complex_orthobasis(sp, span_s)
        basis_p, signs_p = _complex_orthobasis(sp, span_p)
    b6 = span_s.swapaxes(-1, -2)
    gram_inv = np.linalg.inv(np.where(degenerate[..., None, None], np.eye(3), gram_s))
    proj = b6 @ gram_inv @ b6.swapaxes(-1, -2) @ sp.gram
    target, source = gm._fill_sources(degenerate)
    for fld in (basis_s, basis_p, signs_s, signs_p, proj):
        fld[target] = fld[source]
    return gm.GaussMapGrid(
        space=sp, chart=ch, span_s=span_s, span_p=span_p, build_proj=lambda: proj,
        degenerate=degenerate, basis_s=basis_s, signs_s=signs_s, basis_p=basis_p, signs_p=signs_p,
    )


def _complex_orthobasis(space, rows):
    """`gm._structured_orthobasis` with complex divisions."""
    a, b, c = rows[..., 0, :], rows[..., 1, :], rows[..., 2, :]
    n = space.pair(b, b)
    real_n = np.abs(n.imag) <= 1e-10 * np.abs(n)
    d2 = np.where(real_n, np.sign(n.real), 1.0)
    denom = np.where(real_n, np.sqrt(np.abs(n)).astype(complex), np.sqrt(n + 0j))
    e2 = b / denom[..., None]
    w = c - (space.pair(c, e2) / d2)[..., None] * e2
    p = a / space.pair(a, w)[..., None]
    x = w - 0.5 * space.pair(w, w)[..., None] * p
    basis = np.stack([(p - x) / np.sqrt(2.0), e2, (p + x) / np.sqrt(2.0)], axis=-2)
    signs = np.stack([-np.ones_like(d2), d2, np.ones_like(d2)], axis=-1)
    return basis, signs


def einsum_dS(gauss):
    """(S_u, S_v) by the three-operand einsum over the bases cast to complex128.

    The sections are differenced by the stencils of `grids` on complex data,
    where their multiply by 1/(2h) is numpy's division by 2h.  On a real
    chart `gm.dS` must equal the real parts bit for bit.
    """
    sp = gauss.space
    b_s, b_p = (np.asarray(b, dtype=complex) for b in (gauss.basis_s, gauss.basis_p))
    coords_s = (b_s @ sp.gram) / gauss.signs_s[..., None]
    out = []
    for deriv in (d_u, d_v):
        w = deriv(b_s, gauss.chart)
        coeff = sp.pair(b_p[..., :, None, :], w[..., None, :, :]) / gauss.signs_p[..., None]
        out.append(np.einsum("...ki,...kj,...jl->...il", b_p, coeff, coords_s))
    return out


def complex_tension(gauss):
    """`gm.tension` on P cast to complex128, differenced by the stencils of `grids`."""
    proj, ch = np.asarray(gauss.proj, dtype=complex), gauss.chart
    pp = np.eye(6) - proj
    du_op = pp @ d_u(proj, ch) @ proj
    dv_op = pp @ d_v(proj, ch) @ proj
    tau = pp @ d_u(dv_op, ch) @ proj
    alt = pp @ d_v(du_op, ch) @ proj
    return gm.TensionField(tau=tau, norm=np.linalg.norm(tau, axis=(-2, -1)),
                           codazzi_diff=np.linalg.norm(tau - alt, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# test surfaces


class EllipsoidGenericSampler:
    """Triaxial ellipsoid in a (polar, azimuth) chart (not curvature-line)."""

    geometry = EUCLIDEAN3

    def __init__(self, a=1.0, b=1.3, c=1.7):
        self.axes = (float(a), float(b), float(c))

    def point(self, u, v):
        a, b, c = self.axes
        return np.stack(
            [a * np.sin(u) * np.cos(v), b * np.sin(u) * np.sin(v), c * np.cos(u)],
            axis=-1,
        )

    def normal(self, u, v):
        p = self.point(u, v)
        axes2 = np.array([s * s for s in self.axes])
        return -_unit(p / axes2)


def ruled_graph_sampler(c=0.1):
    """z = x*y + c x^3 in its exact asymptotic chart (a, b) -> (a, b - 3c a^2 / 2).

    One asymptotic family consists of the rulings (q = 0 and f_bb = 0
    exactly); the other has p = -3c constant.
    """

    class _Ruled:
        geometry = PROJECTIVE3

        def point(self, u, v):
            a = np.asarray(u, dtype=float)
            b = np.asarray(v, dtype=float)
            y = b - 1.5 * c * a**2
            return np.stack(
                [np.ones_like(a + b), a + 0 * b, y, a * y + c * a**3], axis=-1
            )

    return _Ruled()


def convex_graph_sampler(cx=0.05):
    """z = x^2 + y^2 + cx x^4: elliptic points, complex-conjugate asymptotics."""
    return ProjectiveGraphSampler(
        lambda x, y: x * x + y * y + cx * x**4,
        lambda x, y: (2.0 + 12.0 * cx * x * x + 0 * y, np.zeros_like(x + y), 2.0 + 0 * x + 0 * y),
    )
