"""Discrete Legendre maps: contact lifts, validation, conjugate data.

A LegendreGrid stores the two lightlike focal fields (l, s) of a line
congruence in the quadric over a rectangular chart: per node, f = l ^ s is a
null 2-plane, the contact (Legendre) condition <dl, s> = <ds, l> = 0 holds up
to finite-difference error, and in focal normalization the u-lines kill l and
the v-lines kill s modulo f (l_u, s_v in span{l, s}).

Two lifts produce such grids: the sphere-geometric lift of a Euclidean
surface with its curvature spheres l = nu + kappa1 phi, s = nu + kappa2 phi
into the (4,2) space, and the line-geometric lift l = f ^ f_u, s = f ^ f_v of
a projective surface in asymptotic coordinates into the (3,3) space.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import pseudo_linalg as pl
from .errors import (
    IllConditionedFrameError,
    NotAsymptoticChartError,
    NotImmersedError,
    UmbilicError,
)
from .grids import REAL, GridChart, d_u, d_v, interior
from .surfaces import EUCLIDEAN3, PROJECTIVE3, umbilic_mask

# Lie basis index order: (v_-1, v_0, v_1, v_2, v_3, v_inf)
V_MINUS, V_ZERO, V_INF = 0, 1, 5
ASYMPTOTIC_CHART_TOL = 5e-2  # off-span residual bound of an asymptotic chart


@dataclass
class LegendreGrid:
    """Focal frame (l, s) of a discrete Legendre map."""

    space: pl.PseudoSpace
    l: np.ndarray
    s: np.ndarray
    chart: GridChart
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.chart.nu, self.chart.nv, 6)
        if self.l.shape != shape or self.s.shape != shape:
            raise ValueError("focal fields must have shape (nu, nv, 6)")


@dataclass
class ConjugateCoefficients:
    """Conjugate-net coefficients: l_u = * l + p s and s_v = q l + * s."""

    p: np.ndarray
    q: np.ndarray


def _enorm(x):
    return np.linalg.norm(x, axis=-1)


def _hdot(x, y):
    """Hermitian product x^H y over the last axis."""
    return np.einsum("...k,...k->...", x.conj(), y)


def _focal_basis(l, s):
    """Per-node Hermitian Gram-Schmidt of the columns of B = [l, s] = Q R.

    q1 = l / |l| and q2 = t / |t| with t = s - q1 (q1^H s), so that
    R = [[r11, r12], [0, r22]] with r11 = |l|, r12 = q1^H s, r22 = |t|.
    Where |t| <= 1e-12 |s|, s lies in span{l} to roundoff and t has no
    direction: q2 and r22 are 0 there, so projecting onto span{q1, q2}
    projects onto span{l} alone, as a pseudo-inverse's rank cut does.
    Returns (q1, q2, r11, r12, r22).
    """
    r11 = _enorm(l)
    q1 = l / r11[..., None]
    r12 = _hdot(q1, s)
    t = s - q1 * r12[..., None]
    r22 = _enorm(t)
    dependent = r22 <= 1e-12 * _enorm(s)
    r22[dependent] = 0.0
    q2 = t / np.where(dependent, 1.0, r22)[..., None]
    q2[dependent] = 0.0
    return q1, q2, r11, r12, r22


# ---------------------------------------------------------------------------
# lifts


def lie_lift(surface):
    """Contact lift of a Euclidean surface by its curvature spheres.

    Builds phi = v_0 + f + f^2 v_inf (stereographic point sphere) and
    nu = v_-1 + n + 2 n.f v_inf (tangent plane), then l = nu + kappa1 phi and
    s = nu + kappa2 phi on a curvature-line chart.
    """
    if surface.geometry != EUCLIDEAN3 or not surface.has_kappa():
        raise ValueError("lie_lift needs a Euclidean surface with kappa fields")
    umb = umbilic_mask(surface.kappa1, surface.kappa2)
    if umb.any():
        raise UmbilicError("umbilic nodes in the lift domain",
                           nodes=[tuple(ij) for ij in np.argwhere(umb)])
    f = surface.points.astype(float)
    n = surface.normal.astype(float)
    shape = f.shape[:2]
    phi = np.zeros(shape + (6,), dtype=complex)
    phi[..., V_ZERO] = 1.0
    phi[..., 2:5] = f
    phi[..., V_INF] = np.einsum("...k,...k->...", f, f)
    nu = np.zeros(shape + (6,), dtype=complex)
    nu[..., V_MINUS] = 1.0
    nu[..., 2:5] = n
    nu[..., V_INF] = 2.0 * np.einsum("...k,...k->...", n, f)
    l = nu + surface.kappa1[..., None] * phi
    s = nu + surface.kappa2[..., None] * phi
    return LegendreGrid(pl.lie_space(), l, s, surface.chart, meta=dict(surface.meta))


def proj_lift(surface):
    """Contact lift of a projective surface in asymptotic coordinates.

    l = f ^ f_u and s = f ^ f_v via the Plucker embedding.  Raises
    NotImmersedError where (f, f_u, f_v) has rank below 3 (singular-value
    ratio < 1e-10 at an interior node; a float64 SVD on a real chart) and
    NotAsymptoticChartError when the focal residual exceeds
    ASYMPTOTIC_CHART_TOL = 5e-2 (the chart is not asymptotic).
    """
    if surface.geometry != PROJECTIVE3:
        raise ValueError("proj_lift needs a projective surface")
    f = surface.points.astype(complex)
    fu = d_u(f, surface.chart)
    fv = d_v(f, surface.chart)
    span = np.stack([f, fu, fv], axis=-2)
    # real on a real chart; the derivatives still go through complex
    # arithmetic, which rounds them differently from float64 division
    if surface.chart.reality == REAL:
        span = span.real
    rank_scale = np.linalg.svd(span, compute_uv=False)
    if np.min(interior(rank_scale[..., 2] / rank_scale[..., 0])) < 1e-10:
        raise NotImmersedError("projective surface is not immersed on the chart")
    l = pl.plucker_embed(f, fu)
    s = pl.plucker_embed(f, fv)
    grid = LegendreGrid(pl.plucker_space(), l, s, surface.chart, meta=dict(surface.meta))
    rep = validate(grid)
    if rep["focal_max"] > ASYMPTOTIC_CHART_TOL:
        raise NotAsymptoticChartError(
            f"focal residual {rep['focal_max']:.2e} exceeds {ASYMPTOTIC_CHART_TOL:.1e}: "
            "chart is not asymptotic"
        )
    return grid


def lift(surface):
    """Contact lift of a surface by its geometry: `lie_lift` or `proj_lift`."""
    if surface.geometry == EUCLIDEAN3:
        return lie_lift(surface)
    return proj_lift(surface)


# ---------------------------------------------------------------------------
# residuals / validation


def validate(grid):
    """Invariant residuals of a LegendreGrid, normalized by global scales.

    nullity: |<l,l>|, |<s,s>|, |<l,s>| against |l||s|;
    legendre: |<l_u, s>| (and counterparts) against sup |l_u| |s|;
    focal: components of l_u, s_v outside span{l, s} against sup |l_u|, |s_v|,
    projected out with the span's orthonormal basis from `_focal_basis`.
    Interior (2-node margin) maxima are reported as *_max.
    """
    sp, ch = grid.space, grid.chart
    l, s = grid.l, grid.s
    el, es = _enorm(l), _enorm(s)
    null_f = np.maximum(
        np.abs(sp.pair(l, l)) / (el * el),
        np.maximum(np.abs(sp.pair(s, s)) / (es * es),
                   np.abs(sp.pair(l, s)) / (el * es)),
    )
    lu, lv = d_u(l, ch), d_v(l, ch)
    su, sv = d_u(s, ch), d_v(s, ch)
    scale_d = max(np.max(interior(_enorm(lu))), np.max(interior(_enorm(sv))),
                  np.max(interior(_enorm(lv))), np.max(interior(_enorm(su))))
    scale_f = max(np.max(interior(el)), np.max(interior(es)))
    leg_f = np.maximum.reduce([
        np.abs(sp.pair(lu, s)), np.abs(sp.pair(lv, s)),
        np.abs(sp.pair(su, l)), np.abs(sp.pair(sv, l)),
    ]) / (scale_d * scale_f)

    q1, q2, *_ = _focal_basis(l, s)

    def off_span(w):
        return _enorm(w - q1 * _hdot(q1, w)[..., None] - q2 * _hdot(q2, w)[..., None])

    foc_f = np.maximum(off_span(lu), off_span(sv)) / scale_d
    return {
        "nullity": null_f,
        "legendre": leg_f,
        "focal": foc_f,
        "nullity_max": float(np.max(interior(null_f))),
        "legendre_max": float(np.max(interior(leg_f))),
        "focal_max": float(np.max(interior(foc_f))),
    }


# ---------------------------------------------------------------------------
# conjugate data


def conjugate_coefficients(grid):
    """Least-squares conjugate coefficients p, q of a focal-normalized grid.

    With [l, s] = Q R from `_focal_basis`, the least-squares coordinates of
    w in span{l, s} solve R x = Q^H w in closed form: p is the s-coordinate
    of l_u and q the l-coordinate of s_v.  Raises IllConditionedFrameError
    where cond(l, s) = sigma1 / sigma2 > 1e8, read from R's singular values
    (sigma1^2 + sigma2^2 = |R|_F^2 and sigma1 sigma2 = r11 r22).
    """
    ch = grid.chart
    q1, q2, r11, r12, r22 = _focal_basis(grid.l, grid.s)
    fro2 = r11 ** 2 + np.abs(r12) ** 2 + r22 ** 2
    det = r11 * r22
    sigma1_sq = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 ** 2 - 4.0 * det ** 2, 0.0)))
    if not np.all(sigma1_sq <= 1e8 * det):  # NaN nodes are refused too
        raise IllConditionedFrameError("(l, s) basis is numerically dependent")
    lu = d_u(grid.l, ch)
    sv = d_v(grid.s, ch)
    p = _hdot(q2, lu) / r22
    q = (_hdot(q1, sv) - r12 * (_hdot(q2, sv) / r22)) / r11
    if ch.reality == "real" and max(np.max(np.abs(p.imag)), np.max(np.abs(q.imag))) < 1e-9 * (
        1.0 + np.max(np.abs(p)) + np.max(np.abs(q))
    ):
        p, q = p.real, q.real
    return ConjugateCoefficients(p, q)


# ---------------------------------------------------------------------------
# group action


def apply_group(grid, g):
    """Transform the focal frame by a pairing-preserving 6x6 map (`pl.check_group_element`)."""
    pl.check_group_element(g, grid.space)
    g = np.asarray(g, dtype=complex)
    out = replace(grid, l=np.einsum("ij,...j->...i", g, grid.l),
                  s=np.einsum("ij,...j->...i", g, grid.s))
    out.meta = dict(grid.meta)
    return out
