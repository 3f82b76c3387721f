"""Reparametrization along a pair of transverse line fields.

Builds a coordinate net whose u-lines follow direction family 1 and v-lines
family 2 (principal directions for curvature-line charts, Hessian null
directions for asymptotic charts).  Nodes are propagated cell by cell from two
seed streamlines through the chart center: the node across a cell is the
intersection of the family-1 streamline from its left neighbor with the
family-2 streamline from its lower neighbor, solved by a small Newton
iteration on RK4 flows.  Cells on an anti-diagonal are independent and are
integrated as a batch.

Line fields are unoriented; every field evaluation is sign-aligned to a
running reference direction, so stored or analytic fields only need to be
consistent up to sign.  Grid fields are sign-aligned once by
`grids.smooth_phase`, the package's one grid alignment sweep.
"""

import numpy as np

from .errors import StreamlineError, UmbilicError
from .grids import GridChart, d_u, d_v, smooth_phase
from .surfaces import (
    EUCLIDEAN3,
    PROJECTIVE3,
    SurfaceGrid,
    _unit,
    hessian_null_directions,
    symmetric_eigen_2x2,
    umbilic_mask,
)


def principal_directions_2x2(E, F, G, L, M, N):
    """Principal direction pair of II relative to I in chart coordinates."""
    # Cholesky of I: frames the problem as a symmetric 2x2 eigenproblem
    sE = np.sqrt(E)
    a11 = sE
    a12 = F / sE
    a22 = np.sqrt(G - F * F / E)
    # B = A^-T II A^-1 entries
    i11 = 1.0 / a11
    i12 = -a12 / (a11 * a22)
    i22 = 1.0 / a22
    b11 = i11 * (L * i11)
    b12 = i11 * (L * i12 + M * i22)
    b22 = i12 * (L * i12 + M * i22) + i22 * (M * i12 + N * i22)
    emax, emin, kmax, kmin = symmetric_eigen_2x2(b11, b12, b22)
    # pull back through A^-1
    def pull(e):
        return _unit(
            np.stack([i11 * e[..., 0] + i12 * e[..., 1], i22 * e[..., 1]], axis=-1)
        )

    return pull(emax), pull(emin), kmax, kmin


class AnalyticLineFields:
    """Line fields given by a callable (x, y) -> (d1, d2) with (..., 2) arrays."""

    def __init__(self, fn, window):
        self.fn = fn
        self.window = window

    def eval(self, pts):
        self._check(pts)
        d1, d2 = self.fn(pts[..., 0], pts[..., 1])
        return _unit(d1), _unit(d2)

    def _check(self, pts):
        u0, u1, v0, v1 = self.window
        su, sv = 0.02 * (u1 - u0), 0.02 * (v1 - v0)
        if (
            np.any(pts[..., 0] < u0 - su)
            or np.any(pts[..., 0] > u1 + su)
            or np.any(pts[..., 1] < v0 - sv)
            or np.any(pts[..., 1] > v1 + sv)
        ):
            raise StreamlineError("streamline left the source chart domain")


def bilinear_sample(field, window, pts):
    """Bilinear sample of a node field at parameter points inside `window`."""
    u0, u1, v0, v1 = window
    n, m = field.shape[:2]
    x = (pts[..., 0] - u0) / (u1 - u0) * (n - 1)
    y = (pts[..., 1] - v0) / (v1 - v0) * (m - 1)
    if np.any(x < -0.5) or np.any(x > n - 0.5) or np.any(y < -0.5) or np.any(y > m - 0.5):
        raise StreamlineError("streamline left the source chart domain")
    x = np.clip(x, 0, n - 1 - 1e-12)
    y = np.clip(y, 0, m - 1 - 1e-12)
    i = np.clip(x.astype(int), 0, n - 2)
    j = np.clip(y.astype(int), 0, m - 2)
    fx = (x - i)[..., None]
    fy = (y - j)[..., None]
    return (
        field[i, j] * (1 - fx) * (1 - fy)
        + field[i + 1, j] * fx * (1 - fy)
        + field[i, j + 1] * (1 - fx) * fy
        + field[i + 1, j + 1] * fx * fy
    )


class GridLineFields:
    """Bilinear interpolation of two sign-coherent line fields on a grid."""

    def __init__(self, d1, d2, window):
        self.d1 = smooth_phase(d1).real
        self.d2 = smooth_phase(d2).real
        self.window = window

    def eval(self, pts):
        return (
            _unit(bilinear_sample(self.d1, self.window, pts)),
            _unit(bilinear_sample(self.d2, self.window, pts)),
        )


def _aligned(d, ref):
    sign = np.sign(np.einsum("...k,...k->...", d, ref))
    sign = np.where(sign == 0, 1.0, sign)
    return d * sign[..., None]


def _rk4_flow(fields, family, starts, refs, arcs, nsub=4):
    """Flow dx/ds = unit direction of `family`, sign-aligned to refs."""
    pick = (lambda p: fields.eval(p)[0]) if family == 1 else (lambda p: fields.eval(p)[1])
    x = np.array(starts, dtype=float)
    ref = np.array(refs, dtype=float)
    h = (np.asarray(arcs, dtype=float) / nsub)[..., None]
    for _ in range(nsub):
        k1 = _aligned(pick(x), ref)
        k2 = _aligned(pick(x + 0.5 * h * k1), ref)
        k3 = _aligned(pick(x + 0.5 * h * k2), ref)
        k4 = _aligned(pick(x + h * k3), ref)
        step = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        x = x + h * step
        ref = step
    return x, ref


def march_net(fields, center, h1, h2, nu, nv, nsub=4, newton=3):
    """Positions (nu, nv, 2) of the family-1 x family-2 coordinate net."""
    ic, jc = nu // 2, nv // 2
    pos = np.full((nu, nv, 2), np.nan)
    pos[ic, jc] = center
    d1c, d2c = fields.eval(np.asarray(center, dtype=float))

    # seed row (family 1) and seed column (family 2), marched outward
    for family, d0, h, c, n in ((1, d1c, h1, ic, nu), (2, d2c, h2, jc, nv)):
        for sgn, rng in ((+1, range(c + 1, n)), (-1, range(c - 1, -1, -1))):
            ref = sgn * d0
            p = np.asarray(center, dtype=float)
            for k in rng:
                p, ref = _rk4_flow(fields, family, p[None], ref[None], np.array([h]), nsub)
                p, ref = p[0], ref[0]
                pos[(k, jc) if family == 1 else (ic, k)] = p

    # quadrant fill by anti-diagonals; each new node closes a cell
    for su in (+1, -1):
        kmax = nu - 1 - ic if su > 0 else ic
        for sv in (+1, -1):
            mmax = nv - 1 - jc if sv > 0 else jc
            for diag in range(2, kmax + mmax + 1):
                ks = np.arange(max(1, diag - mmax), min(kmax, diag - 1) + 1)
                if ks.size == 0:
                    continue
                ms = diag - ks
                ii = ic + su * ks
                jj = jc + sv * ms
                p = pos[ii - su, jj]            # left neighbor in the row
                q = pos[ii, jj - sv]            # lower neighbor in the column
                ref1 = np.where(
                    np.isfinite(pos[ii - 2 * su, jj]).all(axis=-1, keepdims=True),
                    p - pos[ii - 2 * su, jj],
                    fields.eval(p)[0] * su,
                )
                ref2 = np.where(
                    np.isfinite(pos[ii, jj - 2 * sv]).all(axis=-1, keepdims=True),
                    q - pos[ii, jj - 2 * sv],
                    fields.eval(q)[1] * sv,
                )
                s = np.full(ks.shape, h1)
                t = np.full(ks.shape, h2)
                for _ in range(newton):
                    x1, dir1 = _rk4_flow(fields, 1, p, ref1, s, nsub)
                    x2, dir2 = _rk4_flow(fields, 2, q, ref2, t, nsub)
                    r = x2 - x1
                    a, b = dir1[..., 0], -dir2[..., 0]
                    c, d = dir1[..., 1], -dir2[..., 1]
                    det = a * d - b * c
                    ds = (d * r[..., 0] - b * r[..., 1]) / det
                    dt = (-c * r[..., 0] + a * r[..., 1]) / det
                    s = s + ds
                    t = t + dt
                pos[ii, jj] = 0.5 * (x1 + x2)
    return pos


# ---------------------------------------------------------------------------
# direction-field builders


def _surface_window(surface):
    if "window" in surface.meta:
        return tuple(surface.meta["window"])
    ch = surface.chart
    return (0.0, (ch.nu - 1) * ch.hu, 0.0, (ch.nv - 1) * ch.hv)


def _fundamental_forms(points, normal, chart):
    fu = d_u(points, chart).real
    fv = d_v(points, chart).real
    nu_ = d_u(normal, chart).real
    nv_ = d_v(normal, chart).real
    dot = lambda a, b: np.einsum("...k,...k->...", a, b)
    E, F, G = dot(fu, fu), dot(fu, fv), dot(fv, fv)
    L, M, N = -dot(nu_, fu), -dot(nu_, fv), -dot(nv_, fv)
    return (E, F, G), (L, M, N)


def principal_fields(surface, sampler=None, src_refine=4):
    """Grid line fields of the two principal directions over the source window."""
    window = _surface_window(surface)
    ch = surface.chart
    if sampler is not None:
        n, m = (ch.nu - 1) * src_refine + 1, (ch.nv - 1) * src_refine + 1
        fine = GridChart(n, m, ch.hu / src_refine, ch.hv / src_refine)
        uu, vv = np.meshgrid(
            np.linspace(window[0], window[1], n),
            np.linspace(window[2], window[3], m),
            indexing="ij",
        )
        pts, nrm = sampler.point(uu, vv), sampler.normal(uu, vv)
        (E, F, G), (L, M, N) = _fundamental_forms(pts, nrm, fine)
    else:
        (E, F, G), (L, M, N) = _fundamental_forms(surface.points, surface.normal, ch)
    d1, d2, k1, k2 = principal_directions_2x2(E, F, G, L, M, N)
    if umbilic_mask(k1, k2).any():
        raise UmbilicError("umbilic point in the reparametrization domain")
    return GridLineFields(d1, d2, window)


def asymptotic_fields(surface, sampler=None, src_refine=4):
    """Line fields of the asymptotic directions (projective surfaces)."""
    window = _surface_window(surface)
    if sampler is not None and hasattr(sampler, "asymptotic_directions"):
        def fn(x, y):
            return sampler.asymptotic_directions(x, y)

        return AnalyticLineFields(fn, window)
    # grid route: II class from the dual vector f* with f*(f)=f*(f_u)=f*(f_v)=0
    ch = surface.chart
    f = surface.points
    fu, fv = d_u(f, ch).real, d_v(f, ch).real
    fuu, fvv = d_u(fu, ch).real, d_v(fv, ch).real
    fuv = d_v(fu, ch).real
    span = np.stack([f, fu, fv], axis=-2)
    _, _, vt = np.linalg.svd(span)
    fstar = vt[..., 3, :]
    h11 = np.einsum("...k,...k->...", fstar, fuu)
    h12 = np.einsum("...k,...k->...", fstar, fuv)
    h22 = np.einsum("...k,...k->...", fstar, fvv)
    d1, d2 = hessian_null_directions(h11, h12, h22)
    return GridLineFields(d1, d2, window)


def _resample(surface, sampler, positions, h1, h2, with_kappa):
    x, y = positions[..., 0], positions[..., 1]
    nu, nv = positions.shape[:2]
    chart = GridChart(nu, nv, h1, h2)
    meta = dict(surface.meta)
    meta["reparametrized"] = True
    if sampler is not None:
        pts = sampler.point(x, y)
        kwargs = {}
        if sampler.geometry == EUCLIDEAN3:
            kwargs["normal"] = sampler.normal(x, y)
            if with_kappa and hasattr(sampler, "kappa"):
                kwargs["kappa1"], kwargs["kappa2"] = sampler.kappa(x, y)
        return SurfaceGrid(sampler.geometry, pts, chart, meta=meta, **kwargs)
    window = _surface_window(surface)
    pts = bilinear_sample(surface.points.real, window, positions)
    kwargs = {}
    if surface.geometry == EUCLIDEAN3 and surface.normal is not None:
        nrm = bilinear_sample(surface.normal, window, positions)
        kwargs["normal"] = nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)
    return SurfaceGrid(surface.geometry, pts, chart, meta=meta, **kwargs)


def _net_center(surface):
    window = _surface_window(surface)
    return np.array([0.5 * (window[0] + window[1]), 0.5 * (window[2] + window[3])])


def curvature_line_reparametrize(
    surface, out_nu, out_nv, h1, h2, sampler=None, src_refine=4, nsub=4
):
    """Resample a Euclidean surface on a chart following principal directions.

    h1, h2 are arclength steps in the source parameter plane.  The output
    carries analytic normals/curvatures when a sampler is supplied; otherwise
    fields are bilinearly resampled from the input grid.
    """
    if surface.geometry != EUCLIDEAN3:
        raise ValueError("curvature-line reparametrization needs a Euclidean surface")
    fields = principal_fields(surface, sampler, src_refine)
    pos = march_net(fields, _net_center(surface), h1, h2, out_nu, out_nv, nsub=nsub)
    return _resample(surface, sampler, pos, h1, h2, with_kappa=True)


def asymptotic_reparametrize(
    surface, out_nu, out_nv, h1, h2, sampler=None, src_refine=4, nsub=4
):
    """Resample a projective surface on a chart following asymptotic directions."""
    if surface.geometry != PROJECTIVE3:
        raise ValueError("asymptotic reparametrization needs a projective surface")
    fields = asymptotic_fields(surface, sampler, src_refine)
    pos = march_net(fields, _net_center(surface), h1, h2, out_nu, out_nv, nsub=nsub)
    out = _resample(surface, sampler, pos, h1, h2, with_kappa=False)
    out.meta["asymptotic"] = True
    return out
