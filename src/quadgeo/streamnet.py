"""Reparametrization along a pair of transverse line fields.

Builds a coordinate net whose u-lines follow direction family 1 and v-lines
family 2, the Hessian null (asymptotic) directions of a projective surface,
so the net is an asymptotic chart.  Nodes are propagated cell by cell from
two seed streamlines through the chart center: the node across a cell is the
intersection of the family-1 streamline from its left neighbor with the
family-2 streamline from its lower neighbor, solved by a small Newton
iteration on RK4 flows.

The cost of a field evaluation is per call, not per point, so the marcher
batches every independent flow: the four seed half-lines march together, and
the cells on one anti-diagonal index of all four quadrants, with their
family-1 and family-2 flows stacked, form one batch.  All four quadrants and
both families thus share one `fields.eval` call per RK stage; each row keeps
the arithmetic it would have alone.

Line fields are unoriented; every field evaluation is sign-aligned to a
running reference direction, so stored or analytic fields only need to be
consistent up to sign.  Grid fields are sign-aligned once by
`grids.smooth_phase`, the package's one grid alignment sweep.
"""

import numpy as np

from .errors import StreamlineError
from .grids import GridChart, d_u, d_v, smooth_phase
from .surfaces import PROJECTIVE3, SurfaceGrid, _unit, hessian_null_directions


class AnalyticLineFields:
    """Line fields given by a callable (x, y) -> (d1, d2) with (..., 2) arrays.

    Points may stray 2% of the window beyond its edges.
    """

    def __init__(self, fn, window):
        self.fn = fn
        u0, u1, v0, v1 = window
        su, sv = 0.02 * (u1 - u0), 0.02 * (v1 - v0)
        self.box = (u0 - su, u1 + su, v0 - sv, v1 + sv)

    def eval(self, pts):
        _require_inside(pts[..., 0], pts[..., 1], self.box)
        d1, d2 = self.fn(pts[..., 0], pts[..., 1])
        return _unit(d1), _unit(d2)


def _require_inside(x, y, box):
    """Raise StreamlineError unless every point (x, y) lies in the closed box.

    The test is written so that a NaN coordinate fails it.
    """
    x0, x1, y0, y1 = box
    if not np.all((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)):
        if np.isfinite(x).all() and np.isfinite(y).all():
            raise StreamlineError("streamline left the source chart domain")
        raise StreamlineError("streamline reached a non-finite point")


def bilinear_sample(field, window, pts):
    """Bilinear sample of a node field at parameter points inside `window`."""
    u0, u1, v0, v1 = window
    n, m = field.shape[:2]
    x = (pts[..., 0] - u0) / (u1 - u0) * (n - 1)
    y = (pts[..., 1] - v0) / (v1 - v0) * (m - 1)
    _require_inside(x, y, (-0.5, n - 0.5, -0.5, m - 0.5))
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
        self.d1 = smooth_phase(d1)
        self.d2 = smooth_phase(d2)
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


def _directions(fields, first, pts):
    """Unit direction of family 1 where `first`, else of family 2, in one evaluation."""
    d1, d2 = fields.eval(pts)
    return np.where(first[..., None], d1, d2)


def _rk4_flow(fields, first, starts, refs, arcs):
    """RK4 flows along the line fields, every row in one batch.

    Row k follows family 1 where first[k] and family 2 otherwise, for arclength
    arcs[k] from starts[k] in 4 RK4 steps, each direction sign-aligned to the
    running direction (initially refs[k]); each RK stage is one `fields.eval`
    call for all rows of both families.  Returns end points and directions.
    """
    x = np.array(starts, dtype=float)
    ref = np.array(refs, dtype=float)
    h = (np.asarray(arcs, dtype=float) / 4)[..., None]
    for _ in range(4):
        k1 = _aligned(_directions(fields, first, x), ref)
        k2 = _aligned(_directions(fields, first, x + 0.5 * h * k1), ref)
        k3 = _aligned(_directions(fields, first, x + 0.5 * h * k2), ref)
        k4 = _aligned(_directions(fields, first, x + h * k3), ref)
        step = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        x = x + h * step
        ref = step
    return x, ref


def march_net(fields, center, h1, h2, nu, nv):
    """Positions (nu, nv, 2) of the family-1 x family-2 coordinate net.

    The four seed half-lines from `center` (family 1 along the row, family 2
    along the column, each both ways) march as one batch; a half-line that is
    shorter (even or unequal sizes) drops out of the batch once it is done.
    The four quadrants then fill by anti-diagonal index together: every cell
    of every quadrant on one anti-diagonal stacks its family-1 flow from the
    left neighbor and its family-2 flow from the lower neighbor into one
    `_rk4_flow` batch, and 3 Newton iterations on the two arclengths close the
    cell.  So all four quadrants and both families share one `fields.eval`
    call per RK stage of each Newton iteration.
    """
    center = np.asarray(center, dtype=float)
    ic, jc = nu // 2, nv // 2
    pos = np.full((nu, nv, 2), np.nan)
    pos[ic, jc] = center
    d1c, d2c = fields.eval(center)

    # seed half-lines +u, -u (family 1) and +v, -v (family 2)
    first = np.array([True, True, False, False])
    du, dv = np.array([1, -1, 0, 0]), np.array([0, 0, 1, -1])
    steps = np.array([nu - 1 - ic, ic, nv - 1 - jc, jc])
    arcs = np.array([h1, h1, h2, h2], dtype=float)
    p = np.repeat(center[None], 4, axis=0)
    ref = np.stack([d1c, -d1c, d2c, -d2c])
    for k in range(1, steps.max() + 1):
        live = steps >= k
        p[live], ref[live] = _rk4_flow(fields, first[live], p[live], ref[live], arcs[live])
        pos[ic + k * du[live], jc + k * dv[live]] = p[live]

    # every off-seed node of the four quadrants, grouped by anti-diagonal
    ii, jj = np.nonzero((np.arange(nu) != ic)[:, None] & (np.arange(nv) != jc)[None, :])
    diag = np.abs(ii - ic) + np.abs(jj - jc)
    order = np.argsort(diag, kind="stable")
    cuts = np.flatnonzero(np.diff(diag[order])) + 1
    for cell in np.split(order, cuts):
        i, j = ii[cell], jj[cell]
        su, sv = np.sign(i - ic), np.sign(j - jc)
        n = cell.size
        # rows [0, n): family 1 from the left neighbor (i - su, j); rows [n, 2n):
        # family 2 from the lower neighbor (i, j - sv); row pairs meet at (i, j)
        first = np.repeat([True, False], n)
        starts = np.concatenate([pos[i - su, j], pos[i, j - sv]])
        # running direction: from the node before the neighbor when that node
        # is in the same quadrant or on a seed line, else the field itself, so
        # the quadrants never read one another
        prev = np.concatenate([pos[i - 2 * su, j], pos[i, j - 2 * sv]])
        back = np.concatenate([np.abs(i - ic) >= 2, np.abs(j - jc) >= 2])
        refs = starts - prev
        if not back.all():
            fresh = ~back
            refs[fresh] = (_directions(fields, first[fresh], starts[fresh])
                           * np.concatenate([su, sv])[fresh, None])
        arcs = np.concatenate([np.full(n, h1), np.full(n, h2)])
        for _ in range(3):
            x, dirs = _rk4_flow(fields, first, starts, refs, arcs)
            x1, x2 = x[:n], x[n:]
            r = x2 - x1
            a, b = dirs[:n, 0], -dirs[n:, 0]
            c, d = dirs[:n, 1], -dirs[n:, 1]
            det = a * d - b * c
            ds = (d * r[..., 0] - b * r[..., 1]) / det
            dt = (-c * r[..., 0] + a * r[..., 1]) / det
            arcs = arcs + np.concatenate([ds, dt])
        pos[i, j] = 0.5 * (x1 + x2)
    return pos


# ---------------------------------------------------------------------------
# direction-field builders


def _surface_window(surface):
    if "window" in surface.meta:
        return tuple(surface.meta["window"])
    ch = surface.chart
    return (0.0, (ch.nu - 1) * ch.hu, 0.0, (ch.nv - 1) * ch.hv)


def asymptotic_fields(surface, sampler=None):
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


def _net_center(surface):
    window = _surface_window(surface)
    return np.array([0.5 * (window[0] + window[1]), 0.5 * (window[2] + window[3])])


def asymptotic_reparametrize(surface, out_nu, out_nv, h1, h2, sampler=None):
    """Resample a projective surface on a chart following asymptotic directions.

    With a sampler the new nodes are sampled exactly; without one they are
    bilinearly resampled from the input grid.
    """
    if surface.geometry != PROJECTIVE3:
        raise ValueError("asymptotic reparametrization needs a projective surface")
    fields = asymptotic_fields(surface, sampler)
    pos = march_net(fields, _net_center(surface), h1, h2, out_nu, out_nv)
    if sampler is not None:
        pts = sampler.point(pos[..., 0], pos[..., 1])
    else:
        pts = bilinear_sample(surface.points.real, _surface_window(surface), pos)
    meta = dict(surface.meta, reparametrized=True, asymptotic=True)
    return SurfaceGrid(PROJECTIVE3, pts, GridChart(out_nu, out_nv, h1, h2), meta=meta)
