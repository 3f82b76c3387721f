import numpy as np
import pytest

from quadgeo import streamnet as sn
from quadgeo import surfaces as sf
from quadgeo.errors import SignatureError, StreamlineError
from quadgeo.grids import d_u, d_v, interior

from oracles import convex_graph_sampler


def asymptotic_residual(out):
    """Off-span part of f_uu, f_vv against a chart-wide second-derivative scale."""
    ch = out.chart
    f = out.points
    fu, fv = d_u(f, ch).real, d_v(f, ch).real
    fuu, fvv = d_u(fu, ch).real, d_v(fv, ch).real
    span = np.stack([f, fu, fv], axis=-2)
    _, _, vt = np.linalg.svd(span)
    fstar = vt[..., 3, :]
    scale = max(
        np.max(np.linalg.norm(interior(fuu), axis=-1)),
        np.max(np.linalg.norm(interior(fvv), axis=-1)),
        np.max(np.linalg.norm(interior(fu), axis=-1)) ** 2,
    )
    ru = np.einsum("...k,...k->...", fstar, fuu) / scale
    rv = np.einsum("...k,...k->...", fstar, fvv) / scale
    return max(np.max(np.abs(interior(ru))), np.max(np.abs(interior(rv))))


def test_quadric_graph_already_asymptotic():
    samp = sf.quadric_graph_sampler()
    src = sf.make_surface(samp, (-0.5, 0.5, -0.5, 0.5), 33, 33)
    out = sn.asymptotic_reparametrize(src, 33, 33, 0.02, 0.02, sampler=samp)
    assert out.meta["asymptotic"]
    assert asymptotic_residual(out) < 1e-10


@pytest.mark.parametrize("cx,cy,tol", [(0.1, 0.0, 1e-5), (0.1, 0.1, 1e-5)])
def test_perturbed_graph_reparametrizes(cx, cy, tol):
    samp = sf.perturbed_graph_sampler(cx, cy)
    src = sf.make_surface(samp, (-0.5, 0.5, -0.5, 0.5), 65, 65)
    out = sn.asymptotic_reparametrize(src, 65, 65, 0.007, 0.007, sampler=samp)
    assert asymptotic_residual(out) < tol


def test_convex_graph_signature_error():
    samp = convex_graph_sampler()
    src = sf.make_surface(samp, (-0.5, 0.5, -0.5, 0.5), 33, 33)
    with pytest.raises(SignatureError):
        sn.asymptotic_reparametrize(src, 33, 33, 0.01, 0.01, sampler=samp)


def test_streamline_domain_error():
    samp = sf.quadric_graph_sampler()
    src = sf.make_surface(samp, (-0.2, 0.2, -0.2, 0.2), 33, 33)
    with pytest.raises(StreamlineError):
        sn.asymptotic_reparametrize(src, 65, 65, 0.05, 0.05, sampler=samp)


def test_grid_route_without_sampler():
    # fields and resampling from the stored grid alone (bilinear)
    samp = sf.perturbed_graph_sampler(0.1, 0.1)
    src = sf.make_surface(samp, (-0.5, 0.5, -0.5, 0.5), 129, 129)
    out = sn.asymptotic_reparametrize(src, 33, 33, 0.01, 0.01)
    assert out.points.shape == (33, 33, 4)
    assert asymptotic_residual(out) < 5e-3  # bilinear resampling noise floor


def _reference_rk4_flow(fields, family, starts, refs, arcs, nsub):
    pick = (lambda p: fields.eval(p)[0]) if family == 1 else (lambda p: fields.eval(p)[1])
    x = np.array(starts, dtype=float)
    ref = np.array(refs, dtype=float)
    h = (np.asarray(arcs, dtype=float) / nsub)[..., None]
    for _ in range(nsub):
        k1 = sn._aligned(pick(x), ref)
        k2 = sn._aligned(pick(x + 0.5 * h * k1), ref)
        k3 = sn._aligned(pick(x + 0.5 * h * k2), ref)
        k4 = sn._aligned(pick(x + h * k3), ref)
        step = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        x = x + h * step
        ref = step
    return x, ref


def _reference_march_net(fields, center, h1, h2, nu, nv, nsub=4, newton=3):
    """The marcher one quadrant and one family at a time, point by point on the seeds."""
    ic, jc = nu // 2, nv // 2
    pos = np.full((nu, nv, 2), np.nan)
    pos[ic, jc] = center
    d1c, d2c = fields.eval(np.asarray(center, dtype=float))
    for family, d0, h, c, n in ((1, d1c, h1, ic, nu), (2, d2c, h2, jc, nv)):
        for sgn, rng in ((+1, range(c + 1, n)), (-1, range(c - 1, -1, -1))):
            ref = sgn * d0
            p = np.asarray(center, dtype=float)
            for k in rng:
                p, ref = _reference_rk4_flow(fields, family, p[None], ref[None],
                                             np.array([h]), nsub)
                p, ref = p[0], ref[0]
                pos[(k, jc) if family == 1 else (ic, k)] = p
    for su in (+1, -1):
        kmax = nu - 1 - ic if su > 0 else ic
        for sv in (+1, -1):
            mmax = nv - 1 - jc if sv > 0 else jc
            for diag in range(2, kmax + mmax + 1):
                ks = np.arange(max(1, diag - mmax), min(kmax, diag - 1) + 1)
                if ks.size == 0:
                    continue
                ii, jj = ic + su * ks, jc + sv * (diag - ks)
                p, q = pos[ii - su, jj], pos[ii, jj - sv]
                ref1 = np.where(np.isfinite(pos[ii - 2 * su, jj]).all(axis=-1, keepdims=True),
                                p - pos[ii - 2 * su, jj], fields.eval(p)[0] * su)
                ref2 = np.where(np.isfinite(pos[ii, jj - 2 * sv]).all(axis=-1, keepdims=True),
                                q - pos[ii, jj - 2 * sv], fields.eval(q)[1] * sv)
                s, t = np.full(ks.shape, h1), np.full(ks.shape, h2)
                for _ in range(newton):
                    x1, dir1 = _reference_rk4_flow(fields, 1, p, ref1, s, nsub)
                    x2, dir2 = _reference_rk4_flow(fields, 2, q, ref2, t, nsub)
                    r = x2 - x1
                    a, b = dir1[..., 0], -dir2[..., 0]
                    c, d = dir1[..., 1], -dir2[..., 1]
                    det = a * d - b * c
                    s = s + (d * r[..., 0] - b * r[..., 1]) / det
                    t = t + (-c * r[..., 0] + a * r[..., 1]) / det
                pos[ii, jj] = 0.5 * (x1 + x2)
    return pos


class _CountingFields:
    def __init__(self, fields):
        self.fields, self.calls = fields, 0

    def eval(self, pts):
        self.calls += 1
        return self.fields.eval(pts)


def _graph_fields():
    samp = sf.perturbed_graph_sampler(0.1, 0.1)
    src = sf.make_surface(samp, (-0.5, 0.5, -0.5, 0.5), 65, 65)
    return sn.asymptotic_fields(src, samp), sn._net_center(src)


def test_march_net_matches_per_cell_reference():
    graph, graph_center = _graph_fields()
    samp = sf.perturbed_graph_sampler(0.1, 0.1)
    src = sf.make_surface(samp, (-0.5, 0.5, -0.5, 0.5), 65, 65)
    cases = [
        (graph, graph_center, 0.45 / 32, 0.45 / 32, 33, 33),
        (graph, graph_center, 0.45 / 32, 0.45 / 32, 20, 26),   # even, non-square
        # grid route: interpolated GridLineFields, no sampler
        (sn.asymptotic_fields(src), graph_center, 0.45 / 32, 0.45 / 32, 33, 33),
    ]
    for fields, center, h1, h2, nu, nv in cases:
        got = sn.march_net(fields, center, h1, h2, nu, nv)
        want = _reference_march_net(fields, center, h1, h2, nu, nv)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - want)) == 0.0


def test_march_net_one_field_evaluation_per_rk_stage():
    fields, center = _graph_fields()
    counted = _CountingFields(fields)
    sn.march_net(counted, center, 0.45 / 64, 0.45 / 64, 65, 65)
    # per quadrant and family the count was 26,745
    assert counted.calls <= 4000


def test_streamline_leaving_one_quadrant_raises():
    # constant fields: family 1 along u, family 2 at 45 degrees, so the net is
    # the exact lattice center + k h e1 + m h e2 and its (+,+) corner reaches
    # farther in u than either seed line
    e2 = np.array([1.0, 1.0]) / np.sqrt(2.0)

    def fn(x, y):
        one = np.ones_like(x)
        return np.stack([one, 0 * one], axis=-1), np.stack([one, one], axis=-1)

    fields = sn.AnalyticLineFields(fn, (0.0, 1.0, 0.0, 1.0))
    center, n = np.array([0.55, 0.5]), 33
    k = np.arange(n) - n // 2

    def lattice(h):
        return center + h * k[:, None, None] * [1.0, 0.0] + h * k[None, :, None] * e2

    inside = sn.march_net(fields, center, 0.01, 0.01, n, n)
    assert np.max(np.abs(inside - lattice(0.01))) < 1e-12
    outside = np.any((lattice(0.02) < -0.02) | (lattice(0.02) > 1.02), axis=-1)
    iu, jv = np.nonzero(outside)
    assert set(zip(np.sign(iu - n // 2), np.sign(jv - n // 2))) == {(1, 1)}
    with pytest.raises(StreamlineError):
        sn.march_net(fields, center, 0.02, 0.02, n, n)


def test_non_finite_point_raises_streamline_error():
    fields, center = _graph_fields()
    bad = np.array([[0.0, 0.0], [np.nan, 0.1]])
    with pytest.raises(StreamlineError, match="non-finite"):
        fields.eval(bad)
    with pytest.raises(StreamlineError, match="non-finite"):
        sn.bilinear_sample(np.zeros((9, 9, 2)), (-0.5, 0.5, -0.5, 0.5), bad)
    with pytest.raises(StreamlineError):
        sn.march_net(fields, center, np.nan, np.nan, 9, 9)
