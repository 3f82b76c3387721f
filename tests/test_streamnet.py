import numpy as np
import pytest
import scipy.linalg

from quadgeo import streamnet as sn
from quadgeo import surfaces as sf
from quadgeo.errors import SignatureError, StreamlineError, UmbilicError
from quadgeo.grids import d_u, d_v, interior


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


def test_torus_reparametrize_is_identity_like():
    tor = sf.TorusSampler(1.0, 3.0)
    src = sf.make_surface(tor, (0.3, 1.7, 0.2, 1.8), 65, 65)
    out = sn.curvature_line_reparametrize(src, 33, 33, 0.02, 0.02, sampler=tor)
    # the chart was already curvature-line: coordinate lines stay axis-aligned,
    # so the resampled torus still has kappa1 = 1 everywhere
    out2, rep = sf.principal_data(out)
    assert rep["max_residual"] < 1e-8
    assert np.max(np.abs(interior(out2.kappa1) - 1.0)) < 1e-8


def test_generic_ellipsoid_chart_straightens():
    gen = sf.EllipsoidGenericSampler(1.0, 1.3, 1.7)
    src = sf.make_surface(gen, (0.7, 1.5, 0.4, 1.2), 65, 65, with_kappa=False)
    out = sn.curvature_line_reparametrize(src, 65, 65, 0.004, 0.004,
                                          sampler=gen, src_refine=8)
    (E, F, G), (L, M, N) = sn._fundamental_forms(out.points, out.normal, out.chart)
    scale = np.max(np.abs(interior(L))) + np.max(np.abs(interior(N)))
    assert np.max(np.abs(interior(M))) / scale < 1e-6
    out2, rep = sf.principal_data(out, residual_tol=1e-3)
    assert rep["max_residual"] < 1e-4


def test_sphere_reparametrize_umbilic_error():
    sph = sf.SphereSampler(1.0)
    src = sf.make_surface(sph, (0.4, 1.2, 0.1, 1.2), 33, 33, with_kappa=False)
    with pytest.raises(UmbilicError):
        sn.curvature_line_reparametrize(src, 17, 17, 0.02, 0.02, sampler=sph)


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
    samp = sf.convex_graph_sampler()
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


def test_principal_directions_match_generalized_eigh():
    rng = np.random.default_rng(7)
    n = 200
    a = rng.standard_normal((n, 2, 2))
    first = a @ a.swapaxes(-1, -2) + 0.5 * np.eye(2)   # positive definite I
    b = rng.standard_normal((n, 2, 2))
    second = b + b.swapaxes(-1, -2)                    # symmetric II
    E, F, G = first[:, 0, 0], first[:, 0, 1], first[:, 1, 1]
    L, M, N = second[:, 0, 0], second[:, 0, 1], second[:, 1, 1]
    d1, d2, k1, k2 = sn.principal_directions_2x2(E, F, G, L, M, N)
    for k in range(n):
        w, v = scipy.linalg.eigh(second[k], first[k])
        scale = max(abs(w[0]), abs(w[1]), 1.0)
        assert abs(k1[k] - w[1]) <= 1e-12 * scale
        assert abs(k2[k] - w[0]) <= 1e-12 * scale
        # directions agree up to sign; their error grows as 1/gap
        tol = 1e-12 * scale / (w[1] - w[0])
        for d, col in ((d1[k], v[:, 1]), (d2[k], v[:, 0])):
            col = col / np.linalg.norm(col)
            assert abs(d[0] * col[1] - d[1] * col[0]) <= tol
