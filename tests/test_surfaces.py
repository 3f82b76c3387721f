import numpy as np
import pytest

from quadgeo import surfaces as sf
from quadgeo.errors import (
    FocalValueError,
    NotCurvatureLineError,
    SignatureError,
    UmbilicError,
)
from quadgeo.grids import interior

from oracles import EllipsoidGenericSampler

# the centered 40% of the confocal ranges u in (1, 1.69), v in (1.69, 2.89)
# of the (1, 1.3, 1.7) ellipsoid
ELL_WINDOW_40 = (1.207, 1.483, 2.05, 2.53)


def ellipsoid_oracle_kappas(points, normal, axes):
    """Analytic principal curvatures of the ellipsoid from the implicit form.

    The shape operator of the level set sum x_i^2/a_i^2 = 1 is the projected
    (constant) Hessian scaled by |grad|; the stored normal orientation fixes
    the sign.  Independent of any finite differencing.
    """
    d = np.diag([1.0 / a**2 for a in axes])
    w = points @ d
    wn = np.linalg.norm(w, axis=-1, keepdims=True)
    n_out = w / wn
    sign = np.sign(np.einsum("...k,...k->...", n_out, normal))
    proj = np.eye(3) - n_out[..., :, None] * n_out[..., None, :]
    s_op = proj @ d[None, None] @ proj / wn[..., None]
    evals = np.sort(np.linalg.eigvalsh(s_op), axis=-1)
    # drop the zero eigenvalue along the normal; under n_u + kappa f_u = 0
    # the curvature is -(dn X . X)/|X|^2 = -sign * eigenvalue
    k_small, k_big = evals[..., 1], evals[..., 2]
    return -sign * k_small, -sign * k_big


def test_torus_principal_data():
    surf = sf.make_surface(sf.TorusSampler(1.0, 3.0), (0.3, 1.7, 0.2, 1.8), 65, 65)
    out = sf.principal_data(surf, residual_tol=1e-12)
    assert np.allclose(interior(out.kappa1), 1.0, atol=1e-12)
    assert np.max(np.abs(interior(out.kappa2 - surf.kappa2))) < 1e-12


def test_sphere_umbilic_error():
    surf = sf.make_surface(sf.SphereSampler(1.0), (0.4, 1.2, 0.1, 1.2), 33, 33)
    with pytest.raises(UmbilicError) as err:
        sf.principal_data(surf)
    assert len(err.value.nodes) > 0


def test_generic_chart_rejected():
    gen = EllipsoidGenericSampler(1.0, 1.3, 1.7)
    surf = sf.make_surface(gen, (0.7, 1.5, 0.4, 1.2), 33, 33)
    with pytest.raises(NotCurvatureLineError):
        sf.principal_data(surf)


def test_ellipsoid_confocal_kappas_match_analytic_oracle():
    # the [DERIVED] closed-form oracle at a fine grid
    ell = sf.EllipsoidConfocalSampler(1.0, 1.3, 1.7)
    surf = sf.make_surface(ell, ELL_WINDOW_40, 513, 513)
    out = sf.principal_data(surf, residual_tol=1e-6)
    k1_o, k2_o = ellipsoid_oracle_kappas(surf.points, surf.normal, (1.0, 1.3, 1.7))
    # u-curvature is the larger one on this window; compare as sets per node
    got = np.sort(np.stack([interior(out.kappa1), interior(out.kappa2)], -1), -1)
    want = np.sort(np.stack([interior(k1_o), interior(k2_o)], -1), -1)
    assert np.max(np.abs(got - want)) < 1e-6


def test_ellipsoid_confocal_chart_is_orthogonal():
    ell = sf.EllipsoidConfocalSampler(1.0, 1.3, 1.7)
    surf = sf.make_surface(ell, ELL_WINDOW_40, 65, 65)
    from quadgeo.grids import d_u, d_v

    fu = d_u(surf.points, surf.chart).real
    fv = d_v(surf.points, surf.chart).real
    dots = np.abs(np.einsum("...k,...k->...", fu, fv))
    assert np.max(interior(dots)) < 1e-3  # FD error only; exact in the limit


def test_normal_shift_identity_and_sphere():
    ell = sf.EllipsoidConfocalSampler(1.0, 1.3, 1.7)
    surf = sf.make_surface(ell, ELL_WINDOW_40, 17, 17)
    same = sf.normal_shift(surf, 0.0)
    assert np.array_equal(same.points, surf.points)
    # sphere radius 1 (inward normal, kappa = +1) shifted by 1/2
    sph = sf.make_surface(sf.SphereSampler(1.0), (0.5, 1.1, 0.2, 0.9), 17, 17)
    half = sf.normal_shift(sph, 0.5)
    assert np.allclose(np.linalg.norm(half.points, axis=-1), 0.5, atol=1e-12)
    assert np.allclose(half.kappa1, 2.0, atol=1e-12)
    with pytest.raises(FocalValueError):
        sf.normal_shift(sph, 1.0)


def test_normal_shift_parallel_curvatures():
    tor = sf.make_surface(sf.TorusSampler(1.0, 3.0), (0.3, 1.7, 0.2, 1.8), 33, 33)
    shifted = sf.normal_shift(tor, 0.3)
    refit = sf.principal_data(shifted, residual_tol=1e-12)
    assert np.allclose(interior(refit.kappa1), 1.0 / 0.7, atol=1e-10)


def test_revolution_profiles():
    cat = sf.make_surface(sf.RevolutionSampler("catenoid"), (-0.6, 0.6, 0.2, 1.4), 33, 33)
    # the sampler's analytic curvatures are exactly minimal
    assert np.max(np.abs(cat.kappa1 + cat.kappa2)) < 1e-12
    out = sf.principal_data(cat, residual_tol=1e-3)
    assert np.max(np.abs(interior(out.kappa1 + out.kappa2))) < 1e-3
    cone = sf.make_surface(
        sf.RevolutionSampler("cone", slope=0.5), (0.5, 1.5, 0.2, 1.4), 33, 33
    )
    out2 = sf.principal_data(cone)
    assert np.max(np.abs(interior(out2.kappa1))) < 1e-6  # rulings are flat


def test_hessian_null_directions_signature_error():
    with pytest.raises(SignatureError):
        sf.hessian_null_directions(np.array(2.0), np.array(0.0), np.array(2.0))


def test_perturbed_graph_is_negatively_curved():
    samp = sf.perturbed_graph_sampler(0.1, 0.1)
    x = np.linspace(-0.5, 0.5, 11)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    d1, d2 = samp.asymptotic_directions(xx, yy)
    cross = np.abs(d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    assert np.min(cross) > 0.1  # two transverse real families
