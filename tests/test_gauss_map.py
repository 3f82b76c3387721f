import dataclasses
import gc
import weakref

import numpy as np
import pytest

from quadgeo import checks, functionals as fn, gauss_map as gm, legendre as lg
from quadgeo import pseudo_linalg as pl
from quadgeo import loop_tools as lt
from quadgeo import surfaces as sf
from quadgeo.errors import DegenerateReconstructionError
from quadgeo.grids import GridChart, interior

from oracles import (QuadricForm, complex_gauss_map, complex_tension, convex_graph_sampler,
                     einsum_dS, hodge_star)


def test_torus_star_constant(torus_gauss65):
    star0 = torus_gauss65.star[32, 32]
    assert np.max(np.abs(torus_gauss65.star - star0)) < 1e-8
    assert torus_gauss65.degenerate.sum() == 0


def test_quadric_star_matches_hodge_oracle(quadric_lift65):
    # points (1, u, v, uv) lie on the quadric x0 x3 - x1 x2 = 0
    gauss = gm.conformal_gauss(quadric_lift65)
    q = np.zeros((4, 4))
    q[0, 3] = q[3, 0] = 0.5
    q[1, 2] = q[2, 1] = -0.5
    want = hodge_star(QuadricForm(q))
    got = gauss.star[30, 30].real
    dev = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
    assert dev < 1e-10
    assert np.max(np.abs(gauss.star - gauss.star[32, 32])) < 1e-10


def test_star_properties(ellipsoid_gauss65):
    g = ellipsoid_gauss65
    gram = g.space.gram
    sym = np.linalg.inv(gram) @ g.star.swapaxes(-1, -2) @ gram - g.star
    assert np.max(np.abs(sym)) < 1e-8
    invol = g.star @ g.star - np.eye(6)
    assert np.max(np.abs(invol)) < 1e-8
    assert g.eps == 1.0 and g.signature_z == "(1,1)"


def test_orthogonality_of_bundles():
    res = []
    for n in (17, 33, 65):
        gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(n)))
        res.append(float(np.max(interior(gm.orthogonality_residual(gauss)))))
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert res[-1] < 1e-3
    assert np.all(orders > 1.8)


def test_derivatives_computed_once_read_only_and_cycle_free(ellipsoid_lift65, monkeypatch):
    calls = []
    real_dS = gm.dS
    monkeypatch.setattr(gm, "dS", lambda gauss: calls.append(1) or real_dS(gauss))
    gauss = gm.conformal_gauss(ellipsoid_lift65)
    su, sv = gauss.derivatives
    again = gauss.derivatives
    assert again[0] is su and again[1] is sv and len(calls) == 1
    assert not su.flags.writeable and not sv.flags.writeable
    with pytest.raises(ValueError):
        su[0, 0, 0, 0] = 1.0
    gm.willmore_density(gauss)
    gm.reconstruct(gauss)
    assert len(calls) == 1
    # the cached pair holds no reference back to the map: without the
    # cyclic collector, dropping the last reference frees it at once
    ref = weakref.ref(gauss)
    gc.disable()
    try:
        del gauss
        assert ref() is None
    finally:
        gc.enable()


def test_orthonormal_bases_have_unit_gram(ellipsoid_gauss65):
    bs, ds = ellipsoid_gauss65.basis_s, ellipsoid_gauss65.signs_s
    bp = ellipsoid_gauss65.basis_p
    g = ellipsoid_gauss65.space.gram
    gram_s = np.einsum("...ik,kl,...jl->...ij", bs, g, bs)
    diag = np.einsum("...kk->...k", gram_s)
    assert np.max(np.abs(diag - ds)) < 1e-9
    # off-diagonal terms inherit the O(h^2) defect of <l, l_v> under FD
    off = gram_s - diag[..., None] * np.eye(3)
    assert np.max(np.abs(off)) < 1e-3
    cross = np.einsum("...ik,kl,...jl->...ij", bs, g, bp)
    assert np.max(np.abs(interior(cross))) < 1e-4  # FD-level orthogonality


def test_dS_rank_structure(ellipsoid_gauss65):
    su, sv = ellipsoid_gauss65.derivatives
    # im S_u = span{s}: dominant direction of the operator against the s field
    img, (s1, s2) = gm.image_direction(su)
    ang = gm.line_angle(img, ellipsoid_gauss65.span_p[..., 0, :])
    assert np.max(interior(ang)) < 1e-4
    assert np.min(interior(s1 / s2)) > 1e3  # near rank one


def _eps_i_chart(n):
    return sf.make_surface(convex_graph_sampler(0.05), (-0.4, 0.4, -0.4, 0.4),
                           n, n, reality="complex_conjugate")


def test_willmore_density_stays_complex_on_an_eps_i_chart():
    conv = _eps_i_chart(17)
    gauss = gm.conformal_gauss(lg.proj_lift(conv))
    assert gauss.eps == 1j
    rho = gm.willmore_density(gauss)
    assert rho.dtype == np.complex128
    assert np.array_equal(rho, gm.grassmann_pair(gauss.space, *gauss.derivatives))


def _conjugate_pq(surface):
    cc = lg.conjugate_coefficients(lg.lift(surface))
    return cc.p, cc.q


def _reconstructed_lines(surface):
    rec = gm.reconstruct(gm.conformal_gauss(lg.lift(surface)))
    return rec.l, rec.s


def _gauss_map_fields(surface):
    gauss = gm.conformal_gauss(lg.lift(surface))
    return (gauss.span_s, gauss.span_p, gauss.basis_s, gauss.basis_p, gauss.proj,
            *gauss.derivatives, gm.tension(gauss).tau)


def _lift_fields(surface):
    grid = lg.lift(surface)
    return grid.l, grid.s


def _validate_fields(surface):
    rep = lg.validate(lg.lift(surface))
    return rep["nullity"], rep["legendre"], rep["focal"]


def _moved_lift_fields(surface):
    grid = lg.lift(surface)
    moved = lg.apply_group(grid, pl.random_pseudo_orthogonal(grid.space, np.random.default_rng(3)))
    return moved.l, moved.s


ALL_REAL = (checks.make_ellipsoid, checks.make_quadric, checks.make_asymptotic_graph)


@pytest.mark.parametrize("real_surfaces,compute,eps_i_dtype", [
    ((checks.make_ellipsoid,), _conjugate_pq, np.complex128),
    ((checks.make_asymptotic_graph,), lambda surface: (fn.proj_density(surface),), np.complex128),
    ((checks.make_ellipsoid,),
     lambda surface: (fn.willmore_gradient_density(gm.conformal_gauss(lg.lift(surface))),),
     np.complex128),
    ((checks.make_ellipsoid,),
     lambda surface: (gm.willmore_density(gm.conformal_gauss(lg.lift(surface))),), np.complex128),
    ((checks.make_ellipsoid,), _reconstructed_lines, np.complex128),
    ((checks.make_ellipsoid,), _gauss_map_fields, np.complex128),
    # a Euclidean surface takes only a real chart
    ((checks.make_ellipsoid,), _lift_fields, None),
    ((checks.make_quadric, checks.make_asymptotic_graph), _lift_fields, np.complex128),
    # the residual fields are norms, real on every chart
    (ALL_REAL, _validate_fields, np.float64),
    (ALL_REAL, _moved_lift_fields, np.complex128),
], ids=["conjugate_coefficients", "proj_density", "willmore_gradient_density",
        "willmore_density", "reconstruct", "gauss_map_fields", "lie_lift", "proj_lift",
        "validate", "apply_group"])
def test_dtype_follows_the_data(real_surfaces, compute, eps_i_dtype):
    # the dtype follows the data: a real chart's results are exactly real and
    # float64, an eps = i chart's are complex128
    cases = [(make(33), np.float64) for make in real_surfaces]
    if eps_i_dtype is not None:
        cases.append((_eps_i_chart(33), eps_i_dtype))
    for surface, dtype in cases:
        for out in compute(surface):
            assert out.dtype == dtype


def test_dS_equals_the_einsum_bit_for_bit():
    # on a real chart the stored bases and dS are float64, and dS equals the
    # real part of the einsum over the bases cast to complex128, whose
    # imaginary part is exactly 0; an eps = i chart stays complex128 and
    # agrees to roundoff
    lifted = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(17)))
    from_frame = lt.gauss_from_frame(lt.frame(lifted))
    # the deformed torus is frame-built (gauss_from_frame) and constant to roundoff
    deformed = lt.spectral_deform(gm.conformal_gauss(lg.lift(checks.make_torus(33))), 2.0)
    conv = _eps_i_chart(17)
    complex_chart = gm.conformal_gauss(lg.proj_lift(conv))
    assert complex_chart.eps == 1j
    cases = ((lifted, np.float64, 1e-3), (from_frame, np.float64, 1e-3),
             (deformed, np.float64, 0.0), (complex_chart, np.complex128, 1e-3))
    for gauss, dtype, moves in cases:
        assert gauss.basis_s.dtype == dtype
        for got, want in zip(gm.dS(gauss), einsum_dS(gauss)):
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.max(np.abs(got)) > moves
            if dtype == np.complex128:
                assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
                continue
            assert _same_bits(got, want)


def _same_bits(got, want):
    """got is float64 and equals want, signs of zero included; a complex want is exactly real."""
    want = np.asarray(want)
    if np.iscomplexobj(want):
        assert not np.any(want.imag)
        want = want.real
    return (got.dtype == np.float64 and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def test_span_and_basis_fields_are_stored_nodes_innermost(ellipsoid_gauss65):
    # memory order (row, component, u, v) behind the (nu, nv, 3, 6) shape,
    # for a lifted and a frame-built map
    from_frame = lt.gauss_from_frame(lt.frame(ellipsoid_gauss65))
    for gauss in (ellipsoid_gauss65, from_frame):
        for name in ("span_s", "span_p", "basis_s", "basis_p"):
            fld = getattr(gauss, name)
            assert fld.shape == (65, 65, 3, 6), name
            assert np.moveaxis(fld, (-2, -1), (0, 1)).flags.c_contiguous, name


def test_constant_gauss_map_derivatives(quadric_lift65):
    gauss = gm.conformal_gauss(quadric_lift65)
    su, sv = gauss.derivatives
    assert np.max(interior(np.linalg.norm(su, axis=(-2, -1)))) < 1e-10
    assert np.max(interior(np.linalg.norm(sv, axis=(-2, -1)))) < 1e-8
    tf = gm.tension(gauss)
    assert np.max(interior(tf.norm, 3)) < 1e-10


def test_grassmann_pair_symmetric_and_zero(ellipsoid_gauss65):
    sp = ellipsoid_gauss65.space
    su, sv = ellipsoid_gauss65.derivatives
    a = gm.grassmann_pair(sp, su, sv)
    b = gm.grassmann_pair(sp, sv, su)
    assert np.max(np.abs(a - b)) < 1e-9 * (1 + np.max(np.abs(a)))
    assert np.max(np.abs(gm.grassmann_pair(sp, np.zeros_like(su), su))) == 0.0


def test_conformality_convergence():
    res = []
    for n in (17, 33, 65):
        gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(n)))
        res.append(float(np.max(interior(gm.conformality_residual(gauss)))))
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert res[-1] < 1e-3
    assert np.all(orders > 1.8)


def test_willmore_density_equals_pq():
    devs = []
    for n in (33, 65):
        grid = lg.lift(checks.make_ellipsoid(n))
        cc = lg.conjugate_coefficients(grid)
        rho = gm.willmore_density(gm.conformal_gauss(grid))
        devs.append(float(np.max(interior(np.abs(rho - cc.p * cc.q)))))
    assert devs[-1] < 1e-3
    assert np.log2(devs[0] / devs[1]) > 1.8


def test_tension_codazzi_and_lemma():
    gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(65, checks.ELL_WINDOW_TENSION)))
    tf = gm.tension(gauss)
    m = gm.TENSION_MARGIN
    assert np.max(interior(tf.codazzi_diff, m)) < 1e-3
    norm = interior(tf.norm, m)
    assert np.min(norm) > 0.5  # bounded away from zero: not W-minimal
    ang = interior(gm.tension_image_angle(gauss, tf), m)
    assert np.max(ang[norm >= 0.3 * norm.max()]) < 1e-2
    ker = interior(gm.tension_kernel_residual(gauss, tf), m)
    assert np.max(ker) < 1e-2


def test_tension_lemma_containments_decay():
    vals = []
    for n in (17, 33, 65):
        gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(n, checks.ELL_WINDOW_TENSION)))
        tf = gm.tension(gauss)
        m = gm.TENSION_MARGIN
        norm = interior(tf.norm, m)
        ang = interior(gm.tension_image_angle(gauss, tf), m)
        ker = interior(gm.tension_kernel_residual(gauss, tf), m)
        mask = norm >= 0.3 * norm.max()
        vals.append((np.mean(ang[mask]), np.mean(ker)))
    v = np.array(vals)
    orders = np.log2(v[:-1] / v[1:])
    assert np.all(orders > 1.5)


def test_torus_tension_small(torus_gauss65):
    tf = gm.tension(torus_gauss65)
    assert np.max(interior(tf.norm, 3)) < 1e-6


def test_blaschke_residual_small_for_gauss_maps(ellipsoid_gauss65):
    r1, r2 = gm.blaschke_residual(ellipsoid_gauss65)
    su, sv = ellipsoid_gauss65.derivatives
    scale = max(
        np.max(interior(np.linalg.norm(su, axis=(-2, -1)))) ** 2,
        np.max(interior(np.linalg.norm(sv, axis=(-2, -1)))) ** 2,
    )
    assert np.max(interior(r1)) < 1e-3 * scale
    assert np.max(interior(r2)) < 1e-3 * scale


def _roll_fill_reference(fld, mask):
    """Fill flagged nodes by whole-field np.roll sweeps, one per direction."""
    out = np.array(fld)
    todo = np.array(mask)
    while todo.any():
        progress = False
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            shifted = np.roll(~todo, (di, dj), axis=(0, 1))
            if di == 1:
                shifted[0, :] = False
            if di == -1:
                shifted[-1, :] = False
            if dj == 1:
                shifted[:, 0] = False
            if dj == -1:
                shifted[:, -1] = False
            take = todo & shifted
            if take.any():
                src = np.roll(out, (di, dj), axis=(0, 1))
                out[take] = src[take]
                todo[take] = False
                progress = True
        if not progress:
            break
    return out


def test_fill_sources_match_roll_fill(rng):
    masks = [rng.random((int(rng.integers(5, 24)), int(rng.integers(5, 24)))) < density
             for density in (0.05, 0.3, 0.6, 0.9, 0.99) for _ in range(4)]
    masks.append(np.ones((6, 7), dtype=bool))  # nothing to fill from
    for mask in masks:
        fld = rng.standard_normal(mask.shape + (3, 6)) + 1j * rng.standard_normal(mask.shape + (3, 6))
        target, source = gm._fill_sources(mask)
        got = fld.copy()
        got[target] = got[source]
        assert np.array_equal(got, _roll_fill_reference(fld, mask))


def _smooth_random_splitting(seed=7, n=33):
    """A smooth splitting field that is NOT a conformal Gauss map."""
    rng = np.random.default_rng(seed)
    sp = pl.lie_space()
    ch = GridChart(n, n, 0.05, 0.05)
    # rotate a fixed orthonormal frame by smooth pairing-skew fields:
    # S = (v_1, v_2, v_-1) and S_perp = (v_3, v_0 - v_inf, v_0 + v_inf)
    e = np.eye(6, dtype=complex)
    rows = np.stack([e[2], e[3], e[0], e[4], e[1] - e[5], e[1] + e[5]])
    signs = np.array([1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    xs = np.linspace(0, 1, n)
    xi = rng.standard_normal((2, 6, 6))
    xi = xi - np.linalg.inv(sp.gram) @ xi.swapaxes(-1, -2) @ sp.gram
    field = (
        np.sin(2 * np.pi * xs)[:, None, None, None] * xi[0]
        + np.cos(2 * np.pi * xs)[None, :, None, None] * xi[1]
    ) * 0.4
    from quadgeo.matfun import expm

    rot = expm(field)
    span_s = np.einsum("...ab,kb->...ka", rot, rows[0:3])
    span_p = np.einsum("...ab,kb->...ka", rot, rows[3:6])
    gram_s = np.einsum("...ik,kl,...jl->...ij", span_s, sp.gram, span_s)
    b6 = span_s.swapaxes(-1, -2)
    proj = b6 @ np.linalg.inv(gram_s) @ b6.swapaxes(-1, -2) @ sp.gram
    return gm.GaussMapGrid(
        space=sp, chart=ch, span_s=span_s, span_p=span_p, build_proj=lambda: proj,
        degenerate=np.zeros((n, n), dtype=bool),
        basis_s=span_s, signs_s=np.broadcast_to(signs[0:3], (n, n, 3)).copy(),
        basis_p=span_p, signs_p=np.broadcast_to(signs[3:6], (n, n, 3)).copy(),
    )


def test_blaschke_residual_large_for_random_field():
    fake = _smooth_random_splitting()
    r1, r2 = gm.blaschke_residual(fake)
    su, sv = fake.derivatives
    scale = max(
        np.max(interior(np.linalg.norm(su, axis=(-2, -1)))) ** 2,
        np.max(interior(np.linalg.norm(sv, axis=(-2, -1)))) ** 2,
    )
    assert max(np.max(interior(r1)), np.max(interior(r2))) > 1e-2 * scale


def test_blaschke_residual_between_spectral_norm_and_sqrt3_times_it(ellipsoid_gauss65):
    # Frobenius norms of operators of rank <= 3
    for gauss in (ellipsoid_gauss65, _smooth_random_splitting()):
        su, sv = gauss.derivatives
        adj = gauss.space.adjoint
        for got, op in zip(gm.blaschke_residual(gauss), (adj(su) @ su, sv @ adj(sv))):
            spectral = np.linalg.norm(op, ord=2, axis=(-2, -1))
            assert np.all(got >= (1.0 - 1e-12) * spectral)
            assert np.all(got <= (1.0 + 1e-12) * np.sqrt(3.0) * spectral)


def _assert_matches_svd(op, direction, svals):
    # the top left singular vector up to phase, and the two largest
    # singular values, against LAPACK's SVD
    u, want, _ = np.linalg.svd(op)
    overlap = np.abs(np.einsum("...k,...k->...", direction, u[..., :, 0].conj()))
    np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-13)
    for got, ref in zip(svals, (want[..., 0], want[..., 1])):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)


def test_image_direction_float64_matches_complex_svd(ellipsoid_gauss65):
    # on a real chart the operators are float64, and a complex operator with
    # zero imaginary parts takes the same float64 steps; the complex128 SVD
    # of the operators agrees
    su, _ = ellipsoid_gauss65.derivatives
    assert su.dtype == np.float64
    direction, svals = gm.image_direction(su)
    assert direction.dtype == np.float64
    assert all(s.dtype == np.float64 for s in svals)
    from_complex = gm.image_direction(su.astype(complex))
    assert np.array_equal(direction, from_complex[0])
    assert all(np.array_equal(a, b) for a, b in zip(svals, from_complex[1]))
    _assert_matches_svd(su.astype(complex), direction, svals)


def test_image_direction_matches_the_svd(ellipsoid_gauss65):
    # S_u, S_v* and tau of a real chart, S_u of an eps = i chart (complex),
    # each near rank one: largest s2/s1 from 6.3e-5 (S_u) to 7.5e-2 (eps = i)
    gauss = ellipsoid_gauss65
    su, sv = gauss.derivatives
    conv = _eps_i_chart(33)
    complex_su, _ = gm.conformal_gauss(lg.proj_lift(conv)).derivatives
    assert complex_su.dtype == np.complex128 and np.any(complex_su.imag)
    ops = (su, gauss.space.adjoint(sv), gm.tension(gauss).tau, complex_su)
    for op in ops:
        direction, svals = gm.image_direction(op)
        assert direction.dtype == np.result_type(*pl.real_if_exact(op))
        np.testing.assert_allclose(np.linalg.norm(direction, axis=-1), 1.0, rtol=0, atol=1e-14)
        _assert_matches_svd(op, direction, svals)
    # a zero operator has no image: finite zeros, no NaN
    direction, (s1, s2) = gm.image_direction(np.zeros((3, 4, 6, 6)))
    assert not np.any(direction) and not np.any(s1) and not np.any(s2)


class _CountingLapack:
    """Stands in for numpy's LAPACK gufunc module and counts calls through it."""

    def __init__(self, module):
        self._module = module
        self.calls = []

    def __getattr__(self, name):
        gufunc = getattr(self._module, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return gufunc(*args, **kwargs)

        return counted


def test_lapack_budget_of_the_diagnostics(ellipsoid_lift65, ellipsoid_gauss65, monkeypatch):
    from numpy.linalg import _linalg

    gauss = ellipsoid_gauss65
    gauss.derivatives
    lapack = _CountingLapack(_linalg._umath_linalg)
    monkeypatch.setattr(_linalg, "_umath_linalg", lapack)
    # the counter sees the SVD behind pinv and behind norm(ord=2)
    np.linalg.pinv(ellipsoid_lift65.l[..., None])
    np.linalg.norm(gauss.proj, ord=2, axis=(-2, -1))
    assert lapack.calls == ["svd_s", "svd"]
    budget = [
        (lambda: gm.blaschke_residual(gauss), 0),
        (lambda: lg.validate(ellipsoid_lift65), 0),
        (lambda: lg.conjugate_coefficients(ellipsoid_lift65), 0),
        (lambda: gm.reconstruct(gauss), 0),
    ]
    for call, most in budget:
        lapack.calls.clear()
        call()
        assert len(lapack.calls) <= most, lapack.calls


def test_reconstruct_roundtrip():
    grid = lg.lift(checks.make_ellipsoid(129))
    rec = gm.reconstruct(gm.conformal_gauss(grid))
    assert np.max(interior(gm.line_angle(rec.l, grid.l))) < 1e-4
    assert np.max(interior(gm.line_angle(rec.s, grid.s))) < 1e-4
    rep = lg.validate(rec)
    # the recovered lines are null/contact only to the O(h^2) accuracy of dS
    assert rep["nullity_max"] < 1e-4
    assert rep["legendre_max"] < 1e-3


def test_reconstruct_composite_roundtrip():
    # graph -> asymptotic chart -> lift -> S -> reconstruct -> Legendre map
    graph = checks.make_asymptotic_graph(65)
    grid = lg.proj_lift(graph)
    rec = gm.reconstruct(gm.conformal_gauss(grid))
    assert np.max(interior(gm.line_angle(rec.l, grid.l))) < 1e-4
    assert np.max(interior(gm.line_angle(rec.s, grid.s))) < 1e-4


def test_reconstruct_constant_map_degenerate(quadric_lift65, torus_gauss65):
    with pytest.raises(DegenerateReconstructionError):
        gm.reconstruct(gm.conformal_gauss(quadric_lift65))
    with pytest.raises(DegenerateReconstructionError):
        gm.reconstruct(torus_gauss65)


def test_channel_surface_degeneracy():
    """A surface of revolution is a channel surface: its congruence is
    constant along the circular family, so S_v = 0, the density vanishes,
    and reconstruction degenerates even though S is not constant."""
    cat = sf.make_surface(sf.RevolutionSampler("catenoid"), (-0.6, 0.6, 0.2, 1.4),
                          65, 65)
    grid = lg.lie_lift(cat)
    cc = lg.conjugate_coefficients(grid)
    assert np.max(np.abs(interior(cc.q))) < 1e-12
    gauss = gm.conformal_gauss(grid)
    su, sv = gauss.derivatives
    assert np.max(interior(np.linalg.norm(sv, axis=(-2, -1)))) < 1e-8
    assert np.max(interior(np.linalg.norm(su, axis=(-2, -1)))) > 0.1
    assert np.max(np.abs(interior(gm.willmore_density(gauss)))) < 1e-9
    with pytest.raises(DegenerateReconstructionError):
        gm.reconstruct(gauss)


def test_equivariance_of_conformal_gauss(ellipsoid_lift65, ellipsoid_gauss65, rng):
    g = pl.random_pseudo_orthogonal(pl.lie_space(), rng, nsteps=6, amplitude=0.15)
    moved = gm.conformal_gauss(lg.apply_group(ellipsoid_lift65, g))
    want = g @ ellipsoid_gauss65.star @ np.linalg.inv(g)
    dev = np.max(np.abs(moved.star - want)) / np.max(np.abs(want))
    assert dev < 1e-9


def test_energy_and_residuals_build_no_projection(ellipsoid_lift65, monkeypatch):
    # the energy path reads the bases and dS only: on a fresh map none of
    # these runs a LAPACK call (the Gram inverse of P among them)
    from numpy.linalg import _linalg

    gauss = gm.conformal_gauss(ellipsoid_lift65)
    lapack = _CountingLapack(_linalg._umath_linalg)
    monkeypatch.setattr(_linalg, "_umath_linalg", lapack)
    fn.willmore_energy(gauss)
    gm.conformality_residual(gauss)
    gm.orthogonality_residual(gauss)
    assert lapack.calls == []
    assert "proj" not in vars(gauss)
    gauss.proj
    assert lapack.calls == ["inv"]


def test_reconstruct_builds_no_projection(ellipsoid_lift65, torus_lift65):
    # reconstruct reads dS and the bases only, whether it recovers the
    # focal lines or raises
    gauss = gm.conformal_gauss(ellipsoid_lift65)
    gm.reconstruct(gauss)
    assert "proj" not in vars(gauss)
    torus = gm.conformal_gauss(torus_lift65)
    with pytest.raises(DegenerateReconstructionError, match="partial derivative"):
        gm.reconstruct(torus)
    assert "proj" not in vars(torus)


def _eager_proj(gauss):
    # conformal_gauss's Gram-inverse formula with its degenerate-node fill,
    # in complex128, real where exactly real
    sp, span_s = gauss.space, gauss.span_s.astype(complex)
    gram_s = sp.pair(span_s[..., :, None, :], span_s[..., None, :, :])
    b6 = span_s.swapaxes(-1, -2)
    gram_inv = np.linalg.inv(np.where(gauss.degenerate[..., None, None], np.eye(3), gram_s))
    proj = _roll_fill_reference(b6 @ gram_inv @ b6.swapaxes(-1, -2) @ sp.gram, gauss.degenerate)
    return pl.real_if_exact(proj)[0]


@pytest.fixture(scope="module")
def descent_moved_lift():
    # one large descent step leaves nodes where the span's pairing
    # degenerates, so conformal_gauss fills them from valid neighbors
    surface = checks.make_ellipsoid(33, checks.ELL_WINDOW_TENSION)
    _, moved = fn.willmore_descent(surface, steps=1, step_size=1e-4)
    return lg.lie_lift(moved)


def _moved_by_the_group():
    g = pl.random_pseudo_orthogonal(pl.lie_space(), np.random.default_rng(11))
    return lg.apply_group(lg.lift(checks.make_ellipsoid(33)), g)


@pytest.mark.parametrize("make_lift", [
    lambda request: lg.lift(checks.make_ellipsoid(33)),
    lambda request: lg.lift(checks.make_ellipsoid(33, checks.ELL_WINDOW_TENSION)),
    lambda request: request.getfixturevalue("torus_lift65"),
    lambda request: request.getfixturevalue("descent_moved_lift"),
    lambda request: _moved_by_the_group(),
], ids=["ellipsoid33", "ellipsoid33-tension-window", "torus65", "descent-moved", "group-moved"])
def test_float64_gauss_map_equals_the_complex_path_bit_for_bit(make_lift, request, monkeypatch):
    # on a real chart the splitting, P, dS and tau are float64 and equal the
    # complex128 computation bit for bit, and so do the diagnostics read from
    # them; those that reduce over or multiply the nodes-innermost spans and
    # bases (the residuals, the tension diagnostics, the gradient density
    # and reconstruct), and dS, keep the signs of zero too (P and tau take
    # them from complex matmuls, which round zeros differently)
    grid = make_lift(request)
    new, old = gm.conformal_gauss(grid), complex_gauss_map(grid)
    vars(old)["derivatives"] = tuple(einsum_dS(old))
    if request.node.callspec.id == "descent-moved":
        assert new.degenerate.sum() > 10
    for name in ("span_s", "span_p", "basis_s", "basis_p", "signs_s", "signs_p", "proj"):
        got, want = getattr(new, name), getattr(old, name)
        assert got.dtype == np.float64 and np.array_equal(got, want), name
    assert np.array_equal(new.degenerate, old.degenerate)
    for got, want in zip(new.derivatives, old.derivatives):
        assert _same_bits(got, want)
    for residual in (gm.orthogonality_residual, gm.conformality_residual):
        assert _same_bits(residual(new), residual(old)), residual.__name__
    tf_new, tf_old = gm.tension(new), complex_tension(old)
    for name in ("tau", "norm", "codazzi_diff"):
        got, want = getattr(tf_new, name), getattr(tf_old, name)
        assert got.dtype == np.float64 and np.array_equal(got, want), name
    for diagnostic in (gm.tension_kernel_residual, gm.tension_image_angle):
        assert _same_bits(diagnostic(new, tf_new), diagnostic(old, tf_old)), diagnostic.__name__
    rec_new, rec_old = (_reconstruct_or_refusal(gauss) for gauss in (new, old))
    if request.node.callspec.id in ("torus65", "descent-moved"):
        # a constant map, and one whose <S_u, S_v> degenerates: both refuse
        assert isinstance(rec_new, str) and rec_new == rec_old
    else:
        assert _same_bits(rec_new.l, rec_old.l) and _same_bits(rec_new.s, rec_old.s)
        assert rec_new.meta["reconstruction_rank_gap"] == rec_old.meta["reconstruction_rank_gap"]
    got = fn.willmore_gradient_density(new)
    monkeypatch.setattr(gm, "_tau", lambda gauss: tf_old.tau)
    assert _same_bits(got, fn.willmore_gradient_density(old))


def _reconstruct_or_refusal(gauss):
    try:
        return gm.reconstruct(gauss)
    except DegenerateReconstructionError as err:
        return str(err)


@pytest.mark.parametrize("make_lift", [
    lambda request: lg.lift(checks.make_ellipsoid(33)),
    lambda request: request.getfixturevalue("descent_moved_lift"),
], ids=["ellipsoid33", "descent-moved"])
def test_willmore_gradient_density_reads_tau_alone(make_lift, request, monkeypatch):
    # the gradient density builds tau without tension's Codazzi cross-check,
    # and equals the density read from tension's tau bit for bit
    gauss = gm.conformal_gauss(make_lift(request))
    tau = gm.tension(gauss).tau
    assert np.array_equal(gm._tau(gauss), tau)

    def no_tension(gauss):
        raise AssertionError("the gradient density called tension")

    monkeypatch.setattr(gm, "tension", no_tension)
    got = fn.willmore_gradient_density(gauss)
    monkeypatch.setattr(gm, "_tau", lambda gauss: tau)
    assert got.dtype == np.float64 and np.array_equal(got, fn.willmore_gradient_density(gauss))


def test_proj_built_on_first_read_equals_the_eager_formulas(ellipsoid_lift65, descent_moved_lift):
    refit = gm.conformal_gauss(descent_moved_lift)
    assert refit.degenerate.sum() > 10
    with np.errstate(all="ignore"):
        basis_s, signs_s = gm._structured_orthobasis(refit.space, refit.span_s)
    assert np.array_equal(refit.basis_s, _roll_fill_reference(basis_s, refit.degenerate))
    assert np.array_equal(refit.signs_s, _roll_fill_reference(signs_s, refit.degenerate))

    def check(gauss, want):
        assert "proj" not in vars(gauss)
        gauss.derivatives  # a later read of P
        proj = gauss.proj
        assert gauss.proj is proj and not proj.flags.writeable
        assert proj.dtype == want.dtype and np.array_equal(proj, want)

    check(refit, _eager_proj(refit))
    ellipsoid = gm.conformal_gauss(ellipsoid_lift65)
    check(ellipsoid, _eager_proj(ellipsoid))
    fr = lt.frame(ellipsoid)
    f, pair = fr.frames, fr.pair
    check(lt.gauss_from_frame(fr),
          0.5 * (f @ pair.star_o @ pair.space.adjoint(f) / pair.eps + np.eye(6)))
    # a copy shares the built P
    assert dataclasses.replace(refit).proj is refit.proj
