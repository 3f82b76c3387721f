import dataclasses
import gc
import weakref

import numpy as np
import pytest

from quadgeo import checks, gauss_map as gm, legendre as lg, loop_tools as lt
from quadgeo.errors import NonHarmonicInputError, SignatureError
from quadgeo.grids import interior
from quadgeo.matfun import expm, reproject_orthogonal

from oracles import convex_graph_sampler, orthogonality_defect


@pytest.fixture(scope="module")
def ellipsoid_connection():
    gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(33)))
    fr = lt.frame(gauss)
    return gauss, fr.pair, fr, lt.maurer_cartan(fr)


def _random_skew(space, rng):
    xi = rng.standard_normal((6, 6))
    return xi - np.linalg.inv(space.gram) @ xi.T @ space.gram


def test_symmetric_pair_split_exactness(ellipsoid_connection, rng):
    gauss, pair, _, _ = ellipsoid_connection
    xi = _random_skew(gauss.space, rng)
    xk, xp = pair.split(xi)
    assert np.allclose(xk + xp, xi, atol=1e-12)
    assert np.allclose(pair.star_o @ xk, xk @ pair.star_o, atol=1e-10)
    assert np.allclose(pair.star_o @ xp, -xp @ pair.star_o, atol=1e-10)
    # commuting input -> (xi, 0); anticommuting -> (0, xi)
    k2, p2 = pair.split(xk)
    assert np.allclose(k2, xk, atol=1e-10) and np.max(np.abs(p2)) < 1e-10


def test_symmetric_pair_bracket_relations(ellipsoid_connection, rng):
    gauss, pair, _, _ = ellipsoid_connection
    a = _random_skew(gauss.space, rng)
    b = _random_skew(gauss.space, rng)
    ak, ap = pair.split(a)
    bk, bp = pair.split(b)

    def bracket(x, y):
        return x @ y - y @ x

    for lhs, target in (
        (bracket(ak, bk), "k"),
        (bracket(ak, bp), "p"),
        (bracket(ap, bp), "k"),
    ):
        k, p = pair.split(lhs)
        resid = p if target == "k" else k
        assert np.max(np.abs(resid)) < 1e-10 * (1 + np.max(np.abs(lhs)))


def test_frame_moves_base_to_s(ellipsoid_connection):
    gauss, pair, fr, _ = ellipsoid_connection
    err = np.linalg.norm(
        fr.frames @ pair.star_o @ np.linalg.inv(fr.frames) - gauss.star,
        axis=(-2, -1),
    )
    assert np.max(err) < 1e-9
    assert np.max(orthogonality_defect(fr.frames, gauss.space.gram)) < 1e-11
    jumps = max(
        float(np.max(np.linalg.norm(np.diff(fr.frames, axis=0), axis=(-2, -1)))),
        float(np.max(np.linalg.norm(np.diff(fr.frames, axis=1), axis=(-2, -1)))),
    )
    assert jumps < 0.5  # no gauge jumps


def _reference_gram_schmidt(rows, signs, gram):
    # one node at a time: the scalar algorithm the batched kernel must match
    out = np.empty_like(rows)
    for k in range(rows.shape[0]):
        v = rows[k]
        for m in range(k):
            v = v - (np.einsum("i,ij,j->", v, gram, out[m]) / signs[m]) * out[m]
        n = np.einsum("i,ij,j->", v, gram, v)
        if abs(n.imag) <= 1e-8 * abs(n):
            if n.real * signs[k] <= 0:
                raise SignatureError("sign pattern broke")
            v = v / np.sqrt(abs(n.real))
        else:
            v = v / np.sqrt(n)
        out[k] = v
    return out


def _reference_frames(gauss):
    g = gauss.space.gram
    nu, nv = gauss.chart.nu, gauss.chart.nv
    ic, jc = nu // 2, nv // 2
    # a real chart's splitting is exactly real, and frame() reads it as float64
    assert not np.any(gauss.proj.imag) and not np.any(gauss.basis_s.imag)
    assert not np.any(gauss.basis_p.imag)
    proj = gauss.proj.real
    signs = np.concatenate([gauss.signs_s[ic, jc], gauss.signs_p[ic, jc]]).real

    def node_basis(i, j, seed_rows):
        rows_s = seed_rows[0:3] @ proj[i, j].T
        rows_p = seed_rows[3:6] - seed_rows[3:6] @ proj[i, j].T
        return np.concatenate([_reference_gram_schmidt(rows_s, signs[0:3], g),
                               _reference_gram_schmidt(rows_p, signs[3:6], g)])

    base = node_basis(ic, jc, np.concatenate([gauss.basis_s[ic, jc], gauss.basis_p[ic, jc]]).real)
    bases = np.empty((nu, nv, 6, 6))
    bases[ic, jc] = node_basis(ic, jc, base)
    for i in list(range(ic + 1, nu)) + list(range(ic - 1, -1, -1)):
        bases[i, jc] = node_basis(i, jc, bases[i - 1 if i > ic else i + 1, jc])
    for j in list(range(jc + 1, nv)) + list(range(jc - 1, -1, -1)):
        for i in range(nu):
            bases[i, j] = node_basis(i, j, bases[i, j - 1 if j > jc else j + 1])
    frames = bases.swapaxes(-1, -2) @ np.linalg.inv(base.T)
    return base, reproject_orthogonal(frames, gauss.space)


def test_frame_matches_per_node_reference(ellipsoid_connection):
    gauss, pair, fr, _ = ellipsoid_connection
    base, frames = _reference_frames(gauss)
    assert np.array_equal(pair.basis_o, base)
    assert np.array_equal(fr.frames, frames)


def _reference_integrate(alpha, f0):
    # one node at a time, each side of the center in turn
    sp = alpha.space
    nu, nv = alpha.chart.nu, alpha.chart.nv
    ic, jc = nu // 2, nv // 2
    eu, ev = expm(alpha.edge_u()), expm(alpha.edge_v())
    frames = np.empty((nu, nv, 6, 6), dtype=np.result_type(f0, eu, ev))
    frames[ic, jc] = f0
    for i in list(range(ic + 1, nu)) + list(range(ic - 1, -1, -1)):
        step = eu[i - 1, jc] if i > ic else sp.adjoint(eu[i, jc])
        source = frames[i - 1 if i > ic else i + 1, jc]
        frames[i, jc] = reproject_orthogonal(source @ step, sp)
    for j in list(range(jc + 1, nv)) + list(range(jc - 1, -1, -1)):
        for i in range(nu):
            step = ev[i, j - 1] if j > jc else sp.adjoint(ev[i, j])
            source = frames[i, j - 1 if j > jc else j + 1]
            frames[i, j] = reproject_orthogonal(source @ step, sp)
    return frames


@pytest.mark.parametrize("n", [17, 16])
def test_two_sided_sweeps_match_one_node_references(n):
    # frame and integrate_frame step both directions at once; on an even
    # grid the last step of each sweep goes one way only
    gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(n)))
    fr = lt.frame(gauss)
    base, frames = _reference_frames(gauss)
    assert np.array_equal(fr.pair.basis_o, base)
    assert np.array_equal(fr.frames, frames)
    f0 = fr.frames[n // 2, n // 2]
    # lambda = 2 is not flat on the ellipsoid, so the path matters
    alpha = lt.spectral_connection(lt.maurer_cartan(fr), 2.0)
    integrated, _ = lt.integrate_frame(alpha, f0=f0)
    assert np.array_equal(integrated.frames, _reference_integrate(alpha, f0))


def test_frame_and_connection_computed_once_read_only_and_cycle_free(monkeypatch):
    gauss = gm.conformal_gauss(lg.lift(checks.make_torus(33)))
    pairs, edge_logs = [], []
    make_pair, logm = lt.make_pair, lt.logm
    monkeypatch.setattr(lt, "make_pair", lambda g: pairs.append(1) or make_pair(g))
    # u-edge logarithms have shape (nu - 1, nv); holonomies (nu - 1, nv - 1)
    monkeypatch.setattr(lt, "logm",
                        lambda a: (a.shape[:2] == (32, 33) and edge_logs.append(1)) or logm(a))
    fr = lt.frame(gauss)
    alpha = lt.maurer_cartan(fr)
    lt.spectral_deform(gauss, 2.0)
    lt.dualize(gauss)
    assert lt.frame(gauss) is fr and lt.maurer_cartan(fr) is alpha
    assert len(pairs) == 1 and len(edge_logs) == 1
    for arr in (fr.frames, alpha.k_u, alpha.k_v, alpha.p_u, alpha.p_v):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        fr.frames[0, 0, 0, 0] = 1.0
    # the cached results hold no reference back to their argument: without
    # the cyclic collector, dropping the last reference frees it at once
    refs = weakref.ref(gauss), weakref.ref(fr)
    gc.disable()
    try:
        del gauss
        assert refs[0]() is None
        del fr, alpha
        assert refs[1]() is None
    finally:
        gc.enable()


def test_real_chart_stays_float64(ellipsoid_connection):
    gauss, _, fr, alpha = ellipsoid_connection
    assert fr.frames.dtype == np.float64
    assert all(a.dtype == np.float64 for a in (alpha.k_u, alpha.k_v, alpha.p_u, alpha.p_v))
    assert lt.flatness_residual(lt.spectral_connection(alpha, 2.0)).dtype == np.float64
    rebuilt, _ = lt.integrate_frame(alpha)
    assert rebuilt.frames.dtype == np.float64
    # the ellipsoid is not harmonic, so spectral_deform refuses it: integrate
    # its lambda=2 connection and rebuild the map as spectral_deform does
    ic, jc = gauss.chart.nu // 2, gauss.chart.nv // 2
    frames, _ = lt.integrate_frame(lt.spectral_connection(alpha, 2.0), f0=fr.frames[ic, jc])
    deformed = lt.gauss_from_frame(frames)
    assert deformed.star.dtype == np.float64 and deformed.proj.dtype == np.float64


def test_complex_chart_keeps_complex_frames_and_deforms():
    from quadgeo import surfaces as sf

    conv = sf.make_surface(convex_graph_sampler(0.0), (-0.4, 0.4, -0.4, 0.4),
                           17, 17, reality="complex_conjugate")
    gauss = gm.conformal_gauss(lg.proj_lift(conv))
    assert gauss.signature_z == "(2,0)"
    fr = lt.frame(gauss)
    assert fr.frames.dtype == np.complex128
    assert np.max(orthogonality_defect(fr.frames, gauss.space.gram)) < 1e-11
    lam = np.exp(0.3j)
    deformed = lt.spectral_deform(gauss, lam)
    assert deformed.star.dtype == np.complex128
    assert deformed.meta["lambda"] == lam
    assert deformed.meta["integration_consistency"] < 1e-8


def test_frame_sweeps_columns_in_batches(ellipsoid_connection, monkeypatch):
    # a copy of the fixture's map, whose frame field is not computed yet
    gauss = dataclasses.replace(ellipsoid_connection[0])
    calls = []
    batched = lt._gram_schmidt_rows
    monkeypatch.setattr(lt, "_gram_schmidt_rows",
                        lambda *args: calls.append(1) or batched(*args))
    lt.frame(gauss)
    # one call each for the pair and the center, then one per two-sided step
    assert len(calls) == 2 + gauss.chart.nu // 2 + gauss.chart.nv // 2


def test_gram_schmidt_batch_raises_on_one_broken_node(ellipsoid_connection):
    gauss, pair, _, _ = ellipsoid_connection
    sp = gauss.space
    signs = pair.signs_o[0:3]
    rows = np.broadcast_to(pair.basis_o[0:3], (40, 3, 6)).copy()
    assert np.allclose(lt._gram_schmidt_rows(rows, signs, sp), rows, atol=1e-12)
    # node 17's first row gets a pairing norm of the opposite sign
    flip = np.nonzero(pair.signs_o[3:6] != signs[0])[0][0]
    rows[17, 0] = pair.basis_o[3 + flip]
    with pytest.raises(SignatureError):
        lt._gram_schmidt_rows(rows, signs, sp)


def test_gauss_from_frame_bases_are_its_spans(ellipsoid_connection):
    _, _, fr, alpha = ellipsoid_connection
    dual_frames, _ = lt.integrate_frame(lt.dual_connection(alpha)[0])
    for framegrid in (fr, dual_frames):
        g = lt.gauss_from_frame(framegrid)
        signs = framegrid.pair.signs_o
        assert g.basis_s is g.span_s and g.basis_p is g.span_p
        assert np.array_equal(g.signs_s, np.broadcast_to(signs[0:3], g.signs_s.shape))
        assert np.array_equal(g.signs_p, np.broadcast_to(signs[3:6], g.signs_p.shape))
        for basis, sg in ((g.basis_s, signs[0:3]), (g.basis_p, signs[3:6])):
            gram = g.space.pair(basis[..., :, None, :], basis[..., None, :, :])
            assert np.max(np.abs(gram - np.diag(sg))) < 1e-10


def test_frame_constant_map_identity(torus_gauss65):
    fr = lt.frame(torus_gauss65)
    assert np.max(np.abs(fr.frames - np.eye(6))) < 1e-9


def test_maurer_cartan_structure_identity(ellipsoid_connection):
    gauss, _, fr, alpha = ellipsoid_connection
    ru, rv = lt.structure_identity_residual(gauss, fr, alpha)
    assert np.max(interior(ru, 2)) < 1e-3
    assert np.max(interior(rv, 2)) < 1e-3
    # second order: both fall by at least 3x from 33^2 to 65^2 (3.8x, 3.5x)
    fine = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(65)))
    fine_fr = lt.frame(fine)
    fine_ru, fine_rv = lt.structure_identity_residual(fine, fine_fr, lt.maurer_cartan(fine_fr))
    assert np.max(interior(ru, 2)) >= 3 * np.max(interior(fine_ru, 2))
    assert np.max(interior(rv, 2)) >= 3 * np.max(interior(fine_rv, 2))


def test_maurer_cartan_identity_frame(ellipsoid_connection):
    gauss, pair, _, _ = ellipsoid_connection
    const = lt.FrameGrid(
        chart=gauss.chart,
        frames=np.broadcast_to(np.eye(6, dtype=complex), gauss.star.shape).copy(),
        pair=pair,
    )
    alpha = lt.maurer_cartan(const)
    assert np.max(np.abs(alpha.edge_u())) < 1e-14
    assert np.max(np.abs(alpha.edge_v())) < 1e-14


def test_spectral_connection_identities(ellipsoid_connection):
    _, _, _, alpha = ellipsoid_connection
    same = lt.spectral_connection(alpha, 1.0)
    assert np.allclose(same.edge_u(), alpha.edge_u())
    flipped = lt.spectral_connection(alpha, -1.0)
    assert np.allclose(flipped.k_u - flipped.p_u, alpha.k_u + alpha.p_u)
    # group-like family: the p-parts scale multiplicatively (exact algebra)
    lam, mu = 1.7, -2.3
    once = lt.spectral_connection(alpha, lam * mu)
    twice = lt.spectral_connection(lt.spectral_connection(alpha, lam), mu)
    assert np.allclose(once.p_u, twice.p_u, atol=1e-14)
    assert np.allclose(once.p_v, twice.p_v, atol=1e-14)
    with pytest.raises(ValueError):
        lt.spectral_connection(alpha, 0.0)


def test_flatness_zero_connection(ellipsoid_connection):
    gauss, pair, _, alpha = ellipsoid_connection
    zero = lt.ConnectionGrid(
        chart=alpha.chart, pair=pair,
        k_u=np.zeros_like(alpha.k_u), k_v=np.zeros_like(alpha.k_v),
        p_u=np.zeros_like(alpha.p_u), p_v=np.zeros_like(alpha.p_v),
    )
    assert np.max(lt.flatness_residual(zero)) < 1e-14


def test_flatness_lambda1_exact(ellipsoid_connection):
    _, _, _, alpha = ellipsoid_connection
    # the telescoping discrete holonomy is exactly flat at lambda = 1
    assert np.max(lt.flatness_residual(lt.spectral_connection(alpha, 1.0))) < 1e-8


def test_flatness_discriminates(ellipsoid_connection):
    _, _, _, alpha = ellipsoid_connection
    test, base = lt.harmonicity_ratio(alpha)
    assert test > 1e3 * max(base, 1e-300)
    tor = gm.conformal_gauss(lg.lift(checks.make_torus(33)))
    alpha_t = lt.maurer_cartan(lt.frame(tor))
    test_t, _ = lt.harmonicity_ratio(alpha_t)
    assert test_t < 1e-6


def test_near_identity_logs_skip_solve_and_verification(ellipsoid_connection, monkeypatch):
    # every edge transition and holonomy is within the Mercator radius, so
    # no linear solve, square root, exponential or scipy logarithm is taken
    from quadgeo import matfun
    import scipy.linalg

    torus = lt.frame(gm.conformal_gauss(lg.lift(checks.make_torus(33))))
    calls = []
    for owner, name in ((np.linalg, "solve"), (matfun, "_sqrtm"), (matfun, "expm"),
                        (scipy.linalg, "logm")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
    # a copy of the fixture's frame field, whose connection is not taken yet
    for fr in (dataclasses.replace(ellipsoid_connection[2]), torus):
        alpha = lt.maurer_cartan(fr)
        for lam in (1.0, 2.0):
            assert np.all(np.isfinite(lt.flatness_residual(lt.spectral_connection(alpha, lam))))
    assert calls == []


def test_integrate_frame_roundtrip(ellipsoid_connection):
    gauss, _, fr, alpha = ellipsoid_connection
    ic, jc = gauss.chart.nu // 2, gauss.chart.nv // 2
    rebuilt, consistency = lt.integrate_frame(
        lt.spectral_connection(alpha, 1.0), f0=fr.frames[ic, jc]
    )
    dev = np.max(np.linalg.norm(rebuilt.frames - fr.frames, axis=(-2, -1)))
    assert dev < 1e-10
    assert consistency < 1e-10
    zero = lt.ConnectionGrid(
        chart=alpha.chart, pair=alpha.pair,
        k_u=np.zeros_like(alpha.k_u), k_v=np.zeros_like(alpha.k_v),
        p_u=np.zeros_like(alpha.p_u), p_v=np.zeros_like(alpha.p_v),
    )
    const, cons0 = lt.integrate_frame(zero)
    assert np.max(np.abs(const.frames - np.eye(6))) < 1e-12
    assert cons0 < 1e-12


def test_integrate_nonflat_reports_mismatch(ellipsoid_connection):
    _, _, _, alpha = ellipsoid_connection
    _, consistency = lt.integrate_frame(lt.spectral_connection(alpha, 2.0))
    assert consistency > 1e-6  # path dependence is data, not an error


@pytest.fixture(scope="module", params=[(0.05, 33), (0.05, 65), (0.1, 65)],
                ids=lambda p: f"cx={p[0]}-{p[1]}")
def curved_20_connection(request):
    from quadgeo import surfaces as sf

    cx, n = request.param
    conv = sf.make_surface(convex_graph_sampler(cx), (-0.4, 0.4, -0.4, 0.4),
                           n, n, reality="complex_conjugate")
    gauss = gm.conformal_gauss(lg.proj_lift(conv))
    fr = lt.frame(gauss)
    return gauss, fr, lt.maurer_cartan(fr)


def test_frame_on_curved_20_chart(curved_20_connection):
    gauss, fr, alpha = curved_20_connection
    assert gauss.signature_z == "(2,0)"
    assert np.max(orthogonality_defect(fr.frames, gauss.space.gram)) <= 1e-11
    assert np.max(lt.flatness_residual(lt.spectral_connection(alpha, 1.0))) <= 1e-10


def test_spectral_deform_rejects_curved_20_chart(curved_20_connection):
    # the conjugate chart of z = x^2 + y^2 + cx x^4 is not asymptotic (its
    # focal residual does not fall under refinement), so its lambda = 2
    # flatness is O(1) and grows with the grid
    gauss = curved_20_connection[0]
    with pytest.raises(NonHarmonicInputError):
        lt.spectral_deform(gauss, np.exp(0.3j))


def test_spectral_deform_torus(torus_gauss65):
    before = gm.blaschke_residual(torus_gauss65)
    b0 = max(np.max(interior(before[0])), np.max(interior(before[1])))
    deformed = lt.spectral_deform(torus_gauss65, 2.0)
    after = gm.blaschke_residual(deformed)
    b1 = max(np.max(interior(after[0])), np.max(interior(after[1])))
    assert b1 <= 2.0 * b0 + 1e-3
    assert deformed.meta["integration_consistency"] < 1e-8
    # lambda = 1 reproduces the input splitting
    same = lt.spectral_deform(torus_gauss65, 1.0)
    assert np.max(np.abs(same.star - torus_gauss65.star)) < 1e-8


def test_spectral_deform_rejects_nonharmonic():
    gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(33)))
    with pytest.raises(NonHarmonicInputError):
        lt.spectral_deform(gauss, 2.0)


def test_spectral_deform_checks_lambda(torus_gauss65):
    with pytest.raises(ValueError):
        lt.spectral_deform(torus_gauss65, 1.0 + 0.5j)  # not real on (1,1)


def test_spectral_deform_checks_lambda_on_a_20_chart():
    from quadgeo import surfaces as sf

    conv = sf.make_surface(convex_graph_sampler(0.0), (-0.4, 0.4, -0.4, 0.4),
                           17, 17, reality="complex_conjugate")
    gauss = gm.conformal_gauss(lg.proj_lift(conv))
    assert gauss.signature_z == "(2,0)"
    with pytest.raises(ValueError, match="unimodular"):
        lt.spectral_deform(gauss, 2.0)  # not on the unit circle


def test_blaschke_condition_residual_torus(torus_gauss65):
    alpha = lt.maurer_cartan(lt.frame(torus_gauss65))
    res = lt.blaschke_condition_residual(lt.spectral_connection(alpha, 2.0))
    assert np.max(res) < 1.0  # normalized; zero connection gives 0/floor


def test_dualize_torus_roundtrip(torus_gauss65):
    d1 = lt.dualize(torus_gauss65)
    assert (d1.space.m, d1.space.n) == (3, 3)
    assert d1.meta["imaginary_defect"] < 1e-10
    d2 = lt.dualize(d1)
    assert (d2.space.m, d2.space.n) == (4, 2)
    t = d1.meta["basis_map"] @ d2.meta["basis_map"]
    star_rt = t @ d2.star @ np.linalg.inv(t)
    assert np.max(np.linalg.norm(star_rt - torus_gauss65.star, axis=(-2, -1))) < 1e-3


def test_dualize_projective_quadric_roundtrip():
    # S_o has signs (-,-,+), so the restricted dual Gram is (2,4); its
    # negative, with the same skew algebra, is the (4,2) dual
    gauss = gm.conformal_gauss(lg.proj_lift(checks.make_quadric(33)))
    assert list(gauss.signs_s[16, 16]) == [-1.0, -1.0, 1.0]
    d1 = lt.dualize(gauss)
    assert (d1.space.m, d1.space.n) == (4, 2)
    assert d1.meta["imaginary_defect"] < 1e-10
    d2 = lt.dualize(d1)
    assert (d2.space.m, d2.space.n) == (3, 3)
    t = d1.meta["basis_map"] @ d2.meta["basis_map"]
    star_rt = t @ d2.star @ np.linalg.inv(t)
    assert np.max(np.linalg.norm(star_rt - gauss.star, axis=(-2, -1))) < 1e-12


def test_dualize_constant_gives_constant(torus_gauss65):
    dual = lt.dualize(torus_gauss65)
    assert np.max(np.abs(dual.star - dual.star[32, 32])) < 1e-10


def test_dualize_nontrivial_connection_is_real():
    gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(33)))
    dual, defect = lt.dual_connection(lt.maurer_cartan(lt.frame(gauss)))
    assert defect < 1e-10
    assert np.max(np.abs(dual.edge_u())) > 1e-4  # the connection is genuinely nonzero


def test_dualize_is_float64_with_the_complex_defect(ellipsoid_connection):
    gauss, _, _, alpha = ellipsoid_connection
    dual = lt.dualize(gauss)
    assert all(a.dtype == np.float64 for a in (dual.proj, dual.basis_s, dual.basis_p, dual.star))
    alpha_d, defect = lt.dual_connection(alpha)
    assert all(a.dtype == np.float64 for a in (alpha_d.k_u, alpha_d.k_v, alpha_d.p_u, alpha_d.p_v))
    # the defect is measured on the complex edges, before their real parts are kept
    c, lam = alpha_d.meta["basis_map"], alpha_d.meta["dual_branch"]
    cinv = np.linalg.inv(c)
    a_u, a_v = alpha.k_u + lam * alpha.p_u, alpha.k_v + alpha.p_v / lam
    b_u, b_v = lt._change_basis(cinv, a_u, c), lt._change_basis(cinv, a_v, c)
    # the two GEMMs over stacked rows agree with numpy's stacked products
    for b, a in ((b_u, a_u), (b_v, a_v)):
        stacked = cinv @ a @ c
        assert np.max(np.abs(b - stacked)) <= 1e-14 * np.max(np.abs(stacked))
    im = max(np.max(np.abs(b_u.imag)), np.max(np.abs(b_v.imag)))
    scale = max(np.max(np.abs(b_u)), np.max(np.abs(b_v)))
    assert defect == dual.meta["imaginary_defect"] == im / scale
    assert 0.0 < defect < 1e-10
    assert np.allclose(alpha_d.edge_u(), b_u.real, rtol=0, atol=1e-15)
    assert np.allclose(alpha_d.edge_v(), b_v.real, rtol=0, atol=1e-15)


def test_dualize_rejects_complex_charts():
    from quadgeo import surfaces as sf

    conv = sf.make_surface(convex_graph_sampler(0.0), (-0.4, 0.4, -0.4, 0.4),
                           17, 17, reality="complex_conjugate")
    gauss = gm.conformal_gauss(lg.proj_lift(conv))
    with pytest.raises(SignatureError):
        lt.dualize(gauss)
