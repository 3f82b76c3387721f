import dataclasses

import numpy as np
import pytest

from quadgeo import checks, functionals as fn, legendre as lg, pseudo_linalg as pl
from quadgeo import surfaces as sf
from quadgeo.errors import (
    GroupElementError,
    IllConditionedFrameError,
    NotAsymptoticChartError,
    NotImmersedError,
    UmbilicError,
)
from quadgeo.grids import GridChart, d_u, d_v, interior

from oracles import (complex_apply_group, complex_conjugate_coefficients, complex_lie_lift,
                     complex_proj_density, complex_proj_lift, complex_validate,
                     convex_graph_sampler, ruled_graph_sampler)


def test_lie_lift_point_example():
    # f = 0, n = e_z: phi = v_0, nu = v_-1 + v_3
    ch = GridChart(5, 5, 0.1, 0.1)
    pts = np.zeros((5, 5, 3))
    nrm = np.zeros((5, 5, 3))
    nrm[..., 2] = 1.0
    surf = sf.SurfaceGrid("euclidean3", pts, ch, normal=nrm,
                          kappa1=np.zeros((5, 5)), kappa2=np.ones((5, 5)))
    grid = lg.lie_lift(surf)
    # l = nu + kappa1 phi and s = nu + kappa2 phi give back phi and nu
    phi = ((grid.s - grid.l)[2, 2] / (surf.kappa2 - surf.kappa1)[2, 2]).real
    nu = grid.l[2, 2].real - surf.kappa1[2, 2] * phi
    assert np.allclose(phi, [0, 1, 0, 0, 0, 0])
    assert np.allclose(nu, [1, 0, 0, 0, 1, 0])
    sp = grid.space
    assert abs(sp.pair(phi, phi)) < 1e-14
    assert abs(sp.pair(phi, nu)) < 1e-14


def test_lie_lift_umbilic_error():
    sph = sf.make_surface(sf.SphereSampler(1.0), (0.4, 1.2, 0.1, 1.2), 17, 17)
    with pytest.raises(UmbilicError):
        lg.lie_lift(sph)


def test_torus_lift_invariants(torus_lift65):
    rep = lg.validate(torus_lift65)
    assert rep["nullity_max"] < 1e-12
    assert rep["legendre_max"] < 1e-12
    assert rep["focal_max"] < 1e-12


def test_torus_lift_dupin_derivative(torus_lift65):
    # du(kappa1) = 0: the whole l_u field vanishes like the focal identity says
    lu = d_u(torus_lift65.l, torus_lift65.chart)
    scale = np.max(np.linalg.norm(torus_lift65.l, axis=-1))
    assert np.max(interior(np.linalg.norm(lu, axis=-1))) < 1e-10 * scale


def test_ellipsoid_lift_focal_identity(ellipsoid65, ellipsoid_lift65):
    # l_u = du(kappa1) * phi within O(h^2)
    grid = ellipsoid_lift65
    lu = d_u(grid.l, grid.chart)
    dk1 = d_u(ellipsoid65.kappa1, grid.chart)
    phi = (grid.s - grid.l) / (ellipsoid65.kappa2 - ellipsoid65.kappa1)[..., None]
    resid = np.linalg.norm(lu - dk1[..., None] * phi, axis=-1)
    scale = np.max(interior(np.linalg.norm(lu, axis=-1)))
    assert np.max(interior(resid)) < 2e-4 * scale / 1e-2  # O(h^2) at 65^2


def test_lift_residuals_decay_second_order():
    res = []
    for n in (17, 33, 65):
        rep = lg.validate(lg.lie_lift(checks.make_ellipsoid(n)))
        res.append(max(rep["legendre_max"], rep["focal_max"]))
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.all(orders > 1.7)


def test_proj_lift_quadric(quadric_lift65):
    rep = lg.validate(quadric_lift65)
    assert rep["nullity_max"] < 1e-12
    assert rep["legendre_max"] < 1e-12
    cc = lg.conjugate_coefficients(quadric_lift65)
    assert np.max(np.abs(interior(cc.p))) < 1e-12
    assert np.max(np.abs(interior(cc.q))) < 1e-12


def test_proj_lift_rejects_non_asymptotic():
    # z = x^2 + y^2 in the flat real chart is nowhere asymptotic
    samp = convex_graph_sampler(0.0)
    surf = sf.make_surface(samp, (-0.5, 0.5, -0.5, 0.5), 33, 33)
    with pytest.raises(NotAsymptoticChartError):
        lg.proj_lift(surf)
    with pytest.raises(NotAsymptoticChartError):
        fn.proj_density(surf)


@pytest.mark.parametrize("reality", ["real", "complex_conjugate"])
def test_proj_lift_rejects_a_point_field_of_one_variable(reality):
    # f depends on the first index only, so f_v = 0 on a real chart and
    # f_u = f_v on a complex-conjugate one: (f, f_u, f_v) has rank 2; the
    # density refuses it too, before any division (no NaN, no warning).
    # 1e-12 v added to the last coordinate leaves it rank 2 to roundoff:
    # the lift and the density share one chart test and both refuse it so
    ch = GridChart(17, 17, 0.05, 0.05, reality=reality)
    x = np.arange(17) * 0.05
    curve = np.stack([np.ones_like(x), x, x * x, x ** 3], axis=-1)
    points = np.broadcast_to(curve[:, None, :], (17, 17, 4)).copy()
    near = points.copy()
    near[..., 3] += 1e-12 * x[None, :]
    for field in (points, near):
        surface = sf.SurfaceGrid(sf.PROJECTIVE3, field, ch)
        with pytest.raises(NotImmersedError):
            lg.proj_lift(surface)
        with np.errstate(all="raise"), pytest.raises(NotImmersedError):
            fn.proj_density(surface)


def test_validate_of_a_projective_lift_computes_the_focal_residual_once(monkeypatch):
    # the lift refuses a chart by its own test and leaves the focal residual to validate
    calls = []
    focal = lg._focal
    monkeypatch.setattr(lg, "_focal", lambda grid: calls.append(grid) or focal(grid))
    lg.validate(lg.proj_lift(checks.make_quadric(33)))
    assert len(calls) == 1


def test_proj_lift_rescale_invariance():
    graph = checks.make_asymptotic_graph(65)
    x = np.linspace(0.0, 1.0, graph.chart.nu)
    h = 0.1 * np.outer(np.sin(2 * x), np.cos(x))
    scaled = dataclasses.replace(graph, points=graph.points * np.exp(h)[..., None])
    cc0 = lg.conjugate_coefficients(lg.proj_lift(graph))
    cc1 = lg.conjugate_coefficients(lg.proj_lift(scaled))
    pq0 = interior((cc0.p * cc0.q).real)
    pq1 = interior((cc1.p * cc1.q).real)
    assert np.max(np.abs(pq1 - pq0)) < 2e-3 * max(1.0, np.max(np.abs(pq0)))


def test_ruled_graph_q_vanishes():
    surf = sf.make_surface(ruled_graph_sampler(0.1), (-0.5, 0.5, -0.5, 0.5), 33, 33)
    cc = lg.conjugate_coefficients(lg.proj_lift(surf))
    assert np.max(np.abs(interior(cc.q))) < 1e-10
    # central stencils are not exact on the cubic lift: p = -0.3 + O(h^2)
    assert np.allclose(interior(cc.p), -0.3, atol=1e-4)


def _pinv_focal_reference(grid):
    """validate's focal field by the pseudo-inverse of the 6x2 (l, s) basis."""
    l, s, ch = grid.l, grid.s, grid.chart
    lu, lv, su, sv = d_u(l, ch), d_v(l, ch), d_u(s, ch), d_v(s, ch)
    basis = np.stack([l, s], axis=-1)
    basis_pinv = np.linalg.pinv(basis)

    def off_span(w):
        return np.linalg.norm(w - (basis @ (basis_pinv @ w[..., None]))[..., 0], axis=-1)

    scale_d = max(np.max(interior(np.linalg.norm(w, axis=-1))) for w in (lu, sv, lv, su))
    return np.maximum(off_span(lu), off_span(sv)) / scale_d


def _pinv_conjugate_reference(grid):
    """(p, q) as the (l, s) pseudo-inverse's coordinates of l_u and s_v."""
    basis_pinv = np.linalg.pinv(np.stack([grid.l, grid.s], axis=-1))
    xu = (basis_pinv @ d_u(grid.l, grid.chart)[..., None])[..., 0]
    xv = (basis_pinv @ d_v(grid.s, grid.chart)[..., None])[..., 0]
    return xu[..., 1], xv[..., 0]


def _convex_chart(n):
    return sf.make_surface(convex_graph_sampler(0.05), (-0.4, 0.4, -0.4, 0.4),
                           n, n, reality="complex_conjugate")


def _convex_chart_lift(n):
    return lg.proj_lift(_convex_chart(n))


@pytest.fixture(scope="module", params=["ellipsoid", "quadric", "convex-eps-i"])
def oracle_lift(request):
    make = {
        "ellipsoid": lambda: lg.lie_lift(checks.make_ellipsoid(33)),
        "quadric": lambda: lg.proj_lift(checks.make_quadric(33)),
        "convex-eps-i": lambda: _convex_chart_lift(33),
    }
    return make[request.param]()


def test_validate_matches_pinv_reference(oracle_lift):
    np.testing.assert_allclose(lg.validate(oracle_lift)["focal"],
                               _pinv_focal_reference(oracle_lift), rtol=1e-10, atol=0)


def test_conjugate_coefficients_match_pinv_reference(oracle_lift):
    cc = lg.conjugate_coefficients(oracle_lift)
    p, q = _pinv_conjugate_reference(oracle_lift)
    if oracle_lift.chart.reality == "real":
        p, q = p.real, q.real
    np.testing.assert_allclose(cc.p, p, rtol=1e-10, atol=0)
    np.testing.assert_allclose(cc.q, q, rtol=1e-10, atol=0)


def test_validate_projects_a_dependent_node_onto_l_alone():
    # s = 2 l at one node: span{l, s} is the line of l there, as the
    # pseudo-inverse's rank cut reads it; conjugate coefficients are refused
    grid = lg.lie_lift(checks.make_ellipsoid(33))
    s = grid.s.copy()
    s[16, 16] = 2.0 * grid.l[16, 16]
    bent = dataclasses.replace(grid, s=s)
    focal = lg.validate(bent)["focal"]
    want = _pinv_focal_reference(bent)
    np.testing.assert_allclose(focal, want, rtol=1e-10, atol=0)
    assert want[16, 16] > 10 * np.max(lg.validate(grid)["focal"])  # the node stands out
    with pytest.raises(IllConditionedFrameError):
        lg.conjugate_coefficients(bent)


def test_conjugate_coefficients_condition_cut(torus_lift65):
    # bend s towards l at one node until cond(l, s), measured by an SVD,
    # sits just above or just below the 1e8 cut
    l, s = torus_lift65.l[20, 30], torus_lift65.s[20, 30]
    t = s - l * (np.vdot(l, s) / np.vdot(l, l))
    t = t / np.linalg.norm(t)
    for cond_target, refused in ((1.2e8, True), (0.8e8, False)):
        bent_s = torus_lift65.s.copy()
        bent_s[20, 30] = l + (2.0 * np.linalg.norm(l) / cond_target) * t
        svals = np.linalg.svd(np.stack([l, bent_s[20, 30]], axis=-1), compute_uv=False)
        assert (svals[0] / svals[1] > 1e8) == refused
        bent = dataclasses.replace(torus_lift65, s=bent_s)
        if refused:
            with pytest.raises(IllConditionedFrameError):
                lg.conjugate_coefficients(bent)
        else:
            lg.conjugate_coefficients(bent)


def test_conjugate_coefficients_torus(torus_lift65):
    cc = lg.conjugate_coefficients(torus_lift65)
    assert np.max(np.abs(interior(cc.p))) < 1e-12
    assert np.max(np.abs(interior(cc.q))) < 1e-12


def test_conjugate_coefficients_ellipsoid_identity(ellipsoid65, ellipsoid_lift65):
    # p q = -du(k1) dv(k2) / (k1 - k2)^2 within O(h^2)
    cc = lg.conjugate_coefficients(ellipsoid_lift65)
    ch = ellipsoid65.chart
    dk1 = d_u(ellipsoid65.kappa1, ch)
    dk2 = d_v(ellipsoid65.kappa2, ch)
    target = -dk1 * dk2 / (ellipsoid65.kappa1 - ellipsoid65.kappa2) ** 2
    dev = np.abs(interior((cc.p * cc.q).real - target))
    assert np.max(dev) < 1e-3


def test_apply_group_checks_pairing(torus_lift65):
    with pytest.raises(GroupElementError):
        lg.apply_group(torus_lift65, np.eye(6) * 2.0)
    moved = lg.apply_group(torus_lift65, np.eye(6))
    assert np.array_equal(moved.l, torus_lift65.l)


def test_apply_group_preserves_invariants(ellipsoid_lift65, rng):
    g = pl.random_pseudo_orthogonal(pl.lie_space(), rng, nsteps=6, amplitude=0.2)
    moved = lg.apply_group(ellipsoid_lift65, g)
    rep = lg.validate(moved)
    assert rep["nullity_max"] < 1e-10
    assert rep["legendre_max"] < 1e-3


@pytest.mark.parametrize("make_surface", [
    lambda: checks.make_ellipsoid(33),
    lambda: checks.make_ellipsoid(33, checks.ELL_WINDOW_TENSION),
    lambda: checks.make_torus(33),
    lambda: checks.make_quadric(33),
    lambda: checks.make_asymptotic_graph(33),
    lambda: checks.make_asymptotic_graph(65),
], ids=["ellipsoid33", "ellipsoid33-tension-window", "torus33", "quadric33", "asymptotic33",
        "asymptotic65"])
def test_float64_lift_equals_the_complex_path_bit_for_bit(make_surface):
    # on a real chart the lift, its residual fields, the conjugate
    # coefficients, the projective density and a group-moved lift are float64
    # and equal the complex128 computation with complex stencils and
    # divisions bit for bit
    surface = make_surface()
    projective = surface.geometry == sf.PROJECTIVE3
    grid = lg.lift(surface)
    old = complex_proj_lift(surface) if projective else complex_lie_lift(surface)

    def same(got, want):
        return got.dtype == np.float64 and np.array_equal(got, want)

    assert same(grid.l, old.l) and same(grid.s, old.s)
    rep, want = lg.validate(grid), complex_validate(old)
    for name in ("nullity", "legendre", "focal"):
        assert same(rep[name], want[name]), name
    cc, want = lg.conjugate_coefficients(grid), complex_conjugate_coefficients(old)
    assert same(cc.p, want.p) and same(cc.q, want.q)
    if projective:
        assert same(fn.proj_density(surface), complex_proj_density(surface))
    g = pl.random_pseudo_orthogonal(grid.space, np.random.default_rng(5))
    moved, want = lg.apply_group(grid, g), complex_apply_group(old, g)
    assert same(moved.l, want.l) and same(moved.s, want.s)


def test_eps_i_lift_equals_the_complex_path_bit_for_bit():
    # on a complex-conjugate chart the Wirtinger stencils multiply by the
    # reciprocals too, so differencing the float64 points equals differencing
    # their complex cast, and the complex lift keeps its bits
    conv = _convex_chart(33)
    grid, old = lg.proj_lift(conv), complex_proj_lift(conv)
    assert grid.l.dtype == np.complex128
    assert np.array_equal(grid.l, old.l) and np.array_equal(grid.s, old.s)
    rep, want = lg.validate(grid), complex_validate(old)
    for name in ("nullity", "legendre", "focal"):
        assert np.array_equal(rep[name], want[name]), name
    cc, want = lg.conjugate_coefficients(grid), complex_conjugate_coefficients(old)
    assert np.array_equal(cc.p, want.p) and np.array_equal(cc.q, want.q)
