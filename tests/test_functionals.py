import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from quadgeo import checks, functionals as fn, gauss_map as gm, legendre as lg
from quadgeo import pseudo_linalg as pl
from quadgeo import streamnet as sn
from quadgeo import surfaces as sf
from quadgeo.errors import NotAsymptoticChartError, UmbilicError
from quadgeo.grids import interior

from oracles import convex_graph_sampler


def test_energy_report_consistency(ellipsoid_gauss65):
    rep = fn.willmore_energy(ellipsoid_gauss65)
    area = rep.chart.hu * rep.chart.hv
    inner = interior(rep.density.real)
    assert rep.total == pytest.approx(float(np.sum(inner)) * area, rel=1e-12)
    assert rep.excluded_nodes == []


def test_energies_of_harmonic_controls(torus_gauss65, quadric_lift65):
    assert abs(fn.willmore_energy(torus_gauss65).total) < 1e-7
    quad = gm.conformal_gauss(quadric_lift65)
    assert abs(fn.willmore_energy(quad).total) < 1e-10


def test_lie_density_torus(torus65):
    rho = fn.lie_density(torus65.kappa1, torus65.kappa2, torus65.chart)
    assert np.max(np.abs(interior(rho))) < 1e-12


def test_lie_density_umbilic_error():
    k = np.ones((9, 9))
    from quadgeo.grids import GridChart

    with pytest.raises(UmbilicError):
        fn.lie_density(k, k, GridChart(9, 9, 0.1, 0.1))


def test_density_chain_lie(ellipsoid65, ellipsoid_gauss65):
    rho_lie = fn.lie_density(ellipsoid65.kappa1, ellipsoid65.kappa2, ellipsoid65.chart)
    rho_w = fn.willmore_energy(ellipsoid_gauss65).density.real
    assert np.max(np.abs(interior(rho_lie + rho_w))) < 1e-3


def test_lie_density_invariant_under_shift(ellipsoid65):
    rho0 = fn.lie_density(ellipsoid65.kappa1, ellipsoid65.kappa2, ellipsoid65.chart)
    shifted = sf.normal_shift(ellipsoid65, 0.1)
    rho1 = fn.lie_density(shifted.kappa1, shifted.kappa2, shifted.chart)
    assert np.max(np.abs(interior(rho1 - rho0))) < 1e-3 * np.max(np.abs(interior(rho0)))


def test_proj_density_quadric():
    rho = fn.proj_density(checks.make_quadric(33))
    assert np.max(np.abs(interior(rho))) < 1e-12


def test_proj_density_chain():
    graph = checks.make_asymptotic_graph(65)
    rho = fn.proj_density(graph)
    gauss = gm.conformal_gauss(lg.proj_lift(graph))
    rho_w = gm.willmore_density(gauss)
    assert np.max(np.abs(interior(rho.real - rho_w.real))) < 1e-3


@pytest.mark.parametrize("sampler", [lambda: convex_graph_sampler(0.05),
                                     sf.perturbed_graph_sampler],
                         ids=["convex", "perturbed"])
def test_proj_density_refuses_a_graph_chart_before_dividing(sampler):
    # on the convex graph f_uv = 0, so p and q would be 0/0: the chart
    # witness must raise before any division warns
    graph = sf.make_surface(sampler(), checks.GRAPH_WINDOW, 33, 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAsymptoticChartError):
            fn.proj_density(graph)


def test_proj_density_rescale_gauge(ellipsoid65):
    graph = checks.make_asymptotic_graph(65)
    x = np.linspace(0.0, 1.0, graph.chart.nu)
    h = 0.1 * np.outer(np.sin(2 * x), np.cos(3 * x))
    scaled = dataclasses.replace(graph, points=graph.points * np.exp(h)[..., None])
    rho0 = interior(fn.proj_density(graph).real)
    rho1 = interior(fn.proj_density(scaled).real)
    assert np.max(np.abs(rho1 - rho0)) < 5e-3 * max(np.max(np.abs(rho0)), 1.0)


def test_gradient_density_cases(torus_gauss65, quadric_lift65):
    # the EL density is sign-definite on the tight window patch
    gauss = gm.conformal_gauss(lg.lift(checks.make_ellipsoid(65, checks.ELL_WINDOW_TENSION)))
    g_ell = fn.willmore_gradient_density(gauss)
    assert np.min(np.abs(interior(g_ell, 3))) > 0.1  # bounded away from zero
    g_tor = fn.willmore_gradient_density(torus_gauss65)
    assert np.max(np.abs(interior(g_tor, 3))) < 1e-6
    g_quad = fn.willmore_gradient_density(gm.conformal_gauss(quadric_lift65))
    assert np.max(np.abs(interior(g_quad, 3))) < 1e-12


def test_descent_zero_step_identity():
    surface = checks.make_ellipsoid(17, checks.ELL_WINDOW_TENSION)
    reports, final = fn.willmore_descent(surface, steps=3, step_size=0.0)
    assert len(reports) == 4
    assert all(r.total == reports[0].total for r in reports)
    assert final is surface


def test_descent_torus_stationary():
    surface = checks.make_torus(17)
    reports, _ = fn.willmore_descent(surface, steps=3, step_size=2e-6)
    assert all(abs(r.total) < 1e-7 for r in reports)


def test_descent_decreases_energy():
    surface = checks.make_ellipsoid(33, checks.ELL_WINDOW_TENSION)
    reports, _ = fn.willmore_descent(surface, steps=10, step_size=2e-6)
    w = np.array([r.total for r in reports])
    assert np.all(np.diff(w) <= 1e-15)
    assert w[0] - w[-1] > 0.001 * abs(w[0])


def test_descent_keeps_the_probe_candidate(monkeypatch):
    # the orientation probe's winner is step 1: two probes, then one
    # accepted attempt for each later step, with the energies the descent
    # gave when it re-evaluated the winner
    surface = checks.make_ellipsoid(33, checks.ELL_WINDOW)
    calls = []
    principal_data = sf.principal_data
    monkeypatch.setattr(sf, "principal_data",
                        lambda *a, **k: calls.append(1) or principal_data(*a, **k))
    reports, _ = fn.willmore_descent(surface, steps=4, step_size=2e-6)
    assert len(calls) == 5
    assert [r.total for r in reports] == [
        -0.05944404205424233, -0.05975186808576201, -0.06006804902720976,
        -0.060395956696017876, -0.060735613111351304,
    ]


def test_density_deviation_of_a_density_with_itself_is_zero(ellipsoid_gauss65):
    rho = fn.willmore_energy(ellipsoid_gauss65).density
    assert fn.density_deviation(rho, rho) == 0.0


def test_group_and_shift_invariance(ellipsoid65, ellipsoid_lift65, ellipsoid_gauss65, rng):
    base = fn.willmore_energy(ellipsoid_gauss65)
    g = pl.random_pseudo_orthogonal(pl.lie_space(), rng, nsteps=6, amplitude=0.15)
    moved = fn.willmore_energy(gm.conformal_gauss(lg.apply_group(ellipsoid_lift65, g)))
    assert abs(moved.total - base.total) / abs(base.total) < 1e-9
    assert fn.density_deviation(moved.density, base.density) < 1e-6
    shifted = sf.principal_data(sf.normal_shift(ellipsoid65, 0.3))
    rep = fn.willmore_energy(gm.conformal_gauss(lg.lift(shifted)))
    assert fn.density_deviation(rep.density, base.density) < 1e-4


def test_unimodular_invariance(rng):
    graph = checks.make_asymptotic_graph(33)
    a = pl.random_unimodular(rng, 0.1)
    moved = dataclasses.replace(graph, points=graph.points @ a.T)
    assert fn.density_deviation(fn.proj_density(moved), fn.proj_density(graph)) < 1e-9


def test_invariance_suite_builds_each_base_once(monkeypatch):
    # one ellipsoid lift per grid plus one per shifted surface; the graph
    # side reads proj_density alone and lifts nothing
    calls = []

    def counted(name):
        original = getattr(lg, name)
        return lambda *a, **k: calls.append(name) or original(*a, **k)

    for name in ("lie_lift", "proj_lift"):
        monkeypatch.setattr(lg, name, counted(name))
    grids = (17, 33)
    shifts = inspect.signature(checks.suite_invariance).parameters["shifts"].default
    checks.run_suite("invariance", grids=grids, n_group=2)
    assert calls.count("proj_lift") == 0
    assert calls.count("lie_lift") == len(grids) * (1 + len(shifts))


def test_asymptotic_graph_is_marched_once_per_size(monkeypatch):
    # pq-identity and invariance share their graphs; each call gets its own
    # grid object over one read-only point array
    checks._asymptotic_graph.cache_clear()
    sizes = []
    march = sn.march_net

    def counted(fields, center, h1, h2, nu, nv):
        sizes.append(nu)
        return march(fields, center, h1, h2, nu, nv)

    monkeypatch.setattr(sn, "march_net", counted)
    checks.run_suite("pq-identity", grids=(17, 33))
    checks.run_suite("invariance", grids=(17, 33), n_group=2)
    assert sorted(sizes) == [17, 33]
    graph = checks.make_asymptotic_graph(33)
    again = checks.make_asymptotic_graph(33)
    assert again is not graph and again.points is graph.points
    assert not graph.points.flags.writeable
    with pytest.raises(ValueError):
        graph.points[0, 0, 0] = 0.0


def test_op_level_density_invariance_precision():
    """Pulled-back vs recomputed density under the exact op-level transforms.

    Group elements commute with the pipeline to roundoff; analytic normal
    shifts rescale the lift sections per node, which perturbs the discrete
    density at O(h^2) (order confirmed below; ~1e-6 relative at 256^2).
    """
    devs_by_n = []
    for n in (65, 129, 257):
        surface = checks.make_ellipsoid(n)
        rho0 = fn.willmore_energy(gm.conformal_gauss(lg.lie_lift(surface))).density
        worst = 0.0
        for t in (-0.1, 0.3):
            shifted = sf.normal_shift(surface, t)
            rho1 = fn.willmore_energy(gm.conformal_gauss(lg.lie_lift(shifted))).density
            worst = max(worst, fn.density_deviation(rho1, rho0))
        devs_by_n.append(worst)
    # the decay is clean until the evaluation noise floor (~1e-6 at 256^2)
    assert devs_by_n[-1] < 2e-6
    assert np.log2(devs_by_n[0] / devs_by_n[1]) > 1.8
    # group elements: exact commutation up to conditioning roundoff
    base = lg.lie_lift(checks.make_ellipsoid(65))
    rho0 = fn.willmore_energy(gm.conformal_gauss(base)).density
    for k in range(20):
        g = pl.random_pseudo_orthogonal(
            pl.lie_space(), np.random.default_rng(k), nsteps=6, amplitude=0.15
        )
        rho1 = fn.willmore_energy(gm.conformal_gauss(lg.apply_group(base, g))).density
        assert fn.density_deviation(rho1, rho0) < 1e-6
