"""Named verification suites driven by the CLI and the acceptance tests.

Every suite runs a pipeline at one or more grid refinements over a fixed
parameter window and reports {suite, pass, metrics, convergence_orders}.
Residual sequences that sit at the roundoff floor (exactly harmonic inputs
produce identically-zero connections) are treated as converged rather than
order-fitted.
"""

import functools
import inspect
import operator
from dataclasses import replace

import numpy as np

from . import functionals as fn
from . import gauss_map as gm
from . import legendre as lg
from . import loop_tools as lt
from . import pseudo_linalg as pl
from . import streamnet as sn
from . import surfaces as sf
from .errors import DegenerateReconstructionError, UsageError
from .grids import interior

FLOOR = 1e-10

# frozen test geometries: confocal windows stay clear of the umbilic corner
# of the parameter box; the wide window drives the O(h^2) identity checks,
# the tight one keeps third-difference quantities (tension) small.  Patches
# are recentered at the origin (a Euclidean motion, so every reported
# quantity is unchanged) to balance the stereographic lift's component
# scales against roundoff.
ELL_AXES = (1.0, 1.3, 1.7)
ELL_WINDOW = (1.12, 1.32, 2.39, 2.66)
ELL_WINDOW_TENSION = (1.16, 1.28, 2.46, 2.64)
TORUS_WINDOW = (0.3, 1.7, 0.2, 1.8)
GRAPH_WINDOW = (-0.5, 0.5, -0.5, 0.5)
DEFAULT_GRIDS = (33, 65, 129)
FLAT_FLOOR = lt.FLAT_FLOOR


def fit_order(residuals, floor=FLOOR):
    """Mean log2 ratio of successive residuals under h -> h/2 refinement.

    Returns float('inf') when the whole sequence sits below `floor`.
    """
    r = np.asarray(residuals, dtype=float)
    if np.all(r <= floor):
        return float("inf")
    r = np.maximum(r, 1e-300)
    return float(np.mean(np.log2(r[:-1] / r[1:])))


def make_ellipsoid(n, window=ELL_WINDOW):
    samp = sf.EllipsoidConfocalSampler(*ELL_AXES)
    surface = sf.make_surface(samp, window, n, n)
    center = surface.points[n // 2, n // 2].copy()
    return replace(surface, points=surface.points - center)


def make_torus(n):
    return sf.make_surface(sf.TorusSampler(1.0, 3.0), TORUS_WINDOW, n, n)


def make_quadric(n):
    return sf.make_surface(sf.quadric_graph_sampler(), GRAPH_WINDOW, n, n)


def make_asymptotic_graph(n):
    """The perturbed graph on an n x n asymptotic net.

    The net is marched once per n in a process; each call gets its own
    grid object over the same read-only point array.
    """
    graph = _asymptotic_graph(n)
    return replace(graph, meta=dict(graph.meta))


@functools.cache
def _asymptotic_graph(n):
    samp = sf.perturbed_graph_sampler(0.1, 0.1)
    src = sf.make_surface(samp, GRAPH_WINDOW, 65, 65)
    h = 0.45 / (n - 1)
    graph = sn.asymptotic_reparametrize(src, n, n, h, h, sampler=samp)
    graph.points.flags.writeable = False
    return graph


def suite_lift_invariants(grids=DEFAULT_GRIDS, tol_null=1e-10, tol_order=1.8):
    """Nullity / contact / focal residuals of the lifts, with O(h^2) decay."""
    legendre_res, focal_res = [], []
    nullity = 0.0
    for n in grids:
        rep = lg.validate(lg.lie_lift(make_ellipsoid(n)))
        nullity = max(nullity, rep["nullity_max"])
        legendre_res.append(rep["legendre_max"])
        focal_res.append(rep["focal_max"])
    torus_rep = lg.validate(lg.lie_lift(make_torus(grids[-1])))
    quad_rep = lg.validate(lg.proj_lift(make_quadric(grids[-1])))
    orders = {
        "legendre": fit_order(legendre_res),
        "focal": fit_order(focal_res),
    }
    ok = (
        nullity <= tol_null
        and torus_rep["legendre_max"] <= 1e-12
        and quad_rep["legendre_max"] <= 1e-12
        and orders["legendre"] >= tol_order
        and orders["focal"] >= tol_order
    )
    return {
        "suite": "lift-invariants",
        "pass": bool(ok),
        "metrics": {
            "ellipsoid_nullity_max": nullity,
            "ellipsoid_legendre": legendre_res,
            "ellipsoid_focal": focal_res,
            "torus_legendre_max": torus_rep["legendre_max"],
            "quadric_legendre_max": quad_rep["legendre_max"],
        },
        "convergence_orders": orders,
    }


def suite_pq_identity(grids=DEFAULT_GRIDS, tol=1e-3, tol_order=1.8):
    """<S_u,S_v> = p q, and the density chain across the three functionals."""
    devs = []
    mid = grids[1]
    chain_lie = float("nan")
    for n in grids:
        surface = make_ellipsoid(n)
        grid = lg.lift(surface)
        cc = lg.conjugate_coefficients(grid)
        rho = gm.willmore_density(gm.conformal_gauss(grid))
        devs.append(float(np.max(interior(np.abs(rho - cc.p * cc.q)))))
        if n == mid:
            lie_rho = fn.lie_density(surface.kappa1, surface.kappa2, surface.chart)
            chain_lie = float(np.max(interior(np.abs(lie_rho + rho))))
    graph = make_asymptotic_graph(mid)
    ggauss = gm.conformal_gauss(lg.lift(graph))
    chain_proj = float(
        np.max(interior(np.abs(fn.proj_density(graph) - gm.willmore_density(ggauss))))
    )
    order = fit_order(devs)
    ok = (
        devs[1] <= tol
        and order >= tol_order
        and chain_lie <= tol
        and chain_proj <= tol
    )
    return {
        "suite": "pq-identity",
        "pass": bool(ok),
        "metrics": {
            "deviation_by_grid": devs,
            "chain_lie_plus_willmore": chain_lie,
            "chain_proj_minus_willmore": chain_proj,
        },
        "convergence_orders": {"deviation": order},
    }


def suite_conformality(grids=DEFAULT_GRIDS, tol=1e-3, tol_order=1.8):
    """max |<S_u,S_u>|, |<S_v,S_v>| with O(h^2) decay."""
    res = []
    for n in grids:
        gauss = gm.conformal_gauss(lg.lift(make_ellipsoid(n)))
        res.append(float(np.max(interior(gm.conformality_residual(gauss)))))
    tor = gm.conformal_gauss(lg.lift(make_torus(grids[1])))
    torus_res = float(np.max(interior(gm.conformality_residual(tor))))
    order = fit_order(res)
    ok = res[1] <= tol and order >= tol_order and torus_res <= 1e-8
    return {
        "suite": "conformality",
        "pass": bool(ok),
        "metrics": {"residual_by_grid": res, "torus_residual": torus_res},
        "convergence_orders": {"residual": order},
    }


def suite_orthogonality(grids=DEFAULT_GRIDS, tol=1e-3, tol_order=1.8):
    """Cross Gram of (l, l_v, l_vv) against (s, s_u, s_uu)."""
    res = []
    for n in grids:
        gauss = gm.conformal_gauss(lg.lift(make_ellipsoid(n)))
        res.append(float(np.max(interior(gm.orthogonality_residual(gauss)))))
    order = fit_order(res)
    ok = res[1] <= tol and order >= tol_order
    return {
        "suite": "orthogonality",
        "pass": bool(ok),
        "metrics": {"residual_by_grid": res},
        "convergence_orders": {"residual": order},
    }


def suite_tension_lemma(grids=DEFAULT_GRIDS, tol_angle=1e-2, tol_codazzi=1e-3):
    """Tension image/kernel containments, Codazzi check, harmonic controls."""
    n = grids[1]
    gauss = gm.conformal_gauss(lg.lift(make_ellipsoid(n, ELL_WINDOW_TENSION)))
    tf = gm.tension(gauss)
    margin = gm.TENSION_MARGIN
    norm = interior(tf.norm, margin)
    angles = interior(gm.tension_image_angle(gauss, tf), margin)
    significant = norm >= 0.3 * norm.max()
    angle = float(np.max(angles[significant]))
    codazzi = float(np.max(interior(tf.codazzi_diff, margin)))
    kernel = float(np.max(interior(gm.tension_kernel_residual(gauss, tf), margin)))
    tor = gm.conformal_gauss(lg.lift(make_torus(n)))
    tor_tau = float(np.max(interior(gm.tension(tor).norm, margin)))
    tor_w = abs(fn.willmore_energy(tor).total)
    quad = gm.conformal_gauss(lg.lift(make_quadric(n)))
    quad_tau = float(np.max(interior(gm.tension(quad).norm, margin)))
    quad_w = abs(fn.willmore_energy(quad).total)
    ok = (
        angle <= tol_angle
        and codazzi <= tol_codazzi
        and tor_tau <= 1e-3
        and tor_w <= 1e-7
        and quad_tau <= 1e-10
        and quad_w <= 1e-10
        and float(np.min(norm)) > 0.0
    )
    return {
        "suite": "tension-lemma",
        "pass": bool(ok),
        "metrics": {
            "image_angle": angle,
            "codazzi_difference": codazzi,
            "kernel_residual": kernel,
            "tau_min": float(np.min(norm)),
            "tau_max": float(np.max(norm)),
            "torus_tau_max": tor_tau,
            "torus_energy": tor_w,
            "quadric_tau_max": quad_tau,
            "quadric_energy": quad_w,
        },
        "convergence_orders": {},
    }


def suite_blaschke_roundtrip(grids=DEFAULT_GRIDS, tol_angle=1e-4):
    """reconstruct(conformal_gauss(f)) recovers the focal lines of f."""
    n = grids[-1]
    grid = lg.lift(make_ellipsoid(n))
    rec = gm.reconstruct(gm.conformal_gauss(grid))
    ang_l = float(np.max(interior(gm.line_angle(rec.l, grid.l))))
    ang_s = float(np.max(interior(gm.line_angle(rec.s, grid.s))))
    try:
        gm.reconstruct(gm.conformal_gauss(lg.lift(make_quadric(grids[0]))))
        quadric_degenerate = False
    except DegenerateReconstructionError:
        quadric_degenerate = True
    ok = ang_l <= tol_angle and ang_s <= tol_angle and quadric_degenerate
    return {
        "suite": "blaschke-roundtrip",
        "pass": bool(ok),
        "metrics": {
            "line_angle_l": ang_l,
            "line_angle_s": ang_s,
            "rank_gap": rec.meta["reconstruction_rank_gap"],
            "quadric_raises_degenerate": quadric_degenerate,
        },
        "convergence_orders": {},
    }


def _energy(grid):
    return fn.willmore_energy(gm.conformal_gauss(grid))


def _projective_deviation(graph, points, reference):
    return fn.density_deviation(fn.proj_density(replace(graph, points=points)), reference)


def suite_invariance(grids=DEFAULT_GRIDS, tol=1e-4, tol_order=1.8, seed=20260808,
                     n_group=20, shifts=(0.1, 0.3)):
    """Density invariance under seeded group elements, shifts, SL(4) maps.

    Each refinement builds one base pipeline; every transformed density is
    compared with that base's.
    """
    space = pl.lie_space()
    group = [pl.random_pseudo_orthogonal(space, np.random.default_rng(s), nsteps=6,
                                         amplitude=0.15)
             for s in np.random.SeedSequence(seed).spawn(n_group)]
    shift_devs = []
    for n in grids:
        surface = make_ellipsoid(n)
        base_grid = lg.lift(surface)
        base = _energy(base_grid)
        # refit curvatures from the shifted points and normals rather than
        # trusting the analytic update
        shifted = (sf.principal_data(sf.normal_shift(surface, t)) for t in shifts)
        shift_devs.append(max(fn.density_deviation(_energy(lg.lift(s)).density, base.density)
                              for s in shifted))
        if n == grids[1]:
            moved = [_energy(lg.apply_group(base_grid, g)) for g in group]
            group_dev = max(fn.density_deviation(rep.density, base.density) for rep in moved)
            group_total = max(abs(rep.total - base.total) / max(abs(base.total), 1e-30)
                              for rep in moved)
    # projective side: SL(4) group elements on the asymptotic graph; lift
    # rescalings are gauge (invariant only up to FD error) and are reported
    # separately with a decay check rather than the group tolerance
    rng = np.random.default_rng(seed + 1)
    unimodular = [pl.random_unimodular(rng, 0.1) for _ in range(5)]
    rescale_devs = []
    for n in grids[:2]:
        graph = make_asymptotic_graph(n)
        rho = fn.proj_density(graph)
        x = np.linspace(0.0, 1.0, graph.chart.nu)
        h_field = 0.05 * np.outer(np.sin(2 * x), np.cos(3 * x))
        rescale_devs.append(
            _projective_deviation(graph, graph.points * np.exp(h_field)[..., None], rho))
        if n == grids[1]:
            proj_dev = max(_projective_deviation(graph, graph.points @ a.T, rho)
                           for a in unimodular)
    order = fit_order(shift_devs)
    rescale_order = fit_order(rescale_devs)
    ok = (
        group_total <= 1e-9
        and group_dev <= tol
        and shift_devs[1] <= tol
        and proj_dev <= tol
        and rescale_order >= 1.5
        and order >= tol_order
    )
    return {
        "suite": "invariance",
        "pass": bool(ok),
        "metrics": {
            "group_deviation": group_dev,
            "group_total_deviation": group_total,
            "shift_deviation_by_grid": shift_devs,
            "projective_deviation": proj_dev,
            "rescale_deviation_by_grid": rescale_devs,
            "seed": seed,
        },
        "convergence_orders": {"shift_deviation": order,
                               "rescale_deviation": rescale_order},
    }


def suite_flatness(grids=DEFAULT_GRIDS, lam=2.0, tol_order=0.9, factor=10.0):
    """Spectral flatness discriminates harmonic from non-harmonic maps."""
    torus_res, ell_res1, ell_res2 = [], [], []
    for n in grids:
        tor = gm.conformal_gauss(lg.lift(make_torus(n)))
        alpha = lt.maurer_cartan(lt.frame(tor))
        torus_res.append(float(np.max(lt.flatness_residual(lt.spectral_connection(alpha, lam)))))
        ell = gm.conformal_gauss(lg.lift(make_ellipsoid(n)))
        alpha_e = lt.maurer_cartan(lt.frame(ell))
        ell_res1.append(float(np.max(lt.flatness_residual(lt.spectral_connection(alpha_e, 1.0)))))
        ell_res2.append(float(np.max(lt.flatness_residual(lt.spectral_connection(alpha_e, lam)))))
    torus_order = fit_order(torus_res, floor=FLAT_FLOOR)
    torus_ok = torus_order >= tol_order or all(r <= FLAT_FLOOR for r in torus_res)
    ell_ok = ell_res2[-1] >= factor * max(ell_res1[-1], 1e-300)
    return {
        "suite": "flatness",
        "pass": bool(torus_ok and ell_ok),
        "metrics": {
            "torus_residual_by_grid": torus_res,
            "ellipsoid_lambda1_by_grid": ell_res1,
            "ellipsoid_lambda_by_grid": ell_res2,
            "lambda": lam,
        },
        "convergence_orders": {"torus_residual": torus_order},
    }


def suite_deform(grids=DEFAULT_GRIDS, lam=2.0):
    """Spectral deformation preserves the envelope conditions."""
    n = grids[1]
    tor = gm.conformal_gauss(lg.lift(make_torus(n)))
    r1, r2 = gm.blaschke_residual(tor)
    before = max(float(np.max(interior(r1))), float(np.max(interior(r2))))
    deformed = lt.spectral_deform(tor, lam)
    d1, d2 = gm.blaschke_residual(deformed)
    after = max(float(np.max(interior(d1))), float(np.max(interior(d2))))
    bound = 2.0 * before + 1e-3
    try:
        gm.reconstruct(deformed)
        reconstructed, degenerate = True, False
    except DegenerateReconstructionError:
        reconstructed, degenerate = False, True
    ok = after <= bound and (reconstructed or degenerate)
    return {
        "suite": "deform",
        "pass": bool(ok),
        "metrics": {
            "blaschke_before": before,
            "blaschke_after": after,
            "bound": bound,
            "lambda": lam,
            "reconstructs": reconstructed,
            "degenerate_everywhere": degenerate,
            "integration_consistency": deformed.meta["integration_consistency"],
        },
        "convergence_orders": {},
    }


def suite_dualize(grids=DEFAULT_GRIDS, tol_dev=1e-3, tol_imag=1e-10):
    """Duality round trip and realness of the dual connection."""
    n = grids[1]
    tor = gm.conformal_gauss(lg.lift(make_torus(n)))
    d1 = lt.dualize(tor)
    d2 = lt.dualize(d1)
    t = d1.meta["basis_map"] @ d2.meta["basis_map"]
    star_rt = t @ d2.star @ np.linalg.inv(t)
    dev = float(np.max(np.linalg.norm(star_rt - tor.star, axis=(-2, -1))))
    # realness on a connection with nonzero entries: the ellipsoid frame
    ell = gm.conformal_gauss(lg.lift(make_ellipsoid(grids[0])))
    _, imag = lt.dual_connection(lt.maurer_cartan(lt.frame(ell)))
    ok = (
        dev <= tol_dev
        and imag <= tol_imag
        and d1.meta["imaginary_defect"] <= tol_imag
        and (d1.space.m, d1.space.n) == (3, 3)
    )
    return {
        "suite": "dualize",
        "pass": bool(ok),
        "metrics": {
            "roundtrip_star_deviation": dev,
            "dual_connection_imag_defect": imag,
            "torus_dual_imag_defect": d1.meta["imaginary_defect"],
        },
        "convergence_orders": {},
    }


def suite_descent(grids=DEFAULT_GRIDS, steps=50, step_size=2e-6, min_drop=0.01):
    """Gradient descent decreases W monotonically by at least `min_drop`."""
    surface = make_ellipsoid(grids[0], ELL_WINDOW_TENSION)
    reports, _ = fn.willmore_descent(surface, steps=steps, step_size=step_size)
    w = np.array([r.total for r in reports])
    monotone = bool(np.all(np.diff(w) <= 1e-15))
    drop = float(w[0] - w[-1])
    ok = monotone and drop >= min_drop * abs(w[0])
    return {
        "suite": "descent",
        "pass": bool(ok),
        "metrics": {
            "energy_sequence": w.tolist(),
            "initial": float(w[0]),
            "final": float(w[-1]),
            "drop": drop,
            "monotone": monotone,
            "steps": steps,
            "step_size": step_size,
        },
        "convergence_orders": {},
    }


SUITES = {
    "lift-invariants": suite_lift_invariants,
    "pq-identity": suite_pq_identity,
    "conformality": suite_conformality,
    "orthogonality": suite_orthogonality,
    "tension-lemma": suite_tension_lemma,
    "blaschke-roundtrip": suite_blaschke_roundtrip,
    "invariance": suite_invariance,
    "flatness": suite_flatness,
    "deform": suite_deform,
    "dualize": suite_dualize,
    "descent": suite_descent,
}


# suites that read a single refinement; the others fit orders or read grids[1]
ONE_GRID_SUITES = ("blaschke-roundtrip", "descent")


def suite_parameters(name):
    """Names of the keyword parameters that suite `name` takes."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return tuple(inspect.signature(SUITES[name]).parameters)


def run_suite(name, **kwargs):
    accepted = suite_parameters(name)
    unknown = [key for key in kwargs if key not in accepted]
    if unknown:
        raise UsageError(f"suite {name!r} takes no parameter {', '.join(unknown)}; "
                         f"accepted: {', '.join(accepted)}")
    grids = kwargs.get("grids", DEFAULT_GRIDS)
    need = 1 if name in ONE_GRID_SUITES else 2
    try:
        sizes = [operator.index(g) for g in grids]
    except TypeError:
        sizes = []
    if len(sizes) < need or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise UsageError(
            f"suite {name!r} needs at least {need} strictly ascending integer "
            f"grid sizes, got {grids!r}"
        )
    return SUITES[name](**kwargs)


def report_merge(reports):
    """Aggregate pass/fail and the suites' own convergence orders.

    Each report's 'convergence_orders' are copied under '<suite>.<key>' as
    the suite fitted them; nothing is re-fitted here, so a later report of
    the same suite replaces an earlier one's orders rather than being
    combined with it.
    """
    if not reports:
        raise UsageError("no reports to merge")
    suites = {}
    orders = {}
    for rep in reports:
        name = rep.get("suite", "?")
        suites.setdefault(name, []).append(bool(rep.get("pass", False)))
        for key, val in rep.get("convergence_orders", {}).items():
            orders[f"{name}.{key}"] = val
    return {
        "pass": all(all(v) for v in suites.values()),
        "suites": {k: all(v) for k, v in suites.items()},
        "count": sum(len(v) for v in suites.values()),
        "convergence_orders": orders,
    }
