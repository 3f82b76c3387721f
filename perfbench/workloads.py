"""The three benchmark workloads: seeded op lists and their correctness checks.

A workload is a list of passes; a pass is a fixed composition of ops whose
parameters and order are drawn from the seed.  Every parameter comes from a
small catalogue, so `reference.json` (recorded by `record_reference.py` at
the seed commit) holds the expected scalars of every op any seed can draw.

  suites     one pass = all 11 `checks.run_suite` suites at the default
             grids; the seed is the invariance suite's seed.
  spectral   one pass = a harmonic torus and a non-harmonic ellipsoid at
             65^2 and at 129^2 through the loop-algebra pipeline, plus one
             batch of 6x6 logarithms of which a few take the scipy fallback.
  cli-small  one pass = 14 surfaces (mostly 33^2, two 65^2), each through
             in-process `cli.main` generate -> lift/gauss/energy/tension,
             plus two short descents per 33^2 ellipsoid: 80 commands.
"""

import dataclasses
import json
import os
import random

import numpy as np

from quadgeo import checks, cli, functionals as fn, gauss_map as gm, legendre as lg
from quadgeo import loop_tools as lt, matfun as mf, surfaces as sf
from quadgeo.errors import NonHarmonicInputError
from quadgeo.grids import interior

TORI = ((1.0, 3.0), (0.8, 2.5), (1.2, 3.5))
ELL_WINDOWS = (
    checks.ELL_WINDOW, checks.ELL_WINDOW_TENSION,
    (1.10, 1.30, 2.35, 2.60), (1.14, 1.34, 2.42, 2.70), (1.12, 1.28, 2.40, 2.62),
)
CATENOIDS = (0.8, 1.0, 1.2)
PERTURBED = ((0.1, 0.1), (0.05, 0.1), (0.15, 0.05), (0.1, 0.15))
DESCENT_STEPS = 4
DESCENT_SIZES = (2e-6, 1e-6)

LOGM_BATCH = 4096            # about the edge count of a 65^2 grid
LOGM_FALLBACKS = 32

# Only scalars above the roundoff floor are compared with reference.json.  A
# quantity that vanishes in exact arithmetic (a residual of an exactly
# harmonic or exactly sampled surface, a nullity, an imaginary part, a
# frame-closure defect) records roundoff, which a correct reordering of the
# arithmetic moves by orders of magnitude; such quantities are bounded by the
# gates `checks` applies to them and left out of the comparison.
#
# suite metrics and convergence orders left out: roundoff, or (invariance)
# dependent on the seed's random group elements; each suite's pass bounds them
SUITE_UNCOMPARED = {
    "lift-invariants": ("ellipsoid_nullity_max", "torus_legendre_max", "quadric_legendre_max"),
    "conformality": ("torus_residual",),
    "tension-lemma": ("torus_tau_max", "torus_energy", "quadric_tau_max", "quadric_energy"),
    "invariance": ("group_deviation", "group_total_deviation", "projective_deviation", "seed"),
    "flatness": ("torus_residual_by_grid", "torus_residual", "ellipsoid_lambda1_by_grid"),
    "deform": ("blaschke_before", "blaschke_after", "bound", "integration_consistency"),
    "dualize": ("roundtrip_star_deviation", "dual_connection_imag_defect",
                "torus_dual_imag_defect"),
}

# cli report scalars that vanish on some surface kinds (the torus and the
# quadric are sampled exactly; the catenoid is minimal, so its Willmore
# density and tension vanish), each with the bound it is gated at instead:
# the torus/quadric bounds of the lift-invariants, conformality and
# tension-lemma suites, per node for the density sum
VANISHING_BOUND = {
    "focal_max": 1e-12, "legendre_max": 1e-12,
    "conformality_max": 1e-8, "orthogonality_max": 1e-8,
    "total": 1e-7, "density_abs_sum": 1e-7,
    "tau_max": 1e-3, "tau_min": 1e-3, "codazzi_max": 1e-8,
}
VANISHING = {
    "torus": tuple(VANISHING_BOUND),
    "quadric_graph": tuple(VANISHING_BOUND),
    "revolution": ("total", "density_abs_sum", "tau_max", "tau_min", "codazzi_max"),
}

REL_TOL = 1e-6
ABS_TOL = 1e-10
# angles come from arccos of a cosine near 1, which turns an ulp of the
# cosine into about ulp/angle radians: <= 3e-10 at the smallest recorded
# angles (1.7e-6)
ANGLE_ABS_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output broke one of the gates `checks` applies to it."""


def gate(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass
class Op:
    key: str                  # reference.json entry
    nodes: int                # grid nodes the op processes
    run: object               # () -> dict of scalars; raises CheckFailed


# ---------------------------------------------------------------------------
# comparison against the recorded reference


def compare(expected, actual, path=""):
    """Mismatches between two JSON-like values; floats within REL/ABS_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys differ"]
        out = []
        for k in expected:
            out += compare(expected[k], actual[k], f"{path}.{k}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{path}[{i}]")
        return out
    if isinstance(expected, (bool, str)) or expected is None:
        return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return [f"{path}: {actual!r} is not a number"]
    tol = REL_TOL * abs(expected) + (ANGLE_ABS_TOL if "angle" in path else ABS_TOL)
    if not np.isfinite(actual) or abs(actual - expected) > tol:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def jsonable(obj):
    """Plain JSON types for a result: numpy values as Python ones, tuples as
    lists, non-finite floats as the strings "inf", "-inf", "nan"."""
    text = json.dumps(obj, default=lambda value: value.tolist())
    names = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}
    return json.loads(text, parse_constant=names.__getitem__)


# ---------------------------------------------------------------------------
# suites


def suites_pass(seed, tiny=False):
    names = list(checks.SUITES)
    if tiny:
        names = ["lift-invariants", "conformality", "orthogonality", "tension-lemma"]
    nodes = sum(n * n for n in checks.DEFAULT_GRIDS)
    return [Op(f"suites/{name}", nodes, _suite_op(name, seed)) for name in names]


def _suite_op(name, seed):
    def run():
        kwargs = {"seed": seed} if name == "invariance" else {}
        report = jsonable(checks.run_suite(name, **kwargs))
        gate(report["pass"], f"suite {name} did not pass")
        for key in SUITE_UNCOMPARED.get(name, ()):
            report["metrics"].pop(key, None)
            report["convergence_orders"].pop(key, None)
        return report
    return run


# ---------------------------------------------------------------------------
# spectral


def torus_surface(params, n):
    return sf.make_surface(sf.TorusSampler(*params), checks.TORUS_WINDOW, n, n)


def ellipsoid_surface(window, n):
    # the checks geometry, built here so spectral makes no `checks` call
    surface = sf.make_surface(sf.EllipsoidConfocalSampler(*checks.ELL_AXES), window, n, n)
    return dataclasses.replace(surface, points=surface.points - surface.points[n // 2, n // 2])


def _flatness_pair(gauss):
    alpha = lt.maurer_cartan(lt.frame(gauss))
    r1 = float(np.max(lt.flatness_residual(lt.spectral_connection(alpha, 1.0))))
    r2 = float(np.max(lt.flatness_residual(lt.spectral_connection(alpha, 2.0))))
    return r1, r2


def _blaschke_max(gauss):
    r1, r2 = gm.blaschke_residual(gauss)
    return max(float(np.max(interior(r1))), float(np.max(interior(r2))))


def spectral_torus(params, n):
    """The torus's conformal Gauss map is constant, so every scalar of this
    pipeline vanishes in exact arithmetic: the op is checked by gates only."""
    def run():
        grid = lg.lie_lift(torus_surface(params, n))
        rep = lg.validate(grid)
        gate(rep["nullity_max"] <= 1e-10, "torus lift nullity above 1e-10")
        gate(max(rep["legendre_max"], rep["focal_max"]) <= 1e-12, "torus lift not Legendre")
        gauss = gm.conformal_gauss(grid)
        gate(abs(fn.willmore_energy(gauss).total) <= 1e-7, "torus Willmore energy nonzero")
        r1, r2 = _flatness_pair(gauss)
        # spectral_deform's own acceptance of a harmonic map
        gate(r2 <= max(10.0 * r1, checks.FLAT_FLOOR), "torus family not flat at lambda=2")
        before = _blaschke_max(gauss)
        deformed = lt.spectral_deform(gauss, 2.0)
        after = _blaschke_max(deformed)
        gate(after <= 2.0 * before + 1e-3, "deformation broke the envelope conditions")
        dual = lt.dualize(gauss)
        gate(dual.meta["imaginary_defect"] <= 1e-10, "dual connection is not real")
        gate((dual.space.m, dual.space.n) == (3, 3), "dual is not in the (3,3) picture")
        return {}
    return run


def spectral_ellipsoid(window, n):
    def run():
        grid = lg.lie_lift(ellipsoid_surface(window, n))
        rep = lg.validate(grid)
        gate(rep["nullity_max"] <= 1e-10, "ellipsoid lift nullity above 1e-10")
        gauss = gm.conformal_gauss(grid)
        energy = fn.willmore_energy(gauss).total
        rec = gm.reconstruct(gauss)
        ang_l = float(np.max(interior(gm.line_angle(rec.l, grid.l))))
        ang_s = float(np.max(interior(gm.line_angle(rec.s, grid.s))))
        # blaschke-roundtrip's 1e-4 at 129^2, scaled by the O(h^2) error
        gate(max(ang_l, ang_s) <= 1e-4 * (128 / (n - 1)) ** 2,
             "reconstruction missed the focal lines")
        # flatness discrimination: spectral_deform compares the family's
        # flatness at lambda=2 with lambda=1 and must refuse this map
        try:
            lt.spectral_deform(gauss, 2.0)
        except NonHarmonicInputError:
            pass
        else:
            raise CheckFailed("spectral_deform accepted a non-harmonic map")
        return {
            "legendre_max": rep["legendre_max"], "focal_max": rep["focal_max"],
            "energy": energy, "line_angle_l": ang_l, "line_angle_s": ang_s,
        }
    return run


def spectral_logm(seed):
    """Logarithms of a batch of 6x6 rotations, near the identity except for
    LOGM_FALLBACKS rotated by 1.2-1.5 rad, where the Gregory series in
    `matfun.logm` converges too slowly and scipy takes over.  (Beyond pi/2
    the series overflows and `logm` returns garbage without falling back, so
    no angle here reaches pi/2.)"""
    def run():
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((LOGM_BATCH, 6, 6))
        x = m - m.swapaxes(-1, -2)
        angle = rng.uniform(0.01, 0.1, LOGM_BATCH)
        far = rng.choice(LOGM_BATCH, LOGM_FALLBACKS, replace=False)
        angle[far] = rng.uniform(1.2, 1.5, LOGM_FALLBACKS)
        x *= (angle / np.max(np.abs(np.linalg.eigvals(x)), axis=-1))[:, None, None]
        log = mf.logm(mf.expm(x))
        err = np.linalg.norm(log - x, axis=(-2, -1)) / np.linalg.norm(x, axis=(-2, -1))
        gate(float(np.max(err)) <= 1e-10, "logm missed the principal logarithm")
        return {}
    return run


def torus_op(params, n):
    return Op(f"spectral/torus/r={params[0]},R={params[1]}/{n}", n * n, spectral_torus(params, n))


def ellipsoid_op(window, n):
    return Op(f"spectral/ellipsoid/{','.join(map(str, window))}/{n}", n * n,
              spectral_ellipsoid(window, n))


def logm_op(seed):
    return Op("spectral/logm", 0, spectral_logm(seed))


def spectral_pass(rng, tiny=False):
    grids = (33,) if tiny else (65, 129)
    ops = []
    for n in grids:
        ops.append(torus_op(rng.choice(TORI), n))
        ops.append(ellipsoid_op(rng.choice(ELL_WINDOWS[:2]), n))
    rng.shuffle(ops)
    # last: run before a 129^2 op, the logm batch leaves the process's peak
    # RSS 20 MB higher, which would make peak_rss_mb depend on the seed
    return ops + [logm_op(rng.getrandbits(32))]


# ---------------------------------------------------------------------------
# cli-small


@dataclasses.dataclass
class SurfaceSpec:
    kind: str
    n: int
    params: tuple             # ((name, value), ...) for --param
    asymptotic: bool = False
    descents: tuple = ()

    @property
    def key(self):
        text = ",".join(f"{k}={v}" for k, v in self.params)
        return f"cli/{self.kind}{'-asymptotic' if self.asymptotic else ''}/{text}/{self.n}"


def torus_spec(params, n):
    return SurfaceSpec("torus", n, (("r", params[0]), ("R", params[1])))


def ellipsoid_spec(window, n, descents=()):
    names = ("window_u0", "window_u1", "window_v0", "window_v1")
    return SurfaceSpec("ellipsoid", n, tuple(zip(names, window)), descents=descents)


def catenoid_spec(c):
    return SurfaceSpec("revolution", 33, (("c", c),))


def quadric_spec():
    return SurfaceSpec("quadric_graph", 33, ())


def perturbed_spec(cxy):
    return SurfaceSpec("perturbed_graph", 33, (("cx", cxy[0]), ("cy", cxy[1])), asymptotic=True)


def cli_surfaces(rng, tiny=False):
    """The 14 surfaces of one cli-small pass, in seeded order."""
    if tiny:
        return [torus_spec(TORI[0], 33), ellipsoid_spec(ELL_WINDOWS[0], 33, DESCENT_SIZES[:1]),
                quadric_spec()]
    tori = rng.sample(TORI, 3)
    specs = [torus_spec(p, 33) for p in tori[:2]]
    specs += [ellipsoid_spec(w, 33, DESCENT_SIZES) for w in rng.sample(ELL_WINDOWS, 5)]
    specs += [catenoid_spec(c) for c in rng.sample(CATENOIDS, 2)]
    specs += [quadric_spec()]
    specs += [perturbed_spec(cxy) for cxy in rng.sample(PERTURBED, 2)]
    specs += [torus_spec(tori[2], 65), ellipsoid_spec(rng.choice(ELL_WINDOWS[:2]), 65)]
    rng.shuffle(specs)
    return specs


def cli_commands(spec, workdir, index):
    """(name, argv, report path or None) per command on one surface."""
    surface = os.path.join(workdir, f"surface{index}.json")
    report = os.path.join(workdir, f"report{index}.json")
    gen = ["generate", "--kind", spec.kind, "--grid-nu", str(spec.n), "--grid-nv", str(spec.n),
           "--out", surface]
    for k, v in spec.params:
        gen += ["--param", f"{k}={v}"]
    if spec.asymptotic:
        gen.append("--asymptotic")
    cmds = [("generate", gen, None)]
    for name in ("lift", "gauss", "energy", "tension"):
        cmds.append((name, [name, "--surface", surface, "--out", report], report))
    for size in spec.descents:
        cmds.append((f"descent@{size:g}",
                     ["descent", "--surface", surface, "--steps", str(DESCENT_STEPS),
                      "--step-size", repr(size), "--out", report], report))
    return cmds


def _report_scalars(name, data, nodes, kind):
    if name == "lift":
        gate(data["nullity_max"] <= 1e-10, "lift nullity above 1e-10")
    elif name == "energy":
        density = data.pop("density")
        gate(len(density) == nodes and all(np.isfinite(density)), "energy density malformed")
        data["density_abs_sum"] = float(np.sum(np.abs(density)))
    elif name.startswith("descent"):
        gate(data["monotone"] and data["drop"] > 0.0, "descent did not decrease the energy")
    data.pop("nullity_max", None)
    for key in VANISHING.get(kind, ()):
        if key in data:
            bound = VANISHING_BOUND[key] * (nodes if key == "density_abs_sum" else 1)
            gate(abs(data.pop(key)) <= bound, f"{key} of a {kind} above {bound:g}")
    return data


def cli_op(argv, report, name, nodes, kind):
    def run():
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        gate(code == 0, f"qg {argv[0]} exited {code}")
        if report is None:
            return {"exit": code}
        with open(report) as fh:
            data = json.load(fh)
        return _report_scalars(name, data, nodes, kind)
    return run


def surface_ops(spec, workdir, index):
    nodes = spec.n * spec.n
    return [Op(f"{spec.key}/{name}", nodes, cli_op(argv, report, name, nodes, spec.kind))
            for name, argv, report in cli_commands(spec, workdir, index)]


def cli_pass(rng, workdir, tiny=False):
    ops = []
    for index, spec in enumerate(cli_surfaces(rng, tiny)):
        ops += surface_ops(spec, workdir, index)
    return ops


# ---------------------------------------------------------------------------


def make_pass(workload, seed, index, workdir, tiny=False):
    """The ops of pass `index` of a workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "suites":
        return suites_pass(seed, tiny)
    if workload == "spectral":
        return spectral_pass(rng, tiny)
    if workload == "cli-small":
        return cli_pass(rng, workdir, tiny)
    raise ValueError(f"unknown workload {workload!r}")
