"""Command-line driver: surface generation, pipelines, check suites, reports.

    qg generate --kind torus --param r=1 --param R=3 --grid-nu 65 --out t.json
    qg lift --surface t.json --out lift_report.json
    qg check --suite pq-identity --grids 33,65,129 --out report.json
    qg merge --out summary.json report1.json report2.json ...

Only `generate` and `check` take key=value parameters: plain key=value lines
(one per line, # comments) via --config, overridden by each --param and by
command-line flags.  `generate` accepts its generator's own parameters (the
sampler's signature), the window_* keys, `reality` and, with --asymptotic,
`net_step`; `check` the suite's parameters.  Any other key, and --param or
--config on another command, exits 2.  Reports are deterministic given the
same config and seed.
"""

import argparse
import functools
import inspect
import json
import math
import sys

import numpy as np

from . import checks, functionals as fn, gauss_map as gm, jsonio, legendre as lg
from . import loop_tools as lt, streamnet as sn, surfaces as sf
from .errors import QuadGeoError, UsageError
from .grids import interior

GENERATORS = {
    "torus": (sf.TorusSampler, checks.TORUS_WINDOW),
    "ellipsoid": (sf.EllipsoidConfocalSampler, checks.ELL_WINDOW),
    "sphere": (sf.SphereSampler, (0.4, 1.2, 0.1, 1.2)),
    "quadric_graph": (sf.quadric_graph_sampler, checks.GRAPH_WINDOW),
    "perturbed_graph": (sf.perturbed_graph_sampler, checks.GRAPH_WINDOW),
    "revolution": (sf.RevolutionSampler, (-0.8, 0.8, 0.1, 1.5)),
}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(data, path):
    text = json.dumps(_sanitize(data), sort_keys=True, indent=1)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def load_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _parse_value(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _default_types(func):
    """Parameter name -> type of its default, for func's defaulted parameters."""
    return {name: type(p.default) for name, p in inspect.signature(func).parameters.items()
            if p.default is not p.empty}


def _check_types(params, types):
    """Raise UsageError unless each given value has its parameter's type.

    A float takes any finite number, an int or str only its own type, and a
    tuple a comma-separated list of finite numbers (parsed in place).
    """
    wanted = {float: "a finite number", int: "an integer", str: "a string",
              tuple: "a comma-separated list of finite numbers"}
    for key, kind in types.items():
        if key not in params or kind not in wanted:
            continue
        value = params[key]
        if kind is tuple:
            value = tuple(_parse_value(v) for v in str(value).split(","))
        if kind in (float, tuple):
            ok = all(isinstance(v, (int, float)) and math.isfinite(v)
                     for v in (value if kind is tuple else [value]))
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise UsageError(f"{key} must be {wanted[kind]}, got {params[key]!r}")
        params[key] = value


def _check_ranges(values, flags):
    """The one range rule: tol, tol_* finite > 0; steps, step_size finite >= 0; n_group >= 1."""
    for key, value in values.items():
        label = flags.get(key, key)
        if (key == "tol" or key.startswith("tol_")) and not (math.isfinite(value) and value > 0):
            raise UsageError(f"{label} must be finite and > 0, got {value!r}")
        if key in ("steps", "step_size") and not (math.isfinite(value) and value >= 0):
            raise UsageError(f"{label} must be finite and >= 0, got {value!r}")
        if key == "n_group" and value < 1:
            raise UsageError(f"{label} must be an integer >= 1, got {value!r}")


WINDOW_KEYS = ("window_u0", "window_u1", "window_v0", "window_v1")


def _params(args):
    """The --config file's key=value pairs overridden by each --param, values parsed."""
    params = load_config(args.config) if args.config else {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        params[key.replace("-", "_")] = val
    return {key: _parse_value(val) for key, val in params.items()}


def cmd_generate(args):
    if args.kind not in GENERATORS:
        raise UsageError(f"unknown surface kind {args.kind!r}")
    factory, default_window = GENERATORS[args.kind]
    params = _params(args)
    names = _default_types(factory)
    types = {**names, **dict.fromkeys(WINDOW_KEYS, float)}
    if args.asymptotic:
        types["net_step"] = float
    accepted = (*types, "reality")
    unknown = [key for key in params if key not in accepted]
    if unknown:
        hint = "; net_step needs --asymptotic" if "net_step" in unknown else ""
        raise UsageError(f"kind {args.kind!r} takes no parameter {', '.join(unknown)}; "
                         f"accepted: {', '.join(accepted)}{hint}")
    _check_types(params, types)
    sampler = factory(**{k: v for k, v in params.items() if k in names})
    window = tuple(params.get(key, default_window[i]) for i, key in enumerate(WINDOW_KEYS))
    surface = sf.make_surface(sampler, window, args.grid_nu, args.grid_nv,
                              reality=params.get("reality", "real"))
    if args.asymptotic:
        if surface.geometry != sf.PROJECTIVE3:
            raise UsageError("--asymptotic needs a projective generator")
        h = params.get("net_step", 0.45 / (args.grid_nu - 1))
        surface = sn.asymptotic_reparametrize(
            surface, args.grid_nu, args.grid_nv, h, h, sampler=sampler
        )
    jsonio.write_surface(surface, args.out)
    return 0


def _load_surface(path):
    surface = jsonio.read_surface(path)
    if surface.geometry == sf.EUCLIDEAN3 and not surface.has_kappa():
        surface = sf.principal_data(surface)
    return surface


def _load_gauss(path):
    return gm.conformal_gauss(lg.lift(_load_surface(path)))


def cmd_lift(args):
    rep = lg.validate(lg.lift(_load_surface(args.surface)))
    _write_json({k: rep[k] for k in ("nullity_max", "legendre_max", "focal_max")}, args.out)
    return 0


def cmd_gauss(args):
    gauss = _load_gauss(args.surface)
    _write_json(
        {
            "orthogonality_max": float(np.max(interior(gm.orthogonality_residual(gauss)))),
            "conformality_max": float(np.max(interior(gm.conformality_residual(gauss)))),
            "degenerate_nodes": int(gauss.degenerate.sum()),
            "eps": "i" if gauss.eps == 1j else "1",
            "signature_z": gauss.signature_z,
        },
        args.out,
    )
    return 0


def cmd_energy(args):
    _write_json(jsonio.energy_to_dict(fn.willmore_energy(_load_gauss(args.surface))), args.out)
    return 0


def cmd_tension(args):
    tf = gm.tension(_load_gauss(args.surface))
    norm, codazzi = (interior(f, gm.TENSION_MARGIN) for f in (tf.norm, tf.codazzi_diff))
    _write_json({"tau_max": float(np.max(norm)), "tau_min": float(np.min(norm)),
                 "codazzi_max": float(np.max(codazzi))}, args.out)
    return 0


def cmd_check(args):
    accepted = checks.suite_parameters(args.suite)
    params = _params(args)
    if args.grids:
        params["grids"] = args.grids
    _check_types(params, _default_types(checks.SUITES[args.suite]))
    kwargs = dict(params)
    flags = {}
    if args.tolerance is not None:
        kwargs["tol"], flags["tol"] = args.tolerance, "--tolerance"
    _check_ranges({k: v for k, v in kwargs.items() if k in accepted or k in flags}, flags)
    if args.seed is not None and "seed" in accepted:
        kwargs["seed"] = args.seed
    given = args.lambda_re is not None or args.lambda_im is not None
    if given and "lam" in accepted:
        lam = complex(args.lambda_re or 0.0, args.lambda_im or 0.0)
        kwargs["lam"] = lam.real if lam.imag == 0 else lam
    report = checks.run_suite(args.suite, **kwargs)
    report["config"] = {
        "suite": args.suite,
        "grids": list(kwargs.get("grids", checks.DEFAULT_GRIDS)),
        "seed": kwargs.get("seed", args.seed),
    }
    _write_json(report, args.out)
    return 0 if report["pass"] else 1


def cmd_deform(args):
    gauss = _load_gauss(args.surface)
    lam = complex(args.lambda_re, args.lambda_im)
    lam = lam.real if lam.imag == 0 else lam
    deformed = lt.spectral_deform(gauss, lam)
    r1, r2 = gm.blaschke_residual(deformed)
    _write_json(
        {
            "lambda_re": float(np.real(lam)),
            "lambda_im": float(np.imag(lam)),
            "blaschke_u": float(np.max(interior(r1))),
            "blaschke_v": float(np.max(interior(r2))),
            "integration_consistency": deformed.meta["integration_consistency"],
        },
        args.out,
    )
    return 0


def cmd_dualize(args):
    gauss = _load_gauss(args.surface)
    dual = lt.dualize(gauss)
    alpha = lt.maurer_cartan(lt.frame(dual))
    if args.connection_out:
        jsonio.write_connection(alpha, args.connection_out)
    _write_json(
        {
            "source_signature": [gauss.space.m, gauss.space.n],
            "dual_signature": [dual.space.m, dual.space.n],
            "imaginary_defect": dual.meta["imaginary_defect"],
            "integration_consistency": dual.meta["integration_consistency"],
        },
        args.out,
    )
    return 0


def cmd_descent(args):
    _check_ranges({"steps": args.steps, "step_size": args.step_size},
                  {"steps": "--steps", "step_size": "--step-size"})
    surface = _load_surface(args.surface)
    reports, _ = fn.willmore_descent(surface, steps=args.steps, step_size=args.step_size)
    w = [r.total for r in reports]
    _write_json({"energy_sequence": w, "drop": w[0] - w[-1],
                 "monotone": all(b <= a + 1e-15 for a, b in zip(w, w[1:]))}, args.out)
    return 0


def cmd_merge(args):
    reports = [jsonio.read_report(p) for p in args.reports]
    merged = checks.report_merge(reports)
    _write_json(merged, args.out)
    return 0 if merged["pass"] else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise a one-line UsageError instead of printing usage and exiting."""
        raise UsageError(f"{self.prog}: {message}")


NUMBER_FLAGS = ("--tolerance", "--lambda-re", "--lambda-im", "--steps", "--step-size")


def _join_signed_values(argv):
    """Spell `--tolerance -1e-3` as `--tolerance=-1e-3` for the numeric flags:
    argparse takes a value such as -1e-3 or -inf for the next option."""
    out = []
    for token in argv:
        if out and out[-1] in NUMBER_FLAGS and not isinstance(_parse_value(token), str):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def build_parser():
    """The `qg` parser, built once per process: parsing leaves it unchanged
    (an `append` action copies its default list before appending)."""
    top = _Parser(prog="qg", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="-", help="output JSON path (default stdout)")

    def parameters(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--param", action="append", default=[],
                       help="extra key=value parameter (repeatable)")

    p = sub.add_parser("generate", help="write a surface grid JSON")
    common(p)
    parameters(p)
    p.add_argument("--kind", required=True, help="|".join(GENERATORS))
    p.add_argument("--grid-nu", type=int, default=65)
    p.add_argument("--grid-nv", type=int, default=65)
    p.add_argument("--asymptotic", action="store_true",
                   help="reparametrize a projective graph to asymptotic lines")

    for name in ("lift", "gauss", "energy", "tension"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--surface", required=True)

    p = sub.add_parser("check", help="run a named verification suite")
    common(p)
    parameters(p)
    p.add_argument("--suite", required=True)
    p.add_argument("--grids", help="comma-separated refinement sizes")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda-re", type=float)
    p.add_argument("--lambda-im", type=float)

    p = sub.add_parser("deform")
    common(p)
    p.add_argument("--surface", required=True)
    p.add_argument("--lambda-re", type=float, default=2.0)
    p.add_argument("--lambda-im", type=float, default=0.0)

    p = sub.add_parser("dualize")
    common(p)
    p.add_argument("--surface", required=True)
    p.add_argument("--connection-out")

    p = sub.add_parser("descent")
    common(p)
    p.add_argument("--surface", required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--step-size", type=float, default=2e-6)

    p = sub.add_parser("merge")
    common(p)
    p.add_argument("reports", nargs="+")
    return top


COMMANDS = {
    "generate": cmd_generate,
    "lift": cmd_lift,
    "gauss": cmd_gauss,
    "energy": cmd_energy,
    "tension": cmd_tension,
    "check": cmd_check,
    "deform": cmd_deform,
    "dualize": cmd_dualize,
    "descent": cmd_descent,
    "merge": cmd_merge,
}


def main(argv=None):
    argv = _join_signed_values(sys.argv[1:] if argv is None else argv)
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise UsageError(f"qg {args.command}: unrecognized arguments: {' '.join(extra)}")
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        for flag in ("lambda_re", "lambda_im"):
            value = getattr(args, flag, None)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"--{flag.replace('_', '-')} must be finite, got {value!r}")
        return COMMANDS[args.command](args)
    except (QuadGeoError, ValueError, OSError) as exc:
        print(f"qg {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
