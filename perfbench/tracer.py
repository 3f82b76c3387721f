"""Outside-in tracing of the quadgeo layers.

The tracer replaces every binding through which a caller reaches a public
function of a `quadgeo` module: the module global itself, each `from`-import
of it in another module, the `cli.COMMANDS` and `checks.SUITES` tables and
the line-field classes' `eval`.  Each wrapper records one span
(name, start, end, parent, op id, grid size) in memory; counters that need
the arguments or the result are taken in small hooks at the same boundary.
Nothing inside the package is edited, so an untraced run executes exactly
the code that ships.
"""

import functools
import importlib
import inspect
import json
import os
import statistics
import time
import weakref
from collections import Counter

import numpy as np
import scipy.linalg

LAYERS = (
    "surfaces", "streamnet", "legendre", "gauss_map", "functionals",
    "loop_tools", "matfun", "pseudo_linalg", "grids", "checks", "cli", "jsonio",
)

# the ROADMAP's per-stage table: inclusive ms per call by grid size
STAGES = (
    "loop_tools.frame", "loop_tools.maurer_cartan", "loop_tools.flatness_residual",
    "gauss_map.reconstruct", "gauss_map.conformal_gauss", "gauss_map.dS",
)
GRID_SIZES = (33, 65, 129)

SUITE_NAMES = (
    "lift-invariants", "pq-identity", "conformality", "orthogonality",
    "tension-lemma", "blaschke-roundtrip", "invariance", "flatness", "deform",
    "dualize", "descent",
)
CLI_COMMANDS = ("generate", "lift", "gauss", "energy", "tension", "descent")


class _IdentitySeen:
    """Remembers objects by identity without keeping them alive."""

    def __init__(self):
        self._refs = {}

    def seen(self, obj):
        ref = self._refs.get(id(obj))
        if ref is not None and ref() is obj:
            return True
        self._refs[id(obj)] = weakref.ref(obj)
        return False


class Tracer:
    """Spans and counters recorded at the public boundaries of each layer."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []          # [name id, start, end, parent index, op id, grid n]
        self._stack = []
        self.op = -1
        self.counters = Counter()
        self._undo = []
        self._geometry_keys = set()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper of `fn` that records one span per call."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            if before is not None:
                before(rec, args, kwargs)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def count_only(self, fn, counter):
        """A wrapper of `fn` that bumps `counter` and records no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, package):
        """Wrap every binding of the public functions of `package`'s layers."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        checks, cli = modules["checks"], modules["cli"]
        special = {fn: f"checks.suite.{name}" for name, fn in checks.SUITES.items()}
        special.update({fn: f"cli.{name}" for name, fn in cli.COMMANDS.items()})
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = special.get(fn, f"{short}.{attr}")
                    wrappers[fn] = self.wrap(name, fn, *self._hooks(name))
        # rebind the module globals and every from-import of them
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        for table in (checks.SUITES, cli.COMMANDS):
            for key, fn in list(table.items()):
                self._set(table, key, wrappers[fn])
        sn = modules["streamnet"]
        for cls in (sn.AnalyticLineFields, sn.GridLineFields):
            self._set(cls, "eval", self.wrap("streamnet.field_eval", cls.eval,
                                             before=self._count_points))
        # the scipy fallback as matfun reaches it: `scipy.linalg.logm`
        self._set(scipy.linalg, "logm",
                  self.count_only(scipy.linalg.logm, "matfun.logm.fallbacks"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- hooks -------------------------------------------------------------

    def _hooks(self, name):
        if name in ("gauss_map.dS", "loop_tools.frame"):
            return self._chain(self._stage_size, self._repeat(name)), None
        if name in STAGES:
            return self._stage_size, None
        if name in ("matfun.expm", "matfun.logm"):
            return self._matrices(name), None
        if name.startswith("checks.make_"):
            return self._geometry(name), None
        if name == "functionals.willmore_descent":
            return None, self._descent_steps
        if name.startswith("jsonio.read_"):
            return self._bytes_read, None
        if name.startswith("jsonio.write_"):
            return None, self._bytes_written
        return None, None

    @staticmethod
    def _chain(*hooks):
        def both(rec, args, kwargs):
            for hook in hooks:
                hook(rec, args, kwargs)
        return both

    @staticmethod
    def _stage_size(rec, args, kwargs):
        chart = getattr(args[0], "chart", None) if args else None
        rec[5] = chart.nu if chart is not None else 0

    def _repeat(self, name):
        """Counts calls whose first argument (the Gauss map) was seen before."""
        seen = _IdentitySeen()

        def hook(rec, args, kwargs):
            if args and seen.seen(args[0]):
                self.counters[f"{name}.repeats"] += 1
        return hook

    def _matrices(self, name):
        def hook(rec, args, kwargs):
            a = np.asarray(args[0])
            n = a.shape[-1] if a.ndim >= 2 else 1
            self.counters[f"{name}.matrices"] += a.size // max(n * n, 1)
            self.counters[f"{name}.bytes_in"] += a.nbytes
        return hook

    def _geometry(self, name):
        def hook(rec, args, kwargs):
            key = (name, args, tuple(sorted(kwargs.items())))
            self.counters["checks.geometry.calls"] += 1
            if key in self._geometry_keys:
                self.counters["checks.geometry.repeats"] += 1
            self._geometry_keys.add(key)
        return hook

    def _descent_steps(self, result, args, kwargs):
        self.counters["functionals.descent.steps"] += len(result[0]) - 1

    def _count_points(self, rec, args, kwargs):
        self.counters["streamnet.field_eval.points"] += np.asarray(args[1]).size // 2

    @staticmethod
    def _path(args, kwargs):
        return kwargs.get("path", args[-1] if args else None)

    def _bytes_read(self, rec, args, kwargs):
        self.counters["jsonio.bytes_read"] += os.path.getsize(self._path(args, kwargs))

    def _bytes_written(self, result, args, kwargs):
        self.counters["jsonio.bytes_written"] += os.path.getsize(self._path(args, kwargs))

    # -- reduction ---------------------------------------------------------

    def span_table(self):
        """(name, duration, self time, grid n, parent) per span."""
        dur = [end - start for _, start, end, _, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for rec, d in zip(self.spans, dur):
            if rec[3] >= 0:
                child[rec[3]] += d
        return [
            (self.names[rec[0]], d, d - c, rec[5], rec[3])
            for rec, d, c in zip(self.spans, dur, child)
        ]

    def layer_metrics(self):
        """Every per-layer metric of the benchmark, from one traced pass."""
        table = self.span_table()
        self_s, calls, incl = Counter(), Counter(), Counter()
        by_size = Counter()
        for name, d, s, n, _ in table:
            self_s[name] += s
            calls[name] += 1
            incl[name] += d
            if name in STAGES and n in GRID_SIZES:
                by_size[(name, n, "s")] += d
                by_size[(name, n, "calls")] += 1
        c = self.counters
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.self_s",
                sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer), "s")
        put("surfaces.principal_data.self_s", self_s["surfaces.principal_data"], "s")
        put("surfaces.principal_data.calls", calls["surfaces.principal_data"], "count")
        put("streamnet.march_net.self_s", self_s["streamnet.march_net"], "s")
        put("streamnet.field_eval.calls", calls["streamnet.field_eval"], "count")
        put("streamnet.field_eval.points", c["streamnet.field_eval.points"], "count")
        for fn in ("lie_lift", "proj_lift", "validate"):
            put(f"legendre.{fn}.self_s", self_s[f"legendre.{fn}"], "s")
        for fn in ("conformal_gauss", "dS", "tension", "reconstruct"):
            put(f"gauss_map.{fn}.self_s", self_s[f"gauss_map.{fn}"], "s")
            put(f"gauss_map.{fn}.calls", calls[f"gauss_map.{fn}"], "count")
        put("gauss_map.dS.repeat_share",
            _share(c["gauss_map.dS.repeats"], calls["gauss_map.dS"]), "ratio")
        for fn in ("willmore_energy", "proj_density", "willmore_descent", "invariance_report"):
            put(f"functionals.{fn}.self_s", self_s[f"functionals.{fn}"], "s")
        put("functionals.descent.attempts_per_step",
            _share(self._principal_data_in_descent(table), c["functionals.descent.steps"]),
            "ratio")
        for fn in ("frame", "maurer_cartan", "flatness_residual", "integrate_frame",
                   "spectral_deform", "dualize"):
            put(f"loop_tools.{fn}.self_s", self_s[f"loop_tools.{fn}"], "s")
            put(f"loop_tools.{fn}.calls", calls[f"loop_tools.{fn}"], "count")
        put("loop_tools.frame.repeat_share",
            _share(c["loop_tools.frame.repeats"], calls["loop_tools.frame"]), "ratio")
        for fn in ("expm", "logm"):
            put(f"matfun.{fn}.self_s", self_s[f"matfun.{fn}"], "s")
            put(f"matfun.{fn}.matrices", c[f"matfun.{fn}.matrices"], "count")
            put(f"matfun.{fn}.bytes_in", c[f"matfun.{fn}.bytes_in"], "B")
        put("matfun.logm.fallbacks", c["matfun.logm.fallbacks"], "count")
        put("matfun.logm.fallback_share",
            _share(c["matfun.logm.fallbacks"], c["matfun.logm.matrices"]), "ratio")
        put("matfun.reproject_orthogonal.self_s", self_s["matfun.reproject_orthogonal"], "s")
        put("matfun.reproject_orthogonal.calls", calls["matfun.reproject_orthogonal"], "count")
        for suite in SUITE_NAMES:
            put(f"checks.suite.{suite}.wall_s", incl[f"checks.suite.{suite}"], "s")
        put("checks.geometry.calls", c["checks.geometry.calls"], "count")
        put("checks.geometry.repeat_share",
            _share(c["checks.geometry.repeats"], c["checks.geometry.calls"]), "ratio")
        for cmd in CLI_COMMANDS:
            put(f"cli.{cmd}.self_s", self_s[f"cli.{cmd}"], "s")
        put("jsonio.read_surface.self_s", self_s["jsonio.read_surface"], "s")
        put("jsonio.write_surface.self_s", self_s["jsonio.write_surface"], "s")
        put("jsonio.bytes_read", c["jsonio.bytes_read"], "B")
        put("jsonio.bytes_written", c["jsonio.bytes_written"], "B")
        for stage in STAGES:
            for n in GRID_SIZES:
                k = by_size[(stage, n, "calls")]
                put(f"{stage}.n{n}.ms_per_call",
                    1e3 * by_size[(stage, n, "s")] / k if k else 0.0, "ms")
        return out

    def _principal_data_in_descent(self, table):
        descent = self._ids.get("functionals.willmore_descent")
        count = 0
        for name, _, _, _, parent in table:
            if name != "surfaces.principal_data":
                continue
            while parent >= 0:
                if self.spans[parent][0] == descent:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def write(self, path):
        """Dump the spans (name table plus rows) as one JSON document."""
        rows = [[r[0], round(r[1], 7), round(r[2], 7), r[3], r[4]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": rows,
                       "counters": dict(self.counters)}, fh)


def _share(part, whole):
    return part / whole if whole else 0.0


def wrapper_cost(calls=20000, repeats=7):
    """Seconds one traced call adds to the call it wraps: the median over
    `repeats` of a wrapped no-op's time less the bare no-op's, per call.
    The hooks that take counters are not included."""
    scratch = Tracer()

    def noop(*args, **kwargs):
        return None

    wrapped = scratch.wrap("noop", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        scratch.spans.clear()
        t0 = clock()
        for _ in range(calls):
            noop(0)
        t1 = clock()
        for _ in range(calls):
            wrapped(0)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
