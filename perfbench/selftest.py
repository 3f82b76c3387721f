"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. Each workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, each with its unit, and no op fails.  The traced
   run reports nonzero values for the layers the workload reaches (TOUCHED;
   the layers it never calls read 0) and an overhead ratio of at least 1.
2. With `legendre.validate` corrupted, every workload reports failed ops:
   once with the lift nullity raised to 1e-3 (caught by the gates) and once
   with the focal residual off by 1e-5 relative (caught only by comparing
   an ellipsoid's focal residual, a discretisation error, with
   reference.json).
Exits 0 when both hold.
"""

import json
import sys

import run


def expected_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


# per-layer metrics that must be nonzero on each workload at tiny sizes
TOUCHED = {
    "suites": (
        "checks.suite.lift-invariants.wall_s", "checks.geometry.calls",
        "checks.geometry.repeat_share", "legendre.lie_lift.self_s",
        "gauss_map.conformal_gauss.calls", "surfaces.self_s", "grids.self_s",
    ),
    "spectral": (
        "loop_tools.frame.calls", "loop_tools.frame.repeat_share",
        "loop_tools.spectral_deform.calls", "loop_tools.dualize.calls",
        "loop_tools.frame.n33.ms_per_call", "gauss_map.reconstruct.calls",
        "matfun.expm.matrices", "matfun.logm.matrices", "matfun.logm.fallbacks",
        "matfun.logm.fallback_share", "matfun.reproject_orthogonal.calls",
    ),
    "cli-small": (
        "cli.generate.self_s", "cli.descent.self_s", "jsonio.bytes_read",
        "jsonio.bytes_written", "surfaces.principal_data.calls",
        "functionals.descent.attempts_per_step", "gauss_map.tension.calls",
    ),
}


def corrupt_validate(original, key, change):
    def validate(grid):
        rep = dict(original(grid))
        rep[key] = change(rep[key])
        return rep
    return validate


CORRUPTIONS = {
    "nullity_max": lambda x: x + 1e-3,
    "focal_max": lambda x: x * (1.0 + 1e-5),
}


def main():
    run.cap_threads()
    run.import_package()
    from quadgeo import legendre

    problems = []
    named = expected_metrics()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            summary, result = run.run(workload, seed=1, seconds=0, trace=trace, tiny=True)
            print(summary, flush=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != named[trace]:
                problems.append(f"{workload} trace={trace}: metrics or units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(named[trace]))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} ops failed")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                zero = [k for k in TOUCHED[workload] if not values.get(k)]
                if zero:
                    problems.append(f"{workload}: traced layers read 0: {zero}")
                if not values["trace.overhead_ratio"] >= 1.0:
                    problems.append(f"{workload}: overhead ratio below 1")
    original = legendre.validate
    for key, change in CORRUPTIONS.items():
        legendre.validate = corrupt_validate(original, key, change)
        try:
            for workload in run.WORKLOADS:
                summary, result = run.run(workload, seed=1, seconds=0, trace=0, tiny=True)
                print(f"corrupted {key}:", summary, flush=True)
                if result["correct"] or result["failed"] == 0:
                    problems.append(f"{workload}: corrupted {key} went unnoticed")
        finally:
            legendre.validate = original
    for line in problems:
        print("SELFTEST FAILED:", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
