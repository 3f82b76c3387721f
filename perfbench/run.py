"""quadgeo benchmark: one process, one closed-loop client, seeded workloads.

    python3 perfbench/run.py --workload suites|spectral|cli-small \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  A run
repeats whole passes of the workload (see workloads.py) until about
`--seconds` have passed, the last pass ending within half a pass of it, and
at least one pass.  Every op's output is checked against the gates `checks`
applies, and its scalars above the roundoff floor against `reference.json`
(workloads.py lists which are gated and which compared).  The last stdout
line is one JSON object {correct, attempted, failed, metrics}:

  --trace 0  end-to-end metrics, measured untraced:
             wall_s       median time of one pass
             nodes_per_s  grid nodes of completed ops / their total time; for
                          suites a nominal figure (each suite counts the
                          33^2+65^2+129^2 nodes of the default grids)
             op_p50_ms,   median and 90th percentile of per-op latency (an op
             op_p90_ms    is one suite, one surface pipeline, one cli command)
             setup_s      median over 7 set-ups of a fresh-process import of
                          quadgeo plus building the run's op lists; the ops
                          generate their surfaces inside the timed region, so
                          this is in effect the import time
             peak_rss_mb  this process's ru_maxrss
  --trace 1  per-layer metrics of one traced pass (tracer.py).
             trace.overhead_ratio is the traced pass time over that time less
             the wrappers' cost: spans recorded times the cost of one traced
             call, timed on a wrapped no-op in this process.  A per-layer
             metric is 0 on a workload that never reaches that layer.

The error rate is failed/attempted and is printed on the line before the
JSON.  BLAS/OpenMP threads are capped at the number of usable cores.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOADS = ("suites", "spectral", "cli-small")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import quadgeo.cli\n"
    "print(time.perf_counter() - t)\n"
)


def cap_threads():
    """Cap BLAS/OpenMP threads at the usable cores; call before numpy is imported."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores


def import_package():
    """Import quadgeo from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "quadgeo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quadgeo package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import quadgeo

    if Path(quadgeo.__file__).resolve().parent != SRC / "quadgeo":
        sys.exit(f"perfbench: quadgeo imported from {quadgeo.__file__}, not {SRC}")


def fresh_import_seconds():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT, env=os.environ,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """The q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One closed-loop client executing passes and tallying results."""

    def __init__(self, workload, seed, workdir, reference, tiny=False):
        self.workload, self.seed, self.workdir, self.tiny = workload, seed, workdir, tiny
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.latencies = []
        self.node_count = 0
        self.op_time = 0.0

    def ops(self, index):
        import workloads

        return workloads.make_pass(self.workload, self.seed, index, self.workdir, self.tiny)

    def execute(self, ops, tracer=None):
        """Run one pass; return its wall time."""
        import workloads

        start = time.perf_counter()
        for number, op in enumerate(ops):
            if tracer is not None:
                tracer.op = number
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                scalars = op.run()
            except Exception as exc:  # every op failure is counted, not fatal
                self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            expected = self.reference.get(op.key)
            problems = (["no reference entry"] if expected is None
                        else workloads.compare(expected, workloads.jsonable(scalars)))
            if problems:
                self.failures.append(f"{op.key}: {'; '.join(problems[:3])}")
                continue
            self.latencies.append(elapsed)
            self.node_count += op.nodes
            self.op_time += elapsed
        return time.perf_counter() - start

    def measure(self, seconds):
        """Whole passes until `seconds`, stopping within half a pass of it."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.execute(self.ops(len(passes))))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds - statistics.median(passes) / 2:
                return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, tiny=False):
    """Set up, measure and return (summary text, result dict)."""
    import workloads  # noqa: F401  (imports quadgeo before any timing)

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    workdir = OUT / f"work-{os.getpid()}"
    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = fresh_import_seconds()
        t0 = time.perf_counter()
        workdir.mkdir(parents=True, exist_ok=True)
        Run(workload, seed, str(workdir), reference, tiny).ops(0)
        setups.append(t_import + time.perf_counter() - t0)
    client = Run(workload, seed, str(workdir), reference, tiny)
    try:
        if trace:
            metrics, passes = traced(client, seed)
        else:
            passes = client.measure(seconds)
            metrics = {
                "wall_s": metric(statistics.median(passes), "s"),
                "nodes_per_s": metric(client.node_count / max(client.op_time, 1e-12), "nodes/s"),
                "op_p50_ms": metric(1e3 * percentile(client.latencies, 50), "ms"),
                "op_p90_ms": metric(1e3 * percentile(client.latencies, 90), "ms"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(client.failures)
    summary = (
        f"workload={workload} seed={seed} passes={len(passes)} ops={client.attempted} "
        f"latency_samples={len(client.latencies)} "
        f"error_rate={failed / max(client.attempted, 1):g} ({failed}/{client.attempted})"
    )
    for line in client.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": client.attempted,
              "failed": failed, "metrics": metrics}
    return summary, result


def traced(client, seed):
    """One traced pass; per-layer metrics."""
    from tracer import Tracer, wrapper_cost

    tracer = Tracer()
    tracer.install("quadgeo")
    cpu0 = os.times()
    try:
        traced_s = client.execute(client.ops(0), tracer)
    finally:
        tracer.uninstall()
    cpu1 = os.times()
    metrics = tracer.layer_metrics()
    metrics["process.cpu_s"] = metric(
        (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system), "s")
    overhead_s = len(tracer.spans) * wrapper_cost()
    metrics["trace.overhead_ratio"] = metric(traced_s / (traced_s - overhead_s), "ratio")
    tracer.write(OUT / f"spans-{client.workload}-seed{seed}.json")
    return metrics, [traced_s]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (it seeds numpy's SeedSequence)")
    cap_threads()
    import_package()
    summary, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
