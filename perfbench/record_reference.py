"""Record reference.json: the expected scalars of every op a seed can draw.

    python3 perfbench/record_reference.py

Run at the commit whose outputs define "correct" (for this file, the commit
before the benchmark was added).  Every catalogue entry of workloads.py is
run once; an op whose gates fail stops the recording.
"""

import json
import shutil

import run


def catalogue(workloads, workdir):
    ops = workloads.suites_pass(seed=1) + [workloads.logm_op(seed=1)]
    for n in (33, 65, 129):
        ops += [workloads.torus_op(p, n) for p in workloads.TORI]
        ops += [workloads.ellipsoid_op(e, n) for e in workloads.ELL_WINDOWS[:2]]
    specs = [workloads.torus_spec(p, n) for p in workloads.TORI for n in (33, 65)]
    specs += [workloads.ellipsoid_spec(e, 33, workloads.DESCENT_SIZES)
              for e in workloads.ELL_WINDOWS]
    specs += [workloads.ellipsoid_spec(e, 65) for e in workloads.ELL_WINDOWS[:2]]
    specs += [workloads.catenoid_spec(c) for c in workloads.CATENOIDS]
    specs += [workloads.quadric_spec()]
    specs += [workloads.perturbed_spec(cxy) for cxy in workloads.PERTURBED]
    for index, spec in enumerate(specs):
        ops += workloads.surface_ops(spec, str(workdir), index)
    return ops


def main():
    run.cap_threads()
    run.import_package()
    import workloads

    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for op in catalogue(workloads, workdir):
            reference[op.key] = workloads.jsonable(op.run())
            print(op.key, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
