#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every operation of every workload once, in-process, and writes
perfbench/reference.json: SHA-256 digests of each CLI command's stdout and
output files, and the endpoints, final entropy production and
density-matrix diagonals of the full-dynamics cases.  The committed file
was recorded at the seed commit; regenerate it only in a change that states
why the program's outputs moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.pin_environment()
    import workloads
    reference = {"env": run.environment()}
    workdir = os.path.join(run.WORK_ROOT, f"reference-{os.getpid()}")
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            os.makedirs(workdir)
            wl.setup(workdir)
            ref = reference[name] = {}
            if name == "full-dynamics":
                cases = wl.cases
                for gate, row in workloads.EVOLVE_CASES:
                    label = workloads.case_label(gate, row)
                    for mode in ("full", "quasi"):
                        traj = cases.evolve(mode, gate, row)
                        ref[f"{mode}-{label}"] = {"endpoint": traj.endpoint,
                                                  "sigma": float(traj.sigma[-1])}
                for gate, dim in workloads.STEADY_CASES:
                    rho, _ = cases.steady(gate)
                    ref[f"steady-d{dim}"] = {"diag": [float(x) for x in rho.diagonal().real]}
                rho, _ = cases.master()
                ref["integrate-master"] = {"diag": [float(x) for x in rho.diagonal().real]}
            else:
                commands = (workloads.SWEEPS if name == "transfer-sweep"
                            else wl.commands)
                for cmd in commands:
                    code, out = workloads.run_cli_in_process(cmd.argv, workdir)
                    if code != 0:
                        raise RuntimeError(f"{cmd.name} exited {code}")
                    files = {}
                    for rel in cmd.outputs:
                        with open(os.path.join(workdir, rel), "rb") as fh:
                            files[rel] = workloads.sha256(fh.read())
                    ref[cmd.name] = {"stdout": workloads.sha256(out), "files": files}
            shutil.rmtree(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
