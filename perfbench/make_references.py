"""Record the reference values the benchmark checks every level against.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs each workload once per beta of problem 7 with the current code and
writes ``perfbench/references.json``.  The recorded file comes from the
seed version of divcurl; regenerate it only when a change is meant to
alter the numbers, and say so in the change.
"""

import json
import os
import sys
import tempfile

from tracing import Tracer
from workloads import REFERENCES, WORKLOADS, Plan, variant

RECORDED = ("num_tets", "num_free", "nnz", "err_u", "err_Qu", "tnorm_dual",
            "tnorm_s", "cavity_c1", "vtk_eta_h", "rhs_norm", "asym_max")


def main():
    seeds = {}
    seed = 0
    while len(seeds) < 2:
        seeds.setdefault(variant(seed, 1)[0], seed)
        seed += 1
    tracer = Tracer()
    tracer.install(full=False)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            refs = out.setdefault(workload, {})
            for i, (beta, seed) in enumerate(sorted(seeds.items())):
                plan = Plan(workload, seed, tmp)
                if i:  # only problem 7 depends on beta
                    plan.items = [it for it in plan.items if it[0].startswith("p7")]
                for lvl in plan.run_pass(tracer).levels:
                    if lvl.error:
                        sys.exit(f"{workload} {lvl.key}@{lvl.inv_h}: {lvl.error}")
                    refs.setdefault(lvl.key, {})[str(lvl.inv_h)] = {
                        k: v for k, v in lvl.values.items() if k in RECORDED
                    }
                    print(workload, lvl.key, lvl.inv_h, lvl.method, flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCES)}")


if __name__ == "__main__":
    main()
