"""Run every workload untraced and traced and print every metric.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

For each workload this runs ``run.py`` with ``--trace 0`` (end-to-end
metrics) and ``--trace 1`` (per-layer metrics), then ``ladder_minres``
once more, traced, with one BLAS thread as the single-thread baseline.
It prints each metric by name with its unit, the failed share of the
levels, the tracing overhead and the layer-share checks, and writes
everything with the machine record to ``.bench_out/report.json``.
Exit code 0 when every level passed its checks and every share check
held, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, seed, seconds, trace, threads=0):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if threads:
        cmd += ["--blas-threads", str(threads)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    record = {k: v for line in lines[:-1] for k, v in line.items()}
    record["result"] = lines[-1]
    return record


def _print_metrics(title, result):
    print(f"\n## {title}")
    levels = f"{result['failed']}/{result['attempted']}"
    print(f"  {'levels_failed':40s} {result['failed'] / result['attempted']:>14.6g}"
          f"  ratio  ({levels} levels)")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g}  {m['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)

    out = {"seed": args.seed, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        plain = _run(w, args.seed, args.seconds, 0)
        traced = _run(w, args.seed, args.seconds, 1)
        out["machine"] = plain["machine"]
        entry = {"untraced": plain, "traced": traced}
        _print_metrics(f"{w}: end to end (untraced)", plain["result"])
        _print_metrics(f"{w}: per layer (traced)", traced["result"])
        lm = traced["result"]["metrics"]
        overhead = lm["trace.overhead_s"]["value"]
        entry["tracing_overhead_s"] = overhead
        print(f"  {'tracing overhead, traced - untraced passes':40s} {overhead:>14.6g}  s")
        checks = []
        if w == "ladder_auto":
            checks.append(("solver.solve_s >= 90% of wall_s",
                           lm["trace.solve_share"]["value"] >= 0.9))
        if w == "discretize_fine":
            checks.append(("solver.solve_s == 0", lm["solver.solve_s"]["value"] == 0))
            checks.append(("mesh+assembly+weak_ops+analysis >= 90% of wall_s",
                           lm["trace.discretize_share"]["value"] >= 0.9))
        for text, good in checks:
            print(f"  [{'ok' if good else 'FAIL'}] {text}")
        ok &= all(good for _, good in checks)
        ok &= plain["result"]["correct"] and traced["result"]["correct"]
        out["workloads"][w] = entry

    single = _run("ladder_minres", args.seed, args.seconds, 1, threads=1)
    _print_metrics("ladder_minres: per layer, one BLAS thread", single["result"])
    default = out["workloads"]["ladder_minres"]["traced"]["result"]["metrics"]
    for name in ("solver.minres_s", "solver.minres_iters", "trace.wall_s"):
        print(f"  {name}: {single['result']['metrics'][name]['value']:.6g} with one "
              f"BLAS thread, {default[name]['value']:.6g} with "
              f"{out['machine']['blas_threads']}")
    out["single_thread_ladder_minres"] = single
    ok &= single["result"]["correct"]

    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "report.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"\nmachine: {json.dumps(out['machine'])}")
    print("wrote .bench_out/report.json")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
