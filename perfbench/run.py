"""divcurl benchmark: one workload per invocation.

    python3 perfbench/run.py --workload ladder_auto --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``, not
installed.  The workload runs in a fresh child process (``worker.py``) so
that its peak RSS is its own, with at most ``nproc`` BLAS threads.  With
``--trace 0`` the set-up time is also measured, as the median of five
fresh processes that import divcurl and build the workload's inputs,
started after the workload has warmed the file cache.

A run repeats the workload's passes (at least three) and times every
study, or every stage of every discretized problem, of each pass;
``wall_s`` sums each one's fastest time, so that other tenants of a
shared machine, who only ever add time, move it less.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``attempted`` and ``failed`` count refinement levels; a level fails when
it raises, stops its study, or misses a reference check.  The lines
before it are a machine record and the raw samples, one JSON object each.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ladder_auto", "ladder_minres", "discretize_fine")
SETUP_SAMPLES = 5
# the workload child is stopped after this many seconds, so that the run
# with its set-up probes ends within 180 s
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "free_dofs_per_s": "1/s",
}
PER_LAYER_UNITS = {"_s": "s", "_bytes": "B", "_computed": "B"}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _source_record(root):
    """Git commit read from ``.git`` when present, and a digest of the
    package sources, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "divcurl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def _child(args, env, mode, out_dir, timeout):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", out_dir,
    ]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        _fail(f"worker {mode} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        _fail(f"worker {mode} printed nothing")
    return json.loads(lines[-1])


def _timing(values):
    """Median, slowest sample and count, with the samples themselves."""
    if not values:
        return {"n": 0}
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "samples": values}


def _unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_ratio", "_share", "_residual")) else "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--blas-threads", type=int, default=0,
        help="BLAS threads for the workload (default and maximum: nproc)",
    )
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "divcurl", "__init__.py")):
        _fail("run from the repository root: src/divcurl is missing")
    nproc = _nproc()
    threads = min(args.blas_threads or nproc, nproc)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)

    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run_", dir=os.path.join(root, ".bench_out"))
    try:
        summary = _child(args, env, "run", out_dir, CHILD_TIMEOUT_S)
        # the workload has warmed the file and bytecode caches
        setup = [
            _child(args, env, "setup", out_dir, 20.0)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES)
        ]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    machine = dict(summary["machine"], nproc=nproc, blas_threads=threads)
    machine.update(_source_record(root))
    machine["seed"] = args.seed
    print(json.dumps({"machine": machine}))
    samples = {
        "workload": args.workload,
        "beta": summary["beta"],
        "order": summary["order"],
        "pass_seconds": _timing(summary["pass_seconds"]),
        "traced_pass_seconds": _timing(summary["traced_pass_seconds"]),
        "best_pass_seconds": summary["wall_s"],
        "best_traced_pass_seconds": summary["traced_wall_s"],
        "setup_seconds": _timing(setup),
        "failures": summary["failures"],
    }
    print(json.dumps({"samples": samples}))

    if args.trace:
        layers = summary["layers"]
        metrics = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        metrics["trace.overhead_s"] = summary["traced_wall_s"] - summary["wall_s"]
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        wall = summary["wall_s"]
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": summary["peak_rss_mb"],
            "free_dofs_per_s": summary["free_dofs"] / wall,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
