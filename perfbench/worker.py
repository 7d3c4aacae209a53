"""One workload in one fresh process; started by ``run.py``.

    worker.py setup --workload W --seed S
        import divcurl and build the workload's problem specs and configs;
        print the seconds this took.
    worker.py run --workload W --seed S --seconds T --trace 0|1 --out DIR
        run passes of the workload for about T seconds, and at least three,
        and print one JSON summary as the last line.  With --trace 1 the
        passes are alternately untraced and traced, starting untraced.

``PYTHONPATH`` must reach the repository's ``src``; the BLAS thread
count is set by the parent before this process starts.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# Seconds one pass takes on a two-core reference machine.  A run makes
# max(MIN_PASSES, ceil(--seconds / this)) passes, so that every run of a
# workload does the same work, and its figure is each unit's fastest time
# summed over the units (``best_seconds``): on a shared machine the speed
# drifts by a third over minutes, and only the fastest of several
# repeats, spread over the run, is steady from run to run.
NOMINAL_PASS_S = {"ladder_auto": 7.0, "ladder_minres": 10.5, "discretize_fine": 1.6}
MIN_PASSES = 3
# past the first MIN_PASSES, no pass is started that would likely end past
# a quarter more than the planned time, nor past this many seconds, so that
# a run on a slower machine does less work instead of running long
HARD_LIMIT_S = 140.0


def _setup(args):
    import divcurl  # noqa: F401  (the import is what is timed)
    from workloads import Plan

    Plan(args.workload, args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def _machine():
    import platform

    import numpy
    import scipy

    def blas_version(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy.show_config),
        "scipy_openblas": blas_version(scipy.show_config),
    }


def _run(args):
    from tracing import Tracer, covered_seconds, layer_metrics
    from workloads import Plan, best_seconds, check_levels, load_references

    plan = Plan(args.workload, args.seed, args.out)
    references = load_references()
    tracer = Tracer()
    tracer.install(full=bool(args.trace))

    plain, traced, layers = [], [], []
    attempted = failed = 0
    failures = []
    nominal = NOMINAL_PASS_S[args.workload]
    passes = max(MIN_PASSES, math.ceil(args.seconds / nominal))
    passes += passes % 2 if args.trace else 0
    limit = min(HARD_LIMIT_S, 1.25 * passes * nominal)
    started = time.perf_counter()
    try:
        for i in range(passes):
            tracer.reset()
            tracer.enabled = bool(args.trace) and i % 2 == 1
            result = plan.run_pass(tracer)
            checks = check_levels(args.workload, result.levels, references)
            attempted += len(checks)
            for lvl, bad in zip(result.levels, checks):
                if bad:
                    failed += 1
                    failures.append({"level": f"{lvl.key}@{lvl.inv_h}", "checks": bad})
            (traced if tracer.enabled else plain).append(result)
            if tracer.enabled:
                m = layer_metrics(tracer.spans, tracer.counts)
                m["trace.wall_s"] = result.seconds
                m["trace.solve_share"] = m["solver.solve_s"] / result.seconds
                m["trace.discretize_share"] = (
                    covered_seconds(tracer.spans, ("mesh", "assembly", "weak_ops", "analysis"))
                    / result.seconds
                )
                layers.append(m)
            elapsed = time.perf_counter() - started
            pair_done = not args.trace or i % 2 == 1
            late = elapsed * (i + 2) / (i + 1) > limit
            if pair_done and i + 1 >= MIN_PASSES and late:
                break
    finally:
        tracer.uninstall()

    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "pass_seconds": [r.seconds for r in plain],
        "traced_pass_seconds": [r.seconds for r in traced],
        "wall_s": best_seconds(plain),
        "traced_wall_s": best_seconds(traced),
        "free_dofs": plain[0].free_dofs if plain else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "beta": plan.beta,
        "order": [key for key, _ in plan.items],
        "machine": _machine(),
    }
    print(json.dumps(summary))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    (_setup if args.mode == "setup" else _run)(args)


if __name__ == "__main__":
    sys.exit(main())
