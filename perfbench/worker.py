"""One cold pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--tiny] [--plant]
                                [--setup-only] [--trace-out PATH]

Times set-up (importing liecograph and loading the inputs), then runs every
job once, one after another, and prints one JSON object: set-up and pass
wall time, process CPU time, peak RSS, jobs attempted and failed, the first
few failures and, with --trace-out, the per-layer metrics (spans are written
to PATH).  `run.py` starts one worker per pass so the library's caches start
cold each time, as they do for every CLI invocation.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--plant", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import liecograph.cli  # noqa: F401  (imports every library module)
    import workloads
    if not Path(liecograph.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"liecograph imported from {liecograph.cli.__file__}, "
                 f"not from {SRC}")
    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    jobs = workloads.load(args.workload, args.seed, HERE / "inputs",
                          tiny=args.tiny, plant=args.plant)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    failures = []
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    for name, run in jobs:
        try:
            run()
        except Exception as e:  # a wrong or crashed job is counted, not fatal
            failures.append(f"{name}: {type(e).__name__}: {e}")
    w1 = time.perf_counter()
    result = {
        "setup_s": setup_s,
        "wall_s": w1 - w0,
        "cpu_s": _cpu_s() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:5],
    }
    if tracer:
        result["layers"] = tracer.metrics(w0, w1)
        tracer.dump(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
