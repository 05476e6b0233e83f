"""liecograph benchmark: a workload timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` measures each workload in turn; its last line then names
every metric `<workload>.<metric>`.

Run from anywhere inside a checkout of the repository; the library is
imported from its `src/` directory, nothing is installed.  Workloads, metrics
and units are declared in BENCHMARK.json at the root of the checkout, and
perfbench/NOTES.md says what each one measures.

Every pass over a workload's jobs runs in a fresh interpreter (worker.py), so
the library's caches start cold, as they do for each CLI invocation.  Passes
run one after another, never two at once, and further passes start only
while they are expected to end within S seconds; at least one runs.

--trace 0 prints the end-to-end metrics: the median pass wall time, the
median peak RSS of a pass's process, and the median set-up time over the
passes and SETUP_PROBES extra set-up-only interpreters.  --trace 1 alternates
traced and untraced passes and prints the per-layer metrics: medians over the
traced passes, the traced wall time and its ratio to the untraced one.  The
last line of stdout is a JSON object with keys correct, attempted, failed
and metrics; the line before it records the host and diagnostics.

--tiny and --plant are for selftest.py: tiny sizes, and one planted wrong
expected value.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 15
# a run must end within 180 s; no worker may outlive this
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _host(nproc):
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": nproc, "mem_mb": round(mem / 2**20),
            "python": sys.version.split()[0], "numpy": numpy}


def _worker_env(nproc):
    """The library's environment, pinned: no cap override, BLAS and OpenMP
    pools capped at nproc, and a fixed hash seed so set and dict orders, and
    with them the work done, repeat from run to run."""
    env = dict(os.environ)
    env.pop("LIECOGRAPH_CAP_OVERRIDE", None)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload, args, env, deadline):
        self.base = [sys.executable, str(HERE / "worker.py"),
                     "--workload", workload, "--seed", str(args.seed)]
        if args.tiny:
            self.base.append("--tiny")
        if args.plant:
            self.base.append("--plant")
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def __call__(self, *extra):
        """Run one worker; returns its result, or None if it crashed."""
        timeout = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(self.base + list(extra), env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self._crashed("worker timed out")
            return None
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as e:
            self._crashed(f"worker failed ({e}): {proc.stderr.strip()[-2000:]}")
            return None
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.failures += result.get("failures", [])
        return result

    def _crashed(self, why):
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload named in BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--plant", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "liecograph" / "__init__.py").is_file():
        _fail(f"no liecograph sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        _fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    # one benchmark process at a time: pairing-matrix alone peaks near 2.7 GB
    with open(OUT / "run.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        results = {w: _measure(w, args, declared, nproc)
                   for w in (names if args.workload == "all" else [args.workload])}
    if args.workload != "all":
        (final,) = results.values()
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))


def _measure(workload, args, declared, nproc):
    """Measure one workload; prints a line per metric and one of diagnostics,
    and returns the result object."""
    start = time.monotonic()
    run = Runner(workload, args, _worker_env(nproc), start + HARD_LIMIT_S)
    if args.trace:
        values, passes = _traced(run, args.seconds, start,
                                 OUT / f"spans-{workload}.json")
    else:
        values, passes = _timed(run, args.seconds, start)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing or not passes:
        print(json.dumps({"failures": run.failures[:5]}), file=sys.stderr)
        _fail(f"{workload}: no value for {missing or 'any metric'}: "
              "every pass crashed")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    error_rate = run.failed / run.attempted
    for name, m in metrics.items():
        print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{workload}\terror_rate\t{error_rate:.6g}\tratio")
    print(json.dumps({
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "host": _host(nproc), "passes": passes,
        "cpu_s": values["cpu_s"], "pass_wall_s": values["pass_wall_s"],
        "error_rate": error_rate, "failures": run.failures[:5],
    }))
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def _more(start, seconds, durations):
    return time.monotonic() - start + max(durations) <= seconds


def _timed(run, seconds, start):
    setups = [r["setup_s"] for r in (run("--setup-only")
                                     for _ in range(SETUP_PROBES)) if r]
    results, durations = [], []
    while not durations or _more(start, seconds, durations):
        t = time.monotonic()
        r = run()
        durations.append(time.monotonic() - t)
        if r is None:
            break
        results.append(r)
    if not results:
        return {}, 0
    setups += [r["setup_s"] for r in results]
    med = lambda key: statistics.median(r[key] for r in results)
    return {"wall_s": med("wall_s"), "peak_rss_mb": med("peak_rss_mb"),
            "setup_s": statistics.median(setups), "cpu_s": med("cpu_s"),
            "pass_wall_s": [r["wall_s"] for r in results]}, len(results)


def _traced(run, seconds, start, spans):
    traced, plain, durations = [], [], []
    while len(durations) < 2 or _more(start, seconds, durations):
        t = time.monotonic()
        if len(durations) % 2 == 0:
            r = run("--trace-out", str(spans))
            if r:
                traced.append(r)
        else:
            r = run()
            if r:
                plain.append(r)
        durations.append(time.monotonic() - t)
        if r is None:
            break
    if not traced or not plain:
        return {}, 0
    values = {k: statistics.median(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead"] = values["trace.wall_s"] / statistics.median(
        r["wall_s"] for r in plain)
    values["cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    values["pass_wall_s"] = [r["wall_s"] for r in traced + plain]
    return values, len(traced) + len(plain)


if __name__ == "__main__":
    main()
