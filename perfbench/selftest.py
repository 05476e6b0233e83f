"""Quick self-test of the benchmark at tiny sizes (n <= 4, weight <= 3, s2 to
degree 5); about ten seconds.

    python3 perfbench/selftest.py

For every workload, with --trace 0 and 1: the last stdout line has exactly
the keys correct, attempted, failed and metrics, every answer is right, and
every metric BENCHMARK.json declares is emitted, as a number, with its unit.
With a planted wrong expected value the error rate (failed / attempted) is
above zero.  In a directory holding only BENCHMARK.json and perfbench/,
run.py exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, timeout=120)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _result(_run(ROOT, w, trace))
            assert result["correct"] and result["failed"] == 0, (w, result)
            assert result["attempted"] >= 1, (w, result)
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in declared], (w, metrics)
            for m in declared:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (w, m["name"], got)
                assert isinstance(got["value"], (int, float)), (w, got)
        planted = _result(_run(ROOT, w, 0, "--plant"))
        assert not planted["correct"], (w, planted)
        assert planted["failed"] / planted["attempted"] > 0, (w, planted)
        print(f"{w}: ok")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without sources: refused, ok")


if __name__ == "__main__":
    main()
