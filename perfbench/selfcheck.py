"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks, exiting 1 if any fails:

1. the tracer's and the stopwatch's wrappers put the original functions
   back on exit, also when the body raises;
2. on every workload, two traced runs with one seed give identical
   per-layer counts;
3. on every workload, the layer self times cover at least 90 % of the
   traced pass wall time;
4. the metric names each run prints are exactly those BENCHMARK.json lists,
   and every run's outputs match the reference.

It makes three short runs per workload (about six minutes on 2 cores).
"""

import json
import subprocess
import sys

import run

SEED = 7
MIN_COVERAGE = 0.90


def check_restore():
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import tracer

    ok = True
    for replacements in (tracer.tracer_wrappers(tracer.Tracer()),
                         tracer.stopwatch_wrappers([])):
        before = [(mod, attr, getattr(mod, attr))
                  for mod, attr, _ in replacements]
        try:
            with tracer.patched(replacements):
                ok &= all(getattr(mod, attr) is new
                          for mod, attr, new in replacements)
                raise KeyError("leave the block by an exception")
        except KeyError:
            pass
        ok &= all(getattr(mod, attr) is old for mod, attr, old in before)
    return ok


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if not check_restore():
        problems.append("wrappers not restored")
    for w in (w["name"] for w in spec["workloads"]):
        plain = bench(w, 0)
        first, second = bench(w, 1), bench(w, 1)
        for result in (plain, first, second):
            if not result["correct"]:
                problems.append("%s: outputs miss the reference" % w)
        if set(plain["metrics"]) != want[0]:
            problems.append("%s: end-to-end names differ" % w)
        if set(first["metrics"]) != want[1]:
            problems.append("%s: per-layer names differ" % w)
        counts = [n for n, m in first["metrics"].items()
                  if m["unit"] != "s" and n != "trace.coverage"]
        differ = [n for n in counts if first["metrics"][n]["value"]
                  != second["metrics"][n]["value"]]
        if differ:
            problems.append("%s: counts differ: %s" % (w, ", ".join(differ)))
        coverage = min(r["metrics"]["trace.coverage"]["value"]
                       for r in (first, second))
        if coverage < MIN_COVERAGE:
            problems.append("%s: layer self times cover %.1f %% of wall"
                            % (w, 100 * coverage))
        print("%s: coverage %.3f, %d counts equal" % (
            w, coverage, len(counts) - len(differ)), flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
