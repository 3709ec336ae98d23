"""Run one smsfem benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
Workloads and their pinned inputs are in ``workloads.py``; README.md says
why each was chosen.

Load model: closed loop, one caller in one process.  A pass runs the
workload's fixed case list once, each case starting when the previous one
ends.  Passes repeat until the next one would end after ``--seconds``
(there is always at least one).  BLAS threads are capped at the number of
usable processors.

Every case's quality values are compared with ``reference.json``,
recorded at the seed commit.  A solve fails if it raises or if its values
miss the reference; a failure the reference also records still counts as
failed but leaves ``correct`` true, and a case that failed in the reference
but now succeeds is listed as recovered.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the last line holds
the per-layer metrics of the traced passes, and the difference between
traced and untraced pass time is the tracing overhead.  Human-readable
lines come first; a record of the run (and its spans, when traced) is
written under ``.perfbench_out/``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_CHILDREN = 4      # set-up samples from fresh processes, plus this one
TAIL_BEYOND = 10        # solves that must lie beyond the reported tail
RATIO_METRICS = ("assembly.calls_per_mesh",
                 "sparse.factorizations_per_solve", "trace.coverage")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def child_setup_seconds():
    done = subprocess.run([sys.executable, str(HERE / "warmup.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# passes


def run_pass(workloads, cases, tr):
    outcomes = {}
    for case in cases:
        tr.case = case.key
        outcomes[case.key] = workloads.run_case(case, tr)
    return outcomes


def measure(workloads, tracer, cases, seconds, trace):
    """Run passes until the next would end after `seconds`; returns the
    passes and the duration of every SMS solve of the untraced passes."""
    passes, sms_times = [], []
    tr = tracer.Tracer()
    start = perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tr.begin_pass()
            with tracer.patched(tracer.tracer_wrappers(tr)):
                root = tr.open("pass")
                outcomes = run_pass(workloads, cases, tr)
                tr.close(root)
            layers = tr.end_pass(root)
            wall = root[2] - root[1]
        else:
            with tracer.patched(tracer.stopwatch_wrappers(sms_times)):
                t0 = perf_counter()
                outcomes = run_pass(workloads, cases, tracer.NullTracer())
                wall = perf_counter() - t0
            layers = None
        passes.append({"traced": traced, "wall": wall,
                       "outcomes": outcomes, "layers": layers})
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p["wall"] for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes, sms_times, tr.spans


# ---------------------------------------------------------------------------
# output checks


def _num(x):
    return None if x is None or (isinstance(x, float) and math.isnan(x)) \
        else x


def _close(got, want, rtol, atol):
    got, want = _num(got), _num(want)
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= atol + rtol * abs(want)


def check(passes, reference):
    """(attempted, failed, mismatches, recovered) over all passes."""
    rtol, atol = reference["rtol"], reference["atol"]
    attempted = failed = 0
    mismatches, recovered = set(), set()
    for p in passes:
        for key, methods in p["outcomes"].items():
            ref = reference["cases"].get(key, {})
            for method, got in methods.items():
                attempted += 1
                want = ref.get(method)
                where = "%s %s" % (key, method)
                if want is None:
                    failed += 1
                    mismatches.add(where + ": no reference value")
                elif got["status"] != "ok":
                    failed += 1
                    if got["status"] != want["status"]:
                        mismatches.add("%s: %s (reference: %s)" % (
                            where, got["status"], want["status"]))
                elif want["status"] != "ok":
                    recovered.add("%s (reference: %s)" % (
                        where, want["status"]))
                else:
                    bad = [name for name, v in want["values"].items()
                           if not _close(got["values"].get(name), v,
                                         rtol, atol)]
                    if bad:
                        failed += 1
                        mismatches.add("%s: %s" % (where, ", ".join(
                            "%s=%r (reference %r)" % (
                                n, got["values"].get(n), want["values"][n])
                            for n in bad)))
    return attempted, failed, sorted(mismatches), sorted(recovered)


# ---------------------------------------------------------------------------
# metrics


def tail(times):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    solves beyond it, or None when there are too few solves."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def end_to_end(passes, sms_times, setup_samples, attempted, failed):
    walls = [p["wall"] for p in passes if not p["traced"]]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "sms_solve_s.p50": (statistics.median(sms_times), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "solved_frac": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(passes):
    """Median time metrics and first-pass counts of the traced passes;
    also the names of counts that differ between traced passes."""
    traced = [p["layers"] for p in passes if p["traced"]]
    untraced_wall = statistics.median(
        p["wall"] for p in passes if not p["traced"])
    out, unsteady = {}, []
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name.endswith("_s") or name == "trace.coverage":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    units = {name: "s" if name.endswith("_s") else
             "ratio" if name in RATIO_METRICS else "count" for name in out}
    return {name: (out[name], units[name]) for name in out}, unsteady


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "smsfem" / "__init__.py").is_file():
        print("perfbench: no library source at %s" % SRC, file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    setup_samples = [child_setup_seconds() for _ in range(SETUP_CHILDREN)]

    # numpy may be imported only after the BLAS thread cap is set
    import warmup
    setup_samples.append(warmup.setup())
    import numpy
    import scipy
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    cases = workloads.cases(args.workload, args.seed)
    passes, sms_times, spans = measure(workloads, tracer, cases,
                                       args.seconds, args.trace)
    attempted, failed, mismatches, recovered = check(passes, reference)

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": nproc, "blas_threads": nproc,
        "cases": [c.key for c in cases],
        "passes_untraced": sum(not p["traced"] for p in passes),
        "passes_traced": sum(p["traced"] for p in passes),
        "setup_samples_s": setup_samples,
        "reference_rtol": reference["rtol"],
        "reference_atol": reference["atol"],
    }
    if args.trace:
        metrics, unsteady = per_layer(passes)
        meta["tracing_overhead_s"] = metrics["trace.overhead_s"][0]
        meta["counts_differing_between_passes"] = unsteady
    else:
        metrics = end_to_end(passes, sms_times, setup_samples,
                             attempted, failed)

    lines = ["%s %.6g %s" % (name, v, unit)
             for name, (v, unit) in metrics.items()]
    lines.append("failed_frac %.6g ratio (%d failed of %d attempted)"
                 % (failed / attempted, failed, attempted))
    if not args.trace:
        t = tail(sms_times)
        lines.append(
            "sms_solve_s.tail p%.1f %.6g s over %d SMS solves" % (
                t[0], t[1], len(sms_times)) if t else
            "sms_solve_s.tail not reported: %d SMS solves, %d needed"
            % (len(sms_times), TAIL_BEYOND + 1))
    lines += ["output mismatch: " + m for m in mismatches]
    lines += ["recovered since reference: " + r for r in recovered]
    lines.append("meta " + json.dumps(meta))
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "attempted": attempted,
              "failed": failed, "mismatches": mismatches,
              "recovered": recovered, "sms_solve_s": sms_times,
              "outcomes": passes[0]["outcomes"],
              "pass_walls": [[p["traced"], p["wall"]] for p in passes]}
    if args.trace:
        record["spans"] = spans
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record))

    print(json.dumps({
        "correct": not mismatches, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
