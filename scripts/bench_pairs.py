"""Compare two commits on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py --base REV --change REV --pr N \
        [--first-seed 101] [--workdir DIR]

Each commit's committed files are extracted with ``git archive`` into a
fresh directory under --workdir, so both sides run exactly what the
commit holds and the repository's own checkout is not touched.  For every
workload in BENCHMARK.json, pair p = 0 .. PAIRS - 1 runs ``python3
perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on
each side, with seed S = first_seed + p and T the run_seconds of
BENCHMARK.json; the side that runs first alternates from pair to pair.

Writes BENCH_<pr>.json in the repository root: per workload and
end-to-end metric the median and quartiles of each side, how many pairs
the change won (better in the direction BENCHMARK.json gives, ties count
for neither) and the relative change of the medians; plus both commit
shas, the python/numpy/scipy versions and nproc that the runs report.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev, into):
    """The committed files of rev, unpacked into the directory `into`."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run(checkout, workload, seed, seconds):
    """(metrics, meta) of one untraced benchmark run in `checkout`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s %s seed %d: output mismatch\n%s" % (
            checkout, workload, seed, done.stdout))
    meta = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
    return {k: v["value"] for k, v in result["metrics"].items()}, meta


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(base, change, better):
    """Per-metric summary of paired runs (lists of metric dicts)."""
    out = {}
    for name, direction in better.items():
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        sign = 1.0 if direction == "lower" else -1.0
        out[name] = {
            "better": direction,
            "base": summary(b), "change": summary(c),
            "wins": sum(sign * (y - x) < 0 for x, y in zip(b, c)),
            "losses": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "pairs": len(b),
            "median_change": (statistics.median(c) / statistics.median(b)
                              - 1.0) if statistics.median(b) else None,
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pr", required=True)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--workdir")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    shas = {"base": git("rev-parse", args.base),
            "change": git("rev-parse", args.change)}
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(PAIRS)]
    record = {"pr": args.pr, "base": shas["base"], "change": shas["change"],
              "seconds": seconds, "seeds": seeds, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        dirs = {side: extract(sha, Path(tmp) / side)
                for side, sha in shas.items()}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else (
                    "change", "base")
                for side in order:
                    metrics, meta = run(dirs[side], workload, seed, seconds)
                    runs[side].append(metrics)
                    print("%s seed %d %s wall_s %.4g" % (
                        workload, seed, side, metrics["wall_s"]),
                        flush=True)
            record["workloads"][workload] = compare(
                runs["base"], runs["change"], better)
    record.update({k: meta[k] for k in ("python", "numpy", "scipy", "nproc")})
    out = ROOT / ("BENCH_%s.json" % args.pr)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
