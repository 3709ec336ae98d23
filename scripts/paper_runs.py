"""Run every study that has paper-scale overrides, each in its own process.

    python3 scripts/paper_runs.py [--base REV --change REV] [--workdir DIR]

A study is ``python3 -m smsfem.cli experiment ID --scale paper`` with
PYTHONPATH at a checkout's src/.  Without --base/--change it runs on the
working tree.  With them, each commit's committed files are extracted with
``git archive`` into a fresh directory under --workdir, as
scripts/bench_pairs.py does, and every study runs once on each side; the
side that runs first alternates from study to study.

Per study and side the record holds the wall time, the child's peak RSS
(``ru_maxrss`` from ``os.wait4``), the exit code, the last line of stderr
and the sha256 of every output file's data section, computed as
tests/test_experiments.py computes it: comment lines dropped, and ex1.csv
without its wall_time column.  The studies are those of the checkout's
``experiments.STUDIES`` with a ``paper`` entry; the others are listed as
desk-only, since the paper gives no sizes for them.

Writes PAPER_RUNS.json in the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, extract, git  # noqa: E402

_LIST_STUDIES = ("import json; from smsfem.experiments import STUDIES; "
                 "print(json.dumps({k: bool(s.paper) "
                 "for k, s in STUDIES.items()}))")


def studies(checkout):
    """(ids with paper overrides, desk-only ids) of the checkout."""
    done = subprocess.run([sys.executable, "-c", _LIST_STUDIES],
                          cwd=checkout, check=True, capture_output=True,
                          text=True,
                          env=dict(os.environ,
                                   PYTHONPATH=str(checkout / "src")))
    paper = json.loads(done.stdout)
    return ([k for k, v in paper.items() if v],
            [k for k, v in paper.items() if not v])


def data_digests(out):
    """sha256 of each output file's data section, by file name."""
    digests = {}
    for path in sorted(out.iterdir()):
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        if path.name == "ex1.csv":
            # wall_time, the last column, differs between runs
            lines = [line.rsplit(",", 1)[0] for line in lines]
        digests[path.name] = hashlib.sha256(
            "\n".join(lines).encode()).hexdigest()
    return digests


def run(checkout, study, tmp):
    """One paper-scale run of study in checkout, in a child process."""
    out = tmp / "out"
    with open(tmp / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "smsfem.cli", "experiment", study,
             "--scale", "paper", "--out", str(out)],
            cwd=checkout, stdout=subprocess.DEVNULL, stderr=err,
            env=dict(os.environ, PYTHONPATH=str(checkout / "src")))
        _pid, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().strip().splitlines()
    return {"wall_s": round(wall, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "exit": child.returncode,
            "stderr_last": lines[-1] if lines else "",
            "data_sha256": data_digests(out) if out.is_dir() else {}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base")
    p.add_argument("--change")
    p.add_argument("--workdir")
    args = p.parse_args(argv)
    if (args.base is None) != (args.change is None):
        p.error("--base and --change go together")

    record = {"base": None, "change": None, "studies": {}}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        tmp = Path(tmp)
        if args.base is None:
            sides = {"tree": ROOT}
        else:
            for side in ("base", "change"):
                record[side] = git("rev-parse", getattr(args, side))
            sides = {side: extract(record[side], tmp / side)
                     for side in ("base", "change")}
        paper, record["desk_only"] = studies(list(sides.values())[-1])
        for n, study in enumerate(paper):
            order = list(sides) if n % 2 == 0 else list(sides)[::-1]
            runs = {}
            for side in order:
                work = tmp / ("%s-%s" % (side, study))
                work.mkdir()
                runs[side] = run(sides[side], study, work)
                print("%s %s: %.1f s, %.1f MB, exit %d" % (
                    study, side, runs[side]["wall_s"],
                    runs[side]["peak_rss_mb"], runs[side]["exit"]),
                    flush=True)
            if len(runs) == 2:
                runs["same_data"] = (runs["base"]["data_sha256"]
                                     == runs["change"]["data_sha256"])
            record["studies"][study] = runs
    record.update({"python": platform.python_version(),
                   "numpy": metadata.version("numpy"),
                   "scipy": metadata.version("scipy"),
                   "nproc": os.cpu_count()})
    out = ROOT / "PAPER_RUNS.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote %s" % out)


if __name__ == "__main__":
    main()
