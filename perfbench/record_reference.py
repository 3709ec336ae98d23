"""Write reference.json: every case's outcome at the current commit.

    python3 perfbench/record_reference.py

It runs every case that any seed can select, untraced, one after another
(a few minutes on 2 cores).  The committed file was recorded at the seed
commit, before any change to the library; record it again only when a
change of results is accepted, and say by how much they moved.
"""

import json
import sys

import run

RTOL = 1e-6   # relative: last-digit reorderings pass, a changed result not
ATOL = 1e-9   # absolute floor for values that are zero up to rounding


def main():
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import tracer
    import workloads

    cases = {}
    for case in workloads.reference_cases():
        out = workloads.run_case(case, tracer.NullTracer())
        for outcome in out.values():
            outcome.pop("message", None)
            if "values" in outcome:
                outcome["values"] = {k: run._num(v)
                                     for k, v in outcome["values"].items()}
        cases[case.key] = out
        print(case.key, json.dumps(out), flush=True)
    reference = {"recorded_at": run.git_sha(), "rtol": RTOL, "atol": ATOL,
                 "cases": cases}
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, allow_nan=False) + "\n")


if __name__ == "__main__":
    main()
