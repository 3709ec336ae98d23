"""The benchmark's set-up: import the library, load a fixture mesh and
make one warm-up solve on a tiny mesh (SuperLU initializes lazily).

``run.py`` times ``setup()`` in its own process and in fresh child
processes (``python3 perfbench/warmup.py`` prints its set-up seconds) and
reports the median as ``setup_s``.
"""

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def setup():
    t0 = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from smsfem import (analysis1d, experiments, fixtures,  # noqa: F401
                        meshes, metrics, problems, solvers, wind)
    fixtures.load("channel_hole")
    spec = problems.ex4_spec(1e-8)
    mesh = meshes.structured_triangulation(4, 4)
    dec = wind.build_omega_plus(mesh, wind.classify_boundary(mesh, spec.b),
                                spec.b)
    solvers.solve_sms(mesh, spec, dec)
    return perf_counter() - t0


if __name__ == "__main__":
    print(repr(setup()))
