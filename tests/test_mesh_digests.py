"""The benchmark's meshes, pinned byte for byte.

sha256 of the `write_mesh` bytes and of every `DiagnosticsReport.to_text()`
along the repair sequence of `experiments._safe_decomposition`, for the
embedded-layer meshes of the benchmark (ex5 seeds 1 and 3 at '2hmin2',
the channel at theta index 9) and for one mild random grid.  The
snapped and embedded meshes alone (no repair) are pinned for every
channel angle and for ex5 seeds 0-7 under both ex5 snap rules; their
keys name the rule, e.g. 'ex5 hmin2/10/3' and 'ex6 hmin2/10/0'.  The
inset-square decompositions of ex7 at N = 8, 20 and 40 (delta = 2/N,
keys 'ex7 inset/N') are pinned by the sha256 of their fields.  The
benchmark pins ex6/9's roundoff answer to 1e-6, so a changed byte here
is a bug, not roundoff.  Like experiment_digests.json the values are tied
to the numpy build they were recorded with (numpy 2.4.6, x86-64).

    PYTHONPATH=src python3 tests/test_mesh_digests.py > tests/mesh_digests.json

records them again.
"""

import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

from smsfem import experiments, problems, wind
from smsfem.meshes import write_mesh

EPS = 1e-8
CASES = ("ex5/1", "ex5/3", "ex6/9", "ex3/7")
LAYERED = tuple(["ex6 hmin2/10/%d" % k for k in range(10)]
                + ["ex5 %s/%d" % (rule, seed)
                   for rule in ("2hmin2", "hmin2/10") for seed in range(8)])
INSET = tuple("ex7 inset/%d" % N for N in (8, 20, 40))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _mesh_sha(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        write_mesh(mesh, path)
        with open(path, "rb") as fh:
            return _sha(fh.read())


def _theta(k):
    return (k + 1) * (math.pi / 4.0) / 10


def _layered(key):
    """The snapped and embedded mesh of a LAYERED key."""
    kind, param = key.rsplit("/", 1)
    kind, rule = kind.split(" ")
    if kind == "ex5":
        return experiments.interior_layer_mesh(24, rule, seed=int(param))
    return experiments.hemker_layered_mesh(_theta(int(param)), rule)


def _case(key):
    kind, param = key.split("/")
    param = int(param)
    if kind == "ex5":
        b = problems.ex5_spec(EPS).b
        return experiments.interior_layer_mesh(24, "2hmin2", seed=param), b
    if kind == "ex6":
        theta = _theta(param)
        b = problems.ex6_spec(EPS, theta=theta).b
        return experiments.hemker_layered_mesh(theta, "hmin2/10"), b
    b = problems.ex3_spec(EPS).b
    return experiments.mild_random_grid(40, b, param), None


def _inset(key):
    """The fields of ex7's decomposition at the N of an INSET key, one
    line each."""
    N = int(key.rsplit("/", 1)[1])
    _mesh, _spec, dec = experiments.STUDIES["ex7"].setup(
        {}, experiments.Case((), EPS, N=N))
    return "".join("%s: %s\n" % (f.name, " ".join(
        str(int(v)) for v in getattr(dec, f.name)))
        for f in dataclasses.fields(dec))


def digests(key):
    """{'mesh', 'repaired', 'reports'} of one case; a mesh with no wind
    given is not repaired, a LAYERED key gives {'mesh'} alone and an
    INSET key {'decomposition'}."""
    if key in LAYERED:
        return {"mesh": _mesh_sha(_layered(key))}
    if key in INSET:
        return {"decomposition": _sha(_inset(key).encode())}
    mesh, b = _case(key)
    out = {"mesh": _mesh_sha(mesh)}
    if b is None:
        return out
    texts, diagnose = [], wind.diagnose

    def recorded(*args):
        report = diagnose(*args)
        texts.append(_sha(report.to_text().encode()))
        return report

    # experiments calls diagnose as its own name, remediate as wind's
    wind.diagnose = experiments.diagnose = recorded
    try:
        repaired, _dec = experiments._safe_decomposition(mesh, b)
    finally:
        wind.diagnose = experiments.diagnose = diagnose
    out["repaired"] = _mesh_sha(repaired)
    out["reports"] = texts
    return out


def test_benchmark_meshes_and_reports_are_unchanged():
    with open(os.path.join(os.path.dirname(__file__),
                           "mesh_digests.json")) as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(CASES + LAYERED + INSET)
    for key in CASES:
        assert digests(key) == pinned[key], key


def test_layered_meshes_are_unchanged():
    with open(os.path.join(os.path.dirname(__file__),
                           "mesh_digests.json")) as fh:
        pinned = json.load(fh)
    for key in LAYERED:
        assert digests(key) == pinned[key], key


def test_inset_square_decompositions_are_unchanged():
    with open(os.path.join(os.path.dirname(__file__),
                           "mesh_digests.json")) as fh:
        pinned = json.load(fh)
    for key in INSET:
        assert digests(key) == pinned[key], key


if __name__ == "__main__":
    json.dump({key: digests(key) for key in CASES + LAYERED + INSET},
              sys.stdout,
              indent=1)
    sys.stdout.write("\n")
