"""Spans and counts per library module, recorded from outside the library.

The tracer wraps the module attributes through which the benchmark calls
the library and through which library modules call each other
(``smsfem.assembly.assemble*``, ``smsfem.sparse.solve_symmetric_indefinite``,
the ``splu`` that ``smsfem.sparse`` calls, and the rest listed in
``tracer_wrappers``).  ``patched`` installs wrappers and puts the original
functions back on exit, also when the body raises.  No file of the library
changes.

A span records name, start, end, parent and case id.  A layer's busy time
is the self time of its spans: each span's duration minus the time its
direct children cover.  Spans stay in memory until the run writes them out.
"""

import contextlib
import functools
from time import perf_counter

import numpy as np

# span name -> per-layer time metric fed by the span's self time
SPAN_METRICS = {
    "meshes": "meshes.busy_s",
    "layers": "layers.busy_s",
    "wind.decompose": "wind.decompose_s",
    "wind.diagnose": "wind.diagnose_s",
    "wind.repair": "wind.repair_s",
    "assembly": "assembly.busy_s",
    "sparse.factor": "sparse.factor_s",
    "sparse.solve": "sparse.solve_s",
    "solvers": "solvers.self_s",
    "metrics": "metrics.busy_s",
    "analysis1d": "analysis1d.self_s",
}

FAILURE_TYPES = ("RankDeficiencyError", "SolveError")

# counts reported per pass; all start at zero so every key is present
COUNTS = (
    "meshes.nodes", "meshes.elements", "meshes.refined_elements",
    "layers.nodes_moved", "layers.snaps_skipped", "layers.path_edges",
    "wind.diagnose_calls", "wind.omega_hat_elements", "wind.n_delta",
    "wind.isolated_components", "wind.parallel_edges",
    "assembly.calls", "assembly.elements_assembled",
    "sparse.factorizations", "sparse.dense_fallbacks",
    "sparse.kkt_unknowns", "sparse.kkt_nnz", "sparse.lu_fill",
    "solvers.solves", "solvers.failed",
    "metrics.elements_evaluated", "metrics.points_located",
    "analysis1d.trials",
) + tuple("solvers.failed." + t for t in FAILURE_TYPES + ("other",))


class NullTracer:
    """Stands in for Tracer in untraced passes: records nothing."""

    case = None

    def count(self, key, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, case id]
        self.case = None
        self._stack = []
        self._pass_start = 0
        self.counts = {}
        self._assembled = {}  # id -> mesh, kept alive so ids stay unique
        self._sparse_solves = 0
        self._kkt_pending = False

    def open(self, name):
        rec = [name, perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def count(self, key, n=1):
        self.counts[key] += n

    def begin_pass(self):
        self._pass_start = len(self.spans)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._assembled = {}
        self._sparse_solves = 0

    def end_pass(self, root):
        """Per-layer metrics of the pass whose root span is ``root``."""
        spans = self.spans[self._pass_start:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _case in spans:
            if parent >= self._pass_start:
                child_time[parent - self._pass_start] += end - start
        out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        for (name, start, end, _p, _c), covered in zip(spans, child_time):
            if name in SPAN_METRICS:
                out[SPAN_METRICS[name]] += (end - start) - covered
        out.update(self.counts)
        meshes = len(self._assembled)
        out["assembly.calls_per_mesh"] = (
            self.counts["assembly.calls"] / meshes if meshes else 0.0)
        out["sparse.factorizations_per_solve"] = (
            self.counts["sparse.factorizations"] / self._sparse_solves
            if self._sparse_solves else 0.0)
        wall = root[2] - root[1]
        out["trace.wall_s"] = wall
        out["trace.coverage"] = sum(
            out[m] for m in SPAN_METRICS.values()) / wall
        return out

    # -- hooks run after a wrapped call returns -------------------------------

    def _assembled_mesh(self, mesh, elements):
        self.counts["assembly.calls"] += 1
        self.counts["assembly.elements_assembled"] += elements
        self._assembled[id(mesh)] = mesh

    def _solver_failed(self, exc):
        name = type(exc).__name__
        self.counts["solvers.failed"] += 1
        key = name if name in FAILURE_TYPES else "other"
        self.counts["solvers.failed." + key] += 1


def _wrap(tr, fn, name, before=None, after=None, error=None):
    """fn inside a span; hooks get (tr, args, kwargs[, result | exception])."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before:
            before(tr, args, kwargs)
        rec = tr.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tr.close(rec)
            if error:
                error(tr, exc)
            raise
        tr.close(rec)
        if after:
            after(tr, args, kwargs, out)
        return out

    return traced


class _CheckedLU:
    """SuperLU factor whose solve reports a non-finite result, the other
    path besides a failed splu into sparse's dense fallback."""

    def __init__(self, lu, tr):
        self._lu = lu
        self._tr = tr

    def solve(self, rhs, *args, **kwargs):
        x = self._lu.solve(rhs, *args, **kwargs)
        if not np.all(np.isfinite(x)):
            self._tr.count("sparse.dense_fallbacks")
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgProxy:
    """Stands in for scipy.sparse.linalg inside smsfem.sparse only."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


def _traced_splu(tr, real_splu):
    @functools.wraps(real_splu)
    def splu(A, *args, **kwargs):
        tr.count("sparse.factorizations")
        if tr._kkt_pending:
            tr._kkt_pending = False
            tr.count("sparse.kkt_unknowns", A.shape[0])
            tr.count("sparse.kkt_nnz", A.nnz)
        rec = tr.open("sparse.factor")
        try:
            lu = real_splu(A, *args, **kwargs)
        except (RuntimeError, ValueError):
            tr.close(rec)
            tr.count("sparse.dense_fallbacks")
            raise
        tr.close(rec)
        tr.count("sparse.lu_fill", lu.L.nnz + lu.U.nnz)
        return _CheckedLU(lu, tr)

    return splu


def tracer_wrappers(tr):
    """(module, attribute, replacement) for every traced call site."""
    from smsfem import (analysis1d, assembly, experiments, fixtures, meshes,
                        metrics, solvers, sparse, wind)

    def sparse_solve_start(tr, args, kwargs):
        tr._sparse_solves += 1
        tr._kkt_pending = isinstance(args[0], sparse.SaddleSystem)

    def solver_done(tr, args, kwargs, out):
        tr.count("solvers.solves")

    def solver_failed(tr, exc):
        tr.count("solvers.solves")
        tr._solver_failed(exc)

    def snapped(tr, args, kwargs, out):
        tr.count("layers.nodes_moved", len(out[1]))
        tr.count("layers.snaps_skipped", len(out[2]))

    def embedded(tr, args, kwargs, out):
        tr.count("layers.path_edges",
                 len(out[0].constraint_edges) - len(args[0].constraint_edges))

    def refined(tr, args, kwargs, out):
        tr.count("meshes.refined_elements", len(set(args[1])))

    def diagnosed(tr, args, kwargs, out):
        tr.count("wind.diagnose_calls")
        tr.count("wind.isolated_components", len(out.isolated_components))
        tr.count("wind.parallel_edges", len(out.parallel_edges))

    def assembled(tr, args, kwargs, out):
        tr._assembled_mesh(args[0], args[0].n_elements)

    def assembled_1d(tr, args, kwargs, out):
        tr._assembled_mesh(args[0], args[0].J)

    def residual_measured(tr, args, kwargs, out):
        tr.count("metrics.elements_evaluated", len(args[3]))

    def located(tr, args, kwargs, out):
        tr.count("metrics.points_located", len(args[2]))

    def studied(tr, args, kwargs, out):
        tr.count("analysis1d.trials", out.trials)

    plan = [
        (experiments, "mild_random_grid", "meshes", {}),
        (experiments, "interior_layer_mesh", "meshes", {}),
        (experiments, "hemker_layered_mesh", "meshes", {}),
        (experiments, "structured_triangulation", "meshes", {}),
        (experiments, "tensor_triangulation", "meshes", {}),
        (experiments, "perturb_structured", "meshes", {}),
        (experiments, "straight_characteristic", "layers", {}),
        (experiments, "snap_nodes", "layers", {"after": snapped}),
        (experiments, "embed_characteristic", "layers", {"after": embedded}),
        (meshes, "structured_triangulation", "meshes", {}),
        (meshes, "uniform_mesh_1d", "meshes", {}),
        (fixtures, "load", "meshes", {}),
        (wind, "classify_boundary", "wind.decompose", {}),
        (wind, "build_omega_plus", "wind.decompose", {}),
        (wind, "diagnose", "wind.diagnose", {"after": diagnosed}),
        (wind, "absorb_isolated", "wind.repair", {}),
        (wind, "remediate", "wind.repair", {}),
        (wind, "red_refine", "meshes", {"after": refined}),
        (assembly, "assemble", "assembly", {"after": assembled}),
        (assembly, "assemble_galerkin", "assembly", {}),
        (assembly, "assemble_supg", "assembly", {}),
        (assembly, "assemble_1d", "assembly", {"after": assembled_1d}),
        (sparse, "solve_symmetric_indefinite", "sparse.solve",
         {"before": sparse_solve_start}),
        (metrics, "osc_smear", "metrics", {}),
        (metrics, "osc_int_smear_int", "metrics", {}),
        (metrics, "over_undershoot", "metrics", {}),
        (metrics, "convective_residual_l2", "metrics",
         {"after": residual_measured}),
        (metrics, "evaluate_p1", "metrics", {"after": located}),
        (analysis1d, "verify_stability", "analysis1d", {"after": studied}),
    ]
    plan += [(solvers, name, "solvers",
              {"after": solver_done, "error": solver_failed})
             for name in ("solve_galerkin", "solve_supg", "solve_sms",
                          "solve_galerkin_1d", "solve_sms_1d")]
    out = [(mod, attr, _wrap(tr, getattr(mod, attr), name, **hooks))
           for mod, attr, name, hooks in plan]
    out.append((sparse, "spla",
                _LinalgProxy(sparse.spla, _traced_splu(tr, sparse.spla.splu))))
    return out


def stopwatch_wrappers(durations):
    """Time every SMS solve call; used in untraced passes."""
    from smsfem import solvers

    def timed(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(perf_counter() - t0)
        return call

    return [(solvers, name, timed(getattr(solvers, name)))
            for name in ("solve_sms", "solve_sms_1d")]


@contextlib.contextmanager
def patched(replacements):
    """Install (module, attribute, replacement) triples; restore on exit."""
    saved = []
    try:
        for mod, attr, new in replacements:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)
