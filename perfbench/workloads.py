"""The benchmark's workloads: pinned inputs and the library call order.

A workload is a fixed list of cases made from the benchmark seed.  A case
is one mesh taken through its decomposition, every listed method and the
quality metrics; a 1D case is one stability study or one uniform-mesh
problem.  The call order follows the desk experiments in
``smsfem.experiments`` (grid builder, ``wind.classify_boundary`` ->
``build_omega_plus`` -> ``diagnose`` -> ``absorb_isolated`` /
``remediate``, ``solvers.solve_*``, ``metrics.*``), but the benchmark
calls the library functions itself and passes every option an experiment
would default.  A change to an experiment default therefore leaves the
workloads unchanged, and reuse across methods must land in ``solvers`` to
show up here.

Every call into the library goes through a module attribute
(``solvers.solve_sms``, not an imported name), so the wrappers that
``tracer.py`` installs on those attributes see it.

Why each workload (see README.md for the measurements behind this):

* structured-n128 -- one large system per solve; assembly and the sparse
  LU dominate.  ``wind`` only classifies and splits, so this is the
  workload that bypasses diagnose/layers work.
* random-grids-n40 -- many mid-size solves on perturbed grids: per-call
  overhead, assemble-once reuse and metric vectorization show here.
* embedded-layers -- the only workload that runs ``layers``,
  ``wind.diagnose``, ``absorb_isolated``, ``remediate`` with
  ``meshes.red_refine``, and mesh file I/O.  Its inputs are pinned: the
  two ex5 grids that are singular at the seed commit and the one channel
  angle that refines.  The seed only permutes the case order, because the
  cost of one ex5 grid varies threefold with its perturbation and a run
  cannot average that out.
* oned-theory -- the 1D analysis and the separate 1D assembly/KKT path:
  hundreds of tiny sparse solves, the opposite use of ``sparse`` from
  structured-n128.
"""

import math
import random
from dataclasses import dataclass

from smsfem import analysis1d, experiments, meshes, metrics, problems, \
    solvers, wind

# Options the desk experiments would default, pinned here; the sizes and
# pools below them are the benchmark's own choices.
EPS = 1e-8                    # all 2D problems and the 1D uniform problem
DIAGONAL = "SW-NE"
AMPLITUDE = 1.0 / 3.0         # random-grid node perturbation, fraction of h
OSC_SMEAR_SAMPLES = 64        # metrics.osc_smear midline samples
SMEAR_INT_STEP = 1.0 / 512.0  # metrics.osc_int_smear_int line step
REMEDIATE_ROUNDS = 2

STRUCTURED_N = 128
STRUCTURED_METHODS = ("galerkin", "supg", "sms-galerkin", "sms-supg")

RANDOM_N = 40
RANDOM_METHODS = ("supg", "sms-galerkin", "sms-supg")
RANDOM_GRIDS_PER_RUN = 5
RANDOM_GRID_POOL = 64         # grid seeds 0..63, each with a reference value

EMBEDDED_METHODS = ("supg", "sms-galerkin", "sms-supg")
EX5_N = 24
EX5_SNAP = "2hmin2"
EX5_GRID_SEEDS = (1, 3)       # isolated component; SMS singular at seed commit
CHANNEL_SNAP = "hmin2/10"
CHANNEL_THETA_COUNT = 10      # theta_k = (k + 1) * pi / 40, k = 0..9
CHANNEL_THETA_KS = (9,)       # the angle whose defect is cured by refinement

STABILITY_J = (16, 64, 256)
STABILITY_TRIALS = 20         # per J value and run
STABILITY_SEED_POOL = 64
STABILITY_B = 1.0
UNIFORM_J = (1000, 2000, 4000, 8000)


@dataclass(frozen=True)
class Case:
    kind: str     # ex4 | ex3 | ex5 | ex6 | stability | uniform1d
    param: int    # grid seed, theta index, stability seed or J

    @property
    def key(self):
        return "%s/%d" % (self.kind, self.param)


def channel_theta(k):
    return (k + 1) * (math.pi / 4.0) / CHANNEL_THETA_COUNT


def _structured(seed):
    # the structured grid has no random input; the seed is unused
    return [Case("ex4", STRUCTURED_N)]


def _random_grids(seed):
    pool = range(RANDOM_GRID_POOL)
    grids = random.Random(seed).sample(pool, RANDOM_GRIDS_PER_RUN)
    return [Case("ex3", g) for g in grids]


def _embedded(seed):
    cases = ([Case("ex5", s) for s in EX5_GRID_SEEDS]
             + [Case("ex6", k) for k in CHANNEL_THETA_KS])
    random.Random(seed).shuffle(cases)
    return cases


def _oned(seed):
    s = random.Random(seed).randrange(STABILITY_SEED_POOL)
    return ([Case("stability", s)]
            + [Case("uniform1d", J) for J in UNIFORM_J])


WORKLOADS = {
    "structured-n128": _structured,
    "random-grids-n40": _random_grids,
    "embedded-layers": _embedded,
    "oned-theory": _oned,
}


def cases(workload, seed):
    return WORKLOADS[workload](seed)


def reference_cases():
    """Every case any seed can produce; reference.json holds one entry each."""
    return ([Case("ex4", STRUCTURED_N)]
            + [Case("ex3", g) for g in range(RANDOM_GRID_POOL)]
            + [Case("ex5", s) for s in EX5_GRID_SEEDS]
            + [Case("ex6", k) for k in CHANNEL_THETA_KS]
            + [Case("stability", s) for s in range(STABILITY_SEED_POOL)]
            + [Case("uniform1d", J) for J in UNIFORM_J])


# ---------------------------------------------------------------------------
# running one case


def _decompose(mesh, b):
    return wind.build_omega_plus(mesh, wind.classify_boundary(mesh, b), b)


def _repaired_decomposition(mesh, b):
    """The repair sequence of experiments._safe_decomposition."""
    dec = _decompose(mesh, b)
    report = wind.diagnose(dec, mesh, b)
    if report.isolated_components:
        dec = wind.absorb_isolated(mesh, dec, report, b)
        report = wind.diagnose(dec, mesh, b)
    if report.parallel_edges:
        mesh = wind.remediate(mesh, dec, report, b,
                              max_rounds=REMEDIATE_ROUNDS)
        dec = _decompose(mesh, b)
    return mesh, dec


def _solve(method, mesh, spec, dec):
    if method == "galerkin":
        return solvers.solve_galerkin(mesh, spec, with_constraints=True)
    if method == "supg":
        return solvers.solve_supg(mesh, spec, None, with_constraints=True)
    base = method.split("-", 1)[1]
    return solvers.solve_sms(mesh, spec, dec, base=base, parameters=None).u


def _problem_2d(case):
    """(spec, mesh, repair?, methods, quality function) of a 2D case."""
    if case.kind == "ex4":
        spec = problems.ex4_spec(EPS)
        mesh = meshes.structured_triangulation(case.param, case.param,
                                               diagonal=DIAGONAL)
        return spec, mesh, False, STRUCTURED_METHODS, lambda m, u, d: dict(
            zip(("osc", "smear"),
                metrics.osc_smear(m, u, n=OSC_SMEAR_SAMPLES)))
    if case.kind == "ex3":
        spec = problems.ex3_spec(EPS)
        mesh = experiments.mild_random_grid(RANDOM_N, spec.b, case.param,
                                            amplitude=AMPLITUDE)
        return spec, mesh, False, RANDOM_METHODS, lambda m, u, d: {
            "conv_residual_l2":
                metrics.convective_residual_l2(m, u, spec, d.omega_hat)}
    if case.kind == "ex5":
        spec = problems.ex5_spec(EPS)
        mesh = experiments.interior_layer_mesh(EX5_N, snap_rule=EX5_SNAP,
                                               seed=case.param,
                                               amplitude=AMPLITUDE)
        return spec, mesh, True, EMBEDDED_METHODS, lambda m, u, d: dict(
            zip(("osc_int", "smear_int"),
                metrics.osc_int_smear_int(m, u, step=SMEAR_INT_STEP)))
    if case.kind == "ex6":
        theta = channel_theta(case.param)
        spec = problems.ex6_spec(EPS, theta=theta)
        mesh = experiments.hemker_layered_mesh(theta, snap_rule=CHANNEL_SNAP)
        return spec, mesh, True, EMBEDDED_METHODS, lambda m, u, d: dict(
            zip(("overshoot", "undershoot"), metrics.over_undershoot(u)))
    raise ValueError("unknown case kind %r" % case.kind)


def _failure(exc):
    return {"status": type(exc).__name__, "message": str(exc)[:200]}


def _ok(u, values):
    values["u_min"] = float(u.min())
    values["u_max"] = float(u.max())
    return {"status": "ok", "values": values}


def _run_2d(case, tr):
    spec, mesh, repair, methods, quality = _problem_2d(case)
    if repair:
        mesh, dec = _repaired_decomposition(mesh, spec.b)
    else:
        dec = _decompose(mesh, spec.b)
    tr.count("meshes.nodes", mesh.n_nodes)
    tr.count("meshes.elements", mesh.n_elements)
    tr.count("wind.omega_hat_elements", len(dec.omega_hat))
    tr.count("wind.n_delta", len(dec.n_delta))
    out = {}
    for method in methods:
        try:
            u = _solve(method, mesh, spec, dec)
        except Exception as exc:  # a failed solve is an outcome, not an abort
            out[method] = _failure(exc)
            continue
        out[method] = _ok(u, quality(mesh, u, dec))
    return out


def _run_stability(case, tr):
    # one seeded study per J value keeps the J mix, and so the cost, fixed
    out = {}
    for J in STABILITY_J:
        try:
            report = analysis1d.verify_stability(STABILITY_TRIALS, [J],
                                                 case.param, b=STABILITY_B)
        except Exception as exc:
            out["J%d" % J] = _failure(exc)
            continue
        out["J%d" % J] = {"status": "ok", "values": {
            "trials": report.trials,
            "violations": len(report.violations),
            "max_alpha_gap": report.max_alpha_gap}}
    return out


def _run_uniform1d(case, tr):
    problem = problems.fig1_problem(EPS)
    mesh = meshes.uniform_mesh_1d(case.param)
    tr.count("meshes.nodes", case.param + 1)
    tr.count("meshes.elements", case.param)
    args = (mesh, problem["eps"], problem["b"], problem["f"])
    out = {}
    try:
        out["galerkin-1d"] = _ok(solvers.solve_galerkin_1d(*args), {})
    except Exception as exc:
        out["galerkin-1d"] = _failure(exc)
    try:
        sol = solvers.solve_sms_1d(*args)
        out["sms-1d"] = _ok(sol.u, {"alpha": float(sol.t[0])})
    except Exception as exc:
        out["sms-1d"] = _failure(exc)
    return out


def run_case(case, tr):
    """Run one case; returns {method: outcome}.  tr gets the case counts."""
    if case.kind == "stability":
        return _run_stability(case, tr)
    if case.kind == "uniform1d":
        return _run_uniform1d(case, tr)
    return _run_2d(case, tr)
