"""End-to-end acceptance checks: one test per headline claim, each
printing a single PASS/FAIL line (run with -s to see them)."""

import csv
import math

import numpy as np

from smsfem import (assembly, defects, experiments, metrics, problems,
                    solvers, sparse)
from smsfem.analysis1d import (build_q_h, convergence_study, random_mesh_1d,
                               verify_stability)
from smsfem.experiments import ExperimentConfig, run
from smsfem.meshes import Mesh1D, structured_triangulation, uniform_mesh_1d
from smsfem.wind import build_omega_plus, classify_boundary, diagnose, \
    remediate


def _check(n, ok, detail):
    print("criterion %d: %s (%s)" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (n, detail)


def _read_rows(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh
                                      if not line.startswith("#"))]
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


def test_criterion_1_oscillation_vs_sms_baseline():
    eps, b, f, N = 1e-8, 1.0, 1.0, 9
    sigma = 4.0 * eps * math.log(2 * N)
    mesh = Mesh1D(np.linspace(0.0, 1.0 - sigma, N + 1))
    u_gal = solvers.solve_galerkin_1d(mesh, eps, b, f)
    d = np.diff(u_gal)
    sign_changes = int(np.sum(d[1:] * d[:-1] < 0))
    sms = solvers.solve_sms_1d(mesh, eps, b, f)
    _u, coarse, _alpha, _omesh = solvers.solve_shishkin_oracle_1d(
        N, eps, b, f, sigma)
    # the last node carries the homogeneous artificial boundary value
    gap = float(np.abs(sms.u[:-1] - coarse[:-1]).max())
    _check(1, sign_changes >= 4 and gap < 1e-2,
           "sign changes %d, gap to layer-resolving baseline %.3e"
           % (sign_changes, gap))


def test_criterion_2_oscillating_function_identities():
    rng = np.random.default_rng(0)
    try:
        for J in range(3, 65):
            build_q_h(uniform_mesh_1d(J), 1.0)     # self-verifies to 1e-12
            build_q_h(random_mesh_1d(J, rng), 1.0)
        ok = True
        detail = "J = 3..64, both parities, uniform and random meshes"
    except AssertionError as exc:
        ok, detail = False, str(exc)
    _check(2, ok, detail)


def test_criterion_3_stability_bound():
    odd = verify_stability(trials=100, J_values=[9, 13, 17, 21, 25], seed=0)
    even = verify_stability(trials=100, J_values=[8, 12, 16, 20, 24], seed=1)
    ok = odd.ok and even.ok and even.max_alpha_gap <= 1e-12
    _check(3, ok, "violations %d+%d, alpha gap %.3e"
           % (len(odd.violations), len(even.violations),
              even.max_alpha_gap))


def test_criterion_4_convergence_rates():
    f = lambda x: np.cos(3.0 * x)
    u0 = lambda x: np.sin(3.0 * x) / 3.0
    Js = [16, 32, 64, 128, 256]
    _rows, slope_rnd = convergence_study("random", Js, f, u0, seed=0)
    _rows2, slope_au = convergence_study("asymptotically-uniform", Js, f, u0)
    ok = slope_rnd >= 0.9 and slope_au >= 1.8
    _check(4, ok, "slopes %.3f (random), %.3f (asymptotically uniform)"
           % (slope_rnd, slope_au))


def test_criterion_5_coarse_errors_vs_oracle(tmp_path):
    cfg = ExperimentConfig(experiment="ex1", out=str(tmp_path))
    paths = run(cfg)
    rows = _read_rows(paths[0])
    err = {(r["method"], int(r["N"]), float(r["eps"])):
           float(r["linf_coarse"]) for r in rows}
    Ns, epss = cfg.N, cfg.eps
    ok, msgs = True, []
    for eps in epss:
        for method in ("sms-galerkin", "sms-supg"):
            es = [err[(method, N, eps)] for N in Ns]
            oracle = [err[("supg-shishkin", N, eps)] for N in Ns]
            within = all(e <= 3.0 * o for e, o in zip(es, oracle))
            # nonincreasing in N up to a 10% solver-noise allowance
            mono = all(es[i + 1] <= 1.1 * es[i] for i in range(len(es) - 1))
            ok = ok and within and mono
            msgs.append("%s eps=%g max ratio %.2f" % (
                method, eps, max(e / o for e, o in zip(es, oracle))))
    _check(5, ok, "; ".join(msgs))


def test_criterion_6_parabolic_layer_measures():
    mesh = structured_triangulation(64, 64)
    spec = problems.ex4_spec(1e-8)
    dec = experiments._decomposition(mesh, spec.b)
    u_supg = solvers.solve_supg(mesh, spec, with_constraints=True)
    osc_supg, _ = metrics.osc_smear(mesh, u_supg)
    ok = abs(osc_supg - 0.134) <= 0.01
    detail = "supg osc %.4f" % osc_supg
    for base in ("galerkin", "supg"):
        sol = solvers.solve_sms(mesh, spec, dec, base=base)
        osc, smear = metrics.osc_smear(mesh, sol.u)
        ok = ok and osc <= 1e-10 and smear <= 1e-10
        detail += ", sms-%s osc %.1e smear %.1e" % (base, osc, smear)
    _check(6, ok, detail)


def test_criterion_7_interior_layer(tmp_path):
    cfg = ExperimentConfig(experiment="ex5", out=str(tmp_path))
    paths = run(cfg)
    rows = _read_rows(paths[0])
    get = {(r["method"], int(r["N"])): r for r in rows}
    ok, parts = True, []
    for method in ("sms-galerkin", "sms-supg"):
        r = get[(method, 16)]
        over, under = float(r["overshoot"]), float(r["undershoot"])
        ok = ok and over <= 1e-10 and under >= -1e-10
        parts.append("%s over %.1e under %.1e" % (method, over, under))
        r64 = get[(method, 64)]
        oi, si = float(r64["osc_int"]), float(r64["smear_int"])
        ok = ok and oi <= 1e-10 and si <= 2e-2
        parts.append("%s osc_int %.1e smear_int %.3e" % (method, oi, si))
    r = get[("supg", 16)]
    over, under = float(r["overshoot"]), float(r["undershoot"])
    ok = ok and over >= 1e-2 and under <= -1e-2
    parts.append("supg over %.2e under %.2e" % (over, under))
    _check(7, ok, "; ".join(parts))


def test_criterion_8_channel_with_hole(tmp_path):
    cfg = ExperimentConfig(experiment="ex6", out=str(tmp_path))
    paths = run(cfg)
    rows = _read_rows(paths[0])
    get = {r["method"]: r for r in rows}
    ok, parts = True, []
    for method in ("sms-galerkin", "sms-supg"):
        over = float(get[method]["overshoot"])
        under = float(get[method]["undershoot"])
        ok = ok and over <= 1e-9 and under >= -1e-12
        parts.append("%s over %.1e under %.1e" % (method, over, under))
    supg_under = float(get["supg"]["undershoot"])
    ok = ok and supg_under <= -0.1
    parts.append("supg under %.3f" % supg_under)
    _check(8, ok, "; ".join(parts))


def test_criterion_9_vortex_nonnegativity(tmp_path):
    cfg = ExperimentConfig(experiment="ex7", out=str(tmp_path))
    paths = run(cfg)
    rows = _read_rows(paths[0])
    lo = {(r["method"], int(r["N"]), float(r["eps"])):
          float(r["min_value"]) for r in rows}
    supg_min = lo[("supg", 20, 1e-4)]
    ok = supg_min < -1e-3
    parts = ["supg min %.2e at N=20 eps=1e-4" % supg_min]
    worst = 0.0
    for method in ("sms-galerkin", "sms-supg"):
        for N in (8, 20):
            for eps in (1e-4, 1e-6, 1e-10, 1e-14):
                val = lo[(method, N, eps)]
                worst = min(worst, val)
                ok = ok and val >= -1e-10
    parts.append("sms worst min %.1e over N in {8,20}, four eps" % worst)
    _check(9, ok, "; ".join(parts))


def kkt_min_singular(mesh, b, decomposition):
    """Relative smallest singular value of the eps = 0 optimality system
    (dense SVD oracle)."""
    spec = assembly.ProblemSpec(eps=0.0, b=b, f=0.0, c=0.0)
    ops = assembly.assemble_galerkin(mesh, spec, decomposition,
                                     with_constraints=True)
    M = sparse.SaddleSystem(ops.S, ops.A, ops.E,
                            ops.residual_load, ops.load).matrix()
    # 2000 rows of float64 are 32 MB; the SVD of an 8,575-row KKT peaks
    # above 4 GB
    if M.shape[0] > 2000:
        raise ValueError("matrix too large for dense diagnostic")
    s = np.linalg.svd(M.toarray(), compute_uv=False)
    return float(s[-1] / s[0])


def test_criterion_10_uniqueness_diagnostics():
    ok, parts = True, []
    cases = [("band interior node", defects.band_interior_node_mesh, "build"),
             ("isolated component", defects.isolated_component_mesh, "fix"),
             ("wind-parallel edge", defects.wind_parallel_edge_mesh, "fix")]
    for name, fixture, cure in cases:
        mesh = fixture()
        if cure == "build":
            naive = defects.band_decomposition(mesh, defects.WIND)
            before = kkt_min_singular(mesh, defects.WIND, naive)
            dec = build_omega_plus(mesh,
                                   classify_boundary(mesh, defects.WIND),
                                   defects.WIND)
            after = kkt_min_singular(mesh, defects.WIND, dec)
        else:
            dec = build_omega_plus(mesh,
                                   classify_boundary(mesh, defects.WIND),
                                   defects.WIND)
            before = kkt_min_singular(mesh, defects.WIND, dec)
            report = diagnose(dec, mesh, defects.WIND)
            fixed = remediate(mesh, dec, report, defects.WIND)
            dec2 = build_omega_plus(fixed,
                                    classify_boundary(fixed, defects.WIND),
                                    defects.WIND)
            after = kkt_min_singular(fixed, defects.WIND, dec2)
        ok = ok and before <= 1e-12 and after >= 1e-8
        parts.append("%s %.1e -> %.1e" % (name, before, after))
    _check(10, ok, "; ".join(parts))


def test_criterion_11_random_grid_ratios(tmp_path):
    cfg = ExperimentConfig(experiment="ex3", grids=50, N=[40], eps=[1e-8],
                           out=str(tmp_path))
    paths = run(cfg)
    rows = _read_rows(paths[1])  # summary table
    ratio = {r["method"]: float(r["mean_ratio_supg"]) for r in rows}
    ok = ratio["sms-supg"] > 5.0 and ratio["sms-galerkin"] > 3.0
    _check(11, ok, "mean ratios supg/sms-supg %.2f, supg/sms-galerkin %.2f"
           % (ratio["sms-supg"], ratio["sms-galerkin"]))
