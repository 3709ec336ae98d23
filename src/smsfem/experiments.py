"""Config-driven experiment harness.

Reproduces the benchmark studies (manufactured layers, same-grid
comparisons, random-grid statistics, parabolic and interior layers, the
channel-with-hole problem and the recirculating vortex) and writes CSV
tables plus whitespace x-y plot-data files.  Outputs embed the full
configuration and seed as comment lines; apart from wall-time columns,
data sections are byte-identical across reruns with the same seed.

Each experiment id is one `Study` entry of `STUDIES`; `run` sweeps its
cases and methods.
"""

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import fixtures, metrics, problems, solvers
from .assembly import ProblemSpec, compute_supg_parameters
from .layers import embed_characteristic, snap_nodes, straight_characteristic
from .meshes import (Triangulation, perturb_structured,
                     structured_triangulation, tensor_triangulation,
                     write_node_values_csv)
from .wind import (absorb_isolated, build_omega_plus_shrunk, decompose,
                   diagnose, remediate, vector_field)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration


def parse_config(path):
    """Flat key=value file; '#' comments; repeated keys accumulate."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, ln))
        key, value = line.split("=", 1)
        raw.setdefault(key.strip(), []).append(value.strip())
    return raw


_METHODS = ("galerkin", "supg", "supg-shishkin", "sms-galerkin", "sms-supg")

# what _solve_method runs; supg-shishkin is ex1's oracle only
_SOLVE_METHODS = tuple(m for m in _METHODS if m != "supg-shishkin")


@dataclass
class ExperimentConfig:
    experiment: str
    methods: list = None
    N: list = None
    eps: list = None
    seed: int = 0
    grids: int = None
    scale: str = "desk"
    out: str = "."
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in STUDIES:
            raise ConfigError("unknown experiment %r (known: %s)"
                              % (self.experiment, ", ".join(sorted(STUDIES))))
        if self.scale not in ("desk", "paper"):
            raise ConfigError("scale must be 'desk' or 'paper'")
        study = STUDIES[self.experiment]
        defaults = dict(methods=study.methods, N=study.N, eps=study.eps,
                        grids=study.grids)
        if self.scale == "paper":
            defaults.update(study.paper)
        if self.methods is None:
            self.methods = list(defaults["methods"])
        if self.N is None:
            self.N = list(defaults["N"])
        if self.eps is None:
            self.eps = list(defaults["eps"])
        if self.grids is None:
            self.grids = defaults["grids"]
        if self.grids is not None and self.grids < 0:
            raise ConfigError("grids must be nonnegative, got %r" % self.grids)
        if any(n < 1 for n in self.N):
            raise ConfigError("need at least one cell per direction, got "
                              "N = %d" % min(self.N))
        for m in self.methods:
            if m not in _METHODS:
                raise ConfigError("unknown method %r (known: %s)"
                                  % (m, ", ".join(_METHODS)))
        for e in self.eps:
            if not (e > 0.0 and math.isfinite(e)):
                raise ConfigError("eps must be finite and positive, got %r"
                                  % e)


def _cast(key, value, kind):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError("bad value for %s: %r" % (key, value))


# the config keys ExperimentConfig takes; all others are study options
_CONFIG_KEYS = ("experiment", "seed", "scale", "out", "method", "N", "eps",
                "grids")


def _option(options, key, default=None, kind=str):
    """One value of `key`, cast to kind, from ExperimentConfig.options or
    a parse_config mapping (whose values are lists); the default, as it
    is, if the key is missing."""
    if key not in options:
        return default
    v = options[key]
    if isinstance(v, list):
        if len(v) != 1:
            raise ConfigError("%s given %d times, expected once"
                              % (key, len(v)))
        v = v[0]
    return _cast(key, v, kind)


def config_from_mapping(raw, experiment=None, out=None, seed=None, scale=None):
    """Build an ExperimentConfig from a parse_config mapping, with CLI
    overrides taking precedence over file entries."""
    def take_list(key, kind):
        return [_cast(key, v, kind) for v in raw[key]] if key in raw else None

    file_exp = _option(raw, "experiment")
    file_seed = _option(raw, "seed", 0, int)
    file_scale = _option(raw, "scale", "desk")
    file_out = _option(raw, "out", ".")
    exp = experiment or file_exp
    if exp is None:
        raise ConfigError("no experiment id given")
    cfg = ExperimentConfig(
        experiment=exp,
        methods=take_list("method", str),
        N=take_list("N", int),
        eps=take_list("eps", float),
        seed=seed if seed is not None else file_seed,
        grids=_option(raw, "grids", None, int),
        scale=scale or file_scale,
        out=out or file_out,
        options={k: (v[0] if len(v) == 1 else list(v))
                 for k, v in raw.items() if k not in _CONFIG_KEYS},
    )
    return cfg


def _config_comments(cfg):
    lines = ["experiment = %s" % cfg.experiment,
             "scale = %s" % cfg.scale,
             "seed = %d" % cfg.seed]
    for m in cfg.methods:
        lines.append("method = %s" % m)
    for n in cfg.N:
        lines.append("N = %d" % n)
    for e in cfg.eps:
        lines.append("eps = %s" % repr(e))
    if cfg.grids is not None:
        lines.append("grids = %d" % cfg.grids)
    for k in sorted(cfg.options):
        v = cfg.options[k]
        for item in (v if isinstance(v, list) else [v]):
            lines.append("%s = %s" % (k, item))
    return lines


# ---------------------------------------------------------------------------
# output helpers


def _fmt(v):
    if isinstance(v, float):
        return "%.16e" % v
    return str(v)


def write_csv(path, header, rows, comments):
    with open(path, "w") as fh:
        for c in comments:
            fh.write("# %s\n" % c)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_plot_data(path, points):
    with open(path, "w") as fh:
        for x, y in points:
            fh.write("%.16e %.16e\n" % (x, y))
    return path


# ---------------------------------------------------------------------------
# solve dispatch


def _solve_method(mesh, spec, method, decomposition=None, parameters=None):
    if method == "galerkin":
        return solvers.solve_galerkin(mesh, spec, with_constraints=True)
    if method == "supg":
        return solvers.solve_supg(mesh, spec, parameters,
                                  with_constraints=True)
    if method in ("sms-galerkin", "sms-supg"):
        sol = solvers.solve_sms(mesh, spec, decomposition,
                                base=method.split("-", 1)[1],
                                parameters=parameters)
        return sol.u
    raise ConfigError("method %r not runnable here" % method)


def _safe_decomposition(mesh, b):
    """Decomposition with uniqueness defects repaired; returns the
    (possibly refined) mesh and its decomposition.

    Isolated Omega_hat components (embedded layers can cut off data-free
    pockets) are absorbed into Omega_h+; wind-parallel downwind edges
    are cured by upwind refinement.
    """
    dec = decompose(mesh, b)
    report = diagnose(dec, mesh, b)
    if report.isolated_components:
        dec = absorb_isolated(mesh, dec, report, b)
        report = diagnose(dec, mesh, b)
    if report.parallel_edges:
        mesh = remediate(mesh, dec, report, b)
        dec = decompose(mesh, b)
    return mesh, dec


# ---------------------------------------------------------------------------
# grid builders


def mild_random_grid(N, b, seed, amplitude=1.0 / 3.0):
    """Uniform grid plus a full-height cell strip along the outflow sides
    of the unit square, interior nodes perturbed by +-amplitude*h with
    the strip nodes frozen."""
    h = 1.0 / N
    lines = np.concatenate([np.linspace(0.0, 1.0 - h, N), [1.0]])
    base = tensor_triangulation(lines, lines)

    # the strip nodes on the sides the wind leaves through
    outflow = vector_field(b)(np.array([0.5, 0.5])) > 0.0
    strip = base.nodes >= 1.0 - h - 1e-12
    frozen = np.flatnonzero((strip & outflow).any(axis=1))
    return perturb_structured(base, amplitude, seed, frozen=frozen)


# default snap rule of the embedded-layer meshes: interior_layer_mesh (ex5)
# and hemker_layered_mesh (ex6, comp-ex6), and so of 'smsfem solve'
SNAP_RULE = "hmin2/10"


def _embed_layers(mesh, origins, b, box, snap_rule):
    """Snap and embed, one after another, the straight characteristic of
    the constant wind b from each origin to where it leaves the box
    ((x0, y0), (x1, y1)), each carrying the interior-layer value."""
    b = np.asarray(b, dtype=float)
    for origin in origins:
        o = np.asarray(origin, dtype=float)
        t_exit = min((box[int(bk > 0.0)][k] - o[k]) / bk
                     for k, bk in enumerate(b) if bk != 0.0)
        path = straight_characteristic(o, o + t_exit * b,
                                       problems.EX5_LAYER_VALUE)
        mesh, _moved, _skipped = snap_nodes(mesh, path, snap_rule)
        mesh, _on_path = embed_characteristic(mesh, path)
    return mesh


def interior_layer_mesh(N, snap_rule=SNAP_RULE, seed=None,
                        amplitude=1.0 / 3.0):
    """Unit-square grid with the oblique interior characteristic of the
    discontinuous-data problem snapped and embedded.

    The default snap rule 'hmin2/10' moves only nodes that already lie
    within h_min^2/10 of the path, so on a regular grid every grid line
    keeps its nodes and the embedding splits each crossed edge at the
    path: the layer is one cell wide.  'nearest' would pull a node of
    every crossed element off its grid line and widen the layer to about
    two cells.  comp-ex5 passes the wider '2hmin2' for its random grids.
    """
    mesh = structured_triangulation(N, N)
    if seed is not None:
        mesh = perturb_structured(mesh, amplitude, seed)
    return _embed_layers(mesh, [problems.EX5_ORIGIN], problems.EX5_WIND,
                         ((0.0, 0.0), (1.0, 1.0)), snap_rule)


def hemker_layered_mesh(theta=0.0, snap_rule=SNAP_RULE):
    """Channel-with-hole fixture with the two tangential characteristic
    layers snapped and embedded; retags y = -3 Dirichlet for theta > 0.
    The layers are snapped with SNAP_RULE, 'hmin2/10', by default."""
    mesh = fixtures.load("channel_hole")
    if theta > 0.0:
        # only tags change, and the audit reads none
        y = mesh.nodes[[e[:2] for e in mesh.boundary_edges], 1]
        bottom = np.abs(0.5 * (y[:, 0] + y[:, 1]) + 3.0) < 1e-9
        edges = [(i, j, "D" if low else t) for (i, j, t), low
                 in zip(mesh.boundary_edges, bottom.tolist())]
        mesh = Triangulation(mesh.nodes, mesh.elements, edges,
                             mesh.constraint_edges, mesh.node_values,
                             audit=False)
    return _embed_layers(mesh, problems.hemker_layer_origins(theta),
                         [math.cos(theta), math.sin(theta)],
                         problems.HEMKER_DOMAIN, snap_rule)


# ---------------------------------------------------------------------------
# cases: what one row of a study varies


class Case(NamedTuple):
    key: tuple              # the CSV columns that name the case
    eps: float
    N: int = None
    seed: int = None        # random-grid seed; None for a regular grid
    theta: float = 0.0      # channel wind angle


def _square_cases(cfg):
    return [Case((N, eps), eps, N=N) for eps in cfg.eps for N in cfg.N]


def _grid_cases(cfg):
    return [Case((g, cfg.seed + g), cfg.eps[0], N=cfg.N[0],
                 seed=cfg.seed + g) for g in range(cfg.grids or 0)]


def _n_grid_cases(cfg):
    return [Case((N, cfg.eps[0]), cfg.eps[0], N=N,
                 seed=cfg.seed + 1000 * N + g)
            for N in cfg.N for g in range(cfg.grids or 0)]


def _regular_then_grid_cases(cfg):
    return ([Case(("regular",), cfg.eps[0], N=cfg.N[0])]
            + [Case(("random-%d" % g,), cfg.eps[0], N=cfg.N[0],
                    seed=cfg.seed + g) for g in range(cfg.grids or 0)])


def _eps_cases(cfg):
    return [Case((eps,), eps) for eps in cfg.eps]


def _angle_cases(cfg):
    n_theta = cfg.grids or 10
    thetas = [(k + 1) * (math.pi / 4.0) / n_theta for k in range(n_theta)]
    return [Case((theta,), cfg.eps[0], theta=theta) for theta in thetas]


# ---------------------------------------------------------------------------
# setups: mesh, spec and decomposition of one case


def _ex1_widths(case):
    return (2.0 * case.eps * math.log(case.N),
            1.5 * case.eps * math.log(2 * case.N))


def _ex1_coarse(options, case):
    """SMS runs on the subdomain below the Shishkin transition points,
    with homogeneous Dirichlet data."""
    spec = problems.ex1_spec(case.eps)
    sx, sy = _ex1_widths(case)
    mesh = structured_triangulation(
        case.N, case.N, domain=((0.0, 0.0), (1.0 - sx, 1.0 - sy)))
    coarse_spec = ProblemSpec(eps=case.eps, b=spec.b, f=spec.f)
    return mesh, coarse_spec, decompose(mesh, spec.b)


def _unit_square(options, case, spec_of):
    spec = spec_of(case.eps)
    mesh = structured_triangulation(case.N, case.N)
    return mesh, spec, decompose(mesh, spec.b)


def _random_grid(options, case, spec_of):
    spec = spec_of(case.eps)
    mesh = mild_random_grid(case.N, spec.b, seed=case.seed)
    return mesh, spec, decompose(mesh, spec.b)


def _interior_layer(options, case, snap_rule):
    spec = problems.ex5_spec(case.eps)
    mesh = interior_layer_mesh(case.N,
                               snap_rule=_option(options, "snap_rule",
                                                 snap_rule),
                               seed=case.seed)
    mesh, dec = _safe_decomposition(mesh, spec.b)
    return mesh, spec, dec


def _channel(options, case):
    spec = problems.ex6_spec(case.eps, theta=case.theta)
    mesh = hemker_layered_mesh(case.theta,
                               snap_rule=_option(options, "snap_rule",
                                                 SNAP_RULE))
    mesh, dec = _safe_decomposition(mesh, spec.b)
    return mesh, spec, dec


def _vortex(options, case):
    """The wind is tangent to the whole boundary, so the constraint band
    comes from an inset square."""
    spec = problems.ex7_spec(case.eps)
    mesh = structured_triangulation(case.N, case.N,
                                    domain=problems.GLAZING_DOMAIN)
    delta = _option(options, "shrink_delta", 2.0 / case.N, float)
    return mesh, spec, build_omega_plus_shrunk(mesh, spec.b, delta)


# ---------------------------------------------------------------------------
# metrics of a solved method: (case, method, mesh, spec, dec, u) -> values


def _interior(mesh):
    return sorted(set(range(mesh.n_nodes)) - mesh.boundary_node_set())


def _linf_interior(case, method, mesh, spec, dec, u):
    return (metrics.linf_nodal_error(mesh, u, problems.ex1_exact(case.eps),
                                     nodes=_interior(mesh)),)


def _h1_inner(case, method, mesh, spec, dec, u):
    """H1-seminorm error away from the unresolved outflow layers."""
    bary = mesh.nodes[mesh.elements].mean(axis=1)
    region = [k for k in range(mesh.n_elements)
              if bary[k][0] < 1.0 - 1.0 / case.N
              and bary[k][1] < 1.0 - 1.0 / case.N]
    return (metrics.h1_seminorm_error(
        mesh, u, problems.ex1_exact_gradient(case.eps), region=region),)


def _conv_residual(case, method, mesh, spec, dec, u):
    return (metrics.convective_residual_l2(mesh, u, spec, dec.omega_hat),)


def _vortex_range(case, method, mesh, spec, dec, u):
    lo, hi = float(u.min()), float(u.max())
    if method.startswith("sms") and lo < -1e-10:
        raise solvers.SolveError(
            "negative SMS nodal value %.3e (method %s, N=%d, eps=%g)"
            % (lo, method, case.N, case.eps))
    return lo, hi


def _ex1_solve(case, method, mesh, spec, dec):
    """ex1's solve hook: the supg-shishkin oracle runs on its own
    layer-resolving Shishkin grid and is measured at the coarse interior
    nodes; every row carries the solve's wall time."""
    exact = problems.ex1_exact(case.eps)
    interior = _interior(mesh)
    t0 = time.perf_counter()
    if method == "supg-shishkin":
        sx, sy = _ex1_widths(case)
        u, omesh, _mask = solvers.solve_shishkin_oracle_2d(
            problems.ex1_spec(case.eps), case.N, sx, sy)
        wall = time.perf_counter() - t0
        # oracle nodes matching the interior coarse lattice, in oracle
        # order; a rounded (x, y) as x + iy, which np.isin sorts and
        # compares as the pair
        key = lambda p: np.round(p[:, 0], 12) + 1j * np.round(p[:, 1], 12)
        onodes = np.flatnonzero(np.isin(key(omesh.nodes),
                                        key(mesh.nodes[interior])))
        return metrics.linf_nodal_error(omesh, u, exact, nodes=onodes), wall
    u = _solve_method(mesh, spec, method, decomposition=dec)
    wall = time.perf_counter() - t0
    return metrics.linf_nodal_error(mesh, u, exact, nodes=interior), wall


_CROSSWIND = {10: (0.7701, 1.57), 20: (0.8783, 1.615), 40: (0.9365, 1.64)}


def _crosswind_parameters(cfg, mesh, spec, N):
    """delta_c and delta_tau multiplier for the same-grid comparison;
    tabulated for N in {10, 20, 40}, otherwise user-supplied."""
    table = dict(_CROSSWIND)
    for key, idx in (("delta_c", 0), ("delta_multiplier", 1)):
        raw = cfg.options.get(key, [])
        for item in (raw if isinstance(raw, list) else [raw]):
            try:
                n_txt, val = str(item).split(":", 1)
                n, value = int(n_txt), float(val)
            except (ValueError, TypeError):
                raise ConfigError("expected %s = N:value, got %r"
                                  % (key, item))
            if not math.isfinite(value):
                raise ConfigError("%s must be finite, got %r" % (key, item))
            pair = list(table.get(n, (None, None)))
            pair[idx] = value
            table[n] = tuple(pair)
    if N not in table or None in table[N]:
        raise ConfigError("no crosswind parameters for N=%d; supply "
                          "delta_c and delta_multiplier" % N)
    delta_c, multiplier = table[N]
    return compute_supg_parameters(mesh, spec, delta_c=delta_c,
                                   multiplier=multiplier)


# ---------------------------------------------------------------------------
# further outputs from the main rows: (cfg, rows) -> (summaries, plots)
# with summaries [(file, header, rows)] and plots [(file, points)]


def _ex1_curves(cfg, rows):
    curves = {}
    for method, N, eps, err, _wall in rows:
        curves.setdefault((method, eps), []).append((float(N), err))
    return [], [("ex1_%s_eps%s.dat" % (method, ("%.0e" % eps).replace("-", "m")),
                 pts) for (method, eps), pts in sorted(curves.items())]


def _ex3_summary(cfg, rows):
    """Mean errors, mean SUPG/method ratios and the per-grid errors in
    descending SUPG order."""
    grids = cfg.grids or 0
    errors = {m: np.asarray([err for _g, _s, method, err in rows
                             if method == m]) for m in cfg.methods}
    supg = errors.get("supg")
    order = np.arange(grids)
    if grids and supg is not None:
        order = np.argsort(-supg, kind="stable")
    summary, plots = [], []
    for method in cfg.methods:
        vals = errors[method]
        mean = float(vals.mean()) if grids else float("nan")
        if method != "supg" and grids and supg is not None:
            ratio = float(np.mean(supg / vals))
        else:
            ratio = float("nan")
        summary.append((method, mean, ratio))
        if grids:
            plots.append(("ex3_%s.dat" % method,
                          [(float(i), float(vals[j]))
                           for i, j in enumerate(order)]))
    return [("ex3_summary.csv", ["method", "mean_error", "mean_ratio_supg"],
             summary)], plots


def _grid_means(cfg, rows):
    """comp-ex3's table: each method's mean error over the grids of each N."""
    errs = {}
    for method, N, _eps, err in rows:
        errs.setdefault((method, N), []).append(err)
    return [(method, N, cfg.eps[0],
             float(np.mean(errs[method, N])) if (method, N) in errs
             else float("nan"))
            for N in cfg.N for method in cfg.methods]


def _rates(cfg, rows):
    """Log-log fit of the mean error against h = 1/N per method."""
    rates, plots = [], []
    for method in cfg.methods:
        means = [(float(N), mean) for m, N, _eps, mean in rows if m == method]
        pts = [(1.0 / n, e) for n, e in means if e > 0.0]
        rates.append((method, metrics.fit_rate(pts) if len(pts) >= 3
                      else float("nan")))
        plots.append(("comp-ex3_%s.dat" % method, means))
    return [("comp-ex3_rates.csv", ["method", "fit_rate"], rates)], plots


def _worst_oscillation(cfg, rows):
    worst = {m: (0.0, 0.0) for m in cfg.methods}
    for _g, _s, method, para, exp in rows:
        worst[method] = (max(worst[method][0], para),
                         max(worst[method][1], exp))
    return [("comp-ex4_summary.csv",
             ["method", "max_osc_para2", "max_osc_exp"],
             [(m,) + worst[m] for m in cfg.methods])], []


def _random_grid_means(cfg, rows):
    """Mean osc_int and smear_int over the random grids only."""
    acc = {m: [] for m in cfg.methods}
    for tag, method, oi, si in rows:
        if tag != "regular":
            acc[method].append((oi, si))
    summary = []
    for method in cfg.methods:
        vals = np.asarray(acc[method]) if acc[method] else \
            np.full((1, 2), np.nan)
        summary.append((method, float(np.nanmean(vals[:, 0])),
                        float(np.nanmean(vals[:, 1]))))
    return [("comp-ex5_summary.csv",
             ["method", "mean_osc_int", "mean_smear_int"], summary)], []


def _spread_curves(cfg, rows):
    return [], [("comp-ex6_%s.dat" % m,
                 [(theta, over - under)
                  for method, theta, over, under in rows if method == m])
                for m in cfg.methods]


# ---------------------------------------------------------------------------
# the study table


@dataclass(frozen=True)
class Study:
    """One experiment id.

    cases(cfg) lists the cases; setup(options, case) builds a case's
    mesh, spec and decomposition; metric(case, method, mesh, spec, dec, u)
    gives the metric columns of a solved method.  The main CSV has one row
    per case and method: the case key with the method inserted at
    header.index('method'), then the metric columns.  rows(cfg, rows)
    may aggregate those rows; outputs(cfg, rows) derives the summary CSVs
    and plot data.  node_values writes each method's nodal solution for
    the first eps (and the largest N).
    """
    header: tuple
    cases: object
    setup: object
    metric: object = None
    methods: tuple = ("supg", "sms-galerkin", "sms-supg")
    N: tuple = ()
    eps: tuple = (1e-8,)
    grids: int = None
    paper: dict = field(default_factory=dict)
    table: str = None              # main CSV name; default '<id>.csv'
    node_values: bool = False
    rows: object = None
    outputs: object = None
    parameters: object = None      # SUPG parameters (cfg, mesh, spec, N)
    solve: object = None           # replaces solve + metric (ex1 only)


STUDIES = {
    # layer-resolving tensor-grid oracle vs SMS on the coarse subdomain
    "ex1": Study(
        header=("method", "N", "eps", "linf_coarse", "wall_time"),
        cases=_square_cases, setup=_ex1_coarse, solve=_ex1_solve,
        methods=("supg-shishkin", "sms-galerkin", "sms-supg"),
        N=(5, 10, 20, 40), eps=(1e-4, 1e-8),
        paper=dict(N=[5, 10, 20, 40, 80, 160, 320]), outputs=_ex1_curves),
    # same-grid comparison on the manufactured-layer problem; the SUPG
    # baseline carries crosswind diffusion
    "ex2": Study(
        header=("method", "N", "eps", "linf_interior"),
        cases=_square_cases, setup=partial(_unit_square,
                                           spec_of=problems.ex1_spec),
        metric=_linf_interior, N=(10, 20, 40),
        parameters=_crosswind_parameters),
    # convective-residual errors over random mild grids
    "ex3": Study(
        header=("grid", "grid_seed", "method", "conv_residual_l2"),
        cases=_grid_cases, setup=partial(_random_grid,
                                         spec_of=problems.ex3_spec),
        metric=_conv_residual, N=(40,), grids=50,
        paper=dict(grids=200, N=[80]), table="ex3_grids.csv",
        outputs=_ex3_summary),
    # parabolic layers: crosswind oscillation and smearing on the mid-line
    "ex4": Study(
        header=("method", "N", "eps", "osc", "smear"),
        cases=_square_cases, setup=partial(_unit_square,
                                           spec_of=problems.ex4_spec),
        metric=lambda c, m, mesh, spec, dec, u: metrics.osc_smear(mesh, u),
        N=(20, 64), node_values=True),
    # interior layer from discontinuous inflow data, embedded in regular
    # grids with SNAP_RULE, which keeps the grid rows where smearing is
    # measured in place (see interior_layer_mesh)
    "ex5": Study(
        header=("method", "N", "eps", "overshoot", "undershoot", "osc_int",
                "smear_int"),
        cases=_square_cases, setup=partial(_interior_layer,
                                           snap_rule=SNAP_RULE),
        metric=lambda c, m, mesh, spec, dec, u: (
            metrics.over_undershoot(u) + metrics.osc_int_smear_int(mesh, u)),
        N=(16, 64), node_values=True),
    # channel with hole, both characteristic layers embedded
    "ex6": Study(
        header=("method", "eps", "overshoot", "undershoot"),
        cases=_eps_cases, setup=_channel,
        metric=lambda c, m, mesh, spec, dec, u: metrics.over_undershoot(u),
        node_values=True),
    # recirculating vortex; SMS must stay nonnegative
    "ex7": Study(
        header=("method", "N", "eps", "min_value", "max_value"),
        cases=_square_cases, setup=_vortex, metric=_vortex_range,
        N=(8, 20), eps=(1e-4, 1e-6, 1e-10, 1e-14), node_values=True),
    # ex2 measured in the H1 seminorm
    "comp-ex2": Study(
        header=("method", "N", "eps", "h1_error"),
        cases=_square_cases, setup=partial(_unit_square,
                                           spec_of=problems.ex1_spec),
        metric=_h1_inner, N=(10, 20, 40),
        parameters=_crosswind_parameters),
    # mean convective-residual error vs N on mild grids, with fit rates
    "comp-ex3": Study(
        header=("method", "N", "eps", "mean_conv_residual_l2"),
        cases=_n_grid_cases, setup=partial(_random_grid,
                                           spec_of=problems.ex3_spec),
        metric=_conv_residual, N=(10, 20, 40), grids=10,
        paper=dict(grids=200, N=[10, 20, 40, 80]), rows=_grid_means,
        outputs=_rates),
    # directional-derivative oscillation of ex4 on random mild grids
    "comp-ex4": Study(
        header=("grid", "grid_seed", "method", "osc_para2", "osc_exp"),
        cases=_grid_cases, setup=partial(_random_grid,
                                         spec_of=problems.ex4_spec),
        metric=lambda c, m, mesh, spec, dec, u: metrics.osc_para_exp(mesh,
                                                                     u),
        N=(40,), grids=10, paper=dict(grids=200),
        outputs=_worst_oscillation),
    # ex5 on random grids with the wider snapping threshold
    "comp-ex5": Study(
        header=("grid", "method", "osc_int", "smear_int"),
        cases=_regular_then_grid_cases,
        setup=partial(_interior_layer, snap_rule="2hmin2"),
        metric=lambda c, m, mesh, spec, dec, u: metrics.osc_int_smear_int(
            mesh, u),
        N=(64,), grids=10, paper=dict(grids=200),
        outputs=_random_grid_means),
    # wind-angle sweep of the channel, layers re-embedded at each angle
    "comp-ex6": Study(
        header=("method", "theta", "overshoot", "undershoot"),
        cases=_angle_cases, setup=_channel,
        metric=lambda c, m, mesh, spec, dec, u: metrics.over_undershoot(u),
        grids=10, paper=dict(grids=100), outputs=_spread_curves),
}


def _node_file(cfg, case, method):
    if case.eps != cfg.eps[0]:
        return None
    if case.N is None:
        return "%s_%s.csv" % (cfg.experiment, method)
    if case.N == max(cfg.N):
        return "%s_%s_N%d.csv" % (cfg.experiment, method, case.N)
    return None


def run(cfg):
    """Run the configured experiment; returns the written file paths."""
    os.makedirs(cfg.out, exist_ok=True)
    study = STUDIES[cfg.experiment]
    comments = _config_comments(cfg)
    at = study.header.index("method")
    rows, node_files = [], []
    for case in study.cases(cfg):
        mesh, spec, dec = study.setup(cfg.options, case)
        for method in cfg.methods:
            if study.solve is not None:
                values = study.solve(case, method, mesh, spec, dec)
            else:
                params = None
                if study.parameters is not None and method == "supg":
                    params = study.parameters(cfg, mesh, spec, case.N)
                u = _solve_method(mesh, spec, method, decomposition=dec,
                                  parameters=params)
                values = study.metric(case, method, mesh, spec, dec, u)
                name = study.node_values and _node_file(cfg, case, method)
                if name:
                    path = os.path.join(cfg.out, name)
                    write_node_values_csv(mesh, u, path, comments=comments)
                    node_files.append(path)
            rows.append(case.key[:at] + (method,) + case.key[at:]
                        + tuple(values))
    if study.rows is not None:
        rows = study.rows(cfg, rows)
    summaries, plots = study.outputs(cfg, rows) if study.outputs else ([], [])
    table = study.table or cfg.experiment + ".csv"
    return ([write_csv(os.path.join(cfg.out, table), study.header, rows,
                       comments)]
            + [write_csv(os.path.join(cfg.out, name), header, srows, comments)
               for name, header, srows in summaries]
            + node_files
            + [write_plot_data(os.path.join(cfg.out, name), pts)
               for name, pts in plots])
