"""Command-line interface: mesh generation/inspection, single solves,
uniqueness diagnostics and the experiment runner.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import experiments, fixtures, metrics, problems
from .experiments import ConfigError, _option, parse_config
from .layers import DegenerateCrossingError
from .meshes import (ArgumentError, GenerationError, MeshFileError,
                     perturb_structured, read_mesh, red_refine,
                     structured_triangulation, write_mesh,
                     write_node_values_csv)
from .problems import UnknownProblemError
from .solvers import SolveError
from .sparse import RankDeficiencyError, StructuralError
from .wind import RemediationError, ValidationError, decompose, diagnose

_CONFIG_ERRORS = (ConfigError, UnknownProblemError, MeshFileError,
                  ArgumentError, GenerationError, ValidationError,
                  FileNotFoundError, IsADirectoryError)
_SOLVER_ERRORS = (SolveError, RankDeficiencyError, RemediationError,
                  DegenerateCrossingError, StructuralError)


def _load_config(path):
    if path is None:
        return {}
    return parse_config(path)


def _mesh_from_config(raw, seed):
    """Build a mesh from the flat config mapping.

    kind = structured (default) | fixture | file, with nx/ny/diagonal/
    domain, fixture name or path, optional perturb amplitude and refine
    list ('all' or element ids).
    """
    kind = _option(raw, "kind", "structured")
    if kind == "structured":
        nx = _option(raw, "nx", _option(raw, "n", 8, int), int)
        ny = _option(raw, "ny", nx, int)
        diagonal = _option(raw, "diagonal", "SW-NE")
        dom = _option(raw, "domain")
        if dom is not None:
            try:
                parts = [float(t) for t in str(dom).replace(",", " ").split()]
            except ValueError:
                parts = []
            if len(parts) != 4:
                raise ConfigError("domain needs four numbers: x0 y0 x1 y1, "
                                  "got %r" % dom)
            domain = ((parts[0], parts[1]), (parts[2], parts[3]))
        else:
            domain = ((0.0, 0.0), (1.0, 1.0))
        mesh = structured_triangulation(nx, ny, diagonal=diagonal,
                                        domain=domain)
    elif kind == "fixture":
        name = _option(raw, "fixture")
        if not name:
            raise ConfigError("kind=fixture requires a fixture name")
        mesh = fixtures.load(name)
    elif kind == "file":
        path = _option(raw, "path")
        if not path:
            raise ConfigError("kind=file requires path")
        mesh = read_mesh(path)
    else:
        raise ConfigError("unknown mesh kind %r" % kind)
    amp = _option(raw, "perturb", 0.0, float)
    if amp:
        mesh = perturb_structured(mesh, amp, seed)
    refine = _option(raw, "refine")
    if refine is not None:
        if refine == "all":
            targets = range(mesh.n_elements)
        else:
            try:
                targets = [int(t) for t in str(refine).split()]
            except ValueError:
                raise ConfigError("refine must be 'all' or element ids")
        mesh = red_refine(mesh, targets)
    return mesh


def _describe(mesh):
    tags = {}
    for _i, _j, t in mesh.boundary_edges:
        tags[t] = tags.get(t, 0) + 1
    areas = np.abs(mesh.areas())
    lines = ["nodes: %d" % mesh.n_nodes,
             "elements: %d" % mesh.n_elements,
             "boundary edges: %s" % " ".join(
                 "%s=%d" % (t, c) for t, c in sorted(tags.items())),
             "constraint edges: %d" % len(mesh.constraint_edges),
             "element area: min %.6e max %.6e" % (areas.min(), areas.max())]
    return "\n".join(lines)


def _wind_from_config(raw, spec=None):
    if "bx" in raw or "by" in raw:
        b = np.array([_option(raw, "bx", 0.0, float),
                      _option(raw, "by", 0.0, float)])
        if not np.isfinite(b).all():
            raise ConfigError("bx and by must be finite, got %r"
                              % b.tolist())
        return b
    if spec is not None:
        return spec.b
    raise ConfigError("wind required: set bx/by or problem")


def _problem_setup(raw, seed):
    """Mesh, spec and decomposition for a single named-problem solve."""
    name = _option(raw, "problem")
    if not name:
        raise ConfigError("solve requires problem=<id>")
    prob = problems.catalog(name)
    if prob.dimension != 2:
        raise ConfigError("problem %r is one-dimensional; use the library "
                          "solvers directly" % name)
    eps = _option(raw, "eps", prob.default_eps, float)
    N = _option(raw, "N", 16, int)
    if name in ("ex5", "ex6", "ex7"):
        case = experiments.Case((), eps, N=N,
                                theta=_option(raw, "theta", 0.0, float))
        return experiments.STUDIES[name].setup(raw, case)
    spec = prob.build(eps)
    if "kind" in raw or "fixture" in raw or "path" in raw:
        mesh = _mesh_from_config(raw, seed)
    else:
        mesh = structured_triangulation(N, N)
        amp = _option(raw, "perturb", 0.0, float)
        if amp:
            mesh = perturb_structured(mesh, amp, seed)
    dec = decompose(mesh, spec.b)
    return mesh, spec, dec


def _cmd_mesh(args):
    raw = _load_config(args.config)
    mesh = _mesh_from_config(raw, args.seed)
    print(_describe(mesh))
    name = _option(raw, "write")
    if name or args.out != ".":
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name or "mesh.mesh")
        write_mesh(mesh, path)
        print("wrote %s" % path)
    return 0


def _cmd_solve(args):
    raw = _load_config(args.config)
    method = _option(raw, "method", "sms-supg")
    if method not in experiments._SOLVE_METHODS:
        raise ConfigError("unknown method %r (known: %s)"
                          % (method, ", ".join(experiments._SOLVE_METHODS)))
    # as ExperimentConfig takes eps, except that the Galerkin methods
    # also solve the reduced problem eps = 0
    eps = _option(raw, "eps", None, float)
    if eps is not None:
        reduced = eps == 0 and "supg" not in method
        if not (math.isfinite(eps) and (eps > 0 or reduced)):
            raise ConfigError("eps must be finite and positive (or 0 with "
                              "a Galerkin method), got %r" % eps)
    mesh, spec, dec = _problem_setup(raw, args.seed)
    u = experiments._solve_method(mesh, spec, method, decomposition=dec)
    over, under = metrics.over_undershoot(u)
    print("method: %s" % method)
    print("nodal range: [%.6e, %.6e]" % (u.min(), u.max()))
    print("overshoot: %.6e  undershoot: %.6e" % (over, under))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "%s_%s.csv" % (_option(raw, "problem"), method))
    write_node_values_csv(mesh, u, path)
    print("wrote %s" % path)
    return 0


def _cmd_diagnose(args):
    raw = _load_config(args.config)
    if _option(raw, "problem"):
        mesh, spec, dec = _problem_setup(raw, args.seed)
        b = spec.b
    else:
        mesh = _mesh_from_config(raw, args.seed)
        b = _wind_from_config(raw)
        dec = decompose(mesh, b)
    report = diagnose(dec, mesh, b)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_experiment(args):
    raw = _load_config(args.config)
    cfg = experiments.config_from_mapping(raw, experiment=args.id,
                                          out=args.out, seed=args.seed,
                                          scale=args.scale)
    files = experiments.run(cfg)
    for f in files:
        print("wrote %s" % f)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="smsfem",
        description="Stabilized FEM for convection-dominated problems: "
                    "meshes, solves, uniqueness diagnostics, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--scale", choices=("desk", "paper"), default="desk")

    p_mesh = sub.add_parser("mesh", help="generate, inspect or refine a mesh")
    common(p_mesh)
    p_mesh.set_defaults(func=_cmd_mesh)

    p_solve = sub.add_parser("solve", help="solve one problem from config")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_diag = sub.add_parser("diagnose", help="uniqueness report for a mesh")
    common(p_diag)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("id", help="ex1..ex7 or comp-ex2..comp-ex6")
    common(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as e:
        print("solver failure: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
