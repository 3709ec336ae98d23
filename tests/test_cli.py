"""Command-line driver: subcommands, exit codes, output files."""

import os

import pytest

from smsfem import cli
from smsfem.meshes import structured_triangulation, write_mesh


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_mesh_inspect(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", "nx = 4\nny = 3\n")
    assert cli.main(["mesh", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "nodes: 20" in out
    assert "elements: 24" in out
    assert "boundary edges: D=14" in out


def test_mesh_write_and_reload(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", "nx = 2\nwrite = grid.mesh\n")
    outdir = str(tmp_path / "meshes")
    assert cli.main(["mesh", "--config", cfg, "--out", outdir]) == 0
    path = os.path.join(outdir, "grid.mesh")
    assert os.path.exists(path)
    cfg2 = _write(tmp_path, "m2.cfg", "kind = file\npath = %s\n" % path)
    assert cli.main(["mesh", "--config", cfg2]) == 0
    assert "nodes: 9" in capsys.readouterr().out


def test_mesh_refine_and_perturb(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg",
                 "nx = 3\nperturb = 0.2\nrefine = all\n")
    assert cli.main(["mesh", "--config", cfg]) == 0
    assert "elements: 72" in capsys.readouterr().out


def test_solve_writes_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "s.cfg",
                 "problem = ex4\nmethod = sms-galerkin\nN = 8\n")
    outdir = str(tmp_path / "run")
    assert cli.main(["solve", "--config", cfg, "--out", outdir]) == 0
    out = capsys.readouterr().out
    assert "method: sms-galerkin" in out
    path = os.path.join(outdir, "ex4_sms-galerkin.csv")
    assert os.path.exists(path)
    with open(path) as fh:
        assert fh.readline().strip() == "x,y,value"


def test_diagnose_with_explicit_wind(tmp_path, capsys):
    cfg = _write(tmp_path, "d.cfg", "nx = 5\nbx = 1\nby = 1\n")
    assert cli.main(["diagnose", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "isolated components: 0" in out


def test_diagnose_packaged_fixture(tmp_path, capsys):
    cfg = _write(tmp_path, "d.cfg",
                 "kind = fixture\nfixture = channel_hole\nbx = 1\nby = 0\n")
    assert cli.main(["diagnose", "--config", cfg]) == 0
    assert "isolated components:" in capsys.readouterr().out
    cfg2 = _write(tmp_path, "d2.cfg",
                  "kind = fixture\nfixture = nosuch\nbx = 1\nby = 0\n")
    assert cli.main(["diagnose", "--config", cfg2]) == 2


def test_config_error_exit_codes(tmp_path, capsys):
    assert cli.main(["solve", "--config",
                     _write(tmp_path, "a.cfg", "problem = ex99\n")]) == 2
    assert cli.main(["solve", "--config",
                     _write(tmp_path, "b.cfg",
                            "problem = ex4\nmethod = multigrid\n")]) == 2
    assert cli.main(["solve", "--config",
                     str(tmp_path / "missing.cfg")]) == 2
    assert cli.main(["experiment", "ex99"]) == 2
    assert cli.main(["diagnose", "--config",
                     _write(tmp_path, "c.cfg", "nx = 4\n")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_mesh_domain_must_be_numbers(tmp_path, capsys):
    for dom in ("0 0 one 1", "0 0 1"):
        cfg = _write(tmp_path, "d.cfg", "domain = %s\n" % dom)
        assert cli.main(["mesh", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: domain needs four numbers" in err


def _grid_file(tmp_path, n, line, text):
    """A file mesh of the n x n unit-square grid with its line-th line
    (from 1) replaced by text."""
    path = tmp_path / "grid.mesh"
    write_mesh(structured_triangulation(n, n), str(path))
    lines = path.read_text().splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    return str(path)


_SOLVE_EX4 = "problem = ex4\nmethod = galerkin\neps = 0.01\n"


# line 3 holds node 0 at (0, 0), the last node line (1, 1), and the first
# boundary line the edge 0 1 (line 11 at n = 1, 62 at n = 4)
@pytest.mark.parametrize("command, n, line, text, message", [
    ("mesh", 1, 3, "nan 0", "line 3: bad coordinate"),
    ("mesh", None, None, None, "degenerate or inverted element"),
    ("solve", 1, 11, "0 1 D nan", "line 11: bad value"),
    ("solve", 4, 62, "0 1 D nan", "line 62: bad value"),
    ("solve", 4, 27, "inf 1", "line 27: bad coordinate"),
], ids=["nan-node", "nan-domain", "nan-edge-value-2-elements",
        "nan-edge-value-4x4", "inf-node-4x4"])
def test_non_finite_mesh_input_is_a_config_error(tmp_path, capsys, command,
                                                 n, line, text, message):
    if n is None:
        cfg = "nx = 2\ndomain = 0 0 nan 1\n"
    else:
        cfg = "kind = file\npath = %s\n" % _grid_file(tmp_path, n, line,
                                                        text)
    if command == "solve":
        cfg += _SOLVE_EX4
    path = _write(tmp_path, "m.cfg", cfg)
    assert cli.main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("solve", "problem = ex5\nmethod = galerkin\nN = 8\nsnap_rule = bogus\n",
     "snap rule must be"),
    ("experiment ex5", "N = 16\nsnap_rule = bogus\n", "snap rule must be"),
    ("experiment ex5", "N = 16\nsnap_rule = nan\n", "snap rule must be"),
    ("experiment ex2", "N = 10\ndelta_c = 10:nan\n",
     "delta_c must be finite"),
    ("experiment comp-ex2", "N = 10\ndelta_multiplier = 10:inf\n",
     "delta_multiplier must be finite"),
    ("diagnose", "nx = 4\nbx = nan\nby = 1\n", "bx and by must be finite"),
    ("diagnose", "nx = 4\nbx = 1\nby = inf\n", "bx and by must be finite"),
    ("mesh", "nx = -3\n", "need at least one cell per direction"),
    ("solve", "problem = ex4\nN = -3\n",
     "need at least one cell per direction"),
    ("experiment ex2", "N = -3\n", "need at least one cell per direction"),
    ("experiment ex3", "grids = -1\n", "grids must be nonnegative"),
    ("experiment comp-ex5", "grids = -2\n", "grids must be nonnegative"),
    ("experiment comp-ex6", "grids = -2\n", "grids must be nonnegative"),
    ("solve", "problem = ex6\nmethod = galerkin\ntheta = inf\n",
     "theta must be finite"),
] + [("experiment " + e, "N = %d\n" % n,
      "need at least one cell per direction")
     for e in ("ex1", "ex3", "comp-ex3", "comp-ex4") for n in (0, -3)],
    ids=["solve-snap-bogus", "ex5-snap-bogus", "ex5-snap-nan",
         "ex2-delta-c-nan", "comp-ex2-multiplier-inf", "diagnose-bx-nan",
         "diagnose-by-inf", "mesh-nx-negative", "solve-N-negative",
         "ex2-N-negative", "ex3-grids-negative", "comp-ex5-grids-negative",
         "comp-ex6-grids-negative", "solve-theta-inf"]
    + ["%s-N-%s" % (e, n) for e in ("ex1", "ex3", "comp-ex3", "comp-ex4")
       for n in ("zero", "negative")])
def test_bad_numeric_options_are_config_errors(tmp_path, capsys, command,
                                               cfg, message):
    path = _write(tmp_path, "o.cfg", cfg)
    assert cli.main(command.split() + ["--config", path,
                                       "--out", str(tmp_path / "out")]) == 2
    assert "config error: " + message in capsys.readouterr().err


def test_solve_rejects_oracle_method(tmp_path, capsys):
    # supg-shishkin is ex1's oracle; the error names the solve methods
    cfg = _write(tmp_path, "o.cfg",
                 "problem = ex4\nmethod = supg-shishkin\nN = 4\n")
    assert cli.main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "(known: galerkin, supg, sms-galerkin, sms-supg)" in err


def test_solver_failure_exit_code(tmp_path, capsys):
    # plain Galerkin on an even grid with eps = 0 is rank deficient
    cfg = _write(tmp_path, "g.cfg",
                 "problem = ex4\nmethod = galerkin\neps = 0\nN = 8\n")
    assert cli.main(["solve", "--config", cfg]) == 3
    assert "solver failure" in capsys.readouterr().err
    # at N = 2 its one unknown has a zero pivot: SuperLU's reason is shown
    cfg = _write(tmp_path, "g2.cfg",
                 "problem = ex4\nmethod = galerkin\neps = 0\nN = 2\n")
    assert cli.main(["solve", "--config", cfg]) == 3
    assert ("solver failure: sparse LU failed on 1 unknowns: "
            "Factor is exactly singular") in capsys.readouterr().err


def test_structural_error_exit_code(tmp_path, capsys):
    # eps = 1e308 overflows the stiffness matrix, so the load lifted by the
    # Dirichlet data is not finite: a typed StructuralError, which the CLI
    # reports as a solver failure
    cfg = _write(tmp_path, "n.cfg",
                 "problem = ex4\nmethod = galerkin\neps = 1e308\nN = 4\n")
    assert cli.main(["solve", "--config", cfg]) == 3
    assert ("solver failure: right-hand side is not finite"
            in capsys.readouterr().err)


@pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
def test_solve_rejects_bad_eps(tmp_path, capsys, eps):
    # eps = 0 is the reduced problem, which the default sms-supg cannot
    # stabilize; the others are no diffusion coefficient at all
    cfg = _write(tmp_path, "e.cfg", "problem = ex4\neps = %s\nN = 4\n" % eps)
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "config error: eps must be finite" in capsys.readouterr().err


def test_experiment_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, "e.cfg", "N = 8\nmethod = sms-galerkin\n")
    outdir = str(tmp_path / "exp")
    assert cli.main(["experiment", "ex4", "--config", cfg,
                     "--out", outdir]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert os.path.exists(os.path.join(outdir, "ex4.csv"))
