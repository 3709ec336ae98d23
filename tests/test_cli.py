"""Command-line driver: subcommands, exit codes, output files."""

import os

import pytest

from smsfem import cli


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
