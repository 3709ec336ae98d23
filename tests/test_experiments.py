"""Config parsing and the experiment harness: defaults, determinism and
output formats."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from smsfem import experiments, metrics
from smsfem.experiments import (ConfigError, ExperimentConfig,
                                config_from_mapping, mild_random_grid,
                                parse_config, run, write_csv,
                                write_plot_data)
from smsfem.meshes import tensor_triangulation


def test_parse_config_accumulates_and_strips(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("experiment = ex4   # trailing comment\n"
                    "\n"
                    "# full-line comment\n"
                    "N = 8\n"
                    "N = 16\n"
                    "method=sms-galerkin\n")
    raw = parse_config(str(path))
    assert raw["experiment"] == ["ex4"]
    assert raw["N"] == ["8", "16"]
    assert raw["method"] == ["sms-galerkin"]


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_config_defaults_and_validation():
    cfg = ExperimentConfig(experiment="ex4")
    assert cfg.N == [20, 64]
    assert cfg.methods == ["supg", "sms-galerkin", "sms-supg"]
    assert cfg.eps == [1e-8]
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="ex99")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="ex4", methods=["multigrid"])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="ex4", eps=[-1.0])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="ex4", scale="poster")


def test_config_paper_scale_overrides():
    cfg = ExperimentConfig(experiment="ex3", scale="paper")
    assert cfg.grids == 200
    assert cfg.N == [80]


def test_config_from_mapping_overrides():
    raw = {"experiment": ["ex4"], "N": ["8"], "seed": ["7"],
           "out": ["filedir"], "snap_rule": ["nearest"]}
    cfg = config_from_mapping(raw, out="clidir", seed=3)
    assert cfg.experiment == "ex4"
    assert cfg.N == [8]
    assert cfg.seed == 3          # CLI beats the file entry
    assert cfg.out == "clidir"
    assert cfg.options == {"snap_rule": "nearest"}
    with pytest.raises(ConfigError):
        config_from_mapping({})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": ["ex4"], "seed": ["1", "2"]})
    with pytest.raises(ConfigError):
        config_from_mapping({"experiment": ["ex4"], "N": ["eight"]})


def test_write_csv_and_plot_data(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(str(p), ["a", "b"], [("x", 0.5), ("y", 2.0)], ["seed = 0"])
    lines = p.read_text().splitlines()
    assert lines[0] == "# seed = 0"
    assert lines[1] == "a,b"
    assert lines[2] == "x,%.16e" % 0.5
    d = tmp_path / "t.dat"
    write_plot_data(str(d), [(1.0, 2.0), (3.0, 4.0)])
    rows = d.read_text().splitlines()
    assert rows[0] == "%.16e %.16e" % (1.0, 2.0)


def test_mild_random_grid_freezes_outflow_strip():
    N, b = 10, np.array([2.0, 3.0])
    mesh = mild_random_grid(N, b, seed=4)
    h = 1.0 / N
    lines = np.concatenate([np.linspace(0.0, 1.0 - h, N), [1.0]])
    base = tensor_triangulation(lines, lines)
    assert mesh.n_nodes == base.n_nodes
    strip = [(base.nodes[v][0] >= 1.0 - h - 1e-12)
             or (base.nodes[v][1] >= 1.0 - h - 1e-12)
             for v in range(base.n_nodes)]
    for v in range(base.n_nodes):
        if strip[v]:
            assert np.array_equal(mesh.nodes[v], base.nodes[v])
    moved = [v for v in range(base.n_nodes)
             if not np.array_equal(mesh.nodes[v], base.nodes[v])]
    assert moved
    assert np.all(mesh.areas() > 0)


def test_safe_decomposition_clean_mesh_identity():
    from smsfem.meshes import structured_triangulation
    m = structured_triangulation(5, 5)
    out, dec = experiments._safe_decomposition(m, np.array([1.0, 1.0]))
    assert out is m
    assert dec.n_delta


def test_run_ex4_deterministic_output(tmp_path):
    files = {}
    for tag in ("a", "b"):
        cfg = ExperimentConfig(experiment="ex4", N=[8],
                               methods=["sms-galerkin"],
                               out=str(tmp_path / tag))
        out = run(cfg)
        files[tag] = out
    text_a = Path(files["a"][0]).read_text()
    text_b = Path(files["b"][0]).read_text()
    assert "wall_time" not in text_a
    assert text_a == text_b
    header = [l for l in text_a.splitlines() if not l.startswith("#")][0]
    assert header == "method,N,eps,osc,smear"


def test_run_random_study_zero_grids(tmp_path):
    cfg = ExperimentConfig(experiment="ex3", grids=0, N=[8],
                           methods=["supg", "sms-galerkin"],
                           out=str(tmp_path))
    paths = run(cfg)
    grid_rows = [l for l in Path(paths[0]).read_text().splitlines()
                 if not l.startswith("#")]
    assert grid_rows == ["grid,grid_seed,method,conv_residual_l2"]
    summary = [l for l in Path(paths[1]).read_text().splitlines()
               if not l.startswith("#")]
    assert summary[0] == "method,mean_error,mean_ratio_supg"
    assert "nan" in summary[1]


def test_same_grid_requires_tabulated_crosswind(tmp_path):
    cfg = ExperimentConfig(experiment="ex2", N=[15], methods=["supg"],
                           out=str(tmp_path))
    with pytest.raises(ConfigError):
        run(cfg)


def test_same_grid_crosswind_override(tmp_path):
    cfg = ExperimentConfig(experiment="ex2", N=[15], methods=["supg"],
                           eps=[1e-4], out=str(tmp_path),
                           options={"delta_c": ["15:0.8"],
                                    "delta_multiplier": ["15:1.6"]})
    paths = run(cfg)
    rows = [l for l in Path(paths[0]).read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "method,N,eps,linf_interior"
    assert rows[1].startswith("supg,15,")


def _data(path):
    return [line for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]


def test_comp_ex3_rate_fits_error_against_h(tmp_path):
    cfg = ExperimentConfig(experiment="comp-ex3", N=[4, 8, 16], grids=1,
                           out=str(tmp_path))
    table, rates = run(cfg)[:2]
    means = {}
    for line in _data(table)[1:]:
        method, N, _eps, mean = line.split(",")
        means.setdefault(method, []).append((1.0 / int(N), float(mean)))
    got = dict(line.split(",") for line in _data(rates)[1:])
    assert sorted(got) == sorted(cfg.methods)
    for method, pts in means.items():
        assert float(got[method]) == metrics.fit_rate(pts)


_CROSSWIND_N8 = {"delta_c": "8:0.7", "delta_multiplier": "8:1.5"}
_M3 = ("supg", "sms-galerkin", "sms-supg")

# experiment id -> (tiny config, returned file names, header of each CSV)
_TINY = {
    "ex1": (dict(N=[4], eps=[1e-8]),
            ["ex1.csv"] + ["ex1_%s_eps1em08.dat" % m for m in
                           ("sms-galerkin", "sms-supg", "supg-shishkin")],
            {"ex1.csv": "method,N,eps,linf_coarse,wall_time"}),
    "ex2": (dict(N=[8], options=_CROSSWIND_N8), ["ex2.csv"],
            {"ex2.csv": "method,N,eps,linf_interior"}),
    "ex3": (dict(N=[8], grids=1),
            ["ex3_grids.csv", "ex3_summary.csv"]
            + ["ex3_%s.dat" % m for m in _M3],
            {"ex3_grids.csv": "grid,grid_seed,method,conv_residual_l2",
             "ex3_summary.csv": "method,mean_error,mean_ratio_supg"}),
    "ex4": (dict(N=[8]), ["ex4.csv"] + ["ex4_%s_N8.csv" % m for m in _M3],
            {"ex4.csv": "method,N,eps,osc,smear"}),
    "ex5": (dict(N=[8]), ["ex5.csv"] + ["ex5_%s_N8.csv" % m for m in _M3],
            {"ex5.csv": "method,N,eps,overshoot,undershoot,osc_int,"
                        "smear_int"}),
    "ex6": (dict(), ["ex6.csv"] + ["ex6_%s.csv" % m for m in _M3],
            {"ex6.csv": "method,eps,overshoot,undershoot"}),
    "ex7": (dict(N=[8], eps=[1e-4]),
            ["ex7.csv"] + ["ex7_%s_N8.csv" % m for m in _M3],
            {"ex7.csv": "method,N,eps,min_value,max_value"}),
    "comp-ex2": (dict(N=[8], options=_CROSSWIND_N8), ["comp-ex2.csv"],
                 {"comp-ex2.csv": "method,N,eps,h1_error"}),
    "comp-ex3": (dict(N=[4, 8], grids=1),
                 ["comp-ex3.csv", "comp-ex3_rates.csv"]
                 + ["comp-ex3_%s.dat" % m for m in _M3],
                 {"comp-ex3.csv": "method,N,eps,mean_conv_residual_l2",
                  "comp-ex3_rates.csv": "method,fit_rate"}),
    "comp-ex4": (dict(N=[8], grids=1),
                 ["comp-ex4.csv", "comp-ex4_summary.csv"],
                 {"comp-ex4.csv": "grid,grid_seed,method,osc_para2,osc_exp",
                  "comp-ex4_summary.csv":
                      "method,max_osc_para2,max_osc_exp"}),
    "comp-ex5": (dict(N=[8], grids=1),
                 ["comp-ex5.csv", "comp-ex5_summary.csv"],
                 {"comp-ex5.csv": "grid,method,osc_int,smear_int",
                  "comp-ex5_summary.csv":
                      "method,mean_osc_int,mean_smear_int"}),
    "comp-ex6": (dict(grids=1),
                 ["comp-ex6.csv"] + ["comp-ex6_%s.dat" % m for m in _M3],
                 {"comp-ex6.csv": "method,theta,overshoot,undershoot"}),
}


# sha256 of every output file's data section (comment lines dropped, and
# ex1.csv without its wall_time column) for the _TINY configs, recorded with
# the per-element loop assembly before the array path replaced it.  They
# make the rule that a refactor keeps experiment data byte-identical a
# check.  Like perfbench/reference.json they are tied to the numpy/OpenBLAS
# build they were recorded with (numpy 2.4.6, scipy 1.17.1, x86-64); on
# another BLAS the last digits may round differently.
with open(os.path.join(os.path.dirname(__file__),
                       "experiment_digests.json")) as _fh:
    _DIGESTS = json.load(_fh)


@pytest.mark.parametrize("experiment", sorted(_TINY))
def test_every_experiment_runs_deterministically(tmp_path, experiment):
    kwargs, names, headers = _TINY[experiment]
    texts = []
    for tag in ("a", "b"):
        paths = run(ExperimentConfig(experiment=experiment,
                                     out=str(tmp_path / tag), **kwargs))
        assert [os.path.basename(p) for p in paths] == names
        for p in paths:
            if p.endswith(".csv"):
                header = _data(p)[0]
                assert header == headers.get(os.path.basename(p),
                                             "x,y,value")
        texts.append([_data(p) for p in paths])
    if experiment == "ex1":
        # wall_time, the last column, differs between runs
        for run_texts in texts:
            run_texts[0] = [line.rsplit(",", 1)[0] for line in run_texts[0]]
    assert texts[0] == texts[1]
    for p, lines in zip(paths, texts[0]):
        # a data line below the CSV header; plot data has no header
        assert len(lines) > (1 if p.endswith(".csv") else 0)
        name = os.path.basename(p)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == _DIGESTS[name], "%s data changed" % name
