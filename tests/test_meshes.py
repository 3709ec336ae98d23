"""1D partitions, 2D triangulations, refinement, strips and mesh I/O."""

import math

import numpy as np
import pytest

from smsfem import fixtures
from smsfem.meshes import (ArgumentError, GenerationError, MeshFileError,
                           Mesh1D, ShishkinSpec1D, Triangulation,
                           perturb_structured, read_mesh, red_refine,
                           shishkin_mesh_1d, structured_triangulation,
                           tensor_shishkin_2d, tensor_triangulation,
                           trochoid_point,
                           uniform_mesh_1d, write_mesh,
                           write_node_values_csv)


# -- 1D -----------------------------------------------------------------------


def test_uniform_1d():
    m = uniform_mesh_1d(4)
    assert np.allclose(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert m.J == 4 and abs(m.h - 0.25) < 1e-15
    m2 = uniform_mesh_1d(2)
    assert np.allclose(m2.nodes, [0.0, 0.5, 1.0])


def test_uniform_1d_rejects_small_J():
    with pytest.raises(ArgumentError):
        uniform_mesh_1d(1)


def test_mesh1d_rejects_nonmonotone():
    with pytest.raises(ArgumentError):
        Mesh1D([0.0, 0.5, 0.5, 1.0])


def test_shishkin_1d_widths_exact():
    N, eps = 8, 1e-3
    sigma = ShishkinSpec1D(N, eps).sigma
    assert abs(sigma - 2.0 * eps * math.log(N)) < 1e-15
    m = shishkin_mesh_1d(N=N, eps=eps)
    assert m.J == 2 * N
    assert np.allclose(m.widths[:N], (1.0 - sigma) / N, rtol=0, atol=1e-15)
    assert np.allclose(m.widths[N:], sigma / N, rtol=0, atol=1e-15)
    assert abs(m.nodes[N] - (1.0 - sigma)) < 1e-15


def test_shishkin_1d_clamps_transition():
    # large eps drives the transition formula past 1/2; clamped there
    spec = ShishkinSpec1D(4, 1.0)
    assert spec.sigma == 0.5
    m = shishkin_mesh_1d(spec)
    assert np.allclose(np.diff(m.nodes), 1.0 / 8.0)


def test_shishkin_1d_explicit_sigma():
    N = 9
    sigma = 4.0 * 1e-8 * math.log(2 * N)
    m = shishkin_mesh_1d(N=N, sigma=sigma)
    assert abs(m.nodes[N] - (1.0 - sigma)) < 1e-15


def test_shishkin_1d_argument_errors():
    with pytest.raises(ArgumentError):
        shishkin_mesh_1d(N=1, eps=1e-3)
    with pytest.raises(ArgumentError):
        shishkin_mesh_1d(N=4, sigma=0.7)
    with pytest.raises(ArgumentError):
        shishkin_mesh_1d(N=4)


# -- structured 2D ------------------------------------------------------------


def test_structured_one_cell():
    m = structured_triangulation(1, 1)
    assert m.n_nodes == 4 and m.n_elements == 2
    # both triangles share the diagonal from (0,0) to (1,1)
    shared = set(m.elements[0]) & set(m.elements[1])
    pts = m.nodes[sorted(shared)]
    assert {tuple(p) for p in pts} == {(0.0, 0.0), (1.0, 1.0)}


def test_structured_counts_and_areas():
    m = structured_triangulation(20, 20)
    assert m.n_elements == 800 and m.n_nodes == 441
    m2 = structured_triangulation(2, 1, domain=((0.0, 0.0), (2.0, 1.0)))
    assert m2.n_elements == 4
    assert np.allclose(m2.areas(), 0.5)


def test_structured_nw_se_diagonal():
    m = structured_triangulation(1, 1, diagonal="NW-SE")
    shared = set(m.elements[0]) & set(m.elements[1])
    pts = m.nodes[sorted(shared)]
    assert {tuple(p) for p in pts} == {(1.0, 0.0), (0.0, 1.0)}


def test_structured_bad_diagonal():
    with pytest.raises(ArgumentError):
        structured_triangulation(2, 2, diagonal="NE-SW")


def test_tag_fn_applied():
    m = structured_triangulation(2, 2,
                                 tag_fn=lambda p: "N" if p[0] > 0.99 else "D")
    tags = {t for i, j, t in m.boundary_edges}
    assert tags == {"D", "N"}
    for i, j, t in m.boundary_edges:
        mid = 0.5 * (m.nodes[i] + m.nodes[j])
        assert t == ("N" if mid[0] > 0.99 else "D")


def test_tensor_shishkin_2d_transition_lines():
    sx, sy = 0.1, 0.2
    m = tensor_shishkin_2d(4, 4, sx, sy)
    xs = np.unique(m.nodes[:, 0])
    ys = np.unique(m.nodes[:, 1])
    assert xs.size == 9 and ys.size == 9
    assert np.isclose(xs, 1.0 - sx).any()
    assert np.isclose(ys, 1.0 - sy).any()
    with pytest.raises(ArgumentError):
        tensor_shishkin_2d(4, 4, 0.0, 0.2)


def test_conformity_audit_everywhere():
    # every generator output passes the audit (run in the constructor);
    # a deliberate duplicate element violates it
    base = structured_triangulation(3, 3)
    bad = np.vstack([base.elements, base.elements[:1]])
    with pytest.raises(GenerationError):
        Triangulation(base.nodes, bad, base.boundary_edges)


# -- perturbation --------------------------------------------------------------


def test_perturb_zero_amplitude_identity():
    m = structured_triangulation(5, 5)
    p = perturb_structured(m, 0.0, seed=3)
    assert np.array_equal(p.nodes, m.nodes)


def test_perturb_deterministic_and_positive():
    m = structured_triangulation(8, 8)
    a = perturb_structured(m, 1.0 / 3.0, seed=42)
    b = perturb_structured(m, 1.0 / 3.0, seed=42)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.all(a.areas() > 0)
    c = perturb_structured(m, 1.0 / 3.0, seed=43)
    assert not np.array_equal(a.nodes, c.nodes)
    assert c.n_elements == m.n_elements


def test_perturb_keeps_boundary_and_frozen():
    m = structured_triangulation(6, 6)
    frozen = [v for v in range(m.n_nodes) if abs(m.nodes[v][0] - 0.5) < 1e-12]
    p = perturb_structured(m, 1.0 / 3.0, seed=0, frozen=frozen)
    bnd = sorted(m.boundary_node_set())
    assert np.array_equal(p.nodes[bnd], m.nodes[bnd])
    assert np.array_equal(p.nodes[frozen], m.nodes[frozen])


def test_perturb_amplitude_guard():
    m = structured_triangulation(4, 4)
    with pytest.raises(ArgumentError):
        perturb_structured(m, 0.5, seed=0)


# -- red refinement ------------------------------------------------------------


def test_red_refine_single_triangle():
    m = Triangulation([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                      [(0, 1, "D"), (1, 2, "D"), (2, 0, "D")])
    r = red_refine(m, [0])
    assert r.n_elements == 4
    assert abs(r.areas().sum() - m.areas().sum()) <= 1e-12


def test_red_refine_closure_conforming():
    m = structured_triangulation(1, 1)
    r = red_refine(m, [0])  # the untouched neighbor is closed by bisection
    assert r.n_elements > 4
    assert abs(r.areas().sum() - 1.0) <= 1e-12  # audit ran in the constructor


def test_red_refine_preserves_area_and_tags():
    m = structured_triangulation(3, 3)
    r = red_refine(m, range(m.n_elements))
    assert r.n_elements == 4 * m.n_elements
    assert abs(r.areas().sum() - 1.0) <= 1e-12
    assert len(r.boundary_edges) == 2 * len(m.boundary_edges)


def test_red_refine_argument_errors():
    m = structured_triangulation(2, 2)
    with pytest.raises(ArgumentError):
        red_refine(m, [])
    with pytest.raises(ArgumentError):
        red_refine(m, [99])


# -- file I/O ------------------------------------------------------------------


def test_mesh_roundtrip(tmp_path):
    m = structured_triangulation(2, 2)
    # promote one interior edge to a valued constraint edge
    interior = m.topology.pairs[m.topology.counts == 2][0].tolist()
    m2 = Triangulation(m.nodes, m.elements, m.boundary_edges,
                       constraint_edges=[(interior[0], interior[1], 0.5)])
    path = tmp_path / "m.mesh"
    write_mesh(m2, str(path))
    r = read_mesh(str(path))
    assert np.array_equal(r.nodes, m2.nodes)
    assert np.array_equal(r.elements, m2.elements)
    assert sorted(r.boundary_edges) == sorted(m2.boundary_edges)
    assert r.constraint_edges == m2.constraint_edges
    assert r.node_values == m2.node_values


def test_read_mesh_valued_boundary_edge(tmp_path):
    text = ("NODES 3\n0 0\n1 0\n0 1\n"
            "ELEMENTS 1\n0 1 2\n"
            "BOUNDARY 3\n0 1 D 2.5\n1 2 D\n2 0 N\n")
    path = tmp_path / "v.mesh"
    path.write_text(text)
    m = read_mesh(str(path))
    assert m.node_values == {0: 2.5, 1: 2.5}


def test_read_mesh_bad_index_names_line(tmp_path):
    text = ("NODES 3\n0 0\n1 0\n0 1\n"
            "ELEMENTS 1\n0 1 9999\n"
            "BOUNDARY 3\n0 1 D\n1 2 D\n2 0 D\n")
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFileError) as exc:
        read_mesh(str(path))
    assert exc.value.line == 6
    assert "line 6" in str(exc.value)


def test_read_mesh_missing_section(tmp_path):
    path = tmp_path / "empty.mesh"
    path.write_text("# nothing\n")
    with pytest.raises(MeshFileError):
        read_mesh(str(path))


def test_node_values_csv(tmp_path):
    m = structured_triangulation(1, 1)
    path = tmp_path / "u.csv"
    write_node_values_csv(m, np.arange(4.0), str(path), comments=["seed=0"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "x,y,value"
    assert len(lines) == 2 + m.n_nodes


def test_trochoid_point_shapes():
    p = trochoid_point(0.3)
    assert p.shape == (2,)
    ps = trochoid_point(np.linspace(0, 2 * np.pi, 10))
    assert ps.shape == (10, 2)


# -- packaged meshes ----------------------------------------------------------


def test_fixture_meshes_are_parsed_once_and_loaded_as_copies(
        monkeypatch, tmp_path):
    reads = []
    monkeypatch.setattr(fixtures, "read_mesh",
                        lambda path: reads.append(path) or read_mesh(path))
    fixtures._parsed.cache_clear()
    first = fixtures.load("channel_hole")
    second = fixtures.load("channel_hole")
    assert len(reads) == 1
    write_mesh(first, tmp_path / "first.mesh")
    write_mesh(second, tmp_path / "second.mesh")
    want = (tmp_path / "second.mesh").read_bytes()
    assert (tmp_path / "first.mesh").read_bytes() == want
    # changing one result leaks into no other load
    first.nodes[0] += 1.0
    first.elements[0] = first.elements[1]
    first.boundary_edges.pop()
    first.constraint_edges.append((0, 1, 0.5))
    first.node_values[0] = 7.0
    for mesh in (second, fixtures.load("channel_hole")):
        write_mesh(mesh, tmp_path / "again.mesh")
        assert (tmp_path / "again.mesh").read_bytes() == want
    assert len(reads) == 1
    with pytest.raises(FileNotFoundError):
        fixtures.load("no_such_mesh")
