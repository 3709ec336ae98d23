"""Mesh topology as arrays against the per-node and per-edge loops it
replaced.

The loops below are the former implementations of the edge and node
adjacency maps, the conformity audit, structured grid generation, the
random node perturbation and the Omega_h+ split.  They stay here as
references: the array versions must give the same maps (contents, value
types and order), the same bytes and the same first audit error.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smsfem import experiments
from smsfem.meshes import (GenerationError, Triangulation,
                           perturb_structured, structured_triangulation,
                           tensor_triangulation)
from smsfem.wind import (BoundaryClassification, build_omega_plus,
                         classify_boundary, upwind_element, vector_field)


# ---------------------------------------------------------------------------
# loop references


def _key(i, j):
    return (min(i, j), max(i, j))


def edge_map_loop(mesh):
    emap = {}
    for k, (a, b, c) in enumerate(mesh.elements):
        for i, j in ((a, b), (b, c), (c, a)):
            emap.setdefault(_key(i, j), []).append(k)
    return emap


def node_map_loop(mesh):
    nmap = [[] for _ in range(mesh.n_nodes)]
    for k, tri in enumerate(mesh.elements):
        for v in tri:
            nmap[v].append(k)
    return nmap


def audit_loop(mesh):
    if np.any(mesh.areas() <= 0):
        raise GenerationError("degenerate or inverted element")
    emap = edge_map_loop(mesh)
    btags = {}
    for i, j, t in mesh.boundary_edges:
        key = _key(i, j)
        if key in btags:
            raise GenerationError("duplicate boundary edge %s" % (key,))
        btags[key] = t
    for key, elems in emap.items():
        if len(elems) == 1:
            if key not in btags:
                raise GenerationError(
                    "element edge %s on boundary but untagged" % (key,))
        elif len(elems) == 2:
            if key in btags:
                raise GenerationError(
                    "interior edge %s tagged as boundary" % (key,))
        else:
            raise GenerationError(
                "edge %s shared by %d elements" % (key, len(elems)))
    for key in btags:
        if key not in emap or len(emap[key]) != 1:
            raise GenerationError(
                "boundary edge %s not an element edge" % (key,))
    for i, j, _v in mesh.constraint_edges:
        key = _key(i, j)
        if key not in emap:
            raise GenerationError(
                "constraint edge %s not an element edge" % (key,))


def _signed_areas(nodes, elements):
    p = nodes[elements]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def tensor_loop(xs, ys, diagonal="SW-NE", tag_fn=None):
    """(nodes, elements, boundary edges) of the former per-cell loop."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    nx, ny = xs.size - 1, ys.size - 1
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    elements = []
    for j in range(ny):
        for i in range(nx):
            sw, se = nid(i, j), nid(i + 1, j)
            nw, ne = nid(i, j + 1), nid(i + 1, j + 1)
            if diagonal == "SW-NE":
                elements += [(sw, se, ne), (sw, ne, nw)]
            else:
                elements += [(sw, se, nw), (se, ne, nw)]
    boundary = []
    for i in range(nx):
        boundary.append((nid(i, 0), nid(i + 1, 0)))
        boundary.append((nid(i, ny), nid(i + 1, ny)))
    for j in range(ny):
        boundary.append((nid(0, j), nid(0, j + 1)))
        boundary.append((nid(nx, j), nid(nx, j + 1)))
    edges = []
    for i, j in boundary:
        mid = 0.5 * (nodes[i] + nodes[j])
        edges.append((i, j, tag_fn(mid) if tag_fn is not None else "D"))
    return nodes, elements, edges


def perturb_loop(mesh, amplitude_fraction, seed, frozen=(), max_retries=200):
    """Perturbed node coordinates of the former per-node loop."""
    rng = np.random.default_rng(seed)
    fixed = mesh.boundary_node_set() | mesh.constraint_node_set() | set(frozen)
    nodes = mesh.nodes.copy()
    if amplitude_fraction == 0.0:
        return nodes
    hloc = np.full(mesh.n_nodes, np.inf)
    for i, j in edge_map_loop(mesh):
        d = np.linalg.norm(mesh.nodes[i] - mesh.nodes[j])
        hloc[i] = min(hloc[i], d)
        hloc[j] = min(hloc[j], d)
    nmap = node_map_loop(mesh)
    for k in [k for k in range(mesh.n_nodes) if k not in fixed]:
        amp = amplitude_fraction * hloc[k]
        orig = nodes[k].copy()
        for _ in range(max_retries):
            nodes[k] = orig + rng.uniform(-amp, amp, size=2)
            if np.all(_signed_areas(nodes, mesh.elements[nmap[k]]) > 0):
                break
        else:
            raise GenerationError("could not keep element areas positive")
    return nodes


def classify_loop(mesh, b):
    """Boundary classification with the element of each boundary edge
    taken from the loop edge map."""
    bf = vector_field(b)
    emap = edge_map_loop(mesh)
    inflow, charac, outflow, gplus = [], [], [], []
    for k, (i, j, tag) in enumerate(mesh.boundary_edges):
        bmid = bf(0.5 * (mesh.nodes[i] + mesh.nodes[j]))
        (elem,) = emap[_key(i, j)]
        opp = [v for v in mesh.elements[elem] if v not in (i, j)][0]
        e = mesh.nodes[j] - mesh.nodes[i]
        n = np.array([-e[1], e[0]])
        if np.dot(n, mesh.nodes[opp] - mesh.nodes[i]) > 0:
            n = -n
        n = n / np.linalg.norm(n)
        bn = float(np.dot(bmid, n))
        tol = 1e-12 * np.linalg.norm(bmid)
        if abs(bn) <= tol:
            charac.append(k)
        elif bn < 0:
            inflow.append(k)
        else:
            outflow.append(k)
        if tag == "D" and bn >= -tol:
            gplus.append((i, j))
    gplus += [(i, j) for i, j, _v in mesh.constraint_edges]
    return BoundaryClassification(inflow, charac, outflow, gplus)


def _interior_nodes_loop(mesh, element_set):
    excluded = (mesh.dirichlet_node_set() | mesh.constraint_node_set()
                | set(mesh.node_values))
    nmap = node_map_loop(mesh)
    return [v for v in range(mesh.n_nodes)
            if v not in excluded and nmap[v]
            and all(k in element_set for k in nmap[v])]


def _n_delta_loop(mesh, omega_plus_set):
    dir_nodes = mesh.dirichlet_node_set()
    bnd_nodes = mesh.boundary_node_set()
    nmap = node_map_loop(mesh)
    n_delta, seen = [], set()
    for k in sorted(omega_plus_set):
        for v in mesh.elements[k]:
            v = int(v)
            if v in seen:
                continue
            seen.add(v)
            on_bdry = (v in bnd_nodes
                       or any(e not in omega_plus_set for e in nmap[v]))
            if on_bdry and v not in dir_nodes:
                n_delta.append(v)
    return sorted(n_delta)


def omega_plus_loop(mesh, classification, b):
    """(omega_plus, omega_hat, n_delta, b_h, removed) of the loop split."""
    bf = vector_field(b)
    gnodes = classification.gamma_d_0plus_nodes()
    b_h = sorted(k for k, tri in enumerate(mesh.elements)
                 if any(int(v) in gnodes for v in tri))
    omega_plus = set(b_h)
    removed = []
    for v in _interior_nodes_loop(mesh, set(b_h)):
        up = upwind_element(mesh, v, bf(mesh.nodes[v]))
        if up in omega_plus:
            omega_plus.discard(up)
            removed.append(up)
    omega_hat = sorted(set(range(mesh.n_elements)) - omega_plus)
    return (sorted(omega_plus), omega_hat, _n_delta_loop(mesh, omega_plus),
            b_h, sorted(removed))


def _first_error(audit, mesh):
    try:
        audit(mesh)
    except GenerationError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# one test per audit failure, each pinned to the loop's message

_AUDITS = [audit_loop, Triangulation.audit_conformity]


def _grid():
    m = structured_triangulation(2, 2)  # 9 nodes, 0 = (0, 0), 8 = (1, 1)
    return m.nodes, m.elements, m.boundary_edges


def _int64_key(i, j):
    return (np.int64(i), np.int64(j))


def _failures():
    nodes, elements, bnd = _grid()
    far = np.vstack([nodes, [[0.5, -0.5]]])  # node 9, below the square
    return {
        "degenerate": (
            nodes, np.vstack([elements[1:], [[0, 1, 2]]]), bnd, [],
            "degenerate or inverted element"),
        "duplicate": (
            nodes, elements, bnd + [(bnd[0][1], bnd[0][0], "N")], [],
            "duplicate boundary edge %s" % ((0, 1),)),
        "untagged": (
            nodes, elements, bnd[1:], [],
            "element edge %s on boundary but untagged" % (_int64_key(0, 1),)),
        "interior-tagged": (
            nodes, elements, bnd + [(4, 0, "D")], [],
            "interior edge %s tagged as boundary" % (_int64_key(0, 4),)),
        "three-elements": (
            far, np.vstack([elements, [[0, 4, 9]]]), bnd, [],
            "edge %s shared by 3 elements" % (_int64_key(0, 4),)),
        "boundary-not-element": (
            nodes, elements, bnd + [(0, 8, "D")], [],
            "boundary edge %s not an element edge" % ((0, 8),)),
        "constraint-not-element": (
            nodes, elements, bnd, [(8, 0, 1.0)],
            "constraint edge %s not an element edge" % ((0, 8),)),
    }


@pytest.mark.parametrize("audit", _AUDITS, ids=["loop", "array"])
@pytest.mark.parametrize("case", list(_failures()))
def test_audit_failure_message(case, audit):
    nodes, elements, bnd, constraints, message = _failures()[case]
    mesh = Triangulation(nodes, elements, bnd, constraints, audit=False)
    with pytest.raises(GenerationError, match="^%s$" % re.escape(message)):
        audit(mesh)


@pytest.mark.parametrize("case", list(_failures()))
def test_constructor_runs_the_audit(case):
    nodes, elements, bnd, constraints, message = _failures()[case]
    with pytest.raises(GenerationError, match="^%s$" % re.escape(message)):
        Triangulation(nodes, elements, bnd, constraints)


# ---------------------------------------------------------------------------
# array versions against the loops


def _tag_right_and_top(p):
    return "N" if p[0] > 0.999 or p[1] > 0.999 else "D"


def _tag_bottom(p):
    return "N" if p[1] < 1e-9 else "D"


# boundary tags, each with a wind whose inflow sides stay Dirichlet
_TAGS = [(None, (1.0, 0.5)), (_tag_right_and_top, (1.0, 0.5)),
         (_tag_bottom, (1.0, -0.5))]


def _grid_case(nx, ny, diagonal, tags, amplitude, seed, frozen_fraction):
    """(mesh, wind, frozen): a tensor grid of nx x ny cells, perturbed
    when amplitude > 0, and a random frozen node set."""
    tag_fn, b = tags
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1) ** 1.5
    mesh = tensor_triangulation(xs, ys, diagonal=diagonal, tag_fn=tag_fn)
    rng = np.random.default_rng(seed)
    frozen = rng.choice(mesh.n_nodes, int(frozen_fraction * mesh.n_nodes),
                        replace=False).tolist()
    if amplitude:
        mesh = perturb_structured(mesh, amplitude, seed + 1, frozen=frozen)
    return mesh, b, frozen


_GRIDS = st.builds(
    _grid_case, st.integers(2, 12), st.integers(2, 12),
    st.sampled_from(["SW-NE", "NW-SE"]), st.sampled_from(_TAGS),
    st.sampled_from([0.0, 0.2, 1.0 / 3.0]), st.integers(0, 2 ** 16),
    st.floats(0.0, 0.5))


def _assert_same_maps(mesh):
    # the topology's edges by first appearance, with their elements
    t = mesh.topology
    got = [(tuple(t.pairs[e].tolist()),
            t.edge_elements[t.edge_ptr[e]:t.edge_ptr[e + 1]].tolist())
           for e in np.argsort(t.first).tolist()]
    assert got == list(edge_map_loop(mesh).items())
    # and the elements of each node
    elems, ptr = t.node_elements.tolist(), t.node_ptr.tolist()
    assert ([elems[a:b] for a, b in zip(ptr[:-1], ptr[1:])]
            == node_map_loop(mesh))


def _assert_same_split(mesh, b):
    cls = classify_boundary(mesh, b)
    want = classify_loop(mesh, b)
    assert (cls.inflow, cls.characteristic, cls.outflow, cls.gamma_d_0plus) \
        == (want.inflow, want.characteristic, want.outflow, want.gamma_d_0plus)
    dec = build_omega_plus(mesh, cls, b)
    got = (dec.omega_plus, dec.omega_hat, dec.n_delta, dec.b_h,
           dec.removed_upwind)
    assert got == omega_plus_loop(mesh, cls, b)
    assert {type(v) for lst in got for v in lst} <= {int}


@settings(max_examples=40, deadline=None)
@given(_GRIDS, st.integers(0, 2 ** 16))
def test_arrays_match_loops_on_grids(case, seed):
    mesh, b, frozen = case
    _assert_same_maps(mesh)
    _assert_same_split(mesh, b)
    got = perturb_structured(mesh, 1.0 / 3.0, seed, frozen=frozen)
    assert got.nodes.tobytes() == perturb_loop(
        mesh, 1.0 / 3.0, seed, frozen=frozen).tobytes()
    _assert_same_maps(got)
    _assert_same_split(got, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.sampled_from(["SW-NE", "NW-SE"]),
       st.sampled_from([tag_fn for tag_fn, _b in _TAGS]))
def test_tensor_grid_matches_loop(n, diagonal, tag_fn):
    xs = np.linspace(0.0, 1.0, n + 1) ** 2
    ys = np.linspace(-1.0, 1.0, n + 2)
    calls = []

    def tagged(p):
        calls.append(p.tolist())
        return "D" if tag_fn is None else tag_fn(p)

    mesh = tensor_triangulation(xs, ys, diagonal=diagonal, tag_fn=tagged)
    want_calls = []
    nodes, elements, edges = tensor_loop(
        xs, ys, diagonal, lambda p: want_calls.append(p.tolist()) or (
            "D" if tag_fn is None else tag_fn(p)))
    assert calls == want_calls
    assert mesh.nodes.tobytes() == nodes.tobytes()
    assert mesh.elements.tolist() == [list(t) for t in elements]
    assert mesh.boundary_edges == edges


@settings(max_examples=8, deadline=None)
@given(st.integers(4, 12), st.integers(0, 5))
def test_arrays_match_loops_with_constraint_edges(n, seed):
    mesh = experiments.interior_layer_mesh(n, seed=seed)
    assert mesh.constraint_edges
    _assert_same_maps(mesh)
    got = perturb_structured(mesh, 0.25, seed)
    assert got.nodes.tobytes() == perturb_loop(mesh, 0.25, seed).tobytes()
    for b in [(1.0, 0.5), (np.cos(1.0), np.sin(1.0))]:
        _assert_same_split(mesh, b)


def test_mild_random_grid_matches_loop():
    b = (1.0, 0.5)
    for seed in (0, 3):
        mesh = experiments.mild_random_grid(10, b, seed)
        h = 1.0 / 10
        lines = np.concatenate([np.linspace(0.0, 1.0 - h, 10), [1.0]])
        base = tensor_triangulation(lines, lines)
        frozen = [v for v in range(base.n_nodes)
                  if base.nodes[v][0] >= 1.0 - h - 1e-12
                  or base.nodes[v][1] >= 1.0 - h - 1e-12]
        want = perturb_loop(base, 1.0 / 3.0, seed, frozen=frozen)
        assert mesh.nodes.tobytes() == want.tobytes()
        _assert_same_split(mesh, b)


def _corrupt(mesh, rng, ops):
    """Element, boundary and constraint lists with the listed defects."""
    elements = mesh.elements.tolist()
    bnd = list(mesh.boundary_edges)
    constraints = list(mesh.constraint_edges)
    n = mesh.n_nodes
    for op in ops:
        if op == "drop-element" and len(elements) > 1:
            elements.pop(int(rng.integers(len(elements))))
        elif op == "copy-element":
            elements.insert(int(rng.integers(len(elements) + 1)),
                            elements[int(rng.integers(len(elements)))])
        elif op == "move-vertex":
            k = int(rng.integers(len(elements)))
            elements[k][int(rng.integers(3))] = int(rng.integers(n))
        elif op == "drop-edge" and bnd:
            bnd.pop(int(rng.integers(len(bnd))))
        elif op == "copy-edge" and bnd:
            i, j, t = bnd[int(rng.integers(len(bnd)))]
            bnd.insert(int(rng.integers(len(bnd) + 1)), (j, i, t))
        elif op == "tag-edge":
            i, j = rng.choice(n, 2, replace=False).tolist()
            bnd.insert(int(rng.integers(len(bnd) + 1)), (i, j, "N"))
        elif op == "tag-element-side":
            a, b, _c = elements[int(rng.integers(len(elements)))]
            bnd.insert(int(rng.integers(len(bnd) + 1)), (b, a, "D"))
        elif op == "constrain":
            i, j = rng.choice(n, 2, replace=False).tolist()
            constraints.append((i, j, 0.5))
    return elements, bnd, constraints


_OPS = ["drop-element", "copy-element", "move-vertex", "drop-edge",
        "copy-edge", "tag-edge", "tag-element-side", "constrain"]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.sampled_from(["SW-NE", "NW-SE"]),
       st.lists(st.sampled_from(_OPS), min_size=0, max_size=3),
       st.integers(0, 2 ** 16))
def test_first_audit_error_matches_loop(n, diagonal, ops, seed):
    base = structured_triangulation(n, n, diagonal=diagonal)
    if n > 3:
        base = experiments.interior_layer_mesh(n, seed=seed % 4)
    elements, bnd, constraints = _corrupt(
        base, np.random.default_rng(seed), ops)
    mesh = Triangulation(base.nodes, elements, bnd, constraints, audit=False)
    want = _first_error(audit_loop, mesh)
    assert _first_error(Triangulation.audit_conformity, mesh) == want
    if want is None:
        _assert_same_maps(mesh)
