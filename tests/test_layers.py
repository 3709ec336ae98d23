"""Node snapping and edge embedding of interior-layer paths."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from smsfem import experiments, wind
from smsfem.layers import (DegenerateCrossingError, LayerCharacteristic,
                           _crossings, embed_characteristic, snap_nodes,
                           straight_characteristic)
from smsfem.meshes import (Triangulation, perturb_structured,
                           structured_triangulation)
from smsfem.problems import EX5_LAYER_VALUE, EX5_WIND


def test_snap_nearest_moves_interior_row():
    m = structured_triangulation(4, 4)
    path = straight_characteristic((0.0, 0.55), (1.0, 0.55), 0.5)
    snapped, moved, skipped = snap_nodes(m, path)
    assert moved == [10, 11, 12, 13]
    assert skipped == []
    for v in moved:
        assert abs(snapped.nodes[v][1] - 0.55) <= 1e-12
        assert snapped.nodes[v][0] == m.nodes[v][0]
    assert np.all(snapped.areas() > 0)
    assert snapped.n_elements == m.n_elements


def test_snap_noop_when_nodes_already_on_path():
    m = structured_triangulation(4, 4)
    path = straight_characteristic((0.5, 0.0), (0.5, 1.0), 0.3)
    snapped, moved, _skipped = snap_nodes(m, path)
    assert moved == []
    assert np.array_equal(snapped.nodes, m.nodes)


def test_snap_numeric_threshold_rule():
    m = structured_triangulation(4, 4)
    path = straight_characteristic((0.0, 0.55), (1.0, 0.55), 0.5)
    _snapped, moved, _skipped = snap_nodes(m, path, threshold_rule=1e-6)
    assert moved == []  # nothing within the tight threshold


def test_embed_two_edge_crossing():
    m = Triangulation([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], [(0, 1, 2)],
                      [(0, 1, "D"), (1, 2, "D"), (2, 0, "D")])
    path = straight_characteristic((0.5, 0.0), (0.0, 0.5), 0.7)
    em, on_path = embed_characteristic(m, path)
    assert em.n_elements == 5
    assert abs(em.areas().sum() - 2.0) <= 1e-12
    assert len(on_path) == 2
    assert path.nearest(em.nodes[on_path])[1].max() <= 1e-12
    # the on-path edge became a valued constraint edge
    keys = {frozenset((i, j)): val for i, j, val in em.constraint_edges}
    assert keys[frozenset(on_path)] == 0.7


def test_embed_vertex_passthrough_bisects():
    m = Triangulation([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], [(0, 1, 2)],
                      [(0, 1, "D"), (1, 2, "D"), (2, 0, "D")])
    path = straight_characteristic((0.0, 0.0), (1.0, 1.0), 0.4)
    em, on_path = embed_characteristic(m, path)
    assert em.n_elements == 2
    assert abs(em.areas().sum() - 2.0) <= 1e-12
    assert 0 in on_path and len(on_path) == 2


def test_snap_then_embed_counts():
    m = structured_triangulation(4, 4)
    path = straight_characteristic((0.0, 0.55), (1.0, 0.55), 0.5)
    snapped, _moved, _skipped = snap_nodes(m, path)
    em, on_path = embed_characteristic(snapped, path)
    assert em.n_elements == 33
    assert len(on_path) == 5
    assert abs(em.areas().sum() - 1.0) <= 1e-12
    # every on-path node carries the layer value through its edges
    for i, j, val in em.constraint_edges:
        assert val == 0.5


def test_interior_layer_mesh_keeps_grid_rows():
    # the default snap rule leaves the sampling row y = 0.25 on its grid
    # line, so the embedded layer crosses it inside one cell
    N = 64
    grid = structured_triangulation(N, N)
    mesh = experiments.interior_layer_mesh(N)
    row = [v for v in range(grid.n_nodes) if grid.nodes[v][1] == 0.25]
    assert len(row) == N + 1
    assert np.array_equal(mesh.nodes[row], grid.nodes[row])
    layer_ends = {v for i, j, val in mesh.constraint_edges
                  if val == EX5_LAYER_VALUE for v in (i, j)}
    crossing = [v for v in range(mesh.n_nodes)
                if abs(mesh.nodes[v][1] - 0.25) <= 1e-12
                and v in layer_ends]
    assert len(crossing) == 1
    v = crossing[0]
    assert v >= grid.n_nodes   # a node added by the embedding
    assert 16.0 / N < mesh.nodes[v][0] < 17.0 / N


def test_interior_layer_mesh_solves_cleanly():
    # snapped and embedded layer mesh yields a uniquely solvable system
    from smsfem.problems import ex5_spec
    from smsfem.wind import build_omega_plus, classify_boundary, diagnose
    mesh = experiments.interior_layer_mesh(48)
    mesh, dec = experiments._safe_decomposition(mesh, np.array(EX5_WIND))
    report = diagnose(dec, mesh, np.array(EX5_WIND))
    assert not report.has_defects()
    from smsfem.solvers import solve_sms
    sol = solve_sms(mesh, ex5_spec(1e-8), dec)
    assert sol.u.min() >= -1e-6
    assert sol.u.max() <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# the array segment clip against the one-segment reference clip


def _clip_segment_to_triangle(p, q, tri):
    """Portion of segment pq inside the (ccw) triangle, or None."""
    d = q - p
    lo, hi = 0.0, 1.0
    for a in range(3):
        u, w = tri[a], tri[(a + 1) % 3]
        e = w - u
        n = np.array([-e[1], e[0]])  # inward for ccw
        num = float(n @ (p - u))
        den = float(n @ d)
        if abs(den) < 1e-300:
            if num < -1e-12 * (np.linalg.norm(n) + 1.0):
                return None
            continue
        t = -num / den
        if den > 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
        if lo > hi:
            return None
    return np.array([p + lo * d, p + hi * d])


def _path_point(mesh, kind, rng):
    """A mesh vertex, a point on an edge (its midpoint or a random
    fraction), or a free point around the unit square."""
    if kind == "free":
        return rng.uniform(-0.2, 1.2, 2)
    i, j = mesh.elements[rng.integers(mesh.n_elements)][:2]
    if kind == "vertex":
        return mesh.nodes[i].copy()
    t = 0.5 if kind == "mid-edge" else rng.uniform(0.0, 1.0)
    return mesh.nodes[i] + t * (mesh.nodes[j] - mesh.nodes[i])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.sampled_from([0.0, 0.3]),
       st.integers(min_value=0, max_value=2 ** 16),
       st.lists(st.sampled_from(["vertex", "edge", "near-edge", "mid-edge",
                                 "on-edge", "free"]),
                min_size=1, max_size=4))
def test_segment_clip_matches_one_segment_clip(n, amplitude, seed, kinds):
    # vertex-to-vertex segments on a grid run through vertices and along
    # edges; 'edge' adds a whole element edge or a part of one ending
    # mid-edge; a path may start or end mid-edge; 'near-edge' runs
    # parallel to a row of edges
    mesh = structured_triangulation(n, n)
    if amplitude:
        mesh = perturb_structured(mesh, amplitude, seed)
    rng = np.random.default_rng(seed)
    points = [_path_point(mesh, "vertex", rng)]
    for kind in kinds:
        if kind == "edge":
            i, j = mesh.elements[rng.integers(mesh.n_elements)][1:]
            end = rng.choice([1.0, 0.5, rng.uniform(0.0, 1.0)])
            points += [mesh.nodes[i],
                       mesh.nodes[i] + end * (mesh.nodes[j] - mesh.nodes[i])]
        elif kind == "near-edge":
            # a grid row moved off its line by about the parallel-edge
            # tolerance 1e-12 (1 + 1/|e|), to either side
            y = rng.integers(n + 1) / n
            dy = rng.choice([-1.5, -0.5, 0.5, 1.5]) * 1e-12 * (1.0 + n)
            points += [np.array([-0.5, y + dy]), np.array([1.5, y + dy])]
        else:
            points.append(_path_point(mesh, kind, rng))
    points = np.array(points)
    p, d = points[:-1, None], points[1:, None] - points[:-1, None]
    tri = mesh.nodes[mesh.elements]
    hit, lo, hi = wind._clip_rays(p, d, tri, (0.0, 1.0), 1e-12)
    refs = [[_clip_segment_to_triangle(a, b, t) for t in tri]
            for a, b in zip(points[:-1], points[1:])]
    for s, row in enumerate(refs):
        for k, ref in enumerate(row):
            assert bool(hit[s, k]) == (ref is not None)
            if ref is not None:
                chord = p[s] + np.array([lo[s, k], hi[s, k]])[:, None] * d[s]
                assert chord.tobytes() == ref.tobytes()
    # per element: the first long piece's entry to the last one's exit,
    # in one chunk and in chunks of 3 pairs
    h = rng.uniform(0.5, 1.5, mesh.n_elements) / n
    path = LayerCharacteristic(points, np.zeros(len(points)), points[0])
    for chunk in (wind.RAY_CLIP_PAIRS, 3):
        with mock.patch.object(wind, "RAY_CLIP_PAIRS", chunk):
            crossed, chords = _crossings(mesh, path, h, 1e-10)
        for k in range(mesh.n_elements):
            pieces = [row[k] for row in refs if row[k] is not None and
                      np.linalg.norm(row[k][1] - row[k][0]) > 1e-10 * h[k]]
            assert crossed[k] == bool(pieces)
            if pieces:
                assert chords[k].tobytes() == np.array(
                    [pieces[0][0], pieces[-1][1]]).tobytes()


def test_a_one_vertex_path_crosses_nothing():
    m = structured_triangulation(3, 3)
    path = LayerCharacteristic(np.array([[0.5, 0.4]]), np.array([0.7]),
                               np.array([0.5, 0.4]))
    snapped, moved, skipped = snap_nodes(m, path)
    assert (moved, skipped) == ([], [])
    assert np.array_equal(snapped.nodes, m.nodes)
    em, on_path = embed_characteristic(m, path)
    assert on_path == [] and em.n_elements == m.n_elements
    q, d, value = path.nearest([(0.5, 0.0)])
    assert q.tolist() == [[0.5, 0.4]]
    assert (d.tolist(), value.tolist()) == ([0.4], [0.7])
