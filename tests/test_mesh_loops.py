"""The embedded-layer mesh path as array passes against the loops they
replaced.

Below, verbatim, are the per-element implementations of `wind.diagnose`,
`wind._refinement_targets` (with `first_upwind_hit`),
`meshes.red_refine`, `meshes.perturb_structured` (with `_all_positive`),
`layers.embed_characteristic`, `layers.snap_nodes` (with the per-point
`LayerCharacteristic.closest_point` and `value_at`) and
`wind.build_omega_plus_shrunk` (with its own barycentric scan of every
element per sample) and `assembly._neumann_load` (g2 called per Gauss
point) as they were before the array passes.  The deleted
`Triangulation.edge_to_elements()` and `node_to_elements()` are kept as
the functions `edge_to_elements(mesh)` and `node_to_elements(mesh)`, and
the deleted methods `closest_point` and `value_at` as functions of the
path, which they call in their place.
The array versions must give the same reports (fields and `to_text()`),
the same refinement targets, the same `write_mesh` bytes, the same moved
and skipped nodes, the same decompositions and the same errors.
"""

import heapq
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from smsfem import assembly, defects, experiments, layers, meshes, \
    problems, wind
from smsfem.layers import DegenerateCrossingError, _crossings
from smsfem.meshes import (ArgumentError, GenerationError, Topology,
                           Triangulation, _edge_key, _mask, _signed_areas,
                           structured_triangulation, write_mesh)
from smsfem.wind import (PARALLEL_RTOL, DiagnosticsReport,
                         OmegaPlusDecomposition, ValidationError,
                         _interior_nodes_of, _remove_upwind,
                         build_omega_plus, classify_boundary, upwind_hits,
                         vector_field)


# ---------------------------------------------------------------------------
# the loops as written before the array passes


def edge_to_elements(mesh):
    """Map sorted node pair (numpy ints) -> list of adjacent element
    indices, in order of first appearance; built on each call."""
    t = mesh.topology
    order = np.argsort(t.first)
    elems, ptr = t.edge_elements.tolist(), t.edge_ptr.tolist()
    i, j = t.pairs[order].T
    return {key: elems[ptr[e]:ptr[e + 1]]
            for key, e in zip(zip(i, j), order.tolist())}


def node_to_elements(mesh):
    """Per node, the incident element indices in increasing order;
    built on each call."""
    t = mesh.topology
    elems, ptr = t.node_elements.tolist(), t.node_ptr.tolist()
    return [elems[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def diagnose(decomposition, mesh, b):
    """Connectivity of Omega_hat and wind-parallel downwind edges."""
    bf = vector_field(b)
    hat = decomposition.omega_hat
    hat_set = set(hat)
    # connected components under shared-edge adjacency
    parent = {k: k for k in hat}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for key, elems in edge_to_elements(mesh).items():
        if len(elems) == 2 and all(e in hat_set for e in elems):
            a, c = find(elems[0]), find(elems[1])
            if a != c:
                parent[max(a, c)] = min(a, c)
    groups = {}
    for k in hat:
        groups.setdefault(find(k), []).append(k)
    components = sorted((sorted(g) for g in groups.values()),
                        key=lambda g: (-len(g), g))
    # a component carrying any prescribed data (Dirichlet or embedded
    # values) is pinned through it along characteristics; only fully
    # data-free components admit a convective kernel
    pinned = (mesh.dirichlet_node_set() | mesh.constraint_node_set()
              | set(mesh.node_values))
    isolated = [comp for comp in components
                if not set(mesh.elements[comp].ravel().tolist()) & pinned]

    nmap = node_to_elements(mesh)
    is_downwind = upwind_hits(mesh, decomposition, hat, bf)[0]

    def opposite_edge_parallel(k, opp):
        tri = [int(v) for v in mesh.elements[k]]
        i, j = [v for v in tri if v != opp]
        bary = mesh.nodes[tri].mean(axis=0)
        bvec = bf(bary)
        e = mesh.nodes[j] - mesh.nodes[i]
        cross = bvec[0] * e[1] - bvec[1] * e[0]
        return (abs(cross) <= PARALLEL_RTOL * np.linalg.norm(bvec)
                * np.linalg.norm(e)), _edge_key(i, j)

    downwind, parallel = [], []
    for k, down in zip(hat, is_downwind):
        if not down:
            continue
        downwind.append(k)
        for opp in (int(v) for v in mesh.elements[k]):
            # kernel candidate: the basis function of the vertex opposite
            # a wind-parallel edge.  It needs a dof (not pinned) and its
            # convective derivative must vanish on every element of
            # Omega_hat it touches, i.e. each such element must have its
            # opposite edge parallel to the wind as well
            if opp in pinned:
                continue
            ok, key = opposite_edge_parallel(k, opp)
            if not ok:
                continue
            if all(opposite_edge_parallel(kk, opp)[0]
                   for kk in nmap[opp] if kk in hat_set):
                parallel.append((int(k), key))
    return DiagnosticsReport(components, isolated, sorted(parallel), downwind)


def first_upwind_hit(mesh, decomposition, k, bf):
    """Omega_h+ element first hit by the upwind ray from k's barycenter."""
    hit = int(upwind_hits(mesh, decomposition, [k], bf)[1][0])
    return None if hit < 0 else hit


def _refinement_targets(mesh, decomposition, report, bf):
    """Omega_h+ elements upwind of each defect element."""
    plus = decomposition.omega_plus_set()
    defects = []
    for comp in report.isolated_components:
        defects.extend((k, False) for k in comp)
    defects.extend((k, True) for k, _e in report.parallel_edges)
    targets = set()
    emap = edge_to_elements(mesh)
    for k, is_parallel in defects:
        local = set()
        a, bb, c = mesh.elements[k]
        bary = mesh.nodes[[a, bb, c]].mean(axis=0)
        bvec = bf(bary)
        for i, j in ((a, bb), (bb, c), (c, a)):
            adj = [e for e in emap[_edge_key(int(i), int(j))] if e != k]
            if not adj or adj[0] not in plus:
                continue
            e = mesh.nodes[j] - mesh.nodes[i]
            n = np.array([-e[1], e[0]])
            opp = [v for v in (a, bb, c) if v not in (i, j)][0]
            if np.dot(n, mesh.nodes[opp] - mesh.nodes[i]) > 0:
                n = -n  # outward from the defect element
            if np.dot(bvec, n) <= 1e-12 * np.linalg.norm(bvec) * np.linalg.norm(n):
                local.add(adj[0])
        if is_parallel:
            hit = first_upwind_hit(mesh, decomposition, k, bf)
            if hit is not None:
                local.add(hit)
        if not local:
            # fallback: every Omega_h+ edge-neighbor, else the first ray hit
            for i, j in ((a, bb), (bb, c), (c, a)):
                for e in emap[_edge_key(int(i), int(j))]:
                    if e != k and e in plus:
                        local.add(e)
            if not local:
                hit = first_upwind_hit(mesh, decomposition, k, bf)
                if hit is not None:
                    local.add(hit)
        targets |= local
    return sorted(targets)


def _all_positive(xy, tris):
    """_signed_areas(xy, tris) > 0 for all, in float arithmetic."""
    for a, b, c in tris:
        (xa, ya), (xb, yb), (xc, yc) = xy[a], xy[b], xy[c]
        if not 0.5 * ((xb - xa) * (yc - ya) - (xc - xa) * (yb - ya)) > 0:
            return False
    return True


def perturb_structured(mesh, amplitude_fraction, seed, frozen=(), max_retries=200):
    """Displace interior nodes by uniform [-a*h, a*h] per coordinate.

    h is the shortest edge incident to the node in the input mesh.
    Boundary, constraint and `frozen` nodes stay fixed.  Displacements
    that invert an element are resampled.
    """
    if not 0.0 <= amplitude_fraction <= 1.0 / 3.0 + 1e-15:
        raise ArgumentError("amplitude_fraction must lie in [0, 1/3]")
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes.copy()
    if amplitude_fraction == 0.0:
        return Triangulation(nodes, mesh.elements, mesh.boundary_edges,
                             mesh.constraint_edges, mesh.node_values)
    fixed = _mask(mesh.n_nodes, mesh.boundary_node_set()
                  | mesh.constraint_node_set() | set(frozen))
    t = mesh.topology
    d = nodes[t.pairs[:, 0]] - nodes[t.pairs[:, 1]]
    # np.vecdot rounds as the np.dot inside np.linalg.norm of one edge
    length = np.sqrt(np.vecdot(d, d))
    hloc = np.full(mesh.n_nodes, np.inf)
    np.minimum.at(hloc, t.pairs[:, 0], length)
    np.minimum.at(hloc, t.pairs[:, 1], length)
    amps = (amplitude_fraction * hloc).tolist()
    xy, tris = nodes.tolist(), mesh.elements.tolist()
    ptr, around = t.node_ptr.tolist(), t.node_elements.tolist()
    # in index order: each draw sees the nodes moved before it
    for k in np.flatnonzero(~fixed).tolist():
        amp, (x, y) = amps[k], xy[k]
        sub = [tris[e] for e in around[ptr[k]:ptr[k + 1]]]
        for _ in range(max_retries):
            dx, dy = rng.uniform(-amp, amp, size=2).tolist()
            xy[k] = [x + dx, y + dy]
            if _all_positive(xy, sub):
                break
        else:
            raise GenerationError("could not keep element areas positive")
    return Triangulation(np.array(xy), mesh.elements, mesh.boundary_edges,
                         mesh.constraint_edges, mesh.node_values)


def red_refine(mesh, elements):
    """Split each listed element into 4 similar triangles.

    Neighbors left with hanging nodes are closed by longest-edge
    bisection, recursively, until the mesh is conforming.
    """
    subset = sorted(set(int(e) for e in elements))
    if not subset:
        raise ArgumentError("element subset must be nonempty")
    if any(e < 0 or e >= mesh.n_elements for e in subset):
        raise ArgumentError("element index out of range")
    nodes = mesh.nodes.tolist()
    midpoint = {}

    def mid(i, j):
        key = _edge_key(i, j)
        if key not in midpoint:
            midpoint[key] = len(nodes)
            nodes.append(list(0.5 * (np.asarray(nodes[i]) + np.asarray(nodes[j]))))
        return midpoint[key]

    tris = []
    subset_set = set(subset)
    for k, (a, b, c) in enumerate(mesh.elements):
        if k in subset_set:
            mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
            tris.extend([(a, mab, mca), (mab, b, mbc),
                         (mca, mbc, c), (mab, mbc, mca)])
        else:
            tris.append((int(a), int(b), int(c)))

    # closure: bisect the longest edge of any element with a hanging node
    for _round in range(10 * (len(tris) + len(subset))):
        changed = False
        next_tris = []
        pts = np.asarray(nodes)  # this round's elements use no newer node
        for tri in tris:
            a, b, c = tri
            hanging = any(_edge_key(i, j) in midpoint
                          for i, j in ((a, b), (b, c), (c, a)))
            if not hanging:
                next_tris.append(tri)
                continue
            changed = True
            edges = [(a, b, c), (b, c, a), (c, a, b)]
            def elen(e):
                return float(np.linalg.norm(pts[e[0]] - pts[e[1]]))
            # longest edge; deterministic tie-break on the sorted node pair
            i, j, opp = max(edges, key=lambda e: (elen(e), _edge_key(e[0], e[1])))
            m = mid(i, j)
            next_tris.append((i, m, opp))
            next_tris.append((m, j, opp))
        tris = next_tris
        if not changed:
            break
    else:
        raise GenerationError("hanging-node closure did not terminate")

    def split_tagged(edge_list, make):
        out = []
        stack = list(edge_list)
        while stack:
            entry = stack.pop()
            i, j = entry[0], entry[1]
            key = _edge_key(i, j)
            if key in midpoint:
                m = midpoint[key]
                stack.append(make(i, m, entry))
                stack.append(make(m, j, entry))
            else:
                out.append(entry)
        out.sort()
        return out

    boundary = split_tagged(mesh.boundary_edges, lambda i, j, e: (i, j, e[2]))
    constraints = split_tagged(mesh.constraint_edges, lambda i, j, e: (i, j, e[2]))
    return Triangulation(np.asarray(nodes), tris, boundary,
                         constraints, mesh.node_values)


def embed_characteristic(mesh, path):
    """Split every crossed element so the path becomes a chain of edges.

    Vertex pass-through bisects the element; a two-edge crossing yields
    one triangle plus a quadrilateral split into four around its
    arithmetic-mean center.  On-path edges become interior constraint
    edges carrying the characteristic's value; returns
    (mesh, on_path_node list).
    """
    nodes = mesh.nodes.tolist()
    edge_points = {}   # edge_key -> list of (t along edge, node index)

    def node_on_edge(i, j, p):
        """Existing or new node at point p on edge (i, j); the parameter
        is taken from the lower-index endpoint so both adjacent elements
        resolve the same crossing to the same node."""
        key = _edge_key(i, j)
        pa, pb = np.asarray(nodes[key[0]]), np.asarray(nodes[key[1]])
        L2 = float((pb - pa) @ (pb - pa))
        t = float((p - pa) @ (pb - pa)) / L2
        if t <= 1e-9:
            return key[0]
        if t >= 1.0 - 1e-9:
            return key[1]
        for tt, idx in edge_points.get(key, []):
            if abs(tt - t) < 1e-9:
                return idx
        idx = len(nodes)
        nodes.append(list(pa + t * (pb - pa)))
        edge_points.setdefault(key, []).append((t, idx))
        return idx

    def classify_point(tri, pts, p, h):
        """(kind, data): ('vertex', node) or ('edge', (i, j, point))."""
        for a in range(3):
            if np.linalg.norm(p - pts[a]) <= 1e-9 * h:
                return ("vertex", int(tri[a]))
        for a in range(3):
            i, j = int(tri[a]), int(tri[(a + 1) % 3])
            pa, pb = pts[a], pts[(a + 1) % 3]
            e = pb - pa
            L = np.linalg.norm(e)
            t = float((p - pa) @ e) / (L * L)
            dist = np.linalg.norm(p - (pa + t * e))
            if -1e-9 < t < 1 + 1e-9 and dist <= 1e-9 * h:
                return ("edge", (i, j, p))
        raise DegenerateCrossingError(
            "path endpoint not on the element boundary; snap nodes first")

    corner = mesh.nodes[mesh.elements]
    e = np.roll(corner, -1, axis=1) - corner
    hs = np.sqrt(np.vecdot(e, e)).max(axis=1)
    crossed, chords = _crossings(mesh, path, hs, 1e-10)
    new_elements = []
    on_path_edges = []
    for k, row in enumerate(mesh.elements.tolist()):
        if not crossed[k]:
            new_elements.append(tuple(row))
            continue
        tri, pts, h = mesh.elements[k], corner[k], hs[k]
        p_in, p_out = chords[k]
        mid = 0.5 * (p_in + p_out)
        value = value_at(path, mid)
        # chord lying along an existing edge: record it and keep the element
        along = None
        for a in range(3):
            i, j = int(tri[a]), int(tri[(a + 1) % 3])
            pa, pb = pts[a], pts[(a + 1) % 3]
            e = pb - pa
            L = np.linalg.norm(e)
            d_in = abs((p_in - pa)[0] * e[1] - (p_in - pa)[1] * e[0]) / L
            d_out = abs((p_out - pa)[0] * e[1] - (p_out - pa)[1] * e[0]) / L
            if d_in <= 1e-9 * h and d_out <= 1e-9 * h:
                along = (i, j)
                break
        if along is not None:
            # the clipped chord endpoints are unreliable when the path is
            # collinear with the edge (degenerate half-plane clipping), so
            # recompute the covered part as the 1d overlap of the path
            # with the edge; it may be partial (a path end mid-edge)
            key = _edge_key(along[0], along[1])
            pa, pb = np.asarray(nodes[key[0]]), np.asarray(nodes[key[1]])
            e = pb - pa
            L = np.linalg.norm(e)
            t0, t1 = np.inf, -np.inf
            for s in range(len(path.points) - 1):
                q0, q1 = path.points[s], path.points[s + 1]
                d0 = abs((q0 - pa)[0] * e[1] - (q0 - pa)[1] * e[0]) / L
                d1 = abs((q1 - pa)[0] * e[1] - (q1 - pa)[1] * e[0]) / L
                if d0 > 1e-9 * h or d1 > 1e-9 * h:
                    continue
                s0 = float((q0 - pa) @ e) / (L * L)
                s1 = float((q1 - pa) @ e) / (L * L)
                lo, hi = min(s0, s1), max(s0, s1)
                t0 = min(t0, max(lo, 0.0))
                t1 = max(t1, min(hi, 1.0))
            if t1 > t0:
                n_in = node_on_edge(key[0], key[1], pa + t0 * e)
                n_out = node_on_edge(key[0], key[1], pa + t1 * e)
                if n_in != n_out:
                    on_path_edges.append((n_in, n_out, value))
            new_elements.append(tuple(int(v) for v in tri))
            continue
        try:
            kin = classify_point(tri, pts, p_in, h)
        except DegenerateCrossingError:
            if not np.allclose(p_in, path.points[0]):
                raise
            # path origin interior to the element (e.g. a layer starting
            # on a curved boundary between nodes): attach it to the
            # nearest vertex, perturbing the origin by at most h
            a = int(np.argmin(np.linalg.norm(pts - p_in, axis=1)))
            kin = ("vertex", int(tri[a]))
        kout = classify_point(tri, pts, p_out, h)
        if kin[0] == "vertex" and kout[0] == "vertex":
            a, b = kin[1], kout[1]
            if a != b:
                on_path_edges.append((a, b, value))
            new_elements.append(tuple(int(v) for v in tri))
        elif kin[0] == "vertex" or kout[0] == "vertex":
            vtx = kin[1] if kin[0] == "vertex" else kout[1]
            i, j, p = kin[1] if kin[0] == "edge" else kout[1]
            m = node_on_edge(i, j, p)
            if m == vtx:
                new_elements.append(tuple(int(v) for v in tri))
                continue
            if vtx in (i, j):
                # chord covers part of edge (i, j); m is registered, so
                # the conformity pass below splits both neighbors
                on_path_edges.append((vtx, m, value))
                new_elements.append(tuple(int(v) for v in tri))
                continue
            opp = vtx
            new_elements.append((opp, i, m))
            new_elements.append((opp, m, j))
            on_path_edges.append((opp, m, value))
        else:
            (i1, j1, p1), (i2, j2, p2) = kin[1], kout[1]
            m1 = node_on_edge(i1, j1, p1)
            m2 = node_on_edge(i2, j2, p2)
            k1, k2 = _edge_key(i1, j1), _edge_key(i2, j2)
            if k1 == k2:
                # chord lies inside a single edge between two new nodes
                if m1 != m2:
                    on_path_edges.append((m1, m2, value))
                new_elements.append(tuple(int(v) for v in tri))
                continue
            shared = set(k1) & set(k2)
            if not shared:
                raise DegenerateCrossingError(
                    "crossed edges share no vertex")
            a = shared.pop()
            o1 = (set(k1) - {a}).pop()
            o2 = (set(k2) - {a}).pop()
            new_elements.append((a, m1, m2))
            g = len(nodes)
            quad = [m1, o1, o2, m2]
            nodes.append(list(np.mean([nodes[q] for q in quad], axis=0)))
            new_elements.append((m1, o1, g))
            new_elements.append((o1, o2, g))
            new_elements.append((o2, m2, g))
            new_elements.append((m2, m1, g))
            on_path_edges.append((m1, m2, value))

    # conformity pass: fan out any element whose edge carries chain points
    # (partial-edge chords register nodes on edges of unsplit elements)
    resolved = []
    stack = list(new_elements)
    while stack:
        tri = stack.pop()
        for a in range(3):
            key = _edge_key(int(tri[a]), int(tri[(a + 1) % 3]))
            pieces = edge_points.get(key)
            if not pieces:
                continue
            chain = [key[0]] + [idx for _t, idx in sorted(pieces)] + [key[1]]
            opp = int(tri[(a + 2) % 3])
            for c in range(len(chain) - 1):
                stack.append((opp, chain[c], chain[c + 1]))
            break
        else:
            resolved.append(tuple(int(v) for v in tri))
    new_elements = resolved

    # split boundary and constraint edges that received new nodes
    def split_tagged(edge_list, rebuild):
        out = []
        stack = list(edge_list)
        while stack:
            entry = stack.pop()
            i, j = entry[0], entry[1]
            key = _edge_key(i, j)
            if key in edge_points and edge_points[key]:
                pieces = sorted(edge_points[key])
                chain = [key[0]] + [idx for _t, idx in pieces] + [key[1]]
                for a in range(len(chain) - 1):
                    out.append(rebuild(chain[a], chain[a + 1], entry))
            else:
                out.append(entry)
        out.sort(key=lambda e: (e[0], e[1]))
        return out

    boundary = split_tagged(mesh.boundary_edges, lambda i, j, e: (i, j, e[2]))
    constraints = split_tagged(mesh.constraint_edges,
                               lambda i, j, e: (i, j, e[2]))
    # dedupe on-path edges (interior ones are seen from both sides)
    seen = {}
    for i, j, v in on_path_edges:
        key = _edge_key(i, j)
        pieces = edge_points.get(key)
        if pieces:
            chain = [key[0]] + [idx for _t, idx in sorted(pieces)] + [key[1]]
            for a in range(len(chain) - 1):
                seen[_edge_key(chain[a], chain[a + 1])] = v
        else:
            seen[key] = v
    node_values = dict(mesh.node_values)
    on_path_nodes = set()
    path_edges = sorted(seen.items())
    counts = Topology(np.asarray(new_elements, dtype=np.int64).reshape(-1, 3),
                      len(nodes)).count([key for key, _v in path_edges])
    bkeys = {_edge_key(i, j) for i, j, _t in boundary}
    for (key, v), count in zip(path_edges, counts):
        i, j = key
        on_path_nodes.add(i)
        on_path_nodes.add(j)
        node_values.setdefault(i, v)
        node_values.setdefault(j, v)
        if count == 2 and key not in bkeys:
            constraints.append((i, j, v))
    out = Triangulation(np.asarray(nodes), new_elements, boundary,
                        constraints, node_values)
    return out, sorted(on_path_nodes)


def value_at(path, p):
    """Value at the closest polyline point to p."""
    p = np.asarray(p, dtype=float)
    best_d, best_v = np.inf, path.values[0]
    for k in range(len(path.points) - 1):
        a, b = path.points[k], path.points[k + 1]
        t = _project_t(p, a, b)
        q = a + t * (b - a)
        d = np.linalg.norm(p - q)
        if d < best_d:
            best_d = d
            va, vb = path.values[k], path.values[k + 1]
            best_v = va + t * (vb - va)
    return float(best_v)


def closest_point(path, p):
    p = np.asarray(p, dtype=float)
    best_d, best_q = np.inf, path.points[0]
    for k in range(len(path.points) - 1):
        a, b = path.points[k], path.points[k + 1]
        t = _project_t(p, a, b)
        q = a + t * (b - a)
        d = np.linalg.norm(p - q)
        if d < best_d:
            best_d, best_q = d, q
    return best_q, float(best_d)


def _project_t(p, a, b):
    e = b - a
    L2 = float(e @ e)
    if L2 == 0.0:
        return 0.0
    return min(1.0, max(0.0, float((p - a) @ e) / L2))


def _elements_crossed(mesh, path):
    """Elements whose interior is crossed by the path polyline."""
    h = np.sqrt(np.abs(mesh.areas())) + 1e-300
    return np.flatnonzero(_crossings(mesh, path, h, 1e-12)[0]).tolist()


def snap_nodes(mesh, path, threshold_rule="nearest"):
    """Move mesh nodes onto the layer characteristic.

    threshold_rule:
      'nearest'      move the closest vertex of every crossed element;
                     this pulls nodes off grid lines, which on regular
                     grids widens an embedded layer to about two cells
      'hmin2/10'     move vertices closer than (h_min(tau))^2 / 10
      '2hmin2'       move vertices closer than 2 h_min(tau)^2
      a float        fixed distance threshold
    Snaps that would invert an element are skipped and reported.
    Returns (mesh, moved node list, skipped node list).
    """
    nodes = mesh.nodes.copy()
    nmap = node_to_elements(mesh)
    bnodes = mesh.boundary_node_set()
    badj = {}
    for i, j, _t in mesh.boundary_edges:
        badj.setdefault(i, []).append(j)
        badj.setdefault(j, []).append(i)

    def boundary_snap_ok(v, q):
        # a boundary node may move only along its own boundary segments
        for u in badj.get(v, ()):
            a = nodes[v] - nodes[u]
            c = (q[0] - nodes[u][0]) * a[1] - (q[1] - nodes[u][1]) * a[0]
            if abs(c) > 1e-12 * (np.linalg.norm(a) ** 2 + 1.0):
                return False
        return True

    moved, skipped = [], []
    candidates = {}
    for k in _elements_crossed(mesh, path):
        tri = mesh.elements[k]
        pts = nodes[tri]
        hmin = min(np.linalg.norm(pts[a] - pts[(a + 1) % 3]) for a in range(3))
        dists = []
        for v in tri:
            _q, d = closest_point(path, nodes[v])
            dists.append((d, int(v)))
        dists.sort()
        if threshold_rule == "nearest":
            sel = [dists[0][1]]
        else:
            if threshold_rule == "hmin2/10":
                thr = hmin * hmin / 10.0
            elif threshold_rule == "2hmin2":
                thr = 2.0 * hmin * hmin
            else:
                thr = float(threshold_rule)
            sel = [v for d, v in dists if d <= thr]
        for v in sel:
            candidates[v] = True
    for v in sorted(candidates):
        q, d = closest_point(path, nodes[v])
        if d == 0.0:
            continue
        if v in bnodes and not boundary_snap_ok(v, q):
            skipped.append(v)
            continue
        old = nodes[v].copy()
        nodes[v] = q
        sub = mesh.elements[nmap[v]]
        if np.all(_signed_areas(nodes, sub) > 0):
            moved.append(v)
        else:
            nodes[v] = old
            skipped.append(v)
    out = Triangulation(nodes, mesh.elements, mesh.boundary_edges,
                        mesh.constraint_edges, mesh.node_values)
    return out, moved, skipped


def build_omega_plus_shrunk(mesh, b, delta, bounds=(-1.0, 1.0),
                            samples_per_side=800):
    """Omega_h+ = elements intersecting the outflow part (b.n >= 0, n the
    outward normal of the inset square) of the boundary of the square
    shrunk by delta.  Used for winds tangent to the physical boundary."""
    lo, hi = bounds
    if not delta > 0 or lo + delta >= hi - delta:
        raise ValidationError("inset delta empties the domain")
    bf = vector_field(b)
    a, c = lo + delta, hi - delta
    sides = [
        (np.array([c, a]), np.array([c, c]), np.array([1.0, 0.0])),    # right
        (np.array([a, c]), np.array([c, c]), np.array([0.0, 1.0])),    # top
        (np.array([a, a]), np.array([a, c]), np.array([-1.0, 0.0])),   # left
        (np.array([a, a]), np.array([c, a]), np.array([0.0, -1.0])),   # bottom
    ]
    pts = []
    for p0, p1, n in sides:
        ts = (np.arange(samples_per_side) + 0.5) / samples_per_side
        seg = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
        keep = np.vecdot(bf.array(seg), n) >= 0.0
        pts.extend(seg[keep])
    if not pts:
        raise ValidationError("outflow portion of the inset square is empty")
    pts = np.asarray(pts)
    omega_plus = set()
    p0 = mesh.nodes[mesh.elements[:, 0]]
    p1 = mesh.nodes[mesh.elements[:, 1]]
    p2 = mesh.nodes[mesh.elements[:, 2]]
    det = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
           - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    for q in pts:
        l1 = ((q[0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
              - (p2[:, 0] - p0[:, 0]) * (q[1] - p0[:, 1])) / det
        l2 = ((p1[:, 0] - p0[:, 0]) * (q[1] - p0[:, 1])
              - (q[0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])) / det
        inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1 + 1e-12)
        omega_plus.update(np.nonzero(inside)[0].tolist())
    # windless nodes have no upwind element to remove
    winds = [(v, bf(mesh.nodes[v]))
             for v in _interior_nodes_of(mesh, omega_plus)]
    return _remove_upwind(mesh, omega_plus, sorted(omega_plus),
                          [w for w in winds if np.linalg.norm(w[1]) != 0.0])


def neumann_load(mesh, spec, load):
    """eps * <g2, phi> over Neumann edges via 2-point Gauss."""
    if spec.eps == 0.0:
        return
    gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    for i, j, t in mesh.boundary_edges:
        if t != "N":
            continue
        pi, pj = mesh.nodes[i], mesh.nodes[j]
        length = np.linalg.norm(pj - pi)
        for s in gp:
            q = pi + s * (pj - pi)
            w = 0.5 * length
            g = spec.g2_fn(q)
            load[i] += spec.eps * w * g * (1.0 - s)
            load[j] += spec.eps * w * g * s


# ---------------------------------------------------------------------------
# comparisons


def _bytes(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        write_mesh(mesh, path)
        with open(path, "rb") as fh:
            return fh.read()


def _outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the loop's error is part of its behaviour
        return type(exc), str(exc)


def _grid(n, diagonal, amplitude, seed):
    mesh = structured_triangulation(n, n, diagonal=diagonal)
    return meshes.perturb_structured(mesh, amplitude, seed)


_WINDS = [
    np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]),
    np.array([2.0, 3.0]),
    lambda p: np.array([1.0 + p[1], 0.5 - p[0]]),
    lambda p: np.array([p[1] - 0.5, 0.5 - p[0]]),
    lambda p: np.zeros(2) if p[0] < 0.5 else np.array([1.0, 1.0]),
]


def _assert_same_diagnosis(mesh, dec, b):
    got, want = wind.diagnose(dec, mesh, b), diagnose(dec, mesh, b)
    assert got == want
    assert got.to_text() == want.to_text()
    if want.has_defects():
        bf = vector_field(b)
        assert (wind._refinement_targets(mesh, dec, got, bf)
                == _refinement_targets(mesh, dec, want, bf))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.sampled_from(["SW-NE", "NW-SE"]),
       st.sampled_from([0.0, 0.2, 1.0 / 3.0]), st.integers(0, 2 ** 16),
       st.sampled_from(range(len(_WINDS))), st.booleans())
def test_diagnose_matches_loop(n, diagonal, amplitude, seed, w, built):
    mesh, b = _grid(n, diagonal, amplitude, seed), _WINDS[w]
    rng = np.random.default_rng(seed)
    dec = (_outcome(build_omega_plus, mesh, classify_boundary(mesh, b), b)
           if built else None)
    if not isinstance(dec, OmegaPlusDecomposition):
        # a random Omega_h+: many components and defects
        plus = np.flatnonzero(rng.random(mesh.n_elements) < 0.4).tolist()
        hat = sorted(set(range(mesh.n_elements)) - set(plus))
        dec = OmegaPlusDecomposition(plus, hat, [], plus)
    _assert_same_diagnosis(mesh, dec, b)


def test_diagnose_matches_loop_on_defect_fixtures():
    b = defects.WIND
    for fixture in (defects.band_interior_node_mesh,
                    defects.isolated_component_mesh,
                    defects.wind_parallel_edge_mesh):
        mesh = fixture()
        for dec in (build_omega_plus(mesh, classify_boundary(mesh, b), b),
                    defects.band_decomposition(mesh, b)):
            _assert_same_diagnosis(mesh, dec, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.0, 0.3]),
       st.integers(0, 2 ** 16), st.floats(0.0, 0.4))
def test_red_refine_matches_loop(n, amplitude, seed, share):
    mesh = _grid(n, "SW-NE", amplitude, seed)
    rng = np.random.default_rng(seed)
    size = max(1, int(share * mesh.n_elements))
    subset = rng.choice(mesh.n_elements, size=size, replace=False)
    assert (_bytes(meshes.red_refine(mesh, subset))
            == _bytes(red_refine(mesh, subset)))


def test_red_refine_requeues_elements_hung_in_the_same_round(monkeypatch):
    # on this grid a midpoint made by one bisection hangs a later element
    # of the same closure round, which is queued again in that round
    queued = []
    push = heapq.heappush
    monkeypatch.setattr(meshes.heapq, "heappush",
                        lambda heap, k: (queued.append(k), push(heap, k)))
    mesh = _grid(8, "SW-NE", 0.3, 2)
    subset = np.random.default_rng(2).choice(mesh.n_elements, size=3,
                                             replace=False)
    got = meshes.red_refine(mesh, subset)
    assert queued
    assert _bytes(got) == _bytes(red_refine(mesh, subset))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.sampled_from([0.0, 0.3]),
       st.integers(0, 2 ** 16),
       st.sampled_from([None, "nearest", "hmin2/10", "2hmin2"]))
def test_embed_matches_loop_on_straight_paths(n, amplitude, seed, rule):
    mesh = _grid(n, "SW-NE", amplitude, seed)
    rng = np.random.default_rng(seed)
    # from the boundary to the boundary or to an interior point
    ends = rng.uniform(0.0, 1.0, (2, 2))
    ends[0, rng.integers(2)] = rng.integers(2)
    if rng.random() < 0.7:
        ends[1, rng.integers(2)] = rng.integers(2)
    path = layers.straight_characteristic(ends[0], ends[1], 1.0)
    if rule is not None:
        mesh = layers.snap_nodes(mesh, path, rule)[0]
    got = _outcome(layers.embed_characteristic, mesh, path)
    want = _outcome(embed_characteristic, mesh, path)
    if isinstance(want[0], Triangulation):
        assert _bytes(got[0]) == _bytes(want[0])
        assert got[1] == want[1]
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["SW-NE", "NW-SE"]),
       st.sampled_from([0.1, 0.25, 1.0 / 3.0]), st.integers(0, 2 ** 16),
       st.booleans(), st.floats(0.0, 0.3))
def test_perturb_matches_loop(n, diagonal, amplitude, seed, twice, frozen):
    mesh = structured_triangulation(n, n, diagonal=diagonal)
    if twice:
        # a second pass over a perturbed grid rejects some draws
        mesh = perturb_structured(mesh, 1.0 / 3.0, seed + 1)
    held = np.flatnonzero(np.random.default_rng(seed).random(mesh.n_nodes)
                          < frozen)
    got = _outcome(meshes.perturb_structured, mesh, amplitude, seed, held)
    want = _outcome(perturb_structured, mesh, amplitude, seed, held)
    if isinstance(want, Triangulation):
        assert _bytes(got) == _bytes(want)
    else:
        assert got == want


def test_perturb_resumes_the_draws_after_a_rejection(monkeypatch):
    checks = []
    monkeypatch.setattr(meshes, "_all_positive",
                        lambda xy, tris: checks.append(1) or _all_positive(
                            xy, tris))
    mesh = perturb_structured(structured_triangulation(40, 40), 1.0 / 3.0, 0)
    got = meshes.perturb_structured(mesh, 1.0 / 3.0, 10)
    # every check outside the batch pass is a node drawn again
    assert len(checks) >= 2
    assert _bytes(got) == _bytes(perturb_structured(mesh, 1.0 / 3.0, 10))


def _snap_path(mesh, kind, rng):
    """A path of the given kind over the unit-square grid `mesh`."""
    if kind == "boundary-to-boundary":
        ends = rng.uniform(0.0, 1.0, (2, 2))
        ends[0, 0] = rng.integers(2)
        ends[1, 1] = rng.integers(2)
    elif kind == "into-interior":
        ends = rng.uniform(0.0, 1.0, (2, 2))
        ends[0, rng.integers(2)] = rng.integers(2)
    elif kind == "along-boundary":
        # parallel to a side at a tiny or small offset: the boundary
        # nodes near it may not leave their side
        y = rng.choice([0.0, 1e-13, 1e-3, 0.02])
        ends = np.array([[-0.2, y], [1.2, y]])
        if rng.random() < 0.5:
            ends = ends[:, ::-1]
    elif kind == "through-nodes":
        ends = mesh.nodes[rng.choice(mesh.n_nodes, 2, replace=False)]
    else:
        # a polyline with a zero-length segment
        points = rng.uniform(0.0, 1.0, (3, 2))
        points[0, 0] = 0.0
        points = np.insert(points, 2, points[1], axis=0)
        return layers.LayerCharacteristic(points, rng.uniform(size=4),
                                          points[0].copy())
    return layers.straight_characteristic(ends[0], ends[1], 0.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 14), st.sampled_from(["SW-NE", "NW-SE"]),
       st.sampled_from([0.0, 0.2, 1.0 / 3.0]), st.integers(0, 2 ** 16),
       st.sampled_from(["boundary-to-boundary", "into-interior",
                        "along-boundary", "through-nodes", "polyline"]),
       st.sampled_from(["nearest", "hmin2/10", "2hmin2", 0.0, 1e-9, 0.01,
                        0.05, 1.0, "0.02"]))
def test_snap_matches_loop(n, diagonal, amplitude, seed, kind, rule):
    mesh = _grid(n, diagonal, amplitude, seed)
    path = _snap_path(mesh, kind, np.random.default_rng(seed))
    got = _outcome(layers.snap_nodes, mesh, path, rule)
    want = _outcome(snap_nodes, mesh, path, rule)
    if isinstance(want[0], Triangulation):
        assert _bytes(got[0]) == _bytes(want[0])
        assert got[1:] == want[1:]
    else:
        assert got == want


def test_snap_matches_loop_on_the_channel():
    # curved boundary, boundary nodes on the layers' start points
    for theta in (0.0, 0.3, 0.7):
        mesh = experiments.hemker_layered_mesh(theta)
        b = np.array([np.cos(theta), np.sin(theta)])
        for origin in problems.hemker_layer_origins(theta):
            path = layers.straight_characteristic(
                origin, experiments._hemker_exit(origin, b), 0.5)
            for rule in ("nearest", "2hmin2", 0.05):
                got = layers.snap_nodes(mesh, path, rule)
                want = snap_nodes(mesh, path, rule)
                assert _bytes(got[0]) == _bytes(want[0])
                assert got[1:] == want[1:]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(2, 6), st.booleans())
def test_nearest_matches_point_loops(seed, n_points, repeat):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 2.0, (n_points, 2))
    if repeat:
        points = np.insert(points, 1, points[0], axis=0)
    path = layers.LayerCharacteristic(points, rng.normal(size=len(points)),
                                      points[0].copy())
    queries = np.concatenate([rng.uniform(-2.0, 3.0, (30, 2)), points,
                              0.5 * (points[:-1] + points[1:])])
    q, d, value = path.nearest(queries)
    for k, p in enumerate(queries):
        want_q, want_d = closest_point(path, p)
        assert q[k].tobytes() == want_q.tobytes()
        assert d[k] == want_d
        assert value[k] == value_at(path, p)


@settings(max_examples=50, deadline=None)
@given(st.integers(4, 14), st.sampled_from(["SW-NE", "NW-SE"]),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2 ** 16),
       st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]),
       st.one_of(st.integers(1, 3), st.floats(0.001, 0.55)),
       st.sampled_from(_WINDS + [problems.glazing_wind]))
def test_inset_square_matches_loop(n, diagonal, amplitude, seed, bounds,
                                   delta, b):
    # an integer delta is that many grid steps, putting the inset square's
    # sides (and, where the steps divide evenly, samples) on grid lines;
    # from n / 2 steps on the inset empties the domain
    lo, hi = bounds
    mesh = meshes.perturb_structured(
        structured_triangulation(n, n, diagonal=diagonal,
                                 domain=((lo, lo), (hi, hi))),
        amplitude, seed)
    if isinstance(delta, int):
        delta = delta * (hi - lo) / n
    else:
        delta *= hi - lo
    got = _outcome(wind.build_omega_plus_shrunk, mesh, b, delta)
    assert got == _outcome(build_omega_plus_shrunk, mesh, b, delta, bounds)


def _assert_same_neumann_load(mesh, spec, seed):
    # a nonzero start, so the order of the additions shows
    start = np.random.default_rng(seed).normal(size=mesh.n_nodes)
    got, want = start.copy(), start.copy()
    assembly._neumann_load(mesh, spec, got)
    neumann_load(mesh, spec, want)
    assert got.tobytes() == want.tobytes()


_G2 = [0.0, 1.0, -2.5, lambda p: np.sin(3.0 * p[0]) * p[1] + 0.25,
       lambda p: p[0] * p[0] - 1.0 / 3.0]


def test_neumann_load_matches_loop_on_the_channel():
    # the ex6 channel at theta = pi/4: 47 Neumann edges on the outflow side
    mesh = experiments.hemker_layered_mesh(np.pi / 4, snap_rule="hmin2/10")
    assert sum(t == "N" for _i, _j, t in mesh.boundary_edges) == 47
    for eps in (0.0, 1e-8, 1e-2, 1.0):
        for seed, g2 in enumerate(_G2):
            spec = assembly.ProblemSpec(eps=eps, b=np.array([1.0, 1.0]),
                                        g2=g2)
            _assert_same_neumann_load(mesh, spec, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.sampled_from(["SW-NE", "NW-SE"]),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2 ** 16),
       st.sets(st.integers(0, 3)), st.sampled_from([1e-8, 1e-2, 3.0]),
       st.sampled_from(_G2))
def test_neumann_load_matches_loop(n, diagonal, amplitude, seed, sides, eps,
                                   g2):
    # Neumann on the chosen sides of the unit square (0: x = 1, 1: y = 1,
    # 2: x = 0, 3: y = 0); none is a mesh without Neumann edges
    def tag(p):
        on = (p[0] > 1 - 1e-9, p[1] > 1 - 1e-9, p[0] < 1e-9, p[1] < 1e-9)
        return "N" if any(on[k] for k in sides) else "D"
    mesh = meshes.perturb_structured(
        structured_triangulation(n, n, diagonal=diagonal, tag_fn=tag),
        amplitude, seed)
    spec = assembly.ProblemSpec(eps=eps, b=np.array([1.0, 0.0]), g2=g2)
    _assert_same_neumann_load(mesh, spec, seed)
