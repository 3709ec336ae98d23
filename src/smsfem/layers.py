"""Interior-layer handling.

A boundary-data discontinuity launches a layer along the characteristic
dx/dt = b, which for a constant wind is a straight segment carrying the
reduced-problem value.  We optionally snap nearby mesh nodes onto that
polyline and embed it into the triangulation as a chain of element
edges carrying Dirichlet values.
"""

from dataclasses import dataclass

import numpy as np

from .meshes import (Topology, Triangulation, _edge_key, _pair_code,
                     _signed_areas)
from . import wind


class DegenerateCrossingError(RuntimeError):
    """Path tangent to an edge; snap nodes onto the path first."""


@dataclass
class LayerCharacteristic:
    points: np.ndarray    # polyline vertices
    values: np.ndarray    # reduced-problem value at each vertex
    origin: np.ndarray

    def value_at(self, p):
        """Value at the closest polyline point to p."""
        p = np.asarray(p, dtype=float)
        best_d, best_v = np.inf, self.values[0]
        for k in range(len(self.points) - 1):
            a, b = self.points[k], self.points[k + 1]
            t = _project_t(p, a, b)
            q = a + t * (b - a)
            d = np.linalg.norm(p - q)
            if d < best_d:
                best_d = d
                va, vb = self.values[k], self.values[k + 1]
                best_v = va + t * (vb - va)
        return float(best_v)

    def closest_point(self, p):
        p = np.asarray(p, dtype=float)
        best_d, best_q = np.inf, self.points[0]
        for k in range(len(self.points) - 1):
            a, b = self.points[k], self.points[k + 1]
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


def straight_characteristic(p0, p1, value):
    """Constant-value straight layer characteristic between two points."""
    pts = np.asarray([p0, p1], dtype=float)
    return LayerCharacteristic(pts, np.array([value, value]),
                               pts[0].copy())


# ---------------------------------------------------------------------------
# node snapping


def _crossings(mesh, path, h, rel):
    """Whether each element holds a path piece longer than rel * h, and
    its chord from the first such piece's entry to the last one's exit;
    wind's kernel clips RAY_CLIP_PAIRS (segment, element) pairs at a
    time, on the segment parameters [0, 1]."""
    p = path.points[:-1, None]
    d = path.points[1:, None] - p
    tri = mesh.nodes[mesh.elements]
    crossed, chord = np.zeros(len(tri), dtype=bool), np.zeros((len(tri), 2, 2))
    step = max(1, wind.RAY_CLIP_PAIRS // max(1, len(p)))
    for k in range(0, len(tri) if len(p) else 0, step):
        rows = slice(k, k + step)
        hit, lo, hi = wind._clip_rays(p, d, tri[rows], (0.0, 1.0), 1e-12)
        with np.errstate(invalid="ignore", over="ignore"):
            start, end = p + lo[..., None] * d, p + hi[..., None] * d
            length = np.sqrt(np.vecdot(end - start, end - start))
        piece = hit & (length > rel * h[rows])
        at = np.arange(piece.shape[1])
        crossed[rows] = piece.any(axis=0)
        chord[rows, 0] = start[piece.argmax(axis=0), at]
        chord[rows, 1] = end[-1 - piece[::-1].argmax(axis=0), at]
    return crossed, chord


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
    nmap = mesh.node_to_elements()
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
            _q, d = path.closest_point(nodes[v])
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
        q, d = path.closest_point(nodes[v])
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


# ---------------------------------------------------------------------------
# embedding


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
        pa, pb = mesh.nodes[key[0]], mesh.nodes[key[1]]   # of the input
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

    corner = mesh.nodes[mesh.elements]
    e = np.roll(corner, -1, axis=1) - corner
    hs = np.sqrt(np.vecdot(e, e)).max(axis=1)
    crossed, chords = _crossings(mesh, path, hs, 1e-10)
    # per crossed element, chord end c and side a from vertex a:
    # whether the end is at vertex a, whether it is on side a, and
    # whether both ends are on side a's line (the chord runs along it)
    cut = np.flatnonzero(crossed)
    pts, side = corner[cut][:, None], e[cut][:, None]
    length = np.sqrt(np.vecdot(side, side))
    tol = 1e-9 * hs[cut][:, None, None]
    p = chords[cut][:, :, None]
    q = p - pts
    off = np.abs(q[..., 0] * side[..., 1] - q[..., 1] * side[..., 0]) / length
    t = np.vecdot(q, side) / (length * length)
    r = p - (pts + t[..., None] * side)
    at_vertex = (np.sqrt(np.vecdot(q, q)) <= tol).tolist()
    on_side = ((-1e-9 < t) & (t < 1 + 1e-9)
               & (np.sqrt(np.vecdot(r, r)) <= tol)).tolist()
    on_line = (off <= tol).all(axis=1).tolist()

    def classify_point(row, c, tri):
        """(kind, data): ('vertex', node) or ('edge', (i, j, point))."""
        for a in range(3):
            if at_vertex[row][c][a]:
                return ("vertex", tri[a])
        for a in range(3):
            if on_side[row][c][a]:
                return ("edge", (tri[a], tri[(a + 1) % 3],
                                 chords[cut[row], c]))
        raise DegenerateCrossingError(
            "path endpoint not on the element boundary; snap nodes first")

    # the uncrossed runs of elements stay as they are
    runs, start = [], 0
    on_path_edges = []
    for row, k in enumerate(cut.tolist()):
        new_elements = []
        runs += [mesh.elements[start:k], new_elements]
        start = k + 1
        tri, pts, h = mesh.elements[k].tolist(), corner[k], hs[k]
        p_in, p_out = chords[k]
        mid = 0.5 * (p_in + p_out)
        value = path.value_at(mid)
        # chord lying along an existing edge: record it and keep the element
        along = next(((tri[a], tri[(a + 1) % 3]) for a in range(3)
                      if on_line[row][a]), None)
        if along is not None:
            # the clipped chord endpoints are unreliable when the path is
            # collinear with the edge (degenerate half-plane clipping), so
            # recompute the covered part as the 1d overlap of the path
            # with the edge; it may be partial (a path end mid-edge)
            key = _edge_key(along[0], along[1])
            pa, pb = mesh.nodes[key[0]], mesh.nodes[key[1]]
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
            new_elements.append(tri)
            continue
        try:
            kin = classify_point(row, 0, tri)
        except DegenerateCrossingError:
            if not np.allclose(p_in, path.points[0]):
                raise
            # path origin interior to the element (e.g. a layer starting
            # on a curved boundary between nodes): attach it to the
            # nearest vertex, perturbing the origin by at most h
            a = int(np.argmin(np.linalg.norm(pts - p_in, axis=1)))
            kin = ("vertex", tri[a])
        kout = classify_point(row, 1, tri)
        if kin[0] == "vertex" and kout[0] == "vertex":
            a, b = kin[1], kout[1]
            if a != b:
                on_path_edges.append((a, b, value))
            new_elements.append(tri)
        elif kin[0] == "vertex" or kout[0] == "vertex":
            vtx = kin[1] if kin[0] == "vertex" else kout[1]
            i, j, p = kin[1] if kin[0] == "edge" else kout[1]
            m = node_on_edge(i, j, p)
            if m == vtx:
                new_elements.append(tri)
                continue
            if vtx in (i, j):
                # chord covers part of edge (i, j); m is registered, so
                # the conformity pass below splits both neighbors
                on_path_edges.append((vtx, m, value))
                new_elements.append(tri)
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
                new_elements.append(tri)
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

    new_elements = np.concatenate([
        np.asarray(piece, dtype=np.int64).reshape(-1, 3)
        for piece in runs + [mesh.elements[start:]]])

    # conformity pass: fan out any element whose edge carries chain points
    # (partial-edge chords register nodes on edges of unsplit elements).
    # It walks the elements last to first, depth first within each
    ends = np.stack([new_elements, np.roll(new_elements, -1, axis=1)], -1)
    fanned = np.isin(_pair_code(np.sort(ends, axis=-1).reshape(-1, 2)),
                     [i * 2 ** 32 + j for i, j in edge_points])
    resolved, stop = [], len(new_elements)
    for k in np.flatnonzero(fanned.reshape(-1, 3).any(axis=1))[::-1].tolist():
        resolved.append(new_elements[k + 1:stop][::-1])
        stop, stack, done = k, [new_elements[k].tolist()], []
        while stack:
            tri = stack.pop()
            for a in range(3):
                key = _edge_key(tri[a], tri[(a + 1) % 3])
                pieces = edge_points.get(key)
                if not pieces:
                    continue
                chain = ([key[0]] + [idx for _t, idx in sorted(pieces)]
                         + [key[1]])
                opp = tri[(a + 2) % 3]
                for c in range(len(chain) - 1):
                    stack.append((opp, chain[c], chain[c + 1]))
                break
            else:
                done.append(tri)
        resolved.append(np.array(done, dtype=np.int64))
    resolved.append(new_elements[:stop][::-1])
    new_elements = np.concatenate(resolved)

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
    counts = Topology(new_elements, len(nodes)).count(
        [key for key, _v in path_edges])
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
