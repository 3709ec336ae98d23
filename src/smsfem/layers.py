"""Interior-layer handling.

A boundary-data discontinuity launches a layer along the characteristic
dx/dt = b, which for a constant wind is a straight segment carrying the
reduced-problem value.  We optionally snap nearby mesh nodes onto that
segment and embed it into the triangulation as a chain of element edges
carrying Dirichlet values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .meshes import ArgumentError, Triangulation, _edge_key, _signed_areas
from . import wind


class DegenerateCrossingError(RuntimeError):
    """Path tangent to an edge; snap nodes onto the path first."""


@dataclass
class LayerCharacteristic:
    p0: np.ndarray        # start, where the layer leaves the data jump
    p1: np.ndarray        # end, where it leaves the domain
    value: float          # reduced-problem value along the layer

    def nearest(self, points):
        """Closest segment point to each of the points (n, 2) and its
        distance, as arrays (n, 2) and (n,).  The projection parameter is
        clipped to [0, 1]; np.vecdot rounds as the np.dot of one pair and
        as the one inside np.linalg.norm."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        e = self.p1 - self.p0
        t = np.clip(np.vecdot(p - self.p0, e) / np.vecdot(e, e), 0.0, 1.0)
        q = self.p0 + t[:, None] * e
        return q, np.sqrt(np.vecdot(p - q, p - q))


def straight_characteristic(p0, p1, value):
    """Constant-value straight layer characteristic from p0 to p1; the ends
    must be finite and distinct and the value finite."""
    p0, p1 = (np.array(p, dtype=float).reshape(2) for p in (p0, p1))
    e = p1 - p0
    if not (np.isfinite(e).all() and 0.0 < np.vecdot(e, e) < math.inf
            and math.isfinite(value)):
        raise ArgumentError("a layer needs finite, distinct ends and a "
                            "finite value, got %r, %r and %r"
                            % (p0.tolist(), p1.tolist(), value))
    return LayerCharacteristic(p0, p1, float(value))


# ---------------------------------------------------------------------------
# node snapping


def _crossings(mesh, path, h, rel):
    """Whether each element holds a piece of the path longer than rel * h,
    and its chord from entry to exit; wind's kernel clips RAY_CLIP_PAIRS
    elements at a time, on the segment parameters [0, 1].  An element
    whose vertices all lie on one side of the path's line, farther than
    1e-6 of its box, holds no piece and is not clipped."""
    a, e = path.p0, path.p1 - path.p0
    tri = mesh.nodes[mesh.elements]
    x, y = np.take(mesh.nodes.T, mesh.elements.T, axis=1)   # (3, K) each
    size = np.maximum(np.ptp(x, axis=0), np.ptp(y, axis=0))
    c = e[0] * (y - a[1]) - e[1] * (x - a[0])
    margin = 1e-6 * np.sqrt(e @ e) * size
    near = np.flatnonzero((c.max(axis=0) >= -margin)
                          & (c.min(axis=0) <= margin))
    crossed, chord = np.zeros(len(tri), dtype=bool), np.zeros((len(tri), 2, 2))
    for k in range(0, len(near), wind.RAY_CLIP_PAIRS):
        rows = near[k:k + wind.RAY_CLIP_PAIRS]
        hit, lo, hi = wind._clip_rays(a, e, tri[rows], (0.0, 1.0), 1e-12)
        with np.errstate(invalid="ignore", over="ignore"):
            start, end = a + lo[:, None] * e, a + hi[:, None] * e
            length = np.sqrt(np.vecdot(end - start, end - start))
        crossed[rows] = hit & (length > rel * h[rows])
        chord[rows] = np.stack([start, end], axis=1)
    return crossed, chord


def snap_nodes(mesh, path, threshold_rule="nearest"):
    """Move mesh nodes onto the layer characteristic.

    threshold_rule:
      'nearest'      move the closest vertex of every crossed element;
                     this pulls nodes off grid lines, which on regular
                     grids widens an embedded layer to about two cells
      'hmin2/10'     move vertices closer than (h_min(tau))^2 / 10
      '2hmin2'       move vertices closer than 2 h_min(tau)^2
      a float        fixed distance threshold, finite and >= 0
    Snaps that would invert an element are skipped and reported.
    Returns (mesh, moved node list, skipped node list).

    The candidates come from one pass over the crossed elements; they are
    then tried in index order, since each area check sees the moves before
    it.  The result keeps the input's elements and tags, and every element
    around a moved node is checked, so it is not audited again.
    """
    h = np.sqrt(np.abs(mesh.areas())) + 1e-300
    tri = mesh.elements[_crossings(mesh, path, h, 1e-12)[0]]
    corner = mesh.nodes[tri]
    side = corner - np.roll(corner, -1, axis=1)
    hmin = np.sqrt(np.vecdot(side, side)).min(axis=1, keepdims=True)
    verts, at = np.unique(tri.ravel(), return_inverse=True)
    at = at.reshape(tri.shape)
    closest, dist = path.nearest(mesh.nodes[verts])
    d = dist[at]
    if threshold_rule == "nearest":
        # the closest vertex, the lowest index on ties
        near = d == d.min(axis=1, keepdims=True)
        chosen = np.where(near, at, len(verts)).min(axis=1)
    else:
        if threshold_rule == "hmin2/10":
            thr = hmin * hmin / 10.0
        elif threshold_rule == "2hmin2":
            thr = 2.0 * hmin * hmin
        else:
            try:
                thr = float(threshold_rule)
            except (TypeError, ValueError):
                thr = math.nan
            if not 0.0 <= thr < math.inf:
                raise ArgumentError(
                    "snap rule must be 'nearest', 'hmin2/10', '2hmin2' or "
                    "a finite distance >= 0, got %r" % (threshold_rule,))
        chosen = at[d <= thr]
    chosen = np.unique(chosen)

    nodes = mesh.nodes.copy()
    ptr, around = mesh.topology.node_ptr, mesh.topology.node_elements
    badj = {}
    for i, j, _t in mesh.boundary_edges:
        badj.setdefault(i, []).append(j)
        badj.setdefault(j, []).append(i)

    def boundary_snap_ok(v, q):
        # a boundary node may move only along its own boundary segments
        for u in badj[v]:
            a = nodes[v] - nodes[u]
            c = (q[0] - nodes[u][0]) * a[1] - (q[1] - nodes[u][1]) * a[0]
            if abs(c) > 1e-12 * (np.linalg.norm(a) ** 2 + 1.0):
                return False
        return True

    moved, skipped = [], []
    for v, q, dv in zip(verts[chosen].tolist(), closest[chosen],
                        dist[chosen].tolist()):
        if dv == 0.0:
            continue
        if v in badj and not boundary_snap_ok(v, q):
            skipped.append(v)
            continue
        old = nodes[v].copy()
        nodes[v] = q
        sub = mesh.elements[around[ptr[v]:ptr[v + 1]]]
        if np.all(_signed_areas(nodes, sub) > 0):
            moved.append(v)
        else:
            nodes[v] = old
            skipped.append(v)
    out = Triangulation(nodes, mesh.elements, mesh.boundary_edges,
                        mesh.constraint_edges, mesh.node_values, audit=False)
    return out, moved, skipped


# ---------------------------------------------------------------------------
# embedding


def _first(mask):
    """Index of the first True along the last axis, -1 where none."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), -1)


def embed_characteristic(mesh, path):
    """Split every crossed element so the path becomes a chain of edges.

    Vertex pass-through bisects the element; a two-edge crossing yields
    one triangle plus a quadrilateral split into four around its
    arithmetic-mean center.  On-path edges become interior constraint
    edges carrying the characteristic's value; returns
    (mesh, on_path_node list).
    """
    new_nodes = []     # beyond the input's, each [x, y]
    edge_points = {}   # edge_key -> list of (t along edge, node index)
    quads = []         # (center node, [m1, o1, o2, m2])

    def edge_param(lo, hi, p):
        """Parameter of p along the input edge from node lo to node hi,
        and the edge point at it."""
        pa, d = mesh.nodes[lo], mesh.nodes[hi] - mesh.nodes[lo]
        t = np.vecdot(p - pa, d) / np.vecdot(d, d)
        return t, pa + t[..., None] * d

    def node_on_edge(side, t, point):
        """Existing or new node at parameter t on the edge of the node pair
        side, taken from its lower-index node so both adjacent elements
        resolve the same crossing to the same node; a new node is placed
        at point."""
        key = _edge_key(*side)
        if t <= 1e-9:
            return key[0]
        if t >= 1.0 - 1e-9:
            return key[1]
        for tt, idx in edge_points.get(key, []):
            if abs(tt - t) < 1e-9:
                return idx
        idx = mesh.n_nodes + len(new_nodes)
        new_nodes.append(point)
        edge_points.setdefault(key, []).append((t, idx))
        return idx

    def pieces(i, j):
        """The sub-edges of (i, j) between its registered points, from its
        lower-index node; (i, j) itself if it has none."""
        key = _edge_key(i, j)
        if key not in edge_points:
            return [(i, j)]
        chain = [key[0]] + [idx for _t, idx in sorted(edge_points[key])]
        return list(zip(chain, chain[1:] + [key[1]]))

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
    dist = np.sqrt(np.vecdot(q, q))
    # the first vertex each chord end is at, the first side it is on and
    # the first side the chord runs along, -1 for none
    vertex = _first(dist <= tol)
    on = _first((-1e-9 < t) & (t < 1 + 1e-9)
                & (np.sqrt(np.vecdot(r, r)) <= tol))
    # a path origin inside an element (e.g. a layer starting on a curved
    # boundary between nodes) attaches to the nearest vertex, perturbing
    # the origin by at most h
    origin = ((vertex[:, 0] < 0) & (on[:, 0] < 0)
              & np.isclose(chords[cut, 0], path.p0).all(axis=1))
    vertex[origin, 0] = dist[origin, 0].argmin(axis=1)
    along = _first((off <= tol).all(axis=1)).tolist()
    # the side (i, j) each chord end is on, its parameter there from the
    # side's lower-index node, and the point at that parameter
    tris = mesh.elements[cut]
    i = np.take_along_axis(tris, np.maximum(on, 0), axis=1)
    j = np.take_along_axis(tris, (np.maximum(on, 0) + 1) % 3, axis=1)
    t_end, p_end = edge_param(np.minimum(i, j), np.maximum(i, j),
                              chords[cut])
    sides = np.stack([i, j], axis=-1).tolist()
    t_end, p_end = t_end.tolist(), p_end.tolist()
    vertex, on, tris = vertex.tolist(), on.tolist(), tris.tolist()
    value = path.value

    def classify_point(row, c):
        """('vertex', node) or ('edge', (side, t, point)) of chord end c."""
        if vertex[row][c] >= 0:
            return ("vertex", tris[row][vertex[row][c]])
        if on[row][c] >= 0:
            return ("edge", (sides[row][c], t_end[row][c], p_end[row][c]))
        raise DegenerateCrossingError(
            "path endpoint not on the element boundary; snap nodes first")

    # the uncrossed runs of elements stay as they are
    runs, start = [], 0
    on_path_edges = []
    for row, k in enumerate(cut.tolist()):
        new_elements = []
        runs += [mesh.elements[start:k], new_elements]
        start = k + 1
        tri = tris[row]
        # chord lying along an existing edge: record it and keep the element
        if along[row] >= 0:
            # the clipped chord endpoints are unreliable when the path is
            # collinear with the edge (degenerate half-plane clipping), so
            # recompute the covered part as the 1d overlap of the path with
            # the edge, if both its ends are on the edge's line; it may be
            # partial (a path end mid-edge)
            a = along[row]
            key = _edge_key(tri[a], tri[(a + 1) % 3])
            pa, pb = mesh.nodes[key[0]], mesh.nodes[key[1]]
            e = pb - pa
            L = np.linalg.norm(e)
            w = np.stack([path.p0, path.p1]) - pa
            near = np.abs(w[:, 0] * e[1] - w[:, 1] * e[0]) / L <= 1e-9 * hs[k]
            s = np.vecdot(w, e) / (L * L)
            t0, t1 = np.maximum(s.min(), 0.0), np.minimum(s.max(), 1.0)
            if near.all() and t1 > t0:
                ts, points = edge_param(key[0], key[1],
                                        pa + np.array([[t0], [t1]]) * e)
                n_in, n_out = (node_on_edge(key, tt, pp) for tt, pp
                               in zip(ts.tolist(), points.tolist()))
                if n_in != n_out:
                    on_path_edges.append((n_in, n_out, value))
            new_elements.append(tri)
            continue
        kin, kout = classify_point(row, 0), classify_point(row, 1)
        if kin[0] == "vertex" and kout[0] == "vertex":
            a, b = kin[1], kout[1]
            if a != b:
                on_path_edges.append((a, b, value))
            new_elements.append(tri)
        elif kin[0] == "vertex" or kout[0] == "vertex":
            vtx = kin[1] if kin[0] == "vertex" else kout[1]
            end = kin[1] if kin[0] == "edge" else kout[1]
            (i, j), m = end[0], node_on_edge(*end)
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
            m1 = node_on_edge(*kin[1])
            m2 = node_on_edge(*kout[1])
            k1, k2 = _edge_key(*kin[1][0]), _edge_key(*kout[1][0])
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
            g = mesh.n_nodes + len(new_nodes)
            new_nodes.append([np.nan, np.nan])
            quads.append((g, [m1, o1, o2, m2]))
            new_elements.append((m1, o1, g))
            new_elements.append((o1, o2, g))
            new_elements.append((o2, m2, g))
            new_elements.append((m2, m1, g))
            on_path_edges.append((m1, m2, value))

    # the quadrilateral centers, once the nodes on their sides are placed
    nodes = np.concatenate([mesh.nodes,
                            np.asarray(new_nodes, dtype=float).reshape(-1, 2)])
    if quads:
        centers, corners = zip(*quads)
        nodes[list(centers)] = nodes[list(corners)].mean(axis=1)
    new_elements = np.concatenate([
        np.asarray(piece, dtype=np.int64).reshape(-1, 3)
        for piece in runs + [mesh.elements[start:]]])

    # conformity pass: fan out any element whose edge carries chain points
    # (partial-edge chords register nodes on edges of unsplit elements).
    # It walks the elements last to first, depth first within each
    ends = np.roll(new_elements, -1, axis=1)
    fanned = np.isin(np.minimum(new_elements, ends) * 2 ** 32
                     + np.maximum(new_elements, ends),
                     [i * 2 ** 32 + j for i, j in edge_points], kind="sort")
    resolved, stop = [], len(new_elements)
    for k in np.flatnonzero(fanned.any(axis=1))[::-1].tolist():
        resolved.append(new_elements[k + 1:stop][::-1])
        stop, stack, done = k, [new_elements[k].tolist()], []
        while stack:
            tri = stack.pop()
            for a in range(3):
                split = pieces(tri[a], tri[(a + 1) % 3])
                if len(split) > 1:
                    stack += [(tri[(a + 2) % 3], i, j) for i, j in split]
                    break
            else:
                done.append(tri)
        resolved.append(np.array(done, dtype=np.int64))
    resolved.append(new_elements[:stop][::-1])
    new_elements = np.concatenate(resolved)

    # split boundary and constraint edges that received new nodes; an
    # edge listed twice keeps the reverse list order among its pieces
    boundary, constraints = (
        sorted(((a, b, e[2]) for e in reversed(edges)
                for a, b in pieces(e[0], e[1])), key=lambda e: (e[0], e[1]))
        for edges in (mesh.boundary_edges, mesh.constraint_edges))
    # dedupe on-path edges (interior ones are seen from both sides)
    seen = {}
    for i, j, v in on_path_edges:
        for a, b in pieces(i, j):
            seen[_edge_key(a, b)] = v
    node_values = dict(mesh.node_values)
    on_path_nodes = set()
    path_edges = sorted(seen.items())
    for (i, j), v in path_edges:
        on_path_nodes.update((i, j))
        node_values.setdefault(i, v)
        node_values.setdefault(j, v)
    out = Triangulation(nodes, new_elements, boundary, constraints,
                        node_values)
    # the interior on-path edges become constraints last; as edges of two
    # elements they pass the constraint check of the audit above
    counts = out.topology.count([key for key, _v in path_edges])
    bkeys = {_edge_key(i, j) for i, j, _t in boundary}
    out.constraint_edges += [
        (i, j, v) for ((i, j), v), count in zip(path_edges, counts)
        if count == 2 and (i, j) not in bkeys]
    return out, sorted(on_path_nodes)
