"""1D partitions and 2D conforming triangulations.

Generators (uniform, Shishkin, perturbed structured), red refinement
with hanging-node closure, and plain-text file I/O.
All operations return new meshes; meshes are immutable once built.
"""

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ArgumentError(ValueError):
    pass


class GenerationError(RuntimeError):
    pass


class MeshFileError(ValueError):
    """Parse or validation failure; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# 1D meshes


class Mesh1D:
    """Strictly increasing partition of an interval (default [0, 1])."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.size < 3:
            raise ArgumentError("mesh needs at least 2 cells")
        if np.any(np.diff(nodes) <= 0):
            raise ArgumentError("nodes must be strictly increasing")
        self.nodes = nodes

    @property
    def J(self):
        return self.nodes.size - 1

    @property
    def widths(self):
        return np.diff(self.nodes)

    @property
    def h(self):
        return float(self.widths.max())


def uniform_mesh_1d(J, interval=(0.0, 1.0)):
    if J < 2:
        raise ArgumentError("J must be at least 2")
    a, b = interval
    return Mesh1D(np.linspace(a, b, J + 1))


@dataclass(frozen=True)
class ShishkinSpec1D:
    """Shishkin transition spec: sigma = min(1/2, (2/beta) eps log N)."""

    N: int
    eps: float
    beta: float = 1.0

    @property
    def sigma(self):
        return min(0.5, (2.0 / self.beta) * self.eps * math.log(self.N))


def shishkin_mesh_1d(spec=None, N=None, eps=None, beta=1.0, sigma=None):
    """Piecewise-uniform mesh: N cells on [0, 1-sigma], N on [1-sigma, 1].

    Either pass a ShishkinSpec1D, or N/eps/beta, or N with an explicit
    sigma (e.g. the 4*eps*log(2N) convention).
    """
    if spec is not None:
        N, sigma = spec.N, spec.sigma
    elif sigma is None:
        if N is None or eps is None:
            raise ArgumentError("need N and eps (or an explicit sigma)")
        sigma = ShishkinSpec1D(N, eps, beta).sigma
    if N < 2:
        raise ArgumentError("N must be at least 2 (log N degenerate for N=1)")
    if not 0.0 < sigma <= 0.5:
        raise ArgumentError("sigma must lie in (0, 1/2]")
    return Mesh1D(shishkin_lines(N, sigma))


# ---------------------------------------------------------------------------
# 2D triangulations


class Topology:
    """Element adjacency as arrays.  Side 3k + s of element (a, b, c) is
    (a, b), (b, c) or (c, a); edges are the distinct sides as node pairs
    i < j, sorted by code i * 2^32 + j.  Per edge: `codes`,
    `pairs`, `counts` (its elements), `first` (its first side; sorting
    by it gives the order of first appearance) and its elements
    edge_elements[edge_ptr[e]:edge_ptr[e + 1]] in increasing order;
    node_ptr and node_elements group the elements of each node alike,
    built on first use.
    """

    def __init__(self, elements, n_nodes):
        a, b = elements.ravel(), elements[:, [1, 2, 0]].ravel()
        sides = np.column_stack([np.minimum(a, b), np.maximum(a, b)])
        code = _pair_code(sides)
        perm = np.argsort(code, kind="stable")
        code = code[perm]
        start = np.flatnonzero(np.diff(code, prepend=code[:1] - 1))
        self.codes, self.first = code[start], perm[start]
        self.pairs = sides[self.first]
        self.edge_ptr = np.r_[start, len(code)]
        self.counts = np.diff(self.edge_ptr)
        self.edge_elements = perm // 3
        self._corners, self._n_nodes = a, n_nodes

    @cached_property
    def node_ptr(self):
        return np.r_[0, np.cumsum(np.bincount(self._corners,
                                              minlength=self._n_nodes))]

    @cached_property
    def node_elements(self):
        return np.argsort(self._corners, kind="stable") // 3

    def find(self, pairs):
        """Edge index of each node pair (either order), -1 where none."""
        code = _pair_code(np.sort(
            np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1))
        at = np.searchsorted(self.codes, code)
        found = at < len(self.codes)
        found[found] = self.codes[at[found]] == code[found]
        return np.where(found, at, -1)

    def count(self, pairs):
        """Elements on each node pair, 0 where it is no element edge."""
        return np.append(self.counts, 0)[self.find(pairs)]


class Triangulation:
    """Conforming triangulation with tagged boundary edges.

    Parameters
    ----------
    nodes : (n, 2) array
    elements : (m, 3) int array
        Normalized to positive orientation on construction.
    boundary_edges : list of (i, j, tag), tag in {'D', 'N'}
    constraint_edges : list of (i, j, value)
        Interior element edges carrying a Dirichlet value (embedded
        layer characteristics).
    node_values : dict node -> value
        Dirichlet value overrides (data discontinuities, layer values).

    Adjacency is built on first use as the arrays of `topology`, and the
    bucket grid of point location as `point_index`.
    """

    def __init__(self, nodes, elements, boundary_edges, constraint_edges=None,
                 node_values=None, audit=True):
        self.nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
        elements = np.asarray(elements, dtype=np.int64).copy()
        areas = _signed_areas(self.nodes, elements)
        flip = areas < 0
        elements[flip, 1], elements[flip, 2] = (
            elements[flip, 2].copy(), elements[flip, 1].copy())
        self.elements = elements
        self.boundary_edges = [(int(i), int(j), str(t)) for i, j, t in boundary_edges]
        self.constraint_edges = [(int(i), int(j), float(v))
                                 for i, j, v in (constraint_edges or [])]
        self.node_values = dict(node_values or {})
        for i, j, v in self.constraint_edges:
            self.node_values.setdefault(i, v)
            self.node_values.setdefault(j, v)
        if audit:
            self.audit_conformity()

    # -- derived structure --------------------------------------------------

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    def areas(self):
        return _signed_areas(self.nodes, self.elements)

    @cached_property
    def topology(self):
        return Topology(self.elements, self.n_nodes)

    @cached_property
    def point_index(self):
        """Vertex a, edges ab, ac and det of each element, the widened
        boxes of `locate`, the slivers, and the bucket grid.

        Coordinates run along the first axis.  The grid is anchored at the
        lowest box corner.  Each box is registered in every cell it
        overlaps, from floor((low - origin) / cell) to floor((high -
        origin) / cell), taken by truncation as both are >= 0.  That
        rounded map is monotone, so a point inside a box lies in one of
        the box's cells.  L boxes of widths w and heights v overlap about
        sum (w / cell + 1) (v / cell + 1) cells, and at most sum (w / cell
        + 2) (v / cell + 2); the square cells are as wide as makes the
        first sum 2 L, which keeps the second below 6 L, but no narrower
        than a square of the span's area divided by L, so there are at
        most L cells.
        """
        p = np.take(self.nodes.T, self.elements.T, axis=1)   # (2, 3, K)
        a, ab, ac = p[:, 0], p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = ab[0] * ac[1] - ac[0] * ab[1]
        low, high = p.min(axis=1), p.max(axis=1)
        s = np.maximum(*(high - low))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            kappa = 2.0 * s * s / np.abs(det)
        sliver = ~(kappa <= 1e14)
        live = np.flatnonzero(~sliver)
        low, high = low.take(live, axis=1), high.take(live, axis=1)
        s, kappa = s.take(live), kappa.take(live)
        grow = (s * np.minimum(2.0, 2.0 * LOCATE_TOL + 64.0 * _U * kappa)
                + 2.0 * _U * np.maximum(*np.maximum(-low, high)))
        low, high = low - grow, high + grow
        if len(live):
            origin = low.min(axis=1)
            span = high.max(axis=1) - origin
            w, v = high - low
            area, sides = float((w * v).sum()), float(w.sum() + v.sum())
            cell = max((sides + math.sqrt(sides ** 2 + 4 * len(live) * area))
                       / (2 * len(live)),
                       math.sqrt(span[0] * span[1] / len(live)))
        else:
            origin, cell = np.zeros(2), 1.0
        first = ((low - origin[:, None]) / cell).astype(np.int64)
        last = ((high - origin[:, None]) / cell).astype(np.int64)
        shape = last.max(axis=1, initial=-1) + 1
        # box b covers rows first[1, b] .. last[1, b] of the cells, and in
        # each the columns first[0, b] .. last[0, b]: list them row by row
        rows = last[1] - first[1] + 1
        box = np.repeat(np.arange(len(live)), rows)
        start = _runs(first[1], rows) * shape[0] + first[0, box]
        cols = (last[0] - first[0] + 1)[box]
        box = np.repeat(box, cols)
        cells = _runs(start, cols)
        ptr = np.r_[0, np.cumsum(np.bincount(cells,
                                             minlength=shape.prod() + 1))]
        members = box[np.argsort(cells)]
        return (a, ab, ac, det, np.flatnonzero(sliver), live, (low, high),
                (origin, cell, shape, ptr, members))

    def locate(self, points):
        """Every pair of a point and an element whose barycentric
        coordinates of the point are all >= -TOL (TOL = LOCATE_TOL): the
        point and element indices and the (unclipped) coordinates, sorted
        by point and then element.

        Only elements whose widened bounding box holds the point are
        tested; no other can pass.  With u = 2^-53 the computed numerators
        of l1, l2 and det err by at most 8u s |p - a| and 8u s^2 (s the
        element's longer box side, |p - a| the max-norm distance to vertex
        a).  A passing element has computed |l1| + |l2| <= 1 + 5 TOL, so
        while kappa = 2 s^2 / |det| <= 1e14 the exact sum is below 1.2 and
        |p - a| < 1.2 s.  Then l1 and l2 err by at most 9.6 u kappa + 1.2 u
        and l0 = 1 - l1 - l2 by 19.2 u kappa + 6 u, below 22 u kappa as
        kappa >= 2.  The exact coordinates of a passing element are >=
        -(TOL + 22 u kappa); they sum to 1 with at most two negative, so
        the point lies within 2 s (TOL + 22 u kappa) of the box.  Boxes are
        widened by s min(2, 2 TOL + 64 u kappa), at most the 2 s that |p -
        a| < 1.2 s allows, plus 2u times their largest coordinate for the
        rounding of the widened edges.  Slivers (kappa > 1e14) are tested
        against every point.  Non-finite points are tested against none,
        so they pass with no element.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        a, ab, ac, det, slivers, live, (low, high), grid = self.point_index
        origin, cell, shape, ptr, members = grid
        n = len(pts)
        finite = np.flatnonzero(np.isfinite(pts).all(axis=1))
        q = (pts[finite] - origin) / cell
        ok = ((q >= 0) & (q < shape)).all(axis=1)
        ij = q[ok].astype(np.int64)
        cells = np.full(n, shape.prod())              # an empty cell
        cells[finite[ok]] = ij[:, 1] * shape[0] + ij[:, 0]
        # the boxes of each point's cell that hold it, then each finite
        # point with every sliver
        counts = ptr[cells + 1] - ptr[cells]
        owner = np.repeat(np.arange(n), counts)
        b = members[_runs(ptr[cells], counts)]
        x, y = pts.T.take(owner, axis=1)
        lo, hi = low.take(b, axis=1), high.take(b, axis=1)
        box = (lo[0] <= x) & (x <= hi[0]) & (lo[1] <= y) & (y <= hi[1])
        owner = np.r_[owner[box], np.repeat(finite, len(slivers))]
        k = np.r_[live[b[box]], np.tile(slivers, len(finite))]
        x, y = pts.T.take(owner, axis=1)
        (ax, ay), (abx, aby), (acx, acy) = (e.take(k, axis=1)
                                            for e in (a, ab, ac))
        dx, dy = x - ax, y - ay
        l1 = (dx * acy - acx * dy) / det[k]
        l2 = (abx * dy - dx * aby) / det[k]
        lam = np.stack([1.0 - l1 - l2, l1, l2])
        hit = np.flatnonzero((lam >= -LOCATE_TOL).all(axis=0))
        hit = hit[np.lexsort((k[hit], owner[hit]))]
        return owner[hit], k[hit], lam.T[hit]

    def boundary_node_set(self):
        out = set()
        for i, j, _t in self.boundary_edges:
            out.add(i)
            out.add(j)
        return out

    def constraint_node_set(self):
        out = set()
        for i, j, _v in self.constraint_edges:
            out.add(i)
            out.add(j)
        return out

    def dirichlet_node_set(self):
        out = set()
        for i, j, t in self.boundary_edges:
            if t == "D":
                out.add(i)
                out.add(j)
        out |= self.constraint_node_set()
        return out

    def audit_conformity(self):
        """Raise GenerationError at the first failed check, in the order
        areas, duplicates, edges by first appearance, tagged edges; an
        area must be a finite positive number."""
        areas = self.areas()
        if not np.all((areas > 0) & (areas < np.inf)):
            raise GenerationError("degenerate or inverted element")
        t = self.topology
        bkeys = [_edge_key(i, j) for i, j, _t in self.boundary_edges]
        bpairs = np.array(bkeys, dtype=np.int64).reshape(-1, 2)
        repeat = np.ones(len(bkeys), dtype=bool)
        repeat[np.unique(_pair_code(bpairs), return_index=True)[1]] = False
        if repeat.any():
            raise GenerationError("duplicate boundary edge %s"
                                  % (bkeys[np.argmax(repeat)],))
        at = t.find(bpairs)
        tagged = np.isin(np.arange(len(t.codes)), at)
        bad = np.flatnonzero(np.where(t.counts == 1, ~tagged,
                                      tagged | (t.counts > 2)))
        if bad.size:
            e = bad[np.argmin(t.first[bad])]
            count = t.counts[e]
            raise GenerationError({
                1: "element edge %s on boundary but untagged",
                2: "interior edge %s tagged as boundary"}.get(
                    count, "edge %%s shared by %d elements" % count)
                % (tuple(t.pairs[e]),))
        stray = np.append(t.counts, 0)[at] != 1
        if stray.any():
            raise GenerationError("boundary edge %s not an element edge"
                                  % (bkeys[np.argmax(stray)],))
        ckeys = [_edge_key(i, j) for i, j, _v in self.constraint_edges]
        stray = t.count(ckeys) == 0
        if stray.any():
            raise GenerationError("constraint edge %s not an element edge"
                                  % (ckeys[np.argmax(stray)],))


LOCATE_TOL = 1e-12    # barycentric coordinates >= -LOCATE_TOL locate a point
_U = 2.0 ** -53       # unit roundoff


def _runs(starts, lengths):
    """start, start + 1, ..., start + n - 1 for each start and length n,
    concatenated."""
    return (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            + np.arange(lengths.sum()))


def _signed_areas(nodes, elements):
    x, y = nodes[:, 0][elements], nodes[:, 1][elements]
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))


def _mask(size, indices):
    """Boolean mask of a collection of indices."""
    mask = np.zeros(size, dtype=bool)
    mask[np.fromiter(indices, dtype=np.int64, count=len(indices))] = True
    return mask


def _pair_code(pairs):
    """One int64 per node pair, distinct for indices of 32 bits."""
    return pairs[:, 0] * 2 ** 32 + pairs[:, 1]


def _all_positive(xy, tris):
    """_signed_areas(xy, tris) > 0 for all, in float arithmetic."""
    for a, b, c in tris:
        (xa, ya), (xb, yb), (xc, yc) = xy[a], xy[b], xy[c]
        if not 0.5 * ((xb - xa) * (yc - ya) - (xc - xa) * (yb - ya)) > 0:
            return False
    return True


def _edge_key(i, j):
    return (min(i, j), max(i, j))


# -- generators -------------------------------------------------------------


def structured_triangulation(nx, ny, diagonal="SW-NE",
                             domain=((0.0, 0.0), (1.0, 1.0)), tag_fn=None):
    """Structured grid of nx*ny cells, two triangles each.

    `tag_fn(midpoint) -> 'D' | 'N'` assigns boundary tags; default all 'D'.
    """
    if nx < 1 or ny < 1:
        raise ArgumentError("need at least one cell per direction")
    xs = np.linspace(domain[0][0], domain[1][0], nx + 1)
    ys = np.linspace(domain[0][1], domain[1][1], ny + 1)
    return tensor_triangulation(xs, ys, diagonal=diagonal, tag_fn=tag_fn)


def tensor_triangulation(xs, ys, diagonal="SW-NE", tag_fn=None):
    """Triangulated tensor grid over the given coordinate lines."""
    if diagonal not in ("SW-NE", "NW-SE"):
        raise ArgumentError("diagonal must be SW-NE or NW-SE")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = xs.size - 1, ys.size - 1
    if nx < 1 or ny < 1:
        raise ArgumentError("need at least one cell per direction")
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ids = np.arange(nodes.shape[0]).reshape(ny + 1, nx + 1)
    sw, se = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    nw, ne = ids[1:, :-1].ravel(), ids[1:, 1:].ravel()
    # two triangles per cell, cells row by row
    halves = ([(sw, se, ne), (sw, ne, nw)] if diagonal == "SW-NE"
              else [(sw, se, nw), (se, ne, nw)])
    elements = np.stack([np.column_stack(t) for t in halves], axis=1)
    # bottom and top edges alternating along x, then left and right along y
    rows = np.stack([ids[[0, -1], :-1], ids[[0, -1], 1:]], axis=-1)
    cols = np.stack([ids[:-1, [0, -1]], ids[1:, [0, -1]]], axis=-1)
    pairs = np.concatenate([rows.transpose(1, 0, 2).reshape(-1, 2),
                            cols.reshape(-1, 2)])
    mids = 0.5 * (nodes[pairs[:, 0]] + nodes[pairs[:, 1]])
    tags = ([tag_fn(mid) for mid in mids] if tag_fn is not None
            else ["D"] * len(pairs))
    edges = [(i, j, t) for (i, j), t in zip(pairs.tolist(), tags)]
    return Triangulation(nodes, elements.reshape(-1, 3), edges)


def shishkin_lines(N, sigma, L=1.0):
    """Coordinate lines of a 1D Shishkin partition of [0, L]."""
    coarse = np.arange(N + 1) * (L - sigma) / N
    fine = (L - sigma) + np.arange(1, N + 1) * sigma / N
    return np.concatenate([coarse, fine])


def tensor_shishkin_2d(Nx, Ny, sigma_x, sigma_y):
    """Tensor product of two 1D Shishkin partitions of [0, 1]."""
    if not (0.0 < sigma_x < 1.0 and 0.0 < sigma_y < 1.0):
        raise ArgumentError("transitions must lie in (0, 1)")
    xs = shishkin_lines(Nx, sigma_x)
    ys = shishkin_lines(Ny, sigma_y)
    return tensor_triangulation(xs, ys)


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
    amps = amplitude_fraction * hloc
    free = np.flatnonzero(~fixed)
    if not np.isfinite(amps[free]).all():
        # a free node on no element: its draw fails as numpy's uniform does
        rng.uniform(-np.inf, np.inf)
    owner = np.repeat(np.arange(mesh.n_nodes), np.diff(t.node_ptr))
    # in index order: each draw sees the nodes moved before it.  All draws
    # are made at once and checked against the nodes before them; from
    # the first rejected node on, the draws are made again
    start = 0
    while start < len(free):
        todo, state = free[start:], rng.bit_generator.state
        a = amps[todo][:, None]
        moved = nodes[todo] + (-a + (a - (-a)) * rng.random((len(todo), 2)))
        at = np.full(mesh.n_nodes, len(todo))
        at[todo] = np.arange(len(todo))
        pair = np.flatnonzero(at[owner] < len(todo))
        tri, r = mesh.elements[t.node_elements[pair]], at[owner[pair]]
        # a vertex is seen moved if it is drawn no later than the node
        seen = at[tri] <= r[:, None]
        xy = np.where(seen[..., None],
                      moved[np.minimum(at[tri], len(todo) - 1)], nodes[tri])
        (xa, ya), (xb, yb), (xc, yc) = xy.transpose(1, 2, 0)
        area = 0.5 * ((xb - xa) * (yc - ya) - (xc - xa) * (yb - ya))
        rejected = r[~(area > 0)]
        stop = rejected.min() if rejected.size else len(todo)
        nodes[todo[:stop]] = moved[:stop]
        if stop == len(todo):
            break
        rng.bit_generator.state = state
        rng.random((stop, 2))
        k = todo[stop]
        (x, y), sub = nodes[k].tolist(), mesh.elements[t.node_elements[
            t.node_ptr[k]:t.node_ptr[k + 1]]].tolist()
        for _ in range(max_retries):
            dx, dy = rng.uniform(-amps[k], amps[k], size=2).tolist()
            nodes[k] = [x + dx, y + dy]
            if _all_positive(nodes, sub):
                break
        else:
            raise GenerationError("could not keep element areas positive")
        start += stop + 1
    return Triangulation(nodes, mesh.elements, mesh.boundary_edges,
                         mesh.constraint_edges, mesh.node_values)


# -- red refinement with hanging-node closure --------------------------------


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
    midpoint, codes = {}, []

    def mid(i, j):
        key = _edge_key(i, j)
        if key not in midpoint:
            midpoint[key] = len(nodes)
            codes.append(key[0] * 2 ** 32 + key[1])
            (xi, yi), (xj, yj) = nodes[i], nodes[j]
            nodes.append([0.5 * (xi + xj), 0.5 * (yi + yj)])
        return midpoint[key]

    blocks, start = [], 0
    for k in subset:
        a, b, c = mesh.elements[k].tolist()
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        blocks += [mesh.elements[start:k], [(a, mab, mca), (mab, b, mbc),
                                           (mca, mbc, c), (mab, mbc, mca)]]
        start = k + 1
    tris = np.concatenate(blocks + [mesh.elements[start:]])

    # closure: bisect the longest edge of any element with a hanging node,
    # in list order, so a midpoint made in a round hangs the later
    # elements on its edge in that same round
    for _round in range(10 * (len(tris) + len(subset))):
        ends = np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1)
        side = _pair_code(np.sort(ends, axis=-1).reshape(-1, 2))
        heap = np.flatnonzero(np.isin(side, codes).reshape(-1, 3).any(axis=1))
        if not heap.size:
            break
        heap = heap.tolist()
        by_code = np.argsort(side, kind="stable")
        sorted_side = side[by_code]
        # this round's elements use no newer node
        corner = np.asarray(nodes)[ends]
        d = corner[:, :, 0] - corner[:, :, 1]
        length = np.sqrt(np.vecdot(d, d)).tolist()
        blocks, start = [], 0
        while heap:
            p = heapq.heappop(heap)
            if p < start:
                continue  # queued twice
            tri = tris[p].tolist()
            # longest edge; deterministic tie-break on the sorted node pair
            s = max(range(3), key=lambda s: (
                length[p][s], _edge_key(tri[s], tri[(s + 1) % 3])))
            i, j, opp = tri[s], tri[(s + 1) % 3], tri[(s + 2) % 3]
            made = len(codes)
            m = mid(i, j)
            if len(codes) > made:
                lo, hi = np.searchsorted(sorted_side,
                                         [codes[-1], codes[-1] + 1])
                for q in (by_code[lo:hi] // 3).tolist():
                    if q > p:
                        heapq.heappush(heap, q)
            blocks += [tris[start:p], [(i, m, opp), (m, j, opp)]]
            start = p + 1
        tris = np.concatenate(blocks + [tris[start:]])
    else:
        raise GenerationError("hanging-node closure did not terminate")

    def pieces(i, j):
        """The sub-edges of (i, j), in its orientation."""
        m = midpoint.get(_edge_key(i, j))
        return [(i, j)] if m is None else pieces(i, m) + pieces(m, j)

    boundary, constraints = (
        sorted((a, b, e[2]) for e in edges for a, b in pieces(e[0], e[1]))
        for edges in (mesh.boundary_edges, mesh.constraint_edges))
    return Triangulation(np.asarray(nodes), tris, boundary,
                         constraints, mesh.node_values)


# -- file I/O ----------------------------------------------------------------


def write_mesh(mesh, path):
    with open(path, "w") as fh:
        fh.write("# smsfem mesh\n")
        fh.write("NODES %d\n" % mesh.n_nodes)
        for x, y in mesh.nodes:
            fh.write("%.17g %.17g\n" % (x, y))
        fh.write("ELEMENTS %d\n" % mesh.n_elements)
        for a, b, c in mesh.elements:
            fh.write("%d %d %d\n" % (a, b, c))
        nb = len(mesh.boundary_edges) + len(mesh.constraint_edges)
        fh.write("BOUNDARY %d\n" % nb)
        for i, j, t in mesh.boundary_edges:
            if t == "D" and i in mesh.node_values and j in mesh.node_values \
                    and mesh.node_values[i] == mesh.node_values[j]:
                fh.write("%d %d D %.17g\n" % (i, j, mesh.node_values[i]))
            else:
                fh.write("%d %d %s\n" % (i, j, t))
        for i, j, v in mesh.constraint_edges:
            fh.write("%d %d D %.17g\n" % (i, j, v))


def read_mesh(path):
    with open(path) as fh:
        raw = fh.readlines()
    lines = []
    for ln, text in enumerate(raw, start=1):
        text = text.split("#", 1)[0].strip()
        if text:
            lines.append((ln, text))
    pos = 0

    def section(name, row):
        """The rows of the section '<name> <count>' at pos, each made by
        row(ln, parts) from its line number and fields."""
        nonlocal pos
        if pos >= len(lines):
            raise MeshFileError("missing %s section" % name,
                                raw and len(raw) or 1)
        ln, text = lines[pos]
        parts = text.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFileError("expected '%s <count>'" % name, ln)
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFileError("bad %s count" % name, ln)
        pos += 1
        rows = []
        for _ in range(count):
            if pos >= len(lines):
                raise MeshFileError("unexpected end of %s" % name, len(raw))
            ln, text = lines[pos]
            rows.append(row(ln, text.split()))
            pos += 1
        return rows

    def node(ln, parts):
        if len(parts) != 2:
            raise MeshFileError("expected 'x y'", ln)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFileError("bad coordinate", ln)
        return x, y

    def element(ln, parts):
        if len(parts) != 3:
            raise MeshFileError("expected 'i j k'", ln)
        try:
            tri = tuple(int(p) for p in parts)
        except ValueError:
            raise MeshFileError("bad element index", ln)
        for v in tri:
            if not 0 <= v < n:
                raise MeshFileError("element references node %d" % v, ln)
        return tri

    def edge(ln, parts):
        if len(parts) not in (3, 4) or parts[2] not in ("D", "N"):
            raise MeshFileError("expected 'i j D|N [value]'", ln)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MeshFileError("bad edge index", ln)
        for v in (i, j):
            if not 0 <= v < n:
                raise MeshFileError("boundary edge references node %d" % v, ln)
        value = None
        if len(parts) == 4:
            if parts[2] != "D":
                raise MeshFileError("value only allowed on D edges", ln)
            try:
                value = float(parts[3])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise MeshFileError("bad value", ln)
        return ln, i, j, parts[2], value

    nodes = section("NODES", node)
    n = len(nodes)
    elements = section("ELEMENTS", element)
    tagged = section("BOUNDARY", edge)
    if pos != len(lines):
        raise MeshFileError("trailing content", lines[pos][0])

    # split tagged edges into true boundary edges and interior constraints
    counts = Topology(np.array(elements, dtype=np.int64).reshape(-1, 3),
                      n).count([(i, j) for _ln, i, j, _t, _v in tagged])
    boundary, constraints, node_values = [], [], {}
    for (ln, i, j, tag, value), count in zip(tagged, counts):
        if count == 2:
            if value is None:
                raise MeshFileError("interior edge tagged without value", ln)
            constraints.append((i, j, value))
        else:
            boundary.append((i, j, tag))
            if value is not None:
                node_values[i] = value
                node_values[j] = value
    try:
        return Triangulation(np.asarray(nodes), elements, boundary,
                             constraints, node_values)
    except GenerationError as exc:
        raise MeshFileError("mesh validation failed: %s" % exc, 1) from exc


def write_node_values_csv(mesh, values, path, comments=()):
    """CSV dump of nodal values: header 'x,y,value'."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write("# %s\n" % line)
        fh.write("x,y,value\n")
        for (x, y), v in zip(mesh.nodes, values):
            fh.write("%.17g,%.17g,%.17g\n" % (x, y, v))


# -- trochoid boundary (curved-domain fixture) --------------------------------


def trochoid_point(t, sigma=0.9):
    """Boundary curve of the curved test domain (tilted centered trochoid)."""
    t = np.asarray(t, dtype=float)
    scale = (26.0 + 7.0 * (1.0 - np.sin(2.0 * t) ** 9)) / (40.0 * (2.0 + sigma) * np.sqrt(2.0))
    u = 2.0 * np.cos(t) - sigma * np.cos(2.0 * t)
    v = 2.0 * np.sin(t) - sigma * np.sin(2.0 * t)
    x = scale * (u - v)
    y = scale * (u + v)
    return np.stack([x, y], axis=-1)
