"""Geometry of the wind field: boundary classification, the element sets
B_h, Omega_h+ and Omega_hat, the constraint nodes N_delta, and the
uniqueness diagnostics/remediation machinery.
"""

from dataclasses import dataclass, field

import numpy as np

from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .meshes import red_refine, _mask

CHARACTERISTIC_RTOL = 1e-12
PARALLEL_RTOL = 1e-10


class ValidationError(ValueError):
    pass


class UpwindNotFound(Exception):
    """No element contains x - lambda*b for small lambda > 0."""


class RemediationError(RuntimeError):
    """Defects persisted after the maximum number of refinement rounds."""


POINT_CHUNK = 4096   # points per evaluation of a point function


def array_form(fn, point_shape=(2,), shape=()):
    """fn on (...) + point_shape points, values (...) + shape, chunk by
    chunk: by fn's own array form `fn.array` if it has one, else one call
    per point.  Full-size temporaries of a formula are mapped, and freeing
    them raised glibc's mmap threshold: ex1's paper run kept 100 MB more."""
    array = getattr(fn, "array", None) or (
        lambda chunk: np.array([fn(q) for q in chunk], dtype=float))

    def in_chunks(points):
        points = np.asarray(points, dtype=float)
        lead = points.shape[:points.ndim - len(point_shape)]
        flat = points.reshape((-1,) + point_shape)
        values = np.empty((len(flat),) + shape)
        for i in range(0, len(flat), POINT_CHUNK):
            values[i:i + POINT_CHUNK] = array(flat[i:i + POINT_CHUNK])
        return values.reshape(lead + shape)

    return in_chunks


def vector_field(b):
    """Wind as a callable point -> (2,) array, with the array form
    `array` of (..., 2) points -> (..., 2) (see `array_form`); a constant
    keeps `constant` for the ray casting and is broadcast, not called."""
    if callable(b):
        fn = lambda p: np.asarray(b(np.asarray(p, dtype=float)), dtype=float)
        fn.array = array_form(b, shape=(2,))
        return fn
    fn = lambda p: fn.constant
    fn.constant = np.asarray(b, dtype=float)
    fn.array = lambda points: np.full(
        np.shape(points)[:-1] + fn.constant.shape, fn.constant)
    return fn


@dataclass
class BoundaryClassification:
    """Per-boundary-edge classification against the wind."""

    inflow: list          # boundary-edge indices with b.n < 0
    characteristic: list  # |b.n| <= tol
    outflow: list         # b.n > 0
    gamma_d_0plus: list   # node pairs (i, j) of (outflow u char) n Dirichlet,
                          # plus interior constraint edges (both-side walls)

    def gamma_d_0plus_nodes(self):
        out = set()
        for i, j in self.gamma_d_0plus:
            out.add(i)
            out.add(j)
        return out


def classify_boundary(mesh, b):
    """Classify boundary edges by the sign of b.n at the edge midpoint.

    Raises ValidationError if some inflow edge is not Dirichlet
    (Gamma- must be contained in Gamma_D).
    """
    bf = vector_field(getattr(b, "b", b))
    t, x = mesh.topology, mesh.nodes
    pairs = np.array([(i, j) for i, j, _tag in mesh.boundary_edges],
                     dtype=np.int64).reshape(-1, 2)
    if np.any(t.count(pairs) != 1):
        raise ValidationError("a boundary edge is not the side of one element")
    i, j = pairs.T
    opp = mesh.elements[t.first[t.find(pairs)] // 3].sum(axis=1) - i - j
    bmid = bf.array(0.5 * (x[i] + x[j]))
    # np.vecdot rounds as np.dot and np.linalg.norm on one edge
    e = x[j] - x[i]
    n = np.column_stack([-e[:, 1], e[:, 0]])
    n[np.vecdot(n, x[opp] - x[i]) > 0] *= -1.0  # outward
    n /= np.sqrt(np.vecdot(n, n))[:, None]
    bn = np.vecdot(bmid, n)
    tol = CHARACTERISTIC_RTOL * np.sqrt(np.vecdot(bmid, bmid))
    charac = np.abs(bn) <= tol
    inflow = np.flatnonzero(~charac & (bn < 0)).tolist()
    for k in inflow:
        if mesh.boundary_edges[k][2] != "D":
            raise ValidationError("inflow boundary edge (%d,%d) is not "
                                  "Dirichlet" % tuple(pairs[k]))
    wall = bn >= -tol
    gplus = [(i, j) for (i, j, tag), w in zip(mesh.boundary_edges, wall)
             if tag == "D" and w]
    gplus += [(i, j) for i, j, _v in mesh.constraint_edges]
    return BoundaryClassification(
        inflow, np.flatnonzero(charac).tolist(),
        np.flatnonzero(~charac & ~(bn < 0)).tolist(), gplus)


def upwind_element(mesh, node, b):
    """Element containing x_i - lambda*b for all small lambda > 0.

    When the ray runs along an edge, the lowest-index adjacent element
    is selected.  Raises UpwindNotFound when no element qualifies.
    """
    bvec = np.asarray(b, dtype=float)
    nb = np.linalg.norm(bvec)
    if nb == 0.0:
        raise ValidationError("wind vanishes at node %d" % node)
    d = -bvec / nb
    x = mesh.nodes[node]
    hits = []
    t = mesh.topology
    for k in t.node_elements[t.node_ptr[node]:t.node_ptr[node + 1]].tolist():
        tri = mesh.elements[k]
        others = [v for v in tri if v != node]
        e1 = mesh.nodes[others[0]] - x
        e2 = mesh.nodes[others[1]] - x
        det = e1[0] * e2[1] - e1[1] * e2[0]
        if det == 0.0:
            continue
        # d = alpha*e1 + beta*e2; inside the cone iff alpha, beta >= 0
        alpha = (d[0] * e2[1] - d[1] * e2[0]) / det
        beta = (e1[0] * d[1] - e1[1] * d[0]) / det
        scale = abs(alpha) + abs(beta) + 1.0 / min(
            np.linalg.norm(e1), np.linalg.norm(e2))
        tol = 1e-12 * scale
        if alpha >= -tol and beta >= -tol:
            hits.append(k)
    if not hits:
        raise UpwindNotFound("no upwind element at node %d" % node)
    return min(hits)


@dataclass
class OmegaPlusDecomposition:
    omega_plus: list
    omega_hat: list
    n_delta: list
    b_h: list
    removed_upwind: list = field(default_factory=list)

    def omega_plus_set(self):
        return set(self.omega_plus)


def _pinned_nodes(mesh):
    """Mask of the nodes whose value is data: Dirichlet (constraint edges
    included) or prescribed by node_values."""
    return _mask(mesh.n_nodes,
                 mesh.dirichlet_node_set() | set(mesh.node_values))


def _interior_nodes_of(mesh, element_set):
    """Free nodes whose incident elements all lie in element_set.

    Pinned nodes (Dirichlet, constraint edge, prescribed value) are
    excluded: their dof is determined by data.  Free Neumann-wall nodes
    are included; when fully surrounded by Omega_h+ they have an empty
    residual row and a relaxed Galerkin row, so without an Omega_hat
    anchor nothing determines them.
    """
    excluded = _pinned_nodes(mesh)
    # a node of an element outside the set is not interior to it
    excluded[mesh.elements[~_mask(mesh.n_elements, element_set)]] = True
    return np.flatnonzero((np.diff(mesh.topology.node_ptr) > 0)
                          & ~excluded).tolist()


def _extract_n_delta(mesh, omega_plus_set):
    """Vertices of partial Omega_h+ that are not Dirichlet nodes."""
    plus = _mask(mesh.n_elements, omega_plus_set)
    on_bdry = _mask(mesh.n_nodes, mesh.boundary_node_set())
    on_bdry[mesh.elements[~plus]] = True
    keep = on_bdry & ~_mask(mesh.n_nodes, mesh.dirichlet_node_set())
    return np.intersect1d(mesh.elements[plus], np.flatnonzero(keep)).tolist()


def decompose(mesh, b):
    """The decomposition of mesh for the wind b: `classify_boundary`, then
    `build_omega_plus`."""
    return build_omega_plus(mesh, classify_boundary(mesh, b), b)


def build_omega_plus(mesh, classification, b):
    """B_h = elements meeting Gamma_D^{0+}; remove the upwind triangle of
    every node interior to B_h; extract N_delta."""
    b_h, bf = band_elements(mesh, classification), vector_field(b)
    winds = [(v, bf(mesh.nodes[v]))
             for v in _interior_nodes_of(mesh, set(b_h))]
    return _remove_upwind(mesh, set(b_h), b_h, winds)


def band_elements(mesh, classification):
    """B_h: the elements with a vertex on Gamma_D^{0+}."""
    gnodes = list(classification.gamma_d_0plus_nodes())
    return np.flatnonzero(np.isin(mesh.elements, gnodes).any(axis=1)).tolist()


def _remove_upwind(mesh, plus, b_h, winds, removed=()):
    """Omega_h+ = plus less the upwind element of each node v in the
    (v, wind at v) pairs of winds, and N_delta."""
    removed = list(removed)
    for v, bv in winds:
        up = upwind_element(mesh, v, bv)
        if up in plus:
            plus.discard(up)
            removed.append(up)
    omega_hat = np.flatnonzero(~_mask(mesh.n_elements, plus)).tolist()
    return OmegaPlusDecomposition(sorted(plus), omega_hat,
                                  _extract_n_delta(mesh, plus),
                                  b_h, sorted(removed))


INSET_SAMPLES = 800   # sample points per side of the inset square


def build_omega_plus_shrunk(mesh, b, delta):
    """Omega_h+ = elements holding a sample of the outflow part (b.n >= 0,
    n the outward normal of the inset square) of the boundary of the
    mesh's bounding box shrunk by delta.  Used for winds tangent to the
    physical boundary."""
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    if not delta > 0 or np.any(lo + delta >= hi - delta):
        raise ValidationError("inset delta empties the domain")
    bf = vector_field(b)
    (ax, ay), (cx, cy) = lo + delta, hi - delta
    # right, top, left and bottom: start, end and outward normal
    p0 = np.array([[cx, ay], [ax, cy], [ax, ay], [ax, ay]])
    p1 = np.array([[cx, cy], [cx, cy], [ax, cy], [cx, ay]])
    n = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    ts = (np.arange(INSET_SAMPLES) + 0.5) / INSET_SAMPLES
    seg = p0[:, None] + ts[:, None] * (p1 - p0)[:, None]
    keep = np.vecdot(bf.array(seg), n[:, None]) >= 0.0
    if not keep.any():
        raise ValidationError("outflow portion of the inset square is empty")
    omega_plus = set(mesh.locate(seg[keep])[1].tolist())
    # windless nodes have no upwind element to remove
    winds = [(v, bf(mesh.nodes[v]))
             for v in _interior_nodes_of(mesh, omega_plus)]
    return _remove_upwind(mesh, omega_plus, sorted(omega_plus),
                          [w for w in winds if np.linalg.norm(w[1]) != 0.0])


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class DiagnosticsReport:
    components: list            # element lists, largest first
    isolated_components: list   # all but the largest component
    parallel_edges: list        # (element, (i, j)) downwind with edge || b
    downwind: list              # Omega_hat elements downwind of Omega_h+

    def has_defects(self):
        return bool(self.isolated_components) or bool(self.parallel_edges)

    def to_text(self):
        lines = ["components: %d" % len(self.components)]
        for comp in self.components:
            lines.append("  size %d: %s" % (len(comp), " ".join(map(str, comp))))
        lines.append("isolated components: %d" % len(self.isolated_components))
        for comp in self.isolated_components:
            lines.append("  %s" % " ".join(map(str, comp)))
        lines.append("parallel downwind edges: %d" % len(self.parallel_edges))
        for k, (i, j) in self.parallel_edges:
            lines.append("  element %d edge (%d,%d)" % (k, i, j))
        lines.append("downwind elements: %s" % " ".join(map(str, self.downwind)))
        return "\n".join(lines) + "\n"


# (ray or segment x triangle) pairs screened or clipped at once: keeps
# each pair temporary near 10^6 entries counting both coordinates
RAY_CLIP_PAIRS = 500_000


def _clip_rays(x, d, tri, interval=(1e-12, np.inf), tol=1e-14):
    """Clip the lines x + t*d, t in interval, against the triangles.

    x, d: (..., 2) and tri: (..., 3, 2), positively oriented, broadcast.
    An edge parallel to the line (|n.d| < 1e-300) cuts all when x is out
    by tol * (|n| + 1).  Returns the hit mask and entry and exit values.
    np.vecdot rounds as np.dot on one pair, and lo (hi) takes a larger
    (smaller) crossing as max (min) does, so every value matches the
    one-pair clip, which may stop early on lo > hi: lo only grows.
    """
    shape = np.broadcast_shapes(x.shape[:-1], d.shape[:-1], tri.shape[:-2])
    lo, hi = np.full(shape, interval[0]), np.full(shape, interval[1])
    hit = np.ones(shape, dtype=bool)
    for a in range(3):
        p = tri[..., a, :]
        e = tri[..., (a + 1) % 3, :] - p
        n = np.stack([-e[..., 1], e[..., 0]], axis=-1)  # inward (ccw)
        num = np.vecdot(n, x - p)
        den = np.vecdot(n, d)
        hit &= ~((np.abs(den) < 1e-300)
                 & (num < -tol * (np.sqrt(np.vecdot(n, n)) + 1.0)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_cross = -num / den
        np.copyto(lo, t_cross, where=(den >= 1e-300) & (t_cross > lo))
        np.copyto(hi, t_cross, where=(den <= -1e-300) & (t_cross < hi))
    return hit & (lo <= hi), lo, hi


def _winds(bf, points):
    """The wind at each of the (n, 2) points: a constant one broadcast,
    else by `array_form`."""
    constant = getattr(bf, "constant", None)
    if constant is not None:
        return np.broadcast_to(constant, points.shape)
    return array_form(bf, shape=(2,))(points)


def upwind_hits(mesh, decomposition, elements, bf):
    """Clip the upwind ray from each element's barycenter against Omega_h+.

    Returns (downwind, first): downwind[i] says whether the ray from
    elements[i] meets Omega_h+, and first[i] is the Omega_h+ element it
    enters first (the earliest in decomposition.omega_plus on ties), or
    -1.  A zero wind casts no ray.

    Only pairs whose triangle comes within its reach of the ray, beside
    it and ahead of its origin, are clipped; no other pair can hit.  With
    u = 2^-53 and L the largest node coordinate, the computed num and den
    of an edge err by at most 5u |n| |x - p| and 4u |n|, so a hit's point
    x + lo*d lies within 27u L of each edge line, or within
    2e-14 (1 + 1/|e|) of a parallel edge (|n| = |e|).  Moving each edge
    out by eps lowers a barycentric coordinate by at most eps |e| / 2A;
    with two negative coordinates the point stays within R + 4 eps R^2/A
    of the barycentre, R its farthest vertex.  The barycentre, R and the
    screen's values err by a few u L, so eps = 2e-14 (1 + 1/|e|_min)
    + 1e-13 L and the factor 8 R^2/A cover every term while
    A >= 1e-8 R^2, where the computed area is within 1e-7 relative;
    flatter triangles are always clipped.
    """
    plus = np.asarray(decomposition.omega_plus, dtype=np.int64)
    x = mesh.nodes[mesh.elements[elements]].mean(axis=1)
    d = np.zeros_like(x)
    b = _winds(bf, x)
    nb = np.sqrt(np.vecdot(b, b))
    lit = nb != 0.0
    d[lit] = -b[lit] / nb[lit, None]
    downwind = np.zeros(len(x), dtype=bool)
    first = np.full(len(x), -1, dtype=np.int64)
    if plus.size == 0:
        return downwind, first
    tri = mesh.nodes[mesh.elements[plus]]
    centre = tri.mean(axis=1)
    e, v = np.roll(tri, -1, axis=1) - tri, tri - centre[:, None]
    radius = np.sqrt(np.vecdot(v, v)).max(axis=1)
    area = 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    eps = (2e-14 * (1.0 + 1.0 / np.sqrt(np.vecdot(e, e)).min(axis=1))
           + 1e-13 * np.abs(mesh.nodes).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = radius + np.where(area >= 1e-8 * radius ** 2,
                                  eps * (1.0 + 8.0 * radius ** 2 / area),
                                  np.inf)
    # across each ray (d x c - d x x), then along it from x: d.(c - x)
    (d0, d1), (c0, c1), (x0, x1) = d.T[..., None], centre.T, x.T[..., None]
    rays = np.flatnonzero(lit)
    if getattr(bf, "constant", None) is not None and rays.size:
        # one direction: d x c - d x x falls as d x x grows, so the rays
        # within each triangle's reach are a run of the rays sorted by
        # d x x, inside the run within twice the reach
        across = d0[rays[0]] * c1 - d1[rays[0]] * c0
        offset = (d0 * x1 - d1 * x0)[:, 0]
        by = rays[np.argsort(offset[rays], kind="stable")]
        lo = np.searchsorted(offset[by], across - 2.0 * reach)
        hi = np.searchsorted(offset[by], across + 2.0 * reach, side="right")
        jj = np.repeat(np.arange(plus.size), hi - lo)
        ii = by[np.arange(len(jj)) - np.repeat(np.cumsum(hi - lo) - hi,
                                               hi - lo)]
        near = np.abs(across[jj] - offset[ii]) <= reach[jj]
        ii, jj = ii[near], jj[near]
    else:
        step = max(1, RAY_CLIP_PAIRS // plus.size)
        near = [np.zeros((2, 0), dtype=np.int64)]
        for s in range(0, len(rays), step):
            i = rays[s:s + step]
            perp = d0[i] * c1 - d1[i] * c0 - (d0[i] * x1[i] - d1[i] * x0[i])
            r, j = np.nonzero(np.abs(perp) <= reach)
            near.append(np.stack([i[r], j]))
        ii, jj = np.concatenate(near, axis=1)
    ahead = np.vecdot(d[ii], centre[jj] - x[ii]) >= -reach[jj]
    ii, jj = ii[ahead], jj[ahead]
    hit, entry, _exit = _clip_rays(x[ii], d[ii], tri[jj])
    ii, jj, entry = ii[hit], jj[hit], entry[hit]
    downwind[ii] = True
    # the first hit: least entry, then earliest in omega_plus
    order = np.lexsort((jj, entry, ii))
    at = order[np.unique(ii[order], return_index=True)[1]]
    first[ii[at]] = np.where(entry[at] < np.inf, plus[jj[at]], -1)
    return downwind, first


def diagnose(decomposition, mesh, b):
    """Connectivity of Omega_hat and wind-parallel downwind edges."""
    bf = vector_field(b)
    hat = np.asarray(decomposition.omega_hat, dtype=np.int64)
    in_hat = _mask(mesh.n_elements, hat)
    # connected components under shared-edge adjacency
    t = mesh.topology
    ptr = t.edge_ptr[:-1][t.counts == 2]
    left, right = t.edge_elements[ptr], t.edge_elements[ptr + 1]
    inner = in_hat[left] & in_hat[right]
    graph = coo_matrix((np.ones(inner.sum()), (left[inner], right[inner])),
                       shape=(mesh.n_elements,) * 2)
    label = connected_components(graph, directed=False)[1]
    members = hat[np.lexsort((hat, label[hat]))]
    cut = np.flatnonzero(np.diff(label[members])) + 1
    components = sorted((g.tolist() for g in np.split(members, cut)
                         if g.size), key=lambda g: (-len(g), g))
    # a component carrying any prescribed data (Dirichlet or embedded
    # values) is pinned through it along characteristics; only fully
    # data-free components admit a convective kernel
    pinned = _pinned_nodes(mesh)
    touches = pinned[mesh.elements].any(axis=1)
    isolated = [comp for comp in components if not touches[comp].any()]

    is_downwind = upwind_hits(mesh, decomposition, hat, bf)[0]
    # parallel[r, a]: the side (i, j) opposite vertex a of hat[r], i and j
    # in element order, is parallel to the wind at the barycentre
    others = np.array([[1, 2], [0, 2], [0, 1]])
    tri = mesh.elements[hat]
    corner = mesh.nodes[tri]
    wind = _winds(bf, corner.mean(axis=1))
    side = corner[:, others[:, 1]] - corner[:, others[:, 0]]
    cross = wind[:, None, 0] * side[..., 1] - wind[:, None, 1] * side[..., 0]
    norm_b = np.sqrt(np.vecdot(wind, wind))[:, None]
    parallel = (np.abs(cross)
                <= PARALLEL_RTOL * norm_b * np.sqrt(np.vecdot(side, side)))
    # kernel candidate: the basis function of the vertex opposite a
    # wind-parallel edge.  It needs a dof (not pinned) and its convective
    # derivative must vanish on every element of Omega_hat it touches,
    # i.e. each such element must have its opposite edge parallel to the
    # wind as well
    bad = pinned.copy()
    bad[tri[~parallel]] = True
    rows, a = np.nonzero(is_downwind[:, None] & parallel & ~bad[tri])
    ends = np.sort(tri[rows[:, None], others[a]], axis=1)
    edges = sorted((k, (i, j)) for k, i, j in zip(
        hat[rows].tolist(), *ends.T.tolist()))
    return DiagnosticsReport(components, isolated, edges,
                             hat[is_downwind].tolist())


# ---------------------------------------------------------------------------
# remediation


def absorb_isolated(mesh, decomposition, report, b):
    """Remove isolated components of Omega_hat by moving their elements
    into Omega_h+ and relaxing the equations at their boundary nodes.

    The alternative to upwind refinement; the right remedy when the
    defect has no refinable Omega_h+ element upwind (e.g. a pocket cut
    off by an embedded layer next to a Neumann wall).
    """
    if not report.isolated_components:
        return decomposition
    bf = vector_field(b)
    plus = decomposition.omega_plus_set()
    for comp in report.isolated_components:
        plus |= set(comp)
    # enlargement can strip free nodes of all Omega_hat support; restore
    # an anchor by removing their upwind elements, as in build_omega_plus
    winds = [(v, bf(mesh.nodes[v])) for v in _interior_nodes_of(mesh, plus)]
    return _remove_upwind(mesh, plus, decomposition.b_h, winds,
                          decomposition.removed_upwind)


def _refinement_targets(mesh, decomposition, report, bf):
    """Omega_h+ elements upwind of each defect element."""
    plus = decomposition.omega_plus_set()
    defects = [(k, False) for comp in report.isolated_components
               for k in comp]
    defects += [(k, True) for k, _e in report.parallel_edges]
    elements = np.array([k for k, _p in defects], dtype=np.int64)
    # the Omega_h+ element each defect's upwind ray enters first, or -1
    first = upwind_hits(mesh, decomposition, elements, bf)[1].tolist()
    t = mesh.topology
    tri = mesh.elements[elements]
    sides = t.find(np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1))
    ptr, around = t.edge_ptr.tolist(), t.edge_elements.tolist()
    targets = set()
    for (k, is_parallel), hit, edges in zip(defects, first,
                                            sides.reshape(-1, 3).tolist()):
        local = set()
        a, bb, c = mesh.elements[k]
        bary = mesh.nodes[[a, bb, c]].mean(axis=0)
        bvec = bf(bary)
        # the other elements on each side, in increasing order
        adjacent = [[e for e in around[ptr[s]:ptr[s + 1]] if e != k]
                    for s in edges]
        for (i, j), adj in zip(((a, bb), (bb, c), (c, a)), adjacent):
            if not adj or adj[0] not in plus:
                continue
            e = mesh.nodes[j] - mesh.nodes[i]
            n = np.array([-e[1], e[0]])
            opp = [v for v in (a, bb, c) if v not in (i, j)][0]
            if np.dot(n, mesh.nodes[opp] - mesh.nodes[i]) > 0:
                n = -n  # outward from the defect element
            if np.dot(bvec, n) <= 1e-12 * np.linalg.norm(bvec) * np.linalg.norm(n):
                local.add(adj[0])
        if is_parallel and hit >= 0:
            local.add(hit)
        if not local:
            # fallback: every Omega_h+ edge-neighbor, else the first ray hit
            local = {e for adj in adjacent for e in adj if e in plus}
            if not local and hit >= 0:
                local.add(hit)
        targets |= local
    return sorted(targets)


def remediate(mesh, decomposition, report, b, max_rounds=2):
    """Red-refine the Omega_h+ elements upwind of each defect; rebuild the
    decomposition and repeat at most once.  Returns the repaired mesh."""
    bf = vector_field(b)
    if not report.has_defects():
        return mesh
    current = mesh
    for _ in range(max_rounds):
        targets = _refinement_targets(current, decomposition, report, bf)
        if not targets:
            raise RemediationError("no refinable upwind elements found")
        current = red_refine(current, targets)
        decomposition = decompose(current, b)
        report = diagnose(decomposition, current, b)
        if not report.has_defects():
            return current
    raise RemediationError(
        "uniqueness defects persisted after %d refinement rounds" % max_rounds)
