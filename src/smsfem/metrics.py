"""Error and oscillation measures for the computed approximations:
nodal errors, convective-derivative residuals, layer oscillation and
smearing indicators, and log-log rate fits."""

import math
import weakref

import numpy as np

from . import assembly


class ArgumentError(ValueError):
    pass


NOT_CROSSED = float("nan")


# ---------------------------------------------------------------------------
# P1 point evaluation

_BOXES = weakref.WeakKeyDictionary()
TOL = 1e-12         # barycentric coordinates >= -TOL locate a point
_U = 2.0 ** -53     # unit roundoff


def _boxes(mesh):
    """Vertex a, edges ab, ac and det of each element, the widened boxes
    of _locate, the slivers, and the bucket grid; once per mesh.

    Coordinates run along the first axis.  The grid is anchored at the
    lowest box corner.  Each box is registered in every cell it overlaps,
    from floor((low - origin) / cell) to floor((high - origin) / cell),
    taken by truncation as both are >= 0.  That rounded map is monotone,
    so a point inside a box lies in one of the box's cells.  L boxes of
    widths w and heights v overlap about sum (w / cell + 1) (v / cell + 1)
    cells, and at most sum (w / cell + 2) (v / cell + 2); the square cells
    are as wide as makes the first sum 2 L, which keeps the second below
    6 L, but no narrower than a square of the span's area divided by L,
    so there are at most L cells.
    """
    if mesh not in _BOXES:
        p = np.take(mesh.nodes.T, mesh.elements.T, axis=1)   # (2, 3, K)
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
        grow = (s * np.minimum(2.0, 2.0 * TOL + 64.0 * _U * kappa)
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
        _BOXES[mesh] = (a, ab, ac, det, np.flatnonzero(sliver), live,
                        (low, high), (origin, cell, shape, ptr, members))
    return _BOXES[mesh]


def _runs(starts, lengths):
    """start, start + 1, ..., start + n - 1 for each start and length n,
    concatenated."""
    return (np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            + np.arange(lengths.sum()))


def _locate(mesh, points):
    """For each point, the lowest-index element whose barycentric
    coordinates are all >= -TOL, and those coordinates clipped to [0, 1].

    Only elements whose widened bounding box holds the point are tested;
    no other can pass.  With u = 2^-53 the computed numerators of l1, l2
    and det err by at most 8u s |p - a| and 8u s^2 (s the element's longer
    box side, |p - a| the max-norm distance to vertex a).  A passing
    element has computed |l1| + |l2| <= 1 + 5 TOL, so while kappa = 2 s^2
    / |det| <= 1e14 the exact sum is below 1.2 and |p - a| < 1.2 s.  Then
    l1 and l2 err by at most 9.6 u kappa + 1.2 u and l0 = 1 - l1 - l2 by
    19.2 u kappa + 6 u, below 22 u kappa as kappa >= 2.  The exact
    coordinates of a passing element are >= -(TOL + 22 u kappa); they sum
    to 1 with at most two negative, so the point lies within 2 s (TOL +
    22 u kappa) of the box.  Boxes are widened by s min(2, 2 TOL + 64 u
    kappa), at most the 2 s that |p - a| < 1.2 s allows, plus 2u times
    their largest coordinate for the rounding of the widened edges.
    Slivers (kappa > 1e14) are tested against every point.  Non-finite
    points are tested against none, so they are reported outside.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    a, ab, ac, det, slivers, live, (low, high), grid = _boxes(mesh)
    origin, cell, shape, ptr, members = grid
    n = len(pts)
    finite = np.flatnonzero(np.isfinite(pts).all(axis=1))
    q = (pts[finite] - origin) / cell
    ok = ((q >= 0) & (q < shape)).all(axis=1)
    ij = q[ok].astype(np.int64)
    cells = np.full(n, shape.prod())              # an empty cell
    cells[finite[ok]] = ij[:, 1] * shape[0] + ij[:, 0]
    # the boxes of each point's cell that hold it, then each finite point
    # with every sliver
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
    # the passing pair of each point with the lowest element index
    hit = np.flatnonzero((lam >= -TOL).all(axis=0))
    hit = hit[np.lexsort((k[hit], owner[hit]))]
    found, first = np.unique(owner[hit], return_index=True)
    if len(found) < n:
        raise ArgumentError("point (%g, %g) outside the mesh" % tuple(
            pts[np.setdiff1d(np.arange(n), found)[0]]))
    return k[hit[first]], np.clip(lam.T[hit[first]], 0.0, 1.0)


def evaluate_p1(mesh, u, points):
    """Evaluate the P1 function with nodal values u at the given points."""
    k, lam = _locate(mesh, points)
    # np.vecdot rounds as the 1-D np.dot of each pair
    return np.vecdot(lam, np.asarray(u, dtype=float)[mesh.elements[k]])


def element_gradients(mesh, u):
    """Constant gradient of the P1 function on each element."""
    _area, grads, _p = assembly.element_geometry(mesh)
    u = np.asarray(u, dtype=float)
    return np.einsum("kv,kvd->kd", u[mesh.elements], grads)


# ---------------------------------------------------------------------------
# nodal and residual errors


def linf_nodal_error(mesh, u, exact, nodes=None):
    """max |u(x_i) - exact(x_i)| over the given node subset (default all)."""
    if nodes is None:
        nodes = np.arange(mesh.n_nodes)
    nodes = np.asarray(nodes, dtype=int)
    if nodes.size == 0:
        raise ArgumentError("empty node subset")
    ex = assembly.scalar_field(exact).array(mesh.nodes[nodes])
    return float(np.abs(np.asarray(u)[nodes] - ex).max())


def _elements(region, n_elements):
    if region is None:
        return np.arange(n_elements)
    return np.asarray(list(region), dtype=np.int64)


def convective_residual_l2(mesh, u, spec, region):
    """||b . grad(w) + c w - f||_{L^2} over the given element set.

    Mid-edge quadrature per element (exact for the P1 residual whenever
    b, c and f are at most linear on each element), summed in element
    order.
    """
    elements = _elements(region, mesh.n_elements)
    rule = assembly.midedge_rule(mesh, spec, elements)
    uk = np.asarray(u, dtype=float)[mesh.elements[elements]]
    grad = rule.gradient(uk)
    uq = uk @ assembly._MIDEDGE_PHI
    r = np.vecdot(rule.b, grad[:, None, :]) + rule.c * uq - rule.f
    return math.sqrt(assembly.ordered_sum(rule.area[:, None] / 3.0 * r * r))


def h1_seminorm_error(mesh, u, exact_gradient, region=None):
    """Elementwise mid-edge quadrature of |grad(w) - grad(u)|^2."""
    elements = _elements(region, mesh.n_elements)
    rule = assembly.midedge_rule(mesh, elements=elements)
    uk = np.asarray(u, dtype=float)[mesh.elements[elements]]
    d = (rule.gradient(uk)[:, None, :]
         - assembly.vector_field(exact_gradient).array(rule.points))
    return math.sqrt(assembly.ordered_sum(
        rule.area[:, None] / 3.0 * np.vecdot(d, d)))


# ---------------------------------------------------------------------------
# layer oscillation and smearing measures (unit-square problems)


def osc_smear(mesh, u, n=64):
    """Oscillation and smearing along the vertical midline.

    osc = max_y {w(0.5, y) - w(0.5, 0.5)} and smear = max_y {w(0.5, 0.5)
    - w(0.5, y)} over y in {1/n, ..., (n-1)/n}, n >= 2.
    """
    if not n >= 2:
        raise ArgumentError("osc_smear needs n >= 2, got %r" % (n,))
    ys = np.arange(1, n) / n
    points = np.full((len(ys) + 1, 2), 0.5)
    points[:-1, 1] = ys
    vals = evaluate_p1(mesh, u, points)
    vals, center = vals[:-1], vals[-1]
    return float((vals - center).max()), float((center - vals).max())


def osc_para_exp(mesh, u):
    """Barycenter-gradient oscillation measures for the parabolic layers
    along y = 0 and y = 1 and the exponential layer at x = 1.

    osc_para(2) = max{ max_{O2} -dw/dy, max_{O3} dw/dy } with
    O2 = (0,0.9)x(0,0.1], O3 = (0,0.9)x[0.9,1); osc_exp = max_{O4} dw/dx
    with O4 = [0.9,1)x(0.1,0.9).
    """
    grads = element_gradients(mesh, u)
    bary = mesh.nodes[mesh.elements].mean(axis=1)
    x, y = bary[:, 0], bary[:, 1]
    in2 = (x > 0) & (x < 0.9) & (y > 0) & (y <= 0.1)
    in3 = (x > 0) & (x < 0.9) & (y >= 0.9) & (y < 1)
    in4 = (x >= 0.9) & (x < 1) & (y > 0.1) & (y < 0.9)
    if not (in2.any() and in3.any() and in4.any()):
        raise ArgumentError("mesh too coarse for the layer regions")
    osc_para2 = max(float((-grads[in2, 1]).max()), float(grads[in3, 1].max()))
    osc_exp = float(grads[in4, 0].max())
    return osc_para2, osc_exp


def osc_int_smear_int(mesh, u, step=1.0 / 512.0):
    """Interior-layer oscillation over O1 = {x <= 0.5, y >= 0.1} and layer
    thickness on the line y = 0.25.

    osc_int = sqrt(sum over mesh nodes in O1 of min{0,w}^2 + max{0,w-1}^2);
    smear_int = x2 - x1 where x1, x2 are the first points with
    w(x, 0.25) >= 0.1 and >= 0.9 (linear interpolation between samples).
    Returns NOT_CROSSED for smear_int if a threshold is never reached.
    The sample step must be finite and in (0, 1].
    """
    if not (math.isfinite(step) and 0.0 < step <= 1.0):
        raise ArgumentError("osc_int_smear_int needs a finite step in "
                            "(0, 1], got %r" % (step,))
    u = np.asarray(u, dtype=float)
    in1 = (mesh.nodes[:, 0] <= 0.5) & (mesh.nodes[:, 1] >= 0.1)
    w = u[in1]
    osc_int = math.sqrt(float((np.minimum(0.0, w) ** 2).sum()
                              + (np.maximum(0.0, w - 1.0) ** 2).sum()))
    xs = np.arange(0.0, 1.0 + 0.5 * step, step)
    vals = evaluate_p1(mesh, u, np.column_stack([xs, np.full(len(xs), 0.25)]))

    def first_crossing(threshold):
        idx = np.nonzero(vals >= threshold)[0]
        if idx.size == 0:
            return NOT_CROSSED
        i = int(idx[0])
        if i == 0:
            return float(xs[0])
        frac = (threshold - vals[i - 1]) / (vals[i] - vals[i - 1])
        return float(xs[i - 1] + frac * step)

    x1, x2 = first_crossing(0.1), first_crossing(0.9)
    smear_int = (NOT_CROSSED if math.isnan(x1) or math.isnan(x2)
                 else x2 - x1)
    return osc_int, smear_int


def over_undershoot(u):
    """Clipped nodal extrema for solutions with target range [0, 1]:
    (max{0, max w - 1}, min{0, min w})."""
    u = np.asarray(u, dtype=float)
    return (max(0.0, float(u.max()) - 1.0), min(0.0, float(u.min())))


def fit_rate(pairs):
    """Least-squares slope of log(error) against log(h)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ArgumentError("need at least 3 (h, error) pairs")
    h = np.array([p[0] for p in pairs], dtype=float)
    e = np.array([p[1] for p in pairs], dtype=float)
    if (h <= 0).any() or (e <= 0).any():
        raise ArgumentError("(h, error) pairs must be positive")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])
