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


def _boxes(mesh):
    """Vertex a, edges ab, ac and det of each element, and the widened
    boxes of _locate sorted by left edge, slivers first; once per mesh."""
    if mesh not in _BOXES:
        p = mesh.nodes[mesh.elements.T]               # (3, K, 2)
        a, ab, ac = p[0], p[1] - p[0], p[2] - p[0]
        det = ab[:, 0] * ac[:, 1] - ac[:, 0] * ab[:, 1]
        low, high = p.min(axis=0), p.max(axis=0)
        s = np.maximum(*(high - low).T)[:, None]
        sliver = ~(2.0 * s ** 2 <= 1e14 * np.abs(det)[:, None])
        low = np.where(sliver, -np.inf, low - 2.0 * s)
        high = np.where(sliver, np.inf, high + 2.0 * s)
        order = np.argsort(low[:, 0], kind="stable")
        low, high = low[order].T, high[order].T
        n_sliver = int(sliver.sum())
        wide = (high[0] - low[0])[n_sliver:].max(initial=0.0)
        _BOXES[mesh] = a, ab, ac, det, order, low, high, n_sliver, wide
    return _BOXES[mesh]


def _locate(mesh, points, tol=1e-12):
    """For each point, the lowest-index element whose barycentric
    coordinates are all >= -tol, and those coordinates clipped to [0, 1].

    Only elements whose bounding box, widened by 2s (s its longer side),
    holds the point are tested; no other can pass.  With u = 2^-53 the
    computed numerators of l1, l2 and det err by at most 8u s |p - a| and
    8u s^2 (|p - a| the max-norm distance to vertex a).  A passing element
    has computed |l1| + |l2| <= 1 + 5 tol, so while kappa = 2 s^2 / |det|
    <= 1e14 the exact sum is below 1.2 and |p - a| < 1.2 s.  Slivers
    (larger kappa) are tested against every point.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    # slivers first, then per point a window of widened left edges <= x
    a, ab, ac, det, order, low, high, n_sliver, wide = _boxes(mesh)
    n, px = len(pts), pts[:, 0]
    starts = np.r_[np.zeros(n, int), np.searchsorted(low[0], px - wide)]
    counts = np.r_[np.full(n, n_sliver),
                   np.searchsorted(low[0], px, "right")] - starts
    owner = np.repeat(np.tile(np.arange(n), 2), counts)
    at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts)
                                             + counts, counts)
    x, y = pts[owner].T
    box = (x <= high[0, at]) & (low[1, at] <= y) & (y <= high[1, at])
    owner, k, x, y = owner[box], order[at[box]], x[box], y[box]
    dx, dy = x - a[k, 0], y - a[k, 1]
    l1 = (dx * ac[k, 1] - ac[k, 0] * dy) / det[k]
    l2 = (ab[k, 0] * dy - dx * ab[k, 1]) / det[k]
    lam = np.stack([1.0 - l1 - l2, l1, l2], axis=1)
    # the passing pair of each point with the lowest element index
    hit = np.flatnonzero((lam >= -tol).all(axis=1))
    hit = hit[np.lexsort((k[hit], owner[hit]))]
    found, first = np.unique(owner[hit], return_index=True)
    if len(found) < n:
        raise ArgumentError("point (%g, %g) outside the mesh" % tuple(
            pts[np.setdiff1d(np.arange(n), found)[0]]))
    return k[hit[first]], np.clip(lam[hit[first]], 0.0, 1.0)


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
    - w(0.5, y)} over y in {1/n, ..., (n-1)/n}.
    """
    ys = np.arange(1, n) / n
    vals = evaluate_p1(mesh, u, [(0.5, y) for y in ys] + [(0.5, 0.5)])
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
    """
    u = np.asarray(u, dtype=float)
    in1 = (mesh.nodes[:, 0] <= 0.5) & (mesh.nodes[:, 1] >= 0.1)
    w = u[in1]
    osc_int = math.sqrt(float((np.minimum(0.0, w) ** 2).sum()
                              + (np.maximum(0.0, w - 1.0) ** 2).sum()))
    xs = np.arange(0.0, 1.0 + 0.5 * step, step)
    vals = evaluate_p1(mesh, u, [(x, 0.25) for x in xs])

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
