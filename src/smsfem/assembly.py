"""P1 finite element assembly.

Builds the Galerkin bilinear form A, the SUPG-stabilized form, the
residual Gram matrix S over Omega_hat, the constraint selector E, load
vectors and the Dirichlet lifting.  Quadrature: the diffusion term is
exact (constant gradients); convection, reaction, load and the residual
Gram use the 3-point mid-edge rule (exact for quadratics, `midedge_rule`);
Neumann edge terms use 2-point Gauss; 1D cell integrals use 5-point Gauss
(`gauss5_cells`, kept per 1D mesh by `mesh_gauss5`).

All elements are assembled at once, as (K, 3, 3) local blocks and one
coordinate-array build per matrix.  The products round exactly as the
per-element loops they replaced (np.vecdot or batched matmul, whichever
matches the loop's dot product; sums from +0.0 in element order).
"""

import math
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import sparse
from .wind import ValidationError, array_form, vector_field


def scalar_field(c):
    """Coefficient as a callable point -> float, with the array form
    `array` of (..., 2) points -> (...) (see `wind.array_form`); a
    constant is broadcast, not called."""
    if callable(c):
        fn = lambda p: float(c(np.asarray(p, dtype=float)))
        fn.array = array_form(c)
        return fn
    value = float(c)
    fn = lambda p: value
    fn.array = lambda points: np.full(np.shape(points)[:-1], value)
    return fn


@dataclass
class ProblemSpec:
    """Data of -eps*Lap(u) + b.grad(u) + c*u = f with mixed BCs.

    Boundary Dirichlet/Neumann partition lives on the mesh (edge tags);
    g1 is the Dirichlet datum, g2 the Neumann datum in eps*<g2, phi>.
    """

    eps: float
    b: object
    f: object = 0.0
    c: object = 0.0
    g1: object = 0.0
    g2: object = 0.0

    def __post_init__(self):
        if not (self.eps >= 0 and math.isfinite(self.eps)):
            raise ValidationError("eps must be finite and nonnegative, got %r"
                                  % self.eps)
        for name in ("b", "c", "f", "g1", "g2"):
            value = getattr(self, name)
            if not callable(value) and not np.all(np.isfinite(value)):
                raise ValidationError("%s must be finite, got %r"
                                      % (name, value))
        self.b_fn = vector_field(self.b)
        self.c_fn = scalar_field(self.c)
        self.f_fn = scalar_field(self.f)
        self.g1_fn = scalar_field(self.g1)
        self.g2_fn = scalar_field(self.g2)


@dataclass
class SupgParameters:
    """Per-element streamline diffusion parameters.

    delta_tau follows the two-branch rule on the element Peclet number,
    with diam(tau, b) = 2|b| / sum_k |b . grad(phi_k)| and b evaluated at
    the barycenter.  The optional crosswind weight delta_c augments the
    test function to b.grad(phi) + delta_c * dx(phi); multiplier scales
    delta_tau.
    """

    delta: np.ndarray
    pe: np.ndarray
    diam: np.ndarray
    delta_c: float = 0.0
    multiplier: float = 1.0


def element_geometry(mesh):
    """Areas, constant basis gradients and vertex coords per element."""
    p = mesh.nodes[mesh.elements]
    v0, v1, v2 = p[:, 0], p[:, 1], p[:, 2]
    area = mesh.areas()
    det = 2.0 * area
    grads = np.empty((mesh.n_elements, 3, 2))
    grads[:, 0, 0] = (v1[:, 1] - v2[:, 1]) / det
    grads[:, 0, 1] = (v2[:, 0] - v1[:, 0]) / det
    grads[:, 1, 0] = (v2[:, 1] - v0[:, 1]) / det
    grads[:, 1, 1] = (v0[:, 0] - v2[:, 0]) / det
    grads[:, 2, 0] = (v0[:, 1] - v1[:, 1]) / det
    grads[:, 2, 1] = (v1[:, 0] - v0[:, 0]) / det
    return area, grads, p


# values of the three local basis functions at the three edge midpoints
_MIDEDGE_PHI = np.array([
    [0.5, 0.0, 0.5],   # phi_0 at m01, m12, m20
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
])


@dataclass
class MidEdgeRule:
    """The 3-point mid-edge rule (exact for quadratics) on K elements:
    weight area/3 at the edge midpoints m01, m12, m20.  b, c and f hold
    the coefficients there when the rule was built with a spec."""

    area: np.ndarray                 # (K,)
    grads: np.ndarray                # (K, 3, 2) constant basis gradients
    points: np.ndarray               # (K, 3, 2)
    b: Optional[np.ndarray] = None   # (K, 3, 2)
    c: Optional[np.ndarray] = None   # (K, 3)
    f: Optional[np.ndarray] = None   # (K, 3)

    def gradient(self, u_local):
        """Gradient (K, 2) of the P1 function with vertex values (K, 3)."""
        return (u_local[:, None, :] @ self.grads)[:, 0]


def midedge_rule(mesh, spec=None, elements=None):
    """Mid-edge quadrature on the given elements (default all); with a
    spec, b, c and f are evaluated at every point."""
    area, grads, p = element_geometry(mesh)
    if elements is not None:
        area, grads, p = area[elements], grads[elements], p[elements]
    rule = MidEdgeRule(area, grads, 0.5 * (p + np.roll(p, -1, axis=1)))
    if spec is not None:
        rule.b = spec.b_fn.array(rule.points)
        rule.c = spec.c_fn.array(rule.points)
        rule.f = spec.f_fn.array(rule.points)
    return rule


def ordered_sum(terms):
    """Sum of the terms in storage order, one after another, as a scalar
    loop adds them; numpy's pairwise sum rounds differently."""
    return np.cumsum(np.concatenate([[0.0], np.ravel(terms)]))[-1]


def _qsum(x, y):
    """sum over q of x[k, q, i] * y[k, q, j], added to +0.0 in quadrature
    order, as numpy's sum adds."""
    total = 0.0
    for q in range(3):
        total = total + x[:, q, :, None] * y[:, q, None, :]
    return total


def compute_supg_parameters(mesh, spec, delta_c=0.0, multiplier=1.0):
    if spec.eps <= 0:
        raise ValidationError("SUPG parameters require eps > 0")
    _area, grads, p = element_geometry(mesh)
    b = spec.b_fn.array(p.mean(axis=1))
    nb = np.sqrt(np.vecdot(b, b))
    on = nb != 0.0
    nb, b, grads = nb[on], b[on], grads[on]
    denom = np.abs((grads @ b[:, :, None])[:, :, 0]).sum(axis=1)
    d = 2.0 * nb / denom
    peclet = nb * d / (2.0 * spec.eps)
    delta = np.zeros(mesh.n_elements)
    pe = np.zeros(mesh.n_elements)
    diam = np.zeros(mesh.n_elements)
    diam[on] = d
    pe[on] = peclet
    delta[on] = np.where(peclet > 1.0, d / (2.0 * nb),
                         d * d / (4.0 * spec.eps))
    return SupgParameters(delta, pe, diam, delta_c=delta_c,
                          multiplier=multiplier)


@dataclass
class DiscreteOperators:
    """Assembled operators restricted to free (non-Dirichlet) nodes."""

    A: sp.csr_matrix
    load: np.ndarray
    lifting: np.ndarray            # full nodal Dirichlet lift
    free_nodes: np.ndarray         # global indices of free nodes, ascending
    S: Optional[sp.csr_matrix] = None
    residual_load: Optional[np.ndarray] = None
    E: Optional[sp.csr_matrix] = None
    n_delta: list = field(default_factory=list)
    S_full: Optional[sp.csr_matrix] = None


def dirichlet_lift(mesh, spec, with_constraints=True):
    """Nodal interpolant of g1 on Dirichlet nodes, zero on free nodes.

    mesh.node_values (data discontinuities, embedded layer values)
    override g1.
    """
    u_d = np.zeros(mesh.n_nodes)
    dir_nodes = set()
    for i, j, t in mesh.boundary_edges:
        if t == "D":
            dir_nodes.add(i)
            dir_nodes.add(j)
    if with_constraints:
        dir_nodes |= mesh.constraint_node_set()
    dir_nodes = sorted(dir_nodes)
    given = [v for v in dir_nodes if v not in mesh.node_values]
    u_d[given] = spec.g1_fn.array(mesh.nodes[given])
    for v in dir_nodes:
        if v in mesh.node_values:
            u_d[v] = mesh.node_values[v]
    return u_d, dir_nodes


def _neumann_load(mesh, spec, load):
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


def _coo(elements, blocks, n):
    """n x n matrix of the (K, 3, 3) element blocks, entries element-major."""
    return sparse.compress(np.repeat(elements, 3, axis=1),
                           np.tile(elements, (1, 3)), blocks, n, n)


def _scatter(nodes, values, n):
    """Nodal sums of the values, added one after another in storage order."""
    return np.bincount(np.ravel(nodes), weights=np.ravel(values),
                       minlength=n)


def assemble(mesh, spec, decomposition=None, supg=None, with_constraints=True):
    """Assemble the discrete operators.

    supg: SupgParameters to build the SUPG-stabilized form; None for
    plain Galerkin.  If a decomposition is given, the residual Gram S,
    the residual load and the constraint selector E are also built.
    """
    n = mesh.n_nodes
    tri = mesh.elements
    rule = midedge_rule(mesh, spec)
    w = rule.area / 3.0
    phi = _MIDEDGE_PHI.T[None]                       # (1, q, i)
    bgrad = np.vecdot(rule.b[:, :, None, :], rule.grads[:, None, :, :])
    # L phi_i at the quadrature points: b.grad + c*phi, shape (K, q, i)
    lq = bgrad + rule.c[:, :, None] * phi
    # local[k, i, j] = (L phi_j, phi_i); add exact diffusion
    local = w[:, None, None] * _qsum(lq, phi).transpose(0, 2, 1)
    if spec.eps != 0.0:
        local = local + (spec.eps * rule.area)[:, None, None] * np.vecdot(
            rule.grads[:, :, None, :], rule.grads[:, None, :, :])
    load_nodes, load = tri, w[:, None] * (rule.f[:, :, None] * phi).sum(axis=1)
    if supg is not None:
        # test function b.grad(phi_i) (+ delta_c dx(phi_i)); elements
        # with delta = 0 keep their Galerkin block as it is
        on = supg.delta != 0.0
        wq = bgrad[on]
        if supg.delta_c != 0.0:
            wq = wq + supg.delta_c * rule.grads[on][:, None, :, 0]
        dw = supg.multiplier * supg.delta[on] * w[on]
        local[on] = local[on] + dw[:, None, None] * _qsum(
            lq[on], wq).transpose(0, 2, 1)
        # per element, the SUPG load comes before the Galerkin load
        supg_load = np.zeros_like(load)
        supg_load[on] = dw[:, None] * (rule.f[on][:, :, None] * wq).sum(axis=1)
        load_nodes = np.concatenate([tri, tri], axis=1)
        load = np.concatenate([supg_load, load], axis=1)
    load = _scatter(load_nodes, load, n)
    _neumann_load(mesh, spec, load)

    u_d, dir_nodes = dirichlet_lift(mesh, spec, with_constraints)
    is_free = np.ones(n, dtype=bool)
    is_free[dir_nodes] = False
    free = np.flatnonzero(is_free)

    A_full = _coo(tri, local, n)
    ops = DiscreteOperators(A=A_full[free][:, free],
                            load=load[free] - A_full[free] @ u_d,
                            lifting=u_d, free_nodes=free)
    if decomposition is not None:
        hat = np.zeros(mesh.n_elements, dtype=bool)
        hat[list(decomposition.omega_hat)] = True
        lh = lq[hat]
        S_full = _coo(tri[hat], w[hat, None, None] * _qsum(lh, lh), n)
        resload = _scatter(tri[hat], w[hat, None]
                           * (rule.f[hat][:, :, None] * lh).sum(axis=1), n)
        ops.S_full = S_full
        ops.S = S_full[free][:, free]
        ops.residual_load = resload[free] - S_full[free] @ u_d
        nd = list(decomposition.n_delta)
        for v in nd:
            if not is_free[v]:
                raise ValueError("constraint node %d is Dirichlet" % v)
        ops.E = sparse.compress(np.searchsorted(free, nd), range(len(nd)),
                                np.ones(len(nd)), free.size, len(nd))
        ops.n_delta = nd
    return ops


def assemble_galerkin(mesh, spec, decomposition=None, with_constraints=True):
    return assemble(mesh, spec, decomposition, supg=None,
                    with_constraints=with_constraints)


def assemble_supg(mesh, spec, parameters=None, decomposition=None,
                  with_constraints=True):
    if spec.eps <= 0.0:
        raise ValidationError(
            "SUPG requires eps > 0; use the Galerkin eps=0 mode")
    if parameters is None:
        parameters = compute_supg_parameters(mesh, spec)
    return assemble(mesh, spec, decomposition, supg=parameters,
                    with_constraints=with_constraints)


# ---------------------------------------------------------------------------
# 1D assembly (analysis apparatus and the motivating 1D experiment)

_GAUSS5_X, _GAUSS5_W = np.polynomial.legendre.leggauss(5)


def gauss5_cells(f, x):
    """5-point Gauss rule on the cells [x_k, x_{k+1}] of the nodes x.

    Returns lam, the local coordinate (x - x_k) / h_k of each point, and
    the weight times f there, both (cells, 5); a callable f is evaluated
    through `wind.array_form`, so by its array form `f.array` if it has one.
    """
    a, b = x[:-1, None], x[1:, None]
    h = b - a
    xq = 0.5 * (a + b) + 0.5 * h * _GAUSS5_X
    fv = array_form(f, ())(xq) if callable(f) else float(f)
    return (xq - a) / h, 0.5 * h * _GAUSS5_W * fv


_GAUSS5 = weakref.WeakKeyDictionary()


def mesh_gauss5(f, mesh1d):
    """gauss5_cells(f, mesh1d.nodes); for a callable f, a pure function of
    x, read-only and kept per mesh while the same f comes back."""
    if not callable(f):
        return gauss5_cells(f, mesh1d.nodes)
    if _GAUSS5.get(mesh1d, (None,))[0] is not f:
        rule = gauss5_cells(f, mesh1d.nodes)
        rule[0].flags.writeable = rule[1].flags.writeable = False
        _GAUSS5[mesh1d] = (f, rule)
    return _GAUSS5[mesh1d][1]


def _hat_moments(lam, wf):
    out = np.zeros(lam.shape[0] + 1)
    out[1:] += (wf * lam).sum(axis=1)
    out[:-1] += (wf * (1.0 - lam)).sum(axis=1)
    return out


def hat_moments_1d(f, mesh1d):
    """Moments f_j = int f phi_j by 5-point Gauss per cell, j = 0..J."""
    return _hat_moments(*mesh_gauss5(f, mesh1d))


@dataclass
class Operators1D:
    A: sp.csr_matrix              # over interior nodes 1..J-1
    load: np.ndarray
    S: sp.csr_matrix              # residual Gram over (0, x_{J-1})
    residual_load: np.ndarray
    E: sp.csr_matrix              # single constraint at x_{J-1}
    lifting: np.ndarray           # full nodal values (Dirichlet ends)


def _tridiagonal(lower, diag, upper):
    """Sorted CSR matrix of the bands (i + 1, i) = lower[i],
    (i, i) = diag[i] (none if diag is None) and (i, i + 1) = upper[i]."""
    offsets = [-1, 1] if diag is None else [-1, 0, 1]
    n, k = len(upper) + 1, len(offsets)
    vals = np.empty((n, k))   # the bands row by row, the two corners unused
    vals[1:, 0], vals[:-1, -1] = lower, upper
    if diag is not None:
        vals[:, 1] = diag
    cols = np.arange(n)[:, None] + offsets
    indptr = np.append(np.maximum(k * np.arange(n) - 1, 0), k * n - 2)
    return sp.csr_matrix((vals.ravel()[1:-1], cols.ravel()[1:-1], indptr),
                         shape=(n, n))


def assemble_1d(mesh1d, eps, b, f, u_left=0.0, u_right=0.0):
    """Operators of -eps u'' + b u' = f on the partition, u fixed at both
    ends; residual Gram over (0, x_{J-1}); constraint node x_{J-1}."""
    h = mesh1d.widths
    J = mesh1d.J
    nfree = J - 1
    lam, wf = mesh_gauss5(f, mesh1d)
    moments = _hat_moments(lam, wf)
    # convection (b phi_j', phi_i): +-b/2 off-diagonals, plus the diffusion
    # stencil; no entry sums more than two terms, so no order rounds apart
    lower, upper = np.full(nfree - 1, -b / 2.0), np.full(nfree - 1, b / 2.0)
    diag = None
    if eps != 0.0:
        diag = eps * (1.0 / h[:-1] + 1.0 / h[1:])
        lower, upper = lower - eps / h[1:-1], upper - eps / h[1:-1]
    A = _tridiagonal(lower, diag, upper)
    load = moments[1:J].copy()
    # lifting contributions from the end values
    if u_left != 0.0:
        if eps != 0.0:
            load[0] += eps * u_left / h[0]
        load[0] += b * u_left / 2.0
    if u_right != 0.0:
        if eps != 0.0:
            load[nfree - 1] += eps * u_right / h[J - 1]
        load[nfree - 1] -= b * u_right / 2.0

    # residual Gram over cells 1..J-1 (the interval (0, x_{J-1})), where
    # L phi_i = b phi_i' is b/h on cell i and -b/h on cell i+1
    hk = h[:-1]
    right = b / hk           # phi_{k+1} on cell k+1: free index k
    left = -b / hk[1:]       # phi_k on cell k+1, k >= 1: free index k-1
    intf = wf[:-1].sum(axis=1)
    diag = right * right * hk
    diag[:-1] += left * left * hk[1:]
    off = left * right[1:] * hk[1:]
    S = _tridiagonal(off, diag, off)
    resload = np.zeros(nfree)
    resload += right * intf
    resload[:-1] += left * intf[1:]
    # u_right lifting does not reach (0, x_{J-1}); u_left does via phi_0
    if u_left != 0.0:
        h1 = h[0]
        s0 = -b / h1  # slope of phi_0 on cell 1
        resload[0] -= (b / h1) * s0 * u_left * h1
    E = sp.csr_matrix(([1.0], [0], np.arange(nfree + 1) // nfree),
                      shape=(nfree, 1))
    lifting = np.zeros(J + 1)
    lifting[0] = u_left
    lifting[J] = u_right
    return Operators1D(A, load, S, resload, E, lifting)
