"""P1 finite element assembly.

Builds the Galerkin bilinear form A, the SUPG-stabilized form, the
residual Gram matrix S over Omega_hat, the constraint selector E, load
vectors and the Dirichlet lifting.  Quadrature: the diffusion term is
exact (constant gradients); convection, reaction, load and the residual
Gram use the 3-point mid-edge rule (exact for quadratics); Neumann edge
terms use 2-point Gauss.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import sparse
from .meshes import _edge_key
from .wind import vector_field


def scalar_field(c):
    if callable(c):
        return lambda p: float(c(np.asarray(p, dtype=float)))
    val = float(c)
    return lambda p: val


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
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
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
    det = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
           - (v2[:, 0] - v0[:, 0]) * (v1[:, 1] - v0[:, 1]))
    area = 0.5 * det
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


def compute_supg_parameters(mesh, spec, delta_c=0.0, multiplier=1.0):
    if spec.eps <= 0:
        raise ValueError("SUPG parameters require eps > 0")
    area, grads, p = element_geometry(mesh)
    bary = p.mean(axis=1)
    delta = np.zeros(mesh.n_elements)
    pe = np.zeros(mesh.n_elements)
    diam = np.zeros(mesh.n_elements)
    for k in range(mesh.n_elements):
        b = spec.b_fn(bary[k])
        nb = np.linalg.norm(b)
        if nb == 0.0:
            continue
        denom = np.abs(grads[k] @ b).sum()
        d = 2.0 * nb / denom
        peclet = nb * d / (2.0 * spec.eps)
        diam[k] = d
        pe[k] = peclet
        if peclet > 1.0:
            delta[k] = d / (2.0 * nb)
        else:
            delta[k] = d * d / (4.0 * spec.eps)
    return SupgParameters(delta, pe, diam, delta_c=delta_c,
                          multiplier=multiplier)


@dataclass
class DiscreteOperators:
    """Assembled operators restricted to free (non-Dirichlet) nodes."""

    A: sparse.SparseMatrix
    load: np.ndarray
    lifting: np.ndarray            # full nodal Dirichlet lift
    free_nodes: np.ndarray         # global indices of free nodes
    free_index: dict               # global node -> position in free order
    S: Optional[sparse.SparseMatrix] = None
    residual_load: Optional[np.ndarray] = None
    E: Optional[sparse.SparseMatrix] = None
    n_delta: list = field(default_factory=list)
    S_full: Optional[sparse.SparseMatrix] = None


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
    for v in sorted(dir_nodes):
        if v in mesh.node_values:
            u_d[v] = mesh.node_values[v]
        else:
            u_d[v] = spec.g1_fn(mesh.nodes[v])
    return u_d, sorted(dir_nodes)


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


def assemble(mesh, spec, decomposition=None, supg=None, with_constraints=True):
    """Assemble the discrete operators.

    supg: SupgParameters to build the SUPG-stabilized form; None for
    plain Galerkin.  If a decomposition is given, the residual Gram S,
    the residual load and the constraint selector E are also built.
    """
    n = mesh.n_nodes
    area, grads, p = element_geometry(mesh)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))  # m01, m12, m20 per element

    hat_set = set(decomposition.omega_hat) if decomposition is not None else set()
    a_trip, s_trip = [], []
    load = np.zeros(n)
    resload = np.zeros(n)
    for k in range(mesh.n_elements):
        tri = mesh.elements[k]
        w = area[k] / 3.0
        bq = np.array([spec.b_fn(m) for m in mids[k]])
        cq = np.array([spec.c_fn(m) for m in mids[k]])
        fq = np.array([spec.f_fn(m) for m in mids[k]])
        # L phi_i at the quadrature points: b.grad + c*phi
        lq = bq @ grads[k].T + cq[:, None] * _MIDEDGE_PHI.T  # (q, i)
        phi = _MIDEDGE_PHI.T                                  # (q, i)
        local = w * (lq[:, :, None] * phi[:, None, :]).sum(axis=0).T
        # local[i, j] = (L phi_j, phi_i); add exact diffusion
        if spec.eps != 0.0:
            local = local + spec.eps * area[k] * (grads[k] @ grads[k].T)
        if supg is not None and supg.delta[k] != 0.0:
            # test function b.grad(phi_i) (+ delta_c dx(phi_i))
            wq = bq @ grads[k].T
            if supg.delta_c != 0.0:
                wq = wq + supg.delta_c * grads[k][:, 0][None, :]
            dk = supg.multiplier * supg.delta[k]
            local = local + dk * w * (lq[:, :, None] * wq[:, None, :]).sum(axis=0).T
            for a in range(3):
                load[tri[a]] += dk * w * (fq * wq[:, a]).sum()
        for a in range(3):
            load[tri[a]] += w * (fq * phi[:, a]).sum()
            for bidx in range(3):
                a_trip.append((tri[a], tri[bidx], local[a, bidx]))
        if decomposition is not None and k in hat_set:
            s_local = w * (lq[:, :, None] * lq[:, None, :]).sum(axis=0)
            for a in range(3):
                resload[tri[a]] += w * (fq * lq[:, a]).sum()
                for bidx in range(3):
                    s_trip.append((tri[a], tri[bidx], s_local[a, bidx]))
    _neumann_load(mesh, spec, load)

    u_d, dir_nodes = dirichlet_lift(mesh, spec, with_constraints)
    dir_set = set(dir_nodes)
    free = np.array([v for v in range(n) if v not in dir_set], dtype=np.int64)
    free_index = {int(v): i for i, v in enumerate(free)}

    A_full = sparse.compress(a_trip, n, n)
    A_free = sparse.from_csr(A_full.csr[free][:, free])
    load_free = load[free] - A_full.csr[free] @ u_d

    ops = DiscreteOperators(A=A_free, load=load_free, lifting=u_d,
                            free_nodes=free, free_index=free_index)
    if decomposition is not None:
        S_full = sparse.compress(s_trip, n, n)
        ops.S_full = S_full
        ops.S = sparse.from_csr(S_full.csr[free][:, free])
        ops.residual_load = resload[free] - S_full.csr[free] @ u_d
        nd = list(decomposition.n_delta)
        e_trip = []
        for col, v in enumerate(nd):
            if v not in free_index:
                raise ValueError("constraint node %d is Dirichlet" % v)
            e_trip.append((free_index[v], col, 1.0))
        ops.E = sparse.compress(e_trip, free.size, len(nd))
        ops.n_delta = nd
    return ops


def assemble_galerkin(mesh, spec, decomposition=None, with_constraints=True):
    return assemble(mesh, spec, decomposition, supg=None,
                    with_constraints=with_constraints)


def assemble_supg(mesh, spec, parameters=None, decomposition=None,
                  with_constraints=True):
    if spec.eps <= 0.0:
        raise ValueError("SUPG requires eps > 0; use the Galerkin eps=0 mode")
    if parameters is None:
        parameters = compute_supg_parameters(mesh, spec)
    return assemble(mesh, spec, decomposition, supg=parameters,
                    with_constraints=with_constraints)


# ---------------------------------------------------------------------------
# 1D assembly (analysis apparatus and the motivating 1D experiment)

_GAUSS5_X, _GAUSS5_W = np.polynomial.legendre.leggauss(5)


def hat_moments_1d(f, mesh1d):
    """Moments f_j = int f phi_j by 5-point Gauss per cell, j = 1..J-1."""
    x = mesh1d.nodes
    J = mesh1d.J
    out = np.zeros(J + 1)
    for k in range(J):
        a, b = x[k], x[k + 1]
        h = b - a
        xq = 0.5 * (a + b) + 0.5 * h * _GAUSS5_X
        wq = 0.5 * h * _GAUSS5_W
        fv = np.array([f(t) if callable(f) else float(f) for t in xq])
        lam = (xq - a) / h   # phi_{k+1} on this cell
        out[k + 1] += np.sum(wq * fv * lam)
        out[k] += np.sum(wq * fv * (1.0 - lam))
    return out


@dataclass
class Operators1D:
    A: sparse.SparseMatrix        # over interior nodes 1..J-1
    load: np.ndarray
    S: sparse.SparseMatrix        # residual Gram over (0, x_{J-1})
    residual_load: np.ndarray
    E: sparse.SparseMatrix        # single constraint at x_{J-1}
    lifting: np.ndarray           # full nodal values (Dirichlet ends)
    mesh: object


def assemble_1d(mesh1d, eps, b, f, u_left=0.0, u_right=0.0):
    """Operators of -eps u'' + b u' = f on the partition, u fixed at both
    ends; residual Gram over (0, x_{J-1}); constraint node x_{J-1}."""
    x = mesh1d.nodes
    h = mesh1d.widths
    J = mesh1d.J
    nfree = J - 1
    a_trip, s_trip = [], []
    moments = hat_moments_1d(f, mesh1d)
    # interior node i corresponds to free index i-1
    for i in range(1, J):
        # diffusion
        if eps != 0.0:
            a_trip.append((i - 1, i - 1, eps * (1.0 / h[i - 1] + 1.0 / h[i])))
            if i > 1:
                a_trip.append((i - 1, i - 2, -eps / h[i - 1]))
            if i < J - 1:
                a_trip.append((i - 1, i, -eps / h[i]))
        # convection (b phi_j', phi_i): +-b/2 off-diagonals
        if i > 1:
            a_trip.append((i - 1, i - 2, -b / 2.0))
        if i < J - 1:
            a_trip.append((i - 1, i, b / 2.0))
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
    A = sparse.compress(a_trip, nfree, nfree)

    # residual Gram over cells 1..J-1 (the interval (0, x_{J-1}))
    # L phi_i = b phi_i' piecewise constant: b/h on cell i, -b/h on cell i+1
    resload = np.zeros(nfree)
    for k in range(J - 1):  # cell k+1 spans [x_k, x_{k+1}]
        hk = h[k]
        # basis with support here: phi_k (slope -1/hk), phi_{k+1} (slope 1/hk)
        idx, slope = [], []
        if k >= 1:
            idx.append(k - 1)
            slope.append(-b / hk)
        if k + 1 <= J - 1:
            idx.append(k)
            slope.append(b / hk)
        intf = _cell_integral(f, x[k], x[k + 1])
        for a_i, sa in zip(idx, slope):
            resload[a_i] += sa * intf
            for b_i, sb in zip(idx, slope):
                s_trip.append((a_i, b_i, sa * sb * hk))
    # u_right lifting does not reach (0, x_{J-1}); u_left does via phi_0
    if u_left != 0.0:
        h1 = h[0]
        s0 = -b / h1  # slope of phi_0 on cell 1
        resload[0] -= (b / h1) * s0 * u_left * h1
    S = sparse.compress(s_trip, nfree, nfree)
    E = sparse.compress([(nfree - 1, 0, 1.0)], nfree, 1)
    lifting = np.zeros(J + 1)
    lifting[0] = u_left
    lifting[J] = u_right
    return Operators1D(A, load, S, resload, E, lifting, mesh1d)


def _cell_integral(f, a, b):
    h = b - a
    xq = 0.5 * (a + b) + 0.5 * h * _GAUSS5_X
    wq = 0.5 * h * _GAUSS5_W
    fv = np.array([f(t) if callable(f) else float(f) for t in xq])
    return float(np.sum(wq * fv))
