"""Galerkin, SUPG and SMS solution drivers.

The SMS approximation minimizes the elementwise convective residual
over Omega_hat subject to the relaxed discrete equations; its optimality
conditions form a symmetric indefinite saddle-point system solved here.
"""

from dataclasses import dataclass

import numpy as np

from . import assembly, sparse
from .wind import decompose


class SolveError(RuntimeError):
    pass


@dataclass
class SmsSolution:
    u: np.ndarray          # nodal values on all nodes, lifting included
    z: np.ndarray          # multiplier on all nodes (zero on Dirichlet)
    t: np.ndarray          # constraint values, ascending N_delta order
    n_delta: list
    method: str
    residual: float
    size: int


def _lift(ops, x, fixed):
    """Nodal values: x on the free nodes of ops, fixed (the Dirichlet
    lifting, or zeros for a multiplier) on the others."""
    out = fixed.copy()
    out[ops.free_nodes] = x
    return out


def _solve_direct(ops):
    """Solve A u = load on the free nodes; returns full nodal values."""
    x, _ = sparse.solve_symmetric_indefinite(ops.A, ops.load)
    return _lift(ops, x, ops.lifting)


def solve_galerkin(mesh, spec, with_constraints=False):
    """Plain Galerkin solve; returns full nodal values."""
    return _solve_direct(assembly.assemble_galerkin(
        mesh, spec, with_constraints=with_constraints))


def solve_supg(mesh, spec, parameters=None, with_constraints=False):
    return _solve_direct(assembly.assemble_supg(
        mesh, spec, parameters, with_constraints=with_constraints))


def solve_sms(mesh, spec, decomposition=None, base="galerkin",
              parameters=None):
    """Solve the SMS optimality system on the given decomposition.

    base selects the restriction: the Galerkin equations or the
    SUPG-stabilized ones (S and the residual load are always built from
    the plain convective operator).
    """
    if decomposition is None:
        decomposition = decompose(mesh, spec.b)
    if base == "galerkin":
        ops = assembly.assemble_galerkin(mesh, spec, decomposition,
                                         with_constraints=True)
    elif base == "supg":
        ops = assembly.assemble_supg(mesh, spec, parameters, decomposition,
                                     with_constraints=True)
    else:
        raise ValueError("base must be 'galerkin' or 'supg'")
    try:
        return _solve_kkt(ops, "SMS", "sms-" + base)
    except sparse.RankDeficiencyError as exc:
        raise sparse.RankDeficiencyError(
            "SMS system singular; run diagnose/remediate on the mesh "
            "decomposition (%s)" % exc) from exc


def _solve_kkt(ops, what, method):
    """Solve the SMS optimality system of ops (1D or 2D) and check it;
    what names the system in error messages.

    The multiplier must vanish on N_delta.  Returns the SmsSolution.
    """
    system = sparse.SaddleSystem(ops.S, ops.A, ops.E,
                                 ops.residual_load, ops.load)
    M, S, St = system.matrix(), ops.S, ops.S.tocsc()
    # St holds the CSR arrays of S^T; if they are S's, bit for bit, M is
    # bitwise symmetric and its CSR arrays are its CSC arrays
    if all(getattr(S, a).tobytes() == getattr(St, a).tobytes()
           for a in ("indptr", "indices", "data")):
        csc = M.T
    else:
        # only S can break symmetry; |M| peaks on the largest of S, A and E
        asym = abs(S - St.T).max()
        scale = max(abs(B.data).max(initial=0.0)
                    for B in (ops.S, ops.A, ops.E))
        if asym > 1e-14 * max(scale, 1e-300):
            raise SolveError("saddle system lost symmetry: %.3e" % asym)
        csc = M.tocsc()
    x, residual = sparse.solve_symmetric_indefinite(system, csc=csc)
    n, m = system.n, system.m
    uf = x[:n]
    t = x[n:n + m]
    # un-negate the symmetrizing substitution
    z = _lift(ops, -x[n + m:], np.zeros_like(ops.lifting))
    # re-verify the constraint equation and the multiplier conditions
    cons = ops.A @ uf + ops.E @ t - ops.load
    rel = sparse.norm(cons) / max(sparse.norm(ops.load), 1.0)
    if rel > 1e-8:
        raise SolveError("%s constraint equation residual %.3e" % (what, rel))
    zmax = np.abs(z).max(initial=0.0)
    if zmax > 0 and np.abs(z[ops.n_delta]).max(initial=0.0) > 1e-10 * zmax:
        raise SolveError("%s multiplier does not vanish on N_delta" % what)
    return SmsSolution(u=_lift(ops, uf, ops.lifting), z=z, t=t,
                       n_delta=list(ops.n_delta), method=method,
                       residual=residual, size=M.shape[0])


# ---------------------------------------------------------------------------
# 1D drivers


def solve_galerkin_1d(mesh1d, eps, b, f, u_left=0.0, u_right=0.0):
    return _solve_direct(assembly.assemble_1d(mesh1d, eps, b, f, u_left,
                                              u_right))


def solve_sms_1d(mesh1d, eps, b, f, u_left=0.0, u_right=0.0):
    """1D SMS: single relaxation scalar alpha at x_{J-1}, residual
    minimized over (0, x_{J-1})."""
    return _solve_kkt(assembly.assemble_1d(mesh1d, eps, b, f, u_left,
                                           u_right), "1D SMS", "sms-1d")


def solve_shishkin_oracle_1d(N, eps, b, f, sigma):
    """Galerkin on the full 2N-cell Shishkin mesh.

    Returns (full nodal values, coarse part U_c = values at nodes 0..N,
    alpha* = u_N * a(phi_{N-1}, phi_N)).
    """
    from .meshes import shishkin_mesh_1d

    mesh = shishkin_mesh_1d(N=N, sigma=sigma)
    u = _solve_direct(assembly.assemble_1d(mesh, eps, b, f))
    h_N = mesh.widths[N - 1]  # last coarse cell
    alpha_star = u[N] * (-eps / h_N - b / 2.0)
    return u, u[:N + 1].copy(), float(alpha_star), mesh


def solve_shishkin_oracle_2d(problem_spec, N, sigma_x, sigma_y,
                             diagonal="SW-NE", tag_fn=None):
    """SUPG on the tensor 2Nx2N Shishkin grid; returns the solution, the
    mesh, and the coarse-node restriction mask (x <= 1-sx, y <= 1-sy)."""
    from .meshes import tensor_shishkin_2d

    mesh = tensor_shishkin_2d(N, N, sigma_x, sigma_y,
                              diagonal=diagonal, tag_fn=tag_fn)
    u = solve_supg(mesh, problem_spec)
    coarse = ((mesh.nodes[:, 0] <= 1.0 - sigma_x + 1e-14)
              & (mesh.nodes[:, 1] <= 1.0 - sigma_y + 1e-14))
    return u, mesh, coarse
