"""Executable form of the one-dimensional analysis: the discrete
negative norm, the auxiliary oscillating function q_h, stability and
convergence verification for the eps=0 mode."""

from dataclasses import dataclass

import numpy as np

from . import assembly, solvers
from .meshes import Mesh1D
from .wind import array_form


_TRIANGLE_ENTRIES = 1 << 18   # suffix-sum rows per chunk times their width


@dataclass
class NegNormWork:
    moments: np.ndarray    # f_j = int f phi_j, j = 0..J
    sums: np.ndarray       # S_1..S_{J'-1} (index 0 unused)
    j_prime: int
    value: float


def discrete_negative_norm(f, mesh1d):
    """||f||_{-h} = max |S_k| of the parity-split partial sums
    S_{2j} = sum_{i<=j} f_{2i-1}, S_{2j-1} = sum_{i>=j} f_{2i}."""
    J = mesh1d.J
    moments = assembly.hat_moments_1d(f, mesh1d)
    j_prime = J if J % 2 == 1 else J - 1
    half = (j_prime - 1) // 2
    sums = np.zeros(j_prime)  # S_1..S_{j_prime-1} at indices 1..j_prime-1
    sums[2:2 * half + 1:2] = np.cumsum(moments[1:2 * half:2])
    # S_{2j-1} adds f_{2j}, f_{2j+2}, ... upward: the last running sum of
    # row j of the even moments' upper triangle, whose leading zeros add
    # nothing (moments are sums from +0.0, never -0.0); chunks of rows
    even = moments[2:2 * half + 1:2]
    step = max(1, _TRIANGLE_ENTRIES // max(half, 1))
    for j in range(0, half, step):
        rows = np.triu(np.broadcast_to(even[j:], (min(step, half - j),
                                                  half - j)))
        sums[2 * j + 1:2 * (j + len(rows)):2] = np.cumsum(rows, axis=1)[:, -1]
    value = float(np.abs(sums[1:]).max()) if j_prime > 1 else 0.0
    return NegNormWork(moments, sums, j_prime, value)


def build_q_h(mesh1d, b):
    """Nodal values q_j = -(1 - (-1)^j)/b, with the defining identities
    a(q_h, phi_i) = delta_{J-1}(i) (J odd) / 0 (J even) verified by
    eps=0 assembly."""
    if b <= 0:
        raise ValueError("b must be a positive constant")
    J = mesh1d.J
    q = np.zeros(J + 1)
    j = np.arange(J + 1)
    q[1:J] = -(1.0 - (-1.0) ** j[1:J]) / b
    ops = assembly.assemble_1d(mesh1d, 0.0, b, 0.0)
    aq = ops.A.csr @ q[1:J]
    target = np.zeros(J - 1)
    if J % 2 == 1:
        target[J - 2] = 1.0
    if np.abs(aq - target).max() > 1e-12:
        raise AssertionError("q_h identity failed: %.3e"
                             % np.abs(aq - target).max())
    return q


def l_qh_cellwise(mesh1d, b):
    """L(q_h) = 2(-1)^j / h_j on cell j (cells 1..J)."""
    j = np.arange(1, mesh1d.J + 1)
    return 2.0 * (-1.0) ** j / mesh1d.widths


def residual_r(f, mesh1d, b):
    """r = (f, L_h q_h)_{L^2(0, x_{J-1})}."""
    # cells 1..J-1 of the mesh's rule, summed in order
    _lam, wf = assembly.mesh_gauss5(f, mesh1d)
    return assembly.ordered_sum(l_qh_cellwise(mesh1d, b)[:-1]
                                * wf[:-1].sum(axis=1))


def stability_bound(f, mesh1d, b):
    """(6/b)(||f||_{-h} + (h/(6J)) |r|), the eps=0 stability bound."""
    work = discrete_negative_norm(f, mesh1d)
    r = residual_r(f, mesh1d, b)
    return (6.0 / b) * (work.value + mesh1d.h / (6.0 * mesh1d.J) * abs(r)), work, r


def random_mesh_1d(J, rng):
    """Widths h_j = (1 + u_j) / sum(1 + u_k), u_j uniform on [0, 1]."""
    w = 1.0 + rng.uniform(0.0, 1.0, size=J)
    w = w / w.sum()
    return Mesh1D(np.concatenate([[0.0], np.cumsum(w)]))


def asymptotically_uniform_mesh_1d(J):
    """x_j = psi(j/J) with psi(s) = s + 0.2 sin(pi s)/pi, which keeps
    |h_{j+1} - h_{j-1}| = O(h^2)."""
    s = np.arange(J + 1) / J
    return Mesh1D(s + 0.2 * np.sin(np.pi * s) / np.pi)


def _random_piecewise_smooth_f(rng):
    coeffs = rng.uniform(-2.0, 2.0, size=4)
    freq = rng.integers(1, 5)
    jump = rng.uniform(0.2, 0.8)
    step = rng.uniform(-1.0, 1.0)

    def f(x):
        """The load at a point x or at an array of points, so f is its
        own array form."""
        base = (coeffs[0] + coeffs[1] * x + coeffs[2] * x * x
                + coeffs[3] * np.sin(freq * np.pi * x))
        return base + np.where(x > jump, step, 0.0)

    f.array = f
    return f


@dataclass
class StabilityReport:
    trials: int
    violations: list       # (J, seed, lhs, rhs) tuples
    max_alpha_gap: float   # J even: |alpha - sum f_{2j-1}|

    @property
    def ok(self):
        return not self.violations


def verify_stability(trials, J_values, seed, b=1.0):
    """Randomized check of the eps=0 stability bound, both parities,
    and of alpha = sum of odd moments for J even."""
    rng = np.random.default_rng(seed)
    violations = []
    max_alpha_gap = 0.0
    count = 0
    J_values = list(J_values)
    for _ in range(trials):
        J = int(rng.choice(J_values))
        mesh = random_mesh_1d(J, rng)
        f = _random_piecewise_smooth_f(rng)
        sol = solvers.solve_sms_1d(mesh, 0.0, b, f)
        bound, work, _r = stability_bound(f, mesh, b)
        lhs = float(np.abs(sol.u).max())
        if lhs > bound + 1e-10 * (1.0 + bound):
            violations.append((J, lhs, bound))
        if J % 2 == 0:
            alpha_pred = assembly.ordered_sum(work.moments[1:J:2])
            max_alpha_gap = max(max_alpha_gap,
                                abs(float(sol.t[0]) - alpha_pred))
        count += 1
    return StabilityReport(count, violations, max_alpha_gap)


def epsilon_rule(mesh1d, b):
    """eps = b min h_j / (100 J), strictly inside the smallness condition
    eps < b min h_j / (48 J)."""
    return b * mesh1d.widths.min() / (100.0 * mesh1d.J)


def convergence_study(family, J_values, f, u0, b=1.0, seed=0, eps_rule=True):
    """Interpolation error of the SMS approximation against the basic
    solution u0 of b u' = f, u(0) = 0; returns (J, h, error) rows and
    the log-log least-squares slope."""
    rng = np.random.default_rng(seed)
    rows = []
    for J in J_values:
        if family == "random":
            mesh = random_mesh_1d(J, rng)
        elif family == "asymptotically-uniform":
            mesh = asymptotically_uniform_mesh_1d(J)
        else:
            raise ValueError("unknown mesh family %r" % family)
        eps = epsilon_rule(mesh, b) if eps_rule else 0.0
        sol = solvers.solve_sms_1d(mesh, eps, b, f)
        exact = array_form(u0, ())(mesh.nodes)
        # the last node carries the artificial boundary value
        err = float(np.abs(sol.u[:-1] - exact[:-1]).max())
        rows.append((J, mesh.h, err))
    hs = np.log([r[1] for r in rows])
    es = np.log([max(r[2], 1e-300) for r in rows])
    slope = float(np.polyfit(hs, es, 1)[0])
    return rows, slope
