"""Solution drivers: Galerkin, SUPG, the residual-minimization method and
the layer-resolving oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smsfem import experiments, solvers, sparse
from smsfem.assembly import ProblemSpec
from smsfem.meshes import (perturb_structured, structured_triangulation,
                           uniform_mesh_1d)
from smsfem.wind import build_omega_plus, classify_boundary


def test_zero_data_gives_zero_solution():
    m = structured_triangulation(4, 4)
    spec = ProblemSpec(eps=1e-2, b=np.array([1.0, 1.0]), f=0.0)
    assert np.abs(solvers.solve_galerkin(m, spec)).max() <= 1e-12
    assert np.abs(solvers.solve_supg(m, spec)).max() <= 1e-12
    sol = solvers.solve_sms(m, spec)
    assert np.abs(sol.u).max() <= 1e-12
    assert np.abs(sol.z).max() <= 1e-12
    assert np.abs(sol.t).max() <= 1e-12


def test_galerkin_1d_even_cells_singular_for_generic_load():
    # pure convection with an even cell count has a rank-deficient system
    # whenever the odd moments do not cancel
    with pytest.raises(sparse.RankDeficiencyError):
        solvers.solve_galerkin_1d(uniform_mesh_1d(8), 0.0, 1.0, 1.0)


def test_galerkin_1d_odd_cells_solves():
    m = uniform_mesh_1d(9)
    u = solvers.solve_galerkin_1d(m, 0.0, 1.0, 1.0)
    assert u.shape == (10,)
    assert u[0] == 0.0 and u[-1] == 0.0
    assert np.all(np.isfinite(u))


def test_sms_1d_even_cells_solves():
    # the relaxation scalar restores solvability where Galerkin fails
    sol = solvers.solve_sms_1d(uniform_mesh_1d(8), 0.0, 1.0, 1.0)
    assert np.all(np.isfinite(sol.u))
    assert sol.n_delta == [7]
    assert sol.residual <= 1e-8


def test_sms_linear_exactness():
    u_lin = lambda p: 2.0 * p[0] + p[1] - 0.3
    b = np.array([1.0, 2.0])
    spec = ProblemSpec(eps=0.0, b=b, f=float(b @ [2.0, 1.0]), g1=u_lin)
    m = perturb_structured(structured_triangulation(5, 5), 0.2, seed=2)
    sol = solvers.solve_sms(m, spec)
    exact = np.array([u_lin(p) for p in m.nodes])
    assert np.abs(sol.u - exact).max() <= 1e-9
    assert np.abs(sol.t).max() <= 1e-9
    assert np.abs(sol.z).max() <= 1e-9


def test_sms_scaling_equivariance():
    m = structured_triangulation(6, 6)
    lam = 3.5
    for base in ("galerkin", "supg"):
        spec1 = ProblemSpec(eps=1e-3, b=np.array([1.0, 1.0]), f=1.0, g1=0.5)
        spec2 = ProblemSpec(eps=1e-3, b=np.array([1.0, 1.0]), f=lam,
                            g1=lam * 0.5)
        s1 = solvers.solve_sms(m, spec1, base=base)
        s2 = solvers.solve_sms(m, spec2, base=base)
        scale = max(np.abs(s1.u).max(), 1.0)
        assert np.abs(s2.u - lam * s1.u).max() <= 1e-8 * lam * scale
        assert np.abs(s2.t - lam * s1.t).max() <= 1e-8 * lam
        assert np.abs(s2.z - lam * s1.z).max() <= 1e-8 * lam


def _linear_data(scale, a, c):
    """f and g1, scaled; each is its own array form."""
    def f(p):
        p = np.asarray(p, dtype=float)
        return scale * a * (1.0 + p[..., 0] * p[..., 1])

    def g1(p):
        p = np.asarray(p, dtype=float)
        return scale * c * (p[..., 0] - 2.0 * p[..., 1])

    f.array, g1.array = f, g1
    return f, g1


_COEFFICIENT = st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0))


@pytest.mark.parametrize("grid", ["structured", "mild-random"])
@pytest.mark.parametrize("eps", [1e-8, 1e-3])
@pytest.mark.parametrize("base", ["galerkin", "supg"])
@settings(max_examples=5, deadline=None)
@given(a=_COEFFICIENT, c=_COEFFICIENT)
def test_sms_solution_scales_bitwise_with_the_data(grid, eps, base, a, c):
    # scaling by a power of two rounds exactly, and nothing in the solve
    # branches on the size of the data: f, g1 times 4 give u, t, z times 4
    b = np.array([1.0, 0.5])
    mesh = (structured_triangulation(16, 16) if grid == "structured"
            else experiments.mild_random_grid(12, b, 3))
    one, four = (solvers.solve_sms(mesh, ProblemSpec(
        eps=eps, b=b, f=f, g1=g1), base=base)
        for f, g1 in (_linear_data(1.0, a, c), _linear_data(4.0, a, c)))
    for name in ("u", "t", "z"):
        assert (4.0 * getattr(one, name)).tobytes() == \
            getattr(four, name).tobytes(), name


def test_sms_multiplier_vanishes_on_constraint_nodes():
    m = structured_triangulation(8, 8)
    spec = ProblemSpec(eps=1e-8, b=np.array([1.0, 1.0]), f=1.0)
    sol = solvers.solve_sms(m, spec)
    zmax = np.abs(sol.z).max()
    assert zmax > 0
    assert max(abs(sol.z[v]) for v in sol.n_delta) <= 1e-10 * zmax


def test_sms_feasibility_reverified():
    m = structured_triangulation(8, 8)
    spec = ProblemSpec(eps=1e-8, b=np.array([2.0, 3.0]), f=1.0)
    dec = build_omega_plus(m, classify_boundary(m, spec.b), spec.b)
    from smsfem import assembly
    for base in ("galerkin", "supg"):
        sol = solvers.solve_sms(m, spec, dec, base=base)
        if base == "galerkin":
            ops = assembly.assemble_galerkin(m, spec, dec)
        else:
            ops = assembly.assemble_supg(m, spec, decomposition=dec)
        uf = sol.u[ops.free_nodes]
        res = ops.A @ uf + ops.E @ sol.t - ops.load
        assert np.linalg.norm(res) <= 1e-8 * max(
            np.linalg.norm(ops.load), 1.0)
        assert sol.method == "sms-" + base


def _kkt_ops(dim):
    from smsfem import assembly
    if dim == 1:
        return assembly.assemble_1d(uniform_mesh_1d(8), 1e-8, 1.0, 1.0,
                                    0.0, 0.0)
    m = structured_triangulation(6, 6)
    spec = ProblemSpec(eps=1e-8, b=np.array([2.0, 3.0]), f=1.0)
    dec = build_omega_plus(m, classify_boundary(m, spec.b), spec.b)
    return assembly.assemble_galerkin(m, spec, dec, with_constraints=True)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("factor, raises", [(2.0, True), (0.5, False)])
def test_kkt_symmetry_check_sees_asymmetric_s(dim, factor, raises):
    # the check compares |S - S^T| with 1e-14 times the largest |entry|
    # of the saddle matrix, which is the largest of S, A and E
    ops = _kkt_ops(dim)
    scale = max(abs(B.data).max() for B in (ops.S, ops.A, ops.E))
    S = ops.S.tolil()
    S[0, 1] += factor * 1e-14 * scale
    ops.S = S.tocsr()
    if raises:
        with pytest.raises(solvers.SolveError, match="lost symmetry"):
            solvers._solve_kkt(ops, "SMS", "sms")
    else:
        assert solvers._solve_kkt(ops, "SMS", "sms").residual <= 1e-8


@pytest.mark.parametrize("dim", [1, 2])
def test_kkt_solve_of_slightly_asymmetric_s_factors_the_real_csc(dim):
    # S within the symmetry bound but not bitwise symmetric: SuperLU gets
    # the arrays of M.tocsc(), which differ from those of the view M.T
    ops = _kkt_ops(dim)
    scale = max(abs(B.data).max() for B in (ops.S, ops.A, ops.E))
    S = ops.S.tolil()
    S[0, 1] += 0.5e-14 * scale
    ops.S = S.tocsr()
    M = sparse.SaddleSystem(ops.S, ops.A, ops.E, ops.residual_load,
                            ops.load).matrix()
    handed = []

    def splu(A, *args, **kwargs):
        handed.append(A)
        return real_splu(A, *args, **kwargs)

    real_splu = sparse.spla.splu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse.spla, "splu", splu)
        assert solvers._solve_kkt(ops, "SMS", "sms").residual <= 1e-8
    want = M.tocsc()
    assert len(handed) == 1 and handed[0].format == "csc"
    assert handed[0].data.tobytes() != M.T.data.tobytes()
    for part in ("data", "indices", "indptr"):
        assert (getattr(handed[0], part).tobytes()
                == getattr(want, part).tobytes()), part


def test_sms_invalid_base():
    m = structured_triangulation(3, 3)
    spec = ProblemSpec(eps=1e-3, b=np.array([1.0, 0.0]), f=1.0)
    with pytest.raises(ValueError):
        solvers.solve_sms(m, spec, base="lumped")


def test_oracle_1d_zero_load():
    u, coarse, alpha_star, mesh = solvers.solve_shishkin_oracle_1d(
        6, 1e-6, 1.0, 0.0, sigma=4e-6 * math.log(12.0))
    assert np.abs(u).max() <= 1e-12
    assert abs(alpha_star) <= 1e-12
    assert coarse.shape == (7,)


def test_oracle_1d_alpha_formula():
    N, eps, b = 9, 1e-8, 1.0
    sigma = 4.0 * eps * math.log(2 * N)
    u, coarse, alpha_star, mesh = solvers.solve_shishkin_oracle_1d(
        N, eps, b, 1.0, sigma)
    h_last_coarse = mesh.widths[N - 1]
    assert abs(alpha_star - u[N] * (-eps / h_last_coarse - b / 2.0)) <= 1e-14
    assert np.array_equal(coarse, u[:N + 1])


def test_oracle_2d_coarse_mask():
    spec = ProblemSpec(eps=1e-4, b=np.array([2.0, 3.0]), f=1.0)
    sx = 2e-4 * math.log(5)
    sy = 1.5e-4 * math.log(10)
    u, mesh, coarse = solvers.solve_shishkin_oracle_2d(spec, 5, sx, sy)
    assert u.shape == (mesh.n_nodes,)
    inside = ((mesh.nodes[:, 0] <= 1.0 - sx + 1e-14)
              & (mesh.nodes[:, 1] <= 1.0 - sy + 1e-14))
    assert np.array_equal(coarse, inside)
    assert coarse.sum() == 36  # the 6x6 coarse lattice


def test_sms_singular_decomposition_reports_remediation_hint():
    from smsfem import defects
    m = defects.band_interior_node_mesh()
    dec = defects.band_decomposition(m, defects.WIND)
    spec = ProblemSpec(eps=0.0, b=defects.WIND, f=1.0)
    with pytest.raises(sparse.RankDeficiencyError) as exc:
        solvers.solve_sms(m, spec, dec)
    assert "diagnose" in str(exc.value)
    assert "Factor is exactly singular" in str(exc.value)
