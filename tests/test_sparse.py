"""Sparse storage, saddle-point solves and dense spectral diagnostics."""

import dataclasses
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from smsfem import analysis1d, assembly, problems, solvers, sparse
from smsfem.meshes import (perturb_structured, structured_triangulation,
                           uniform_mesh_1d)


def test_compress_sums_duplicates():
    m = sparse.compress([0, 0], [0, 0], [1.0, 2.0], 1, 1)
    assert m.nnz == 1
    assert m.toarray() == np.array([[3.0]])


def test_compress_identity():
    m = sparse.compress(range(3), range(3), np.ones(3), 3, 3)
    assert np.array_equal(m.toarray(), np.eye(3))


def test_compress_out_of_range():
    with pytest.raises(sparse.StructuralError):
        sparse.compress([1], [0], [1.0], 1, 1)
    with pytest.raises(sparse.StructuralError):
        sparse.compress([0], [-1], [1.0], 2, 2)


def test_compress_empty():
    m = sparse.compress([], [], [], 2, 3)
    assert m.nnz == 0
    assert m.toarray().shape == (2, 3)


def test_convection_matrix_1d_skew_pattern():
    # pure convection, b=1, 4 uniform cells: +-1/2 off-diagonals, zero diag
    ops = assembly.assemble_1d(uniform_mesh_1d(4), 0.0, 1.0, 0.0)
    expected = np.array([[0.0, 0.5, 0.0],
                         [-0.5, 0.0, 0.5],
                         [0.0, -0.5, 0.0]])
    assert np.allclose(ops.A.toarray(), expected, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(8))))
def test_compress_order_independent(perm):
    rng = np.random.default_rng(7)
    rows, cols = rng.integers(0, 4, size=(2, 8))
    vals = rng.normal(size=8)
    a = sparse.compress(rows, cols, vals, 4, 4)
    b = sparse.compress(rows[perm], cols[perm], vals[perm], 4, 4)
    assert np.array_equal(a.csr.indptr, b.csr.indptr)
    assert np.array_equal(a.csr.indices, b.csr.indices)
    assert np.array_equal(a.csr.data, b.csr.data)


def test_solve_diagonal():
    m = sparse.compress([0, 1], [0, 1], [2.0, -3.0], 2, 2)
    x = sparse.solve_symmetric_indefinite(m, np.array([2.0, 3.0]))
    assert np.allclose(x, [1.0, -1.0], atol=1e-12)


def test_solve_small_saddle():
    m = sparse.compress([0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0], 2, 2)
    x = sparse.solve_symmetric_indefinite(m, np.array([2.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_solve_residual_verified():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 20))
    a = a + a.T + 40 * np.eye(20)
    rows, cols = np.indices((20, 20))
    m = sparse.compress(rows, cols, a, 20, 20)
    r = rng.normal(size=20)
    x = sparse.solve_symmetric_indefinite(m, r)
    assert np.linalg.norm(a @ x - r) <= 1e-8 * max(np.linalg.norm(r), 1.0)


def test_refinement_step_reuses_the_factor(monkeypatch):
    # a first solve that misses the tolerance forces the residual
    # correction, which must solve with the same sparse factor
    rng = np.random.default_rng(1)
    a = rng.normal(size=(12, 12)) + 30 * np.eye(12)
    rows, cols = np.indices((12, 12))
    m = sparse.compress(rows, cols, a, 12, 12)
    r = rng.normal(size=12)
    factors = []

    class FirstSolveOff:
        def __init__(self, lu):
            self.lu, self.solves = lu, 0

        def solve(self, rhs):
            self.solves += 1
            x = self.lu.solve(rhs)
            return x + 1e-3 if self.solves == 1 else x

    def splu(A, *args, **kwargs):
        factors.append(FirstSolveOff(real_splu(A, *args, **kwargs)))
        return factors[-1]

    real_splu = sparse.spla.splu
    monkeypatch.setattr(sparse.spla, "splu", splu)
    x = sparse.solve_symmetric_indefinite(m, r)
    assert len(factors) == 1 and factors[0].solves == 2
    assert np.linalg.norm(a @ x - r) <= 1e-8 * max(np.linalg.norm(r), 1.0)


def test_solve_singular_raises_without_svd(monkeypatch):
    # a failed sparse LU raises at once: no SVD looks for a null vector
    m = sparse.compress([0, 0, 1, 1], [0, 1, 0, 1], np.ones(4), 2, 2)

    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD ran")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(sparse.RankDeficiencyError):
        sparse.solve_symmetric_indefinite(m, np.array([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 20000).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_solve_singular_raises_superlu_reason_without_dense_copy(case):
    # identity with one zero row: splu fails, its reason and the row count
    # reach the caller, and no dense copy of the matrix is made
    n, zero = case
    keep = [i for i in range(n) if i != zero]
    m = sparse.compress(keep, keep, np.ones(n - 1), n, n)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense copy made")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(m.csr), "toarray", no_dense)
        mp.setattr(type(m.csr.tocsc()), "toarray", no_dense)
        with pytest.raises(sparse.RankDeficiencyError) as exc:
            sparse.solve_symmetric_indefinite(m, np.ones(n))
    assert "Factor is exactly singular" in str(exc.value)
    assert "%d unknowns" % n in str(exc.value)
    assert isinstance(exc.value.__cause__, RuntimeError)


def test_solve_nonfinite_factor_raises(monkeypatch):
    # SuperLU can return a factor whose solve is not finite
    class NanFactor:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    monkeypatch.setattr(sparse.spla, "splu", lambda A, *a, **k: NanFactor())
    m = sparse.compress(range(3), range(3), np.ones(3), 3, 3)
    with pytest.raises(sparse.RankDeficiencyError, match="3 unknowns"):
        sparse.solve_symmetric_indefinite(m, np.ones(3))


def test_solve_singular_above_svd_limit_skips_svd(monkeypatch):
    # above the SVD diagnostics' limit a failed sparse LU raises, and no
    # SVD follows its failure
    n = sparse.DENSE_LIMIT + 1
    m = sparse.compress(range(n - 1), range(n - 1), np.ones(n - 1), n, n)

    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD ran")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(sparse.RankDeficiencyError):
        sparse.solve_symmetric_indefinite(m, np.ones(n))


def test_dump_format(tmp_path):
    m = sparse.compress([0, 1], [1, 0], [2.5, -1.0], 2, 2)
    path = tmp_path / "m.txt"
    m.dump(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "2 2 2"
    assert len(lines) == 3
    row, col, val = lines[1].split()
    assert (int(row), int(col), float(val)) == (0, 1, 2.5)


def _small_kkt_system():
    mesh = structured_triangulation(4, 4)
    spec = assembly.ProblemSpec(eps=0.0, b=np.array([1.0, 1.0]), f=1.0)
    from smsfem.wind import classify_boundary, build_omega_plus
    dec = build_omega_plus(mesh, classify_boundary(mesh, spec.b), spec.b)
    ops = assembly.assemble_galerkin(mesh, spec, dec)
    return sparse.SaddleSystem(ops.S, ops.A, ops.E,
                               ops.residual_load, ops.load)


def test_saddle_symmetrize():
    system = _small_kkt_system()
    n, m = system.n, system.m
    m1 = system.matrix()
    assert abs(m1 - m1.T).max() <= 1e-14 * max(abs(m1).max(), 1e-300)
    assert m1.shape == (2 * n + m, 2 * n + m)


def test_saddle_solve_matches_dense_oracle():
    # 1D residual-minimization system against a dense factorization
    sigma = 4e-8 * math.log(18.0)
    mesh = uniform_mesh_1d(9, (0.0, 1.0 - sigma))
    ops = assembly.assemble_1d(mesh, 1e-8, 1.0, 1.0)
    system = sparse.SaddleSystem(ops.S, ops.A, ops.E,
                                 ops.residual_load, ops.load)
    x = sparse.solve_symmetric_indefinite(system)
    dense = np.linalg.solve(system.matrix().toarray(), system.rhs())
    assert np.abs(x - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def _bmat_reference(ops):
    """The saddle matrix as sp.bmat assembles it from the blocks."""
    n, m = ops.S.n_rows, ops.E.n_cols
    Z = sp.csr_matrix((n, m))
    return sp.bmat([[ops.S.csr, Z, ops.A.csr.T],
                    [Z.T, sp.csr_matrix((m, m)), ops.E.csr.T],
                    [ops.A.csr, ops.E.csr, sp.csr_matrix((n, n))]],
                   format="csr")


def _assert_saddle_matches_bmat(ops):
    got = sparse.SaddleSystem(ops.S, ops.A, ops.E, ops.residual_load,
                              ops.load).matrix()
    want = _bmat_reference(ops)
    assert got.shape == want.shape
    for part in ("indptr", "indices"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("J", [2, 3, 16, 17, 256])
@pytest.mark.parametrize("eps", [0.0, 1e-8])
def test_saddle_matrix_matches_bmat_1d(J, eps):
    mesh = analysis1d.random_mesh_1d(J, np.random.default_rng(J))
    ops = assembly.assemble_1d(mesh, eps, 1.0, lambda x: 1.0 + x)
    _assert_saddle_matches_bmat(ops)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("base", ["galerkin", "supg"])
def test_saddle_matrix_matches_bmat_2d(perturbed, base):
    mesh = structured_triangulation(8, 8)
    if perturbed:
        mesh = perturb_structured(mesh, 0.3, 4)
    spec = problems.ex4_spec(1e-8)
    dec = solvers.default_decomposition(mesh, spec)
    assemble = {"galerkin": assembly.assemble_galerkin,
                "supg": assembly.assemble_supg}[base]
    ops = assemble(mesh, spec, decomposition=dec)
    assert ops.E.n_cols > 0
    _assert_saddle_matches_bmat(ops)


def test_saddle_matrix_matches_bmat_without_n_delta():
    mesh = structured_triangulation(6, 6)
    spec = problems.ex4_spec(1e-8)
    dec = dataclasses.replace(solvers.default_decomposition(mesh, spec),
                              n_delta=[])
    ops = assembly.assemble_galerkin(mesh, spec, dec)
    assert ops.E.n_cols == 0
    _assert_saddle_matches_bmat(ops)
