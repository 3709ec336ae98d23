"""Sparse storage, saddle-point solves and dense spectral diagnostics."""

import dataclasses
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from smsfem import analysis1d, assembly, problems, solvers, sparse, wind
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
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def test_solve_diagonal():
    m = sparse.compress([0, 1], [0, 1], [2.0, -3.0], 2, 2)
    x, _ = sparse.solve_symmetric_indefinite(m, np.array([2.0, 3.0]))
    assert np.allclose(x, [1.0, -1.0], atol=1e-12)


def test_solve_small_saddle():
    m = sparse.compress([0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0], 2, 2)
    x, _ = sparse.solve_symmetric_indefinite(m, np.array([2.0, 1.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_solve_residual_verified():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 20))
    a = a + a.T + 40 * np.eye(20)
    rows, cols = np.indices((20, 20))
    m = sparse.compress(rows, cols, a, 20, 20)
    r = rng.normal(size=20)
    x, _ = sparse.solve_symmetric_indefinite(m, r)
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
    x, _ = sparse.solve_symmetric_indefinite(m, r)
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
    # reach the caller, and neither a dense copy nor an SVD is made
    n, zero = case
    keep = [i for i in range(n) if i != zero]
    m = sparse.compress(keep, keep, np.ones(n - 1), n, n)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense copy or SVD made")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(m), "toarray", no_dense)
        mp.setattr(type(m.tocsc()), "toarray", no_dense)
        mp.setattr(np.linalg, "svd", no_dense)
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


def _small_kkt_system():
    mesh = structured_triangulation(4, 4)
    spec = assembly.ProblemSpec(eps=0.0, b=np.array([1.0, 1.0]), f=1.0)
    dec = wind.decompose(mesh, spec.b)
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
    x, _ = sparse.solve_symmetric_indefinite(system)
    dense = np.linalg.solve(system.matrix().toarray(), system.rhs())
    assert np.abs(x - dense).max() <= 1e-10 * max(1.0, np.abs(dense).max())


def _bmat_reference(ops):
    """The saddle matrix as sp.bmat assembles it from the blocks."""
    n, m = ops.S.shape[0], ops.E.shape[1]
    Z = sp.csr_matrix((n, m))
    return sp.bmat([[ops.S, Z, ops.A.T],
                    [Z.T, sp.csr_matrix((m, m)), ops.E.T],
                    [ops.A, ops.E, sp.csr_matrix((n, n))]],
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
    dec = wind.decompose(mesh, spec.b)
    assemble = {"galerkin": assembly.assemble_galerkin,
                "supg": assembly.assemble_supg}[base]
    ops = assemble(mesh, spec, decomposition=dec)
    assert ops.E.shape[1] > 0
    _assert_saddle_matches_bmat(ops)


def test_saddle_matrix_matches_bmat_without_n_delta():
    mesh = structured_triangulation(6, 6)
    spec = problems.ex4_spec(1e-8)
    dec = dataclasses.replace(wind.decompose(mesh, spec.b),
                              n_delta=[])
    ops = assembly.assemble_galerkin(mesh, spec, dec)
    assert ops.E.shape[1] == 0
    _assert_saddle_matches_bmat(ops)


def test_solve_rejects_a_missing_wrong_or_nonfinite_rhs():
    # a bad right-hand side is the caller's fault, not the matrix's
    m = sparse.compress(range(3), range(3), np.ones(3), 3, 3)
    with pytest.raises(sparse.StructuralError, match="needs a right-hand"):
        sparse.solve_symmetric_indefinite(m)
    with pytest.raises(sparse.StructuralError, match=r"\(2,\) for 3 unknowns"):
        sparse.solve_symmetric_indefinite(m, np.ones(2))
    system = _small_kkt_system()
    with pytest.raises(sparse.StructuralError, match="for %d unknowns"
                       % system.matrix().shape[0]):
        sparse.solve_symmetric_indefinite(system, np.ones(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(sparse.StructuralError, match="not finite"):
            sparse.solve_symmetric_indefinite(m, np.array([1.0, bad, 1.0]))


def _reference_operators_1d(mesh1d, eps, b, f, u_left, u_right):
    """assemble_1d's operators with A, S and E compressed from coordinate
    arrays, as they were built before the direct CSR build."""
    ops = assembly.assemble_1d(mesh1d, eps, b, f, u_left, u_right)
    h, nfree = mesh1d.widths, mesh1d.J - 1
    r = np.arange(nfree)
    lo, up = r[1:], r[:-1]
    rows, cols = [lo, up], [up, lo]
    vals = [np.full(nfree - 1, -b / 2.0), np.full(nfree - 1, b / 2.0)]
    if eps != 0.0:
        rows += [r, lo, up]
        cols += [r, up, lo]
        vals += [eps * (1.0 / h[:-1] + 1.0 / h[1:]), -eps / h[1:-1],
                 -eps / h[1:-1]]
    A = sparse.compress(np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals), nfree, nfree)
    hk = h[:-1]
    right, left = b / hk, -b / hk[1:]
    S = sparse.compress(
        np.concatenate([r, up, up, lo]), np.concatenate([r, up, lo, up]),
        np.concatenate([right * right * hk, left * left * hk[1:],
                        left * right[1:] * hk[1:],
                        right[1:] * left * hk[1:]]), nfree, nfree)
    E = sparse.compress([nfree - 1], [0], [1.0], nfree, 1)
    return dataclasses.replace(ops, A=A, S=S, E=E)


def _reference_kkt(ops, n_delta_free):
    """(CSC matrix, u, t, z, residual) of the SMS optimality system as
    solved before the symmetric shortcut: bmat's matrix, its tocsc()
    factored, one refinement step, the residual recomputed and checked,
    then the constraint and multiplier checks."""
    n, m = ops.S.shape[0], ops.E.shape[1]
    M = _bmat_reference(ops)
    r = np.concatenate([ops.residual_load, np.zeros(m), ops.load])
    csc = M.tocsc()
    lu = sparse.spla.splu(csc.copy())
    x = lu.solve(r)
    if sparse.norm(M @ x - r) / max(sparse.norm(r), 1.0) > 1e-8:
        x = x + lu.solve(r - M @ x)
    residual = float(sparse.norm(M @ x - r) / max(sparse.norm(r), 1.0))
    if not residual <= 1e-8:
        raise RuntimeError("direct solve residual %.3e" % residual)
    u, t, z = x[:n], x[n:n + m], -x[n + m:]
    cons = ops.A @ u + ops.E @ t - ops.load
    if sparse.norm(cons) / max(sparse.norm(ops.load), 1.0) > 1e-8:
        raise solvers.SolveError("SMS constraint equation residual")
    zmax = np.abs(z).max() if z.size else 0.0
    if zmax > 0 and n_delta_free and max(
            abs(z[i]) for i in n_delta_free) > 1e-10 * zmax:
        raise solvers.SolveError("SMS multiplier does not vanish on N_delta")
    return csc, u, t, z, residual


def _outcome(solve):
    try:
        return solve()
    except RuntimeError as exc:
        return exc


def _assert_same_csr(got, want):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def _assert_kkt_matches_reference(ops, n_delta):
    """_solve_kkt hands SuperLU the reference CSC arrays and returns the
    reference bytes, or fails where the reference fails: a failed factor
    as RankDeficiencyError, a failed check with the same SolveError.
    n_delta (the N_delta nodes) is the reference's, which finds their
    free-node positions itself; _solve_kkt reads N_delta from ops."""
    handed = []

    def splu(A, *args, **kwargs):
        handed.append(A)
        return real_splu(A, *args, **kwargs)

    real_splu = sparse.spla.splu
    free = ops.free_nodes
    position = {int(v): i for i, v in enumerate(free)}
    want = _outcome(lambda: _reference_kkt(
        ops, [position[int(v)] for v in n_delta]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse.spla, "splu", splu)
        got = _outcome(lambda: solvers._solve_kkt(ops, "SMS", "sms"))
    assert len(handed) == 1 and handed[0].format == "csc"
    _assert_same_csr(handed[0], _bmat_reference(ops).tocsc())
    if isinstance(want, solvers.SolveError):
        assert type(got) is solvers.SolveError
        assert str(got).startswith(str(want))
    elif isinstance(want, RuntimeError):
        assert isinstance(got, sparse.RankDeficiencyError)
    else:
        assert not isinstance(got, Exception), got
        csc, u, t, z, residual = want
        z_nodes = np.zeros(ops.lifting.size)
        z_nodes[free] = z
        for a, b in ((got.u[free], u), (got.t, t), (got.z[free], z),
                     (got.z, z_nodes)):
            assert a.tobytes() == b.tobytes()
        assert got.residual == residual and got.size == csc.shape[0]
        assert got.n_delta == list(n_delta) and got.method == "sms"


@settings(max_examples=60, deadline=None)
@given(J=st.integers(2, 300), eps=st.sampled_from([0.0, 1e-8, 1e-3]),
       b=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1),
       u_left=st.sampled_from([0.0, 0.75, -2.0]),
       u_right=st.sampled_from([0.0, 1.5, -0.25]))
def test_kkt_path_equals_reference_bitwise_1d(J, eps, b, seed, u_left,
                                              u_right):
    # the direct CSR operators and the SuperLU handoff keep every byte
    mesh = analysis1d.random_mesh_1d(J, np.random.default_rng(seed))
    f = lambda x: 1.0 + x * x
    ops = assembly.assemble_1d(mesh, eps, b, f, u_left, u_right)
    ref = _reference_operators_1d(mesh, eps, b, f, u_left, u_right)
    for name in ("A", "S", "E"):
        _assert_same_csr(getattr(ops, name), getattr(ref, name))
    _assert_kkt_matches_reference(ops, [J - 1])


@settings(max_examples=20, deadline=None)
@given(N=st.integers(2, 8), perturbed=st.booleans(),
       seed=st.integers(0, 1000), eps=st.sampled_from([1e-8, 1e-3]),
       base=st.sampled_from(["galerkin", "supg"]))
def test_kkt_path_equals_reference_bitwise_2d(N, perturbed, seed, eps, base):
    mesh = structured_triangulation(N, N)
    if perturbed:
        mesh = perturb_structured(mesh, 0.3, seed)
    spec = assembly.ProblemSpec(eps=eps, b=np.array([2.0, 3.0]), f=1.0,
                                g1=0.5)
    dec = wind.decompose(mesh, spec.b)
    assemble = {"galerkin": assembly.assemble_galerkin,
                "supg": assembly.assemble_supg}[base]
    ops = assemble(mesh, spec, decomposition=dec)
    _assert_kkt_matches_reference(ops, dec.n_delta)
