"""The 1D pure-convection analysis toolkit: discrete negative norm, the
oscillating auxiliary function, stability and convergence checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smsfem import analysis1d, assembly, solvers
from smsfem.analysis1d import (asymptotically_uniform_mesh_1d, build_q_h,
                               convergence_study, discrete_negative_norm,
                               epsilon_rule, l_qh_cellwise, random_mesh_1d,
                               residual_r, stability_bound, verify_stability)
from smsfem.meshes import uniform_mesh_1d


def test_negative_norm_zero():
    assert discrete_negative_norm(0.0, uniform_mesh_1d(9)).value == 0.0


def test_negative_norm_constant_closed_form():
    J = 9
    work = discrete_negative_norm(1.0, uniform_mesh_1d(J))
    h = 1.0 / J
    assert work.j_prime == J
    # even-indexed partial sums accumulate the odd moments: S_{2j} = j*h
    for j in range(1, 5):
        assert abs(work.sums[2 * j] - j * h) <= 1e-14
    # odd-indexed partial sums accumulate the remaining even moments
    for j in range(1, 5):
        assert abs(work.sums[2 * j - 1] - (5 - j) * h) <= 1e-14
    assert abs(work.value - 4.0 * h) <= 1e-14


def test_negative_norm_even_parity_truncates():
    work = discrete_negative_norm(1.0, uniform_mesh_1d(8))
    assert work.j_prime == 7


@settings(max_examples=30, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(min_value=-10, max_value=10))
def test_negative_norm_is_a_seminorm(a0, a1, b0, b1, lam):
    mesh = uniform_mesh_1d(11)
    f = lambda x: a0 + a1 * np.sin(3 * x)
    g = lambda x: b0 + b1 * x * x
    nf = discrete_negative_norm(f, mesh).value
    ng = discrete_negative_norm(g, mesh).value
    nsum = discrete_negative_norm(lambda x: f(x) + g(x), mesh).value
    assert nsum <= nf + ng + 1e-12
    nscaled = discrete_negative_norm(lambda x: lam * f(x), mesh).value
    assert abs(nscaled - abs(lam) * nf) <= 1e-12 * (1.0 + nf)


@settings(max_examples=25, deadline=None)
@given(J=st.sampled_from([2, 3, 8, 9, 64, 255, 256, 257]),
       seed=st.integers(0, 10 ** 6))
def test_negative_norm_sums_match_generator_sums(J, seed):
    # the partial sums as written in the definition, one fresh sum each
    rng = np.random.default_rng(seed)
    mesh = random_mesh_1d(J, rng)
    f = analysis1d._random_piecewise_smooth_f(rng)
    work = discrete_negative_norm(f, mesh)
    m = work.moments
    half = (work.j_prime - 1) // 2
    want = np.zeros(work.j_prime)
    for j in range(1, half + 1):
        want[2 * j] = sum(m[2 * i - 1] for i in range(1, j + 1))
        want[2 * j - 1] = sum(m[2 * i] for i in range(j, half + 1))
    assert work.sums.tobytes() == want.tobytes()
    assert work.value == (float(np.abs(want[1:]).max()) if half else 0.0)


def test_q_h_small_odd_case():
    q = build_q_h(uniform_mesh_1d(3), 1.0)
    assert np.allclose(q[1:3], [-2.0, 0.0])
    ops = assembly.assemble_1d(uniform_mesh_1d(3), 0.0, 1.0, 0.0)
    aq = ops.A.csr @ q[1:3]
    assert np.allclose(aq, [0.0, 1.0], atol=1e-14)


def test_q_h_even_case_annihilates():
    q = build_q_h(uniform_mesh_1d(4), 2.0)
    ops = assembly.assemble_1d(uniform_mesh_1d(4), 0.0, 2.0, 0.0)
    assert np.abs(ops.A.csr @ q[1:4]).max() <= 1e-14


def test_q_h_identities_both_parities_random_meshes():
    rng = np.random.default_rng(5)
    for J in list(range(3, 12)) + [33, 48, 64]:
        for mesh in (uniform_mesh_1d(J), random_mesh_1d(J, rng)):
            build_q_h(mesh, 1.0)  # self-verifying to 1e-12


def test_q_h_rejects_nonpositive_wind():
    with pytest.raises(ValueError):
        build_q_h(uniform_mesh_1d(3), 0.0)


def test_l_qh_matches_cellwise_derivative():
    rng = np.random.default_rng(1)
    mesh = random_mesh_1d(7, rng)
    b = 2.0
    q = build_q_h(mesh, b)
    lq = l_qh_cellwise(mesh, b)
    derivative = b * np.diff(q) / mesh.widths
    # the closed form describes cells 1..J-1; the last cell sees the
    # homogeneous artificial boundary value instead
    assert np.abs(lq[:-1] - derivative[:-1]).max() <= 1e-12


def test_residual_r_constant_load():
    # integral of f against the alternating cellwise values telescopes
    mesh = uniform_mesh_1d(5)
    r = residual_r(1.0, mesh, 1.0)
    expected = sum(2.0 * (-1.0) ** j for j in range(1, 5))
    assert abs(r - expected) <= 1e-12


def test_stability_bound_zero_load():
    bound, work, r = stability_bound(0.0, uniform_mesh_1d(9), 1.0)
    assert bound == 0.0 and work.value == 0.0 and r == 0.0


def test_verify_stability_small_run():
    report = verify_stability(trials=20, J_values=[8, 9, 12, 17], seed=1)
    assert report.ok
    assert report.trials == 20
    assert report.max_alpha_gap <= 1e-12


class _CountingLoad:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


@pytest.mark.parametrize("J", [2, 3, 16, 17])
def test_verify_stability_calls_the_load_once_per_gauss_point(J,
                                                              monkeypatch):
    loads = []

    def counted(rng):
        loads.append(_CountingLoad(random_f(rng)))
        return loads[-1]

    random_f = analysis1d._random_piecewise_smooth_f
    monkeypatch.setattr(analysis1d, "_random_piecewise_smooth_f", counted)
    report = verify_stability(4, [J], seed=J)
    assert report.trials == len(loads) == 4
    assert [f.calls for f in loads] == [5 * J] * 4


class _CountingArrayLoad(_CountingLoad):
    """A load whose array form is passed on; both kinds of call counted."""

    def __init__(self, f):
        super().__init__(f)
        self.array_calls = 0

    def array(self, x):
        self.array_calls += 1
        return self.f.array(x)


@pytest.mark.parametrize("J", [2, 3, 16, 17])
def test_verify_stability_calls_the_array_form_once_per_mesh(J,
                                                             monkeypatch):
    loads = []

    def counted(rng):
        loads.append(_CountingArrayLoad(random_f(rng)))
        return loads[-1]

    random_f = analysis1d._random_piecewise_smooth_f
    monkeypatch.setattr(analysis1d, "_random_piecewise_smooth_f", counted)
    report = verify_stability(4, [J], seed=J)
    assert report.trials == len(loads) == 4
    assert [(f.calls, f.array_calls) for f in loads] == [(0, 1)] * 4


@settings(max_examples=25, deadline=None)
@given(J=st.sampled_from([2, 3, 8, 9, 64, 255, 256]),
       seed=st.integers(0, 10 ** 6), b=st.sampled_from([1.0, 0.7]))
def test_array_load_keeps_the_bytes_of_the_scalar_path(J, seed, b):
    rng = np.random.default_rng(seed)
    mesh = random_mesh_1d(J, rng)
    load = analysis1d._random_piecewise_smooth_f(rng)
    by_array, by_point = _CountingArrayLoad(load), _CountingLoad(load)
    results = []
    for f in (by_array, by_point):
        sol = solvers.solve_sms_1d(mesh, 0.0, b, f)
        bound, work, r = stability_bound(f, mesh, b)
        results.append((sol.u, sol.t, work.moments, work.sums, bound, r))
    assert (by_array.calls, by_array.array_calls) == (0, 1)
    assert by_point.calls == 5 * J
    for got, want in zip(*results):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=25, deadline=None)
@given(J=st.sampled_from([2, 3, 8, 9, 64, 255, 256]),
       seed=st.integers(0, 10 ** 6), b=st.sampled_from([1.0, 0.7]))
def test_one_load_evaluation_per_mesh_keeps_every_value(J, seed, b):
    rng = np.random.default_rng(seed)
    mesh = random_mesh_1d(J, rng)
    f = _CountingLoad(analysis1d._random_piecewise_smooth_f(rng))
    sol = solvers.solve_sms_1d(mesh, 0.0, b, f)
    bound, work, r = stability_bound(f, mesh, b)
    assert f.calls == 5 * J
    # reference: every consumer evaluates the load anew, r on the cells
    # of the nodes x_0..x_{J-1}
    ref = solvers.solve_sms_1d(mesh, 0.0, b, lambda x: f.f(x))
    ref_work = discrete_negative_norm(lambda x: f.f(x), mesh)
    _lam, wf = assembly.gauss5_cells(f.f, mesh.nodes[:-1])
    ref_r = assembly.ordered_sum(l_qh_cellwise(mesh, b)[:-1]
                                 * wf.sum(axis=1))
    ref_bound = (6.0 / b) * (ref_work.value
                             + mesh.h / (6.0 * mesh.J) * abs(ref_r))
    for got, want in [(sol.u, ref.u), (sol.t, ref.t),
                      (work.moments, ref_work.moments),
                      (work.sums, ref_work.sums), (bound, ref_bound),
                      (r, ref_r)]:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_relaxation_scalar_equals_odd_moment_sum():
    mesh = uniform_mesh_1d(10)
    f = lambda x: 1.0 + x
    sol = solvers.solve_sms_1d(mesh, 0.0, 1.0, f)
    moments = assembly.hat_moments_1d(f, mesh)
    alpha_pred = sum(moments[2 * j - 1] for j in range(1, 6))
    assert abs(float(sol.t[0]) - alpha_pred) <= 1e-12


def test_sms_solution_orthogonal_to_oscillating_direction():
    # the minimizer's residual is orthogonal to the feasible direction
    # spanned by the oscillating function, elementwise over (0, x_{J-1})
    rng = np.random.default_rng(3)
    for J in (9, 10):
        mesh = random_mesh_1d(J, rng)
        b = 1.0
        f = lambda x: np.cos(2.0 * x) + 0.5 * x
        sol = solvers.solve_sms_1d(mesh, 0.0, b, f)
        lq = l_qh_cellwise(mesh, b)
        x = mesh.nodes
        du = np.diff(sol.u) / mesh.widths
        cell_f = assembly.gauss5_cells(f, x)[1].sum(axis=1)
        total = 0.0
        scale = 0.0
        for k in range(J - 1):  # cells 1..J-1
            intf = cell_f[k]
            term = lq[k] * (b * du[k] * mesh.widths[k] - intf)
            total += term
            scale += abs(term)
        assert abs(total) <= 1e-10 * max(scale, 1.0)


def test_epsilon_rule_inside_smallness_window():
    mesh = uniform_mesh_1d(16)
    b = 2.0
    assert epsilon_rule(mesh, b) < b * mesh.widths.min() / (48.0 * mesh.J)


def test_convergence_study_shapes_and_families():
    f = lambda x: np.cos(3.0 * x)
    u0 = lambda x: np.sin(3.0 * x) / 3.0
    rows, slope = convergence_study("random", [16, 32, 64], f, u0, seed=0)
    assert len(rows) == 3
    assert all(r[2] >= 0 for r in rows)
    assert slope > 0.5
    rows2, slope2 = convergence_study("asymptotically-uniform",
                                      [16, 32, 64], f, u0)
    assert slope2 > 1.5
    with pytest.raises(ValueError):
        convergence_study("chebyshev", [16], f, u0)


def test_asymptotically_uniform_family_width_differences():
    for J in (16, 64):
        mesh = asymptotically_uniform_mesh_1d(J)
        w = mesh.widths
        assert np.abs(w[2:] - w[:-2]).max() <= 10.0 * mesh.h ** 2
