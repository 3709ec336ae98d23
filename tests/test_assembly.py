"""P1 assembly: bilinear forms, stabilization parameters, residual Gram
matrix, load vectors and the Dirichlet lifting."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smsfem import analysis1d, assembly, experiments, metrics, problems, \
    sparse
from smsfem.assembly import (ProblemSpec, assemble_galerkin, assemble_supg,
                             compute_supg_parameters, dirichlet_lift,
                             hat_moments_1d, scalar_field)
from smsfem.meshes import (Triangulation, perturb_structured,
                           structured_triangulation, uniform_mesh_1d)
from smsfem.wind import OmegaPlusDecomposition, ValidationError, \
    build_omega_plus, classify_boundary, vector_field


def _one_triangle():
    return Triangulation([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                         [(0, 1, "D"), (1, 2, "D"), (2, 0, "D")])


def test_residual_gram_one_triangle_hand_value():
    m = _one_triangle()
    spec = ProblemSpec(eps=0.0, b=np.array([1.0, 0.0]), f=0.0)
    dec = OmegaPlusDecomposition(omega_plus=[], omega_hat=[0], n_delta=[],
                                 b_h=[])
    ops = assemble_galerkin(m, spec, dec)
    # s_ij = area * (dx phi_i)(dx phi_j), gradients (-1, 1, 0), area 1/2
    gx = np.array([-1.0, 1.0, 0.0])
    expected = 0.5 * np.outer(gx, gx)
    assert np.allclose(ops.S_full.toarray(), expected, atol=1e-14)


def test_galerkin_convection_identity_1d():
    # pure convection on a uniform partition gives central differencing
    ops = assembly.assemble_1d(uniform_mesh_1d(6), 0.0, 1.0, 0.0)
    a = ops.A.toarray()
    assert np.allclose(a, -a.T, atol=1e-14)
    assert np.allclose(np.diag(a, 1), 0.5)


def test_diffusion_matrix_1d_hand_value():
    ops = assembly.assemble_1d(uniform_mesh_1d(4), 1.0, 0.0, 0.0)
    h = 0.25
    expected = (np.diag([2.0 / h] * 3) + np.diag([-1.0 / h] * 2, 1)
                + np.diag([-1.0 / h] * 2, -1))
    assert np.allclose(ops.A.toarray(), expected, atol=1e-12)


def test_hat_moments_constant():
    m = uniform_mesh_1d(5)
    mom = hat_moments_1d(1.0, m)
    h = 0.2
    assert np.allclose(mom[1:-1], h, atol=1e-14)
    assert np.allclose(mom[[0, -1]], h / 2.0, atol=1e-14)
    assert abs(mom.sum() - 1.0) <= 1e-14


def test_linear_exactness_galerkin():
    # the interpolant of a linear function solves the discrete problem
    u_lin = lambda p: 3.0 * p[0] - 2.0 * p[1] + 0.25
    spec = ProblemSpec(eps=0.0, b=np.array([2.0, 1.0]),
                       f=2.0 * 3.0 + 1.0 * (-2.0), g1=u_lin)
    m = perturb_structured(structured_triangulation(5, 5), 0.2, seed=1)
    from smsfem.solvers import solve_galerkin
    u = solve_galerkin(m, spec)
    exact = np.array([u_lin(p) for p in m.nodes])
    assert np.abs(u - exact).max() <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_residual_gram_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    m = perturb_structured(structured_triangulation(4, 4), 0.25,
                           seed=seed % 100)
    b = rng.normal(size=2)
    b = b / max(np.linalg.norm(b), 1e-3)
    spec = ProblemSpec(eps=0.0, b=b, f=0.0, c=float(rng.uniform(0, 1)))
    dec = OmegaPlusDecomposition(omega_plus=[], omega_hat=list(
        range(m.n_elements)), n_delta=[], b_h=[])
    ops = assemble_galerkin(m, spec, dec)
    s = ops.S_full.toarray()
    assert np.allclose(s, s.T, atol=1e-13)
    x = rng.normal(size=s.shape[0])
    norm = max(np.abs(s).max(), 1e-300)
    assert x @ s @ x >= -1e-12 * norm * (x @ x)


def test_supg_parameter_branches():
    m = structured_triangulation(4, 4)
    b = np.array([1.0, 0.0])
    # strongly convective: every element on the large-Peclet branch
    spec = ProblemSpec(eps=1e-8, b=b, f=1.0)
    p = compute_supg_parameters(m, spec)
    assert np.all(p.pe > 1.0)
    assert np.allclose(p.delta, p.diam / (2.0 * np.linalg.norm(b)))
    # strongly diffusive: every element on the small-Peclet branch
    spec2 = ProblemSpec(eps=10.0, b=b, f=1.0)
    p2 = compute_supg_parameters(m, spec2)
    assert np.all(p2.pe <= 1.0)
    assert np.allclose(p2.delta, p2.diam ** 2 / (4.0 * spec2.eps))


def test_supg_parameter_branch_continuity():
    m = structured_triangulation(4, 4)
    b = np.array([1.0, 0.0])
    d = compute_supg_parameters(m, ProblemSpec(eps=1.0, b=b)).diam[0]
    nb = 1.0
    eps_star = nb * d / 2.0  # Peclet exactly 1
    p = compute_supg_parameters(m, ProblemSpec(eps=eps_star, b=b))
    assert np.allclose(p.pe, 1.0)
    # both branch formulas agree there
    assert np.allclose(p.delta, d / (2.0 * nb))
    assert np.allclose(p.delta, d * d / (4.0 * eps_star))


def test_supg_rejects_zero_diffusion():
    m = structured_triangulation(2, 2)
    spec = ProblemSpec(eps=0.0, b=np.array([1.0, 0.0]), f=1.0)
    with pytest.raises(ValueError):
        assemble_supg(m, spec)
    with pytest.raises(ValueError):
        compute_supg_parameters(m, spec)


@pytest.mark.parametrize("data", [
    dict(eps=math.nan), dict(eps=math.inf), dict(eps=-1.0),
    dict(b=[1.0, math.nan]), dict(b=np.array([math.inf, 0.0])),
    dict(c=math.nan), dict(f=-math.inf), dict(g1=math.nan),
    dict(g2=math.inf)])
def test_problem_spec_rejects_non_finite_data(data):
    kwargs = dict(eps=1e-3, b=np.array([1.0, 0.0]), f=1.0)
    kwargs.update(data)
    with pytest.raises(ValidationError):
        ProblemSpec(**kwargs)


def test_problem_spec_takes_callables_and_zero_diffusion():
    spec = ProblemSpec(eps=0.0, b=lambda p: np.array([math.nan, 0.0]),
                       f=lambda p: math.inf)
    assert spec.eps == 0.0


def test_dirichlet_lift_homogeneous():
    m = structured_triangulation(3, 3)
    u_d, nodes = dirichlet_lift(m, ProblemSpec(eps=1.0, b=[1.0, 0.0]))
    assert np.all(u_d == 0.0)
    assert set(nodes) == m.boundary_node_set()


def test_dirichlet_lift_layer_value_overrides_data():
    # the embedded-characteristic node at the data discontinuity carries
    # the averaged layer value, not the one-sided boundary datum
    from smsfem.problems import ex5_spec
    mesh = experiments.interior_layer_mesh(8)
    spec = ex5_spec(1e-8)
    u_d, _nodes = dirichlet_lift(mesh, spec)
    hit = [v for v in range(mesh.n_nodes)
           if abs(mesh.nodes[v][0]) < 1e-12
           and abs(mesh.nodes[v][1] - 0.7) < 1e-9]
    assert len(hit) == 1
    assert abs(u_d[hit[0]] - 0.5) <= 1e-12


def test_neumann_load_constant_datum():
    tag = lambda p: "N" if p[0] > 1.0 - 1e-9 else "D"
    m = structured_triangulation(2, 2, tag_fn=tag)
    eps = 0.1
    base = ProblemSpec(eps=eps, b=np.array([1.0, 0.0]), f=0.0, g2=0.0)
    spec = ProblemSpec(eps=eps, b=np.array([1.0, 0.0]), f=0.0, g2=1.0)
    a0 = assemble_galerkin(m, base)
    a1 = assemble_galerkin(m, spec)
    diff = a1.load - a0.load
    mid = [i for i, v in enumerate(a1.free_nodes)
           if abs(m.nodes[v][0] - 1.0) < 1e-9
           and abs(m.nodes[v][1] - 0.5) < 1e-9]
    assert len(mid) == 1
    # eps * <g2, phi> over the two adjacent edges of length 1/2
    assert abs(diff[mid[0]] - eps * 0.5) <= 1e-12
    others = [i for i in range(diff.size) if i != mid[0]
              and abs(m.nodes[a1.free_nodes[i]][0] - 1.0) > 1e-9]
    assert np.abs(diff[others]).max() <= 1e-14


def test_constraint_selector_columns():
    m = structured_triangulation(4, 4)
    b = np.array([1.0, 1.0])
    dec = build_omega_plus(m, classify_boundary(m, b), b)
    spec = ProblemSpec(eps=0.0, b=b, f=1.0)
    ops = assemble_galerkin(m, spec, dec)
    e = ops.E.toarray()
    assert e.shape == (ops.A.shape[0], len(dec.n_delta))
    assert np.all(e.sum(axis=0) == 1.0)
    free = list(ops.free_nodes)
    for col, v in enumerate(ops.n_delta):
        assert e[free.index(v), col] == 1.0


def test_quadrature_exact_constant_coefficients():
    # constant b, linear f: assembled load is exact, matches symbolic value
    m = _one_triangle()
    spec = ProblemSpec(eps=0.0, b=np.array([1.0, 0.0]),
                       f=lambda p: 2.0 + 3.0 * p[0] + p[1])
    # int f*phi_i over the reference triangle, computed symbolically:
    # phi0=1-x-y, phi1=x, phi2=y; area 1/2
    expected = np.array([2.0 / 6.0 + 3.0 / 24.0 + 1.0 / 24.0,
                         2.0 / 6.0 + 3.0 / 12.0 + 1.0 / 24.0,
                         2.0 / 6.0 + 3.0 / 24.0 + 1.0 / 12.0])
    # all nodes are Dirichlet, so reconstruct the full load by lifting-free
    # assembly on an all-Neumann variant of the same triangle
    m2 = Triangulation(m.nodes, m.elements,
                       [(0, 1, "N"), (1, 2, "N"), (2, 0, "N")])
    ops2 = assemble_galerkin(m2, spec, with_constraints=False)
    assert np.abs(ops2.load - expected).max() <= 1e-13


# ---------------------------------------------------------------------------
# The per-element loops the array path replaced, kept as its reference.
# The array path must reproduce them byte for byte: same CSR arrays, same
# loads, same signed zeros.


def _compress_triplets(trip, n_rows, n_cols):
    rows, cols, vals = (np.array([t[i] for t in trip]) for i in range(3))
    return sparse.compress(rows, cols, vals, n_rows, n_cols)


def _supg_reference(mesh, spec, delta_c=0.0, multiplier=1.0):
    area, grads, p = assembly.element_geometry(mesh)
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
    return assembly.SupgParameters(delta, pe, diam, delta_c=delta_c,
                                   multiplier=multiplier)


def _assemble_reference(mesh, spec, decomposition, supg=None):
    """(A_full, S_full, full load, full residual load, E rows)."""
    n = mesh.n_nodes
    phi_table = assembly._MIDEDGE_PHI
    area, grads, p = assembly.element_geometry(mesh)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    hat_set = set(decomposition.omega_hat)
    a_trip, s_trip = [], []
    load = np.zeros(n)
    resload = np.zeros(n)
    for k in range(mesh.n_elements):
        tri = mesh.elements[k]
        w = area[k] / 3.0
        bq = np.array([spec.b_fn(m) for m in mids[k]])
        cq = np.array([spec.c_fn(m) for m in mids[k]])
        fq = np.array([spec.f_fn(m) for m in mids[k]])
        lq = bq @ grads[k].T + cq[:, None] * phi_table.T
        phi = phi_table.T
        local = w * (lq[:, :, None] * phi[:, None, :]).sum(axis=0).T
        if spec.eps != 0.0:
            local = local + spec.eps * area[k] * (grads[k] @ grads[k].T)
        if supg is not None and supg.delta[k] != 0.0:
            wq = bq @ grads[k].T
            if supg.delta_c != 0.0:
                wq = wq + supg.delta_c * grads[k][:, 0][None, :]
            dk = supg.multiplier * supg.delta[k]
            local = local + dk * w * (lq[:, :, None]
                                      * wq[:, None, :]).sum(axis=0).T
            for a in range(3):
                load[tri[a]] += dk * w * (fq * wq[:, a]).sum()
        for a in range(3):
            load[tri[a]] += w * (fq * phi[:, a]).sum()
            for bidx in range(3):
                a_trip.append((tri[a], tri[bidx], local[a, bidx]))
        if k in hat_set:
            s_local = w * (lq[:, :, None] * lq[:, None, :]).sum(axis=0)
            for a in range(3):
                resload[tri[a]] += w * (fq * lq[:, a]).sum()
                for bidx in range(3):
                    s_trip.append((tri[a], tri[bidx], s_local[a, bidx]))
    assembly._neumann_load(mesh, spec, load)
    return (_compress_triplets(a_trip, n, n), _compress_triplets(s_trip, n, n),
            load, resload)


def _residual_reference(mesh, u, spec, region):
    area, grads, p = assembly.element_geometry(mesh)
    total = 0.0
    for k in region:
        tri = mesh.elements[k]
        grad = u[tri] @ grads[k]
        mids = 0.5 * (p[k] + np.roll(p[k], -1, axis=0))
        uq = assembly._MIDEDGE_PHI.T @ u[tri]
        for q, uval in zip(mids, uq):
            r = (float(np.dot(spec.b_fn(q), grad))
                 + spec.c_fn(q) * uval - spec.f_fn(q))
            total += area[k] / 3.0 * r * r
    return math.sqrt(total)


def _h1_reference(mesh, u, exact_gradient, region):
    area, grads, p = assembly.element_geometry(mesh)
    total = 0.0
    for k in region:
        grad = u[mesh.elements[k]] @ grads[k]
        mids = 0.5 * (p[k] + np.roll(p[k], -1, axis=0))
        for q in mids:
            d = grad - np.asarray(exact_gradient(q), dtype=float)
            total += area[k] / 3.0 * float(d @ d)
    return math.sqrt(total)


def _cell_integral_reference(f, a, b):
    h = b - a
    xq = 0.5 * (a + b) + 0.5 * h * assembly._GAUSS5_X
    wq = 0.5 * h * assembly._GAUSS5_W
    fv = np.array([f(t) if callable(f) else float(f) for t in xq])
    return float(np.sum(wq * fv))


def _hat_moments_reference(f, x):
    out = np.zeros(x.size)
    for k in range(x.size - 1):
        a, b = x[k], x[k + 1]
        h = b - a
        xq = 0.5 * (a + b) + 0.5 * h * assembly._GAUSS5_X
        wq = 0.5 * h * assembly._GAUSS5_W
        fv = np.array([f(t) if callable(f) else float(f) for t in xq])
        lam = (xq - a) / h
        out[k + 1] += np.sum(wq * fv * lam)
        out[k] += np.sum(wq * fv * (1.0 - lam))
    return out


def _assemble_1d_reference(mesh1d, eps, b, f, u_left, u_right):
    """(A, load, S, residual load) of the loop assembly."""
    x, h, J = mesh1d.nodes, mesh1d.widths, mesh1d.J
    nfree = J - 1
    a_trip, s_trip = [], []
    for i in range(1, J):
        if eps != 0.0:
            a_trip.append((i - 1, i - 1, eps * (1.0 / h[i - 1] + 1.0 / h[i])))
            if i > 1:
                a_trip.append((i - 1, i - 2, -eps / h[i - 1]))
            if i < J - 1:
                a_trip.append((i - 1, i, -eps / h[i]))
        if i > 1:
            a_trip.append((i - 1, i - 2, -b / 2.0))
        if i < J - 1:
            a_trip.append((i - 1, i, b / 2.0))
    load = _hat_moments_reference(f, x)[1:J].copy()
    if u_left != 0.0:
        if eps != 0.0:
            load[0] += eps * u_left / h[0]
        load[0] += b * u_left / 2.0
    if u_right != 0.0:
        if eps != 0.0:
            load[nfree - 1] += eps * u_right / h[J - 1]
        load[nfree - 1] -= b * u_right / 2.0
    resload = np.zeros(nfree)
    for k in range(J - 1):
        hk = h[k]
        idx, slope = [], []
        if k >= 1:
            idx.append(k - 1)
            slope.append(-b / hk)
        idx.append(k)
        slope.append(b / hk)
        intf = _cell_integral_reference(f, x[k], x[k + 1])
        for a_i, sa in zip(idx, slope):
            resload[a_i] += sa * intf
            for b_i, sb in zip(idx, slope):
                s_trip.append((a_i, b_i, sa * sb * hk))
    if u_left != 0.0:
        h1 = h[0]
        s0 = -b / h1
        resload[0] -= (b / h1) * s0 * u_left * h1
    return (_compress_triplets(a_trip, nfree, nfree), load,
            _compress_triplets(s_trip, nfree, nfree), resload)


def _assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _assert_same_csr(got, want, what):
    for part in ("indptr", "indices", "data"):
        _assert_same_bytes(getattr(got, part), getattr(want, part),
                           "%s.%s" % (what, part))


def _array_assembly(mesh, spec, dec, supg):
    """assemble() and the full (pre-restriction) A it built."""
    built = []
    coo = assembly._coo

    def keep(*args):
        built.append(coo(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_coo", keep)
        ops = assembly.assemble(mesh, spec, dec, supg=supg)
    return ops, built[0]


def _check_against_loops(mesh, spec, dec, supg=None):
    ops, A_full = _array_assembly(mesh, spec, dec, supg)
    A_ref, S_ref, load_ref, resload_ref = _assemble_reference(mesh, spec, dec,
                                                              supg)
    free, u_d = ops.free_nodes, ops.lifting
    _assert_same_csr(A_full, A_ref, "A_full")
    _assert_same_csr(ops.S_full, S_ref, "S_full")
    _assert_same_bytes(ops.load, load_ref[free] - A_ref[free] @ u_d,
                       "load")
    _assert_same_bytes(ops.residual_load,
                       resload_ref[free] - S_ref[free] @ u_d,
                       "residual load")
    position = {int(v): i for i, v in enumerate(free)}
    E_ref = _compress_triplets([(position[v], col, 1.0)
                                for col, v in enumerate(dec.n_delta)],
                               free.size, len(dec.n_delta))
    _assert_same_csr(ops.E, E_ref, "E")


def _half_zero(b):
    return lambda p: b if p[0] > 0.5 else np.zeros(2)


_WINDS = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)]),
    st.floats(0.0, 2.0 * math.pi).map(lambda t: (math.cos(t), math.sin(t))),
    st.sampled_from([(1.0, 0.0), (2.0, 3.0)]).map(
        lambda b: _half_zero(np.array(b))),
    st.just(problems.glazing_wind),
)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 6), ny=st.integers(2, 6),
       amplitude=st.sampled_from([0.0, 0.2, 0.3]),
       diagonal=st.sampled_from(["SW-NE", "NW-SE"]),
       wind=_WINDS, eps=st.sampled_from([0.0, 1e-8, 1e-2]),
       c=st.sampled_from([0.0, 0.5, -0.3]),
       f=st.sampled_from(["const", "ex1", "linear"]),
       neumann=st.booleans(), delta_c=st.sampled_from([0.0, 0.7]),
       multiplier=st.sampled_from([1.0, 1.5]),
       seed=st.integers(0, 10 ** 6))
@example(nx=4, ny=4, amplitude=0.0, diagonal="SW-NE",
         wind=_half_zero(np.array([1.0, 0.0])), eps=1e-2, c=0.0, f="const",
         neumann=False, delta_c=0.0, multiplier=1.0, seed=0)
def test_array_assembly_matches_loop_reference(nx, ny, amplitude, diagonal,
                                               wind, eps, c, f, neumann,
                                               delta_c, multiplier, seed):
    rng = np.random.default_rng(seed)
    tag = (lambda p: "N" if p[0] > 1.0 - 1e-9 else "D") if neumann else None
    mesh = structured_triangulation(nx, ny, diagonal=diagonal, tag_fn=tag)
    if amplitude:
        mesh = perturb_structured(mesh, amplitude, seed=seed % 1000)
    load = {"const": 1.0, "ex1": problems.ex1_spec(1e-2).f,
            "linear": lambda p: 2.0 + 3.0 * p[0] - p[1]}[f]
    spec = ProblemSpec(eps=eps, b=wind, f=load, c=c,
                       g2=(lambda p: p[1]) if neumann else 0.0)
    hat = rng.permutation(mesh.n_elements)[:rng.integers(0, mesh.n_elements
                                                         + 1)]
    _u_d, dir_nodes = dirichlet_lift(mesh, spec)
    free = np.setdiff1d(np.arange(mesh.n_nodes), dir_nodes)
    n_delta = list(rng.permutation(free)[:rng.integers(0, free.size + 1)])
    dec = OmegaPlusDecomposition(omega_plus=[], omega_hat=list(hat),
                                 n_delta=n_delta, b_h=[])
    _check_against_loops(mesh, spec, dec)
    if eps > 0:
        params = compute_supg_parameters(mesh, spec, delta_c, multiplier)
        ref = _supg_reference(mesh, spec, delta_c, multiplier)
        for part in ("delta", "pe", "diam"):
            _assert_same_bytes(getattr(params, part), getattr(ref, part),
                               part)
        _check_against_loops(mesh, spec, dec, params)
    u = rng.normal(size=mesh.n_nodes)
    got = metrics.convective_residual_l2(mesh, u, spec, hat)
    assert struct.pack("d", got) == struct.pack(
        "d", _residual_reference(mesh, u, spec, hat))
    grad = lambda q: (math.sin(q[0]), q[0] * q[1])
    for region in (None, hat):
        want = _h1_reference(mesh, u, grad, range(mesh.n_elements)
                             if region is None else region)
        got = metrics.h1_seminorm_error(mesh, u, grad, region)
        assert struct.pack("d", got) == struct.pack("d", want)


@pytest.mark.parametrize("name, case", [
    ("ex4", experiments.Case((16, 1e-8), 1e-8, N=16)),
    ("ex1", experiments.Case((16, 1e-4), 1e-4, N=16)),
    ("ex7", experiments.Case((16, 1e-4), 1e-4, N=16)),
])
def test_array_assembly_matches_loop_reference_on_experiments(name, case):
    mesh, spec, dec = experiments.STUDIES[name].setup({}, case)
    _check_against_loops(mesh, spec, dec)
    params = compute_supg_parameters(mesh, spec)
    _check_against_loops(mesh, spec, dec, params)
    ref = _supg_reference(mesh, spec)
    for part in ("delta", "pe", "diam"):
        _assert_same_bytes(getattr(params, part), getattr(ref, part), part)


def _random_f(seed):
    return analysis1d._random_piecewise_smooth_f(np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(J=st.integers(2, 40), random_mesh=st.booleans(),
       f=st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                   st.integers(0, 1000).map(_random_f)),
       eps=st.sampled_from([0.0, 1e-3]), b=st.sampled_from([1.0, 0.7, -1.3]),
       ends=st.sampled_from([(0.0, 0.0), (0.7, -0.4)]),
       seed=st.integers(0, 10 ** 6))
@example(J=8000, random_mesh=True, f=_random_f(3), eps=1e-3, b=1.0,
         ends=(0.7, -0.4), seed=1)
@example(J=8000, random_mesh=False, f=1.0, eps=0.0, b=1.0, ends=(0.0, 0.0),
         seed=0)
def test_array_assembly_1d_matches_loop_reference(J, random_mesh, f, eps, b,
                                                  ends, seed):
    mesh = (analysis1d.random_mesh_1d(J, np.random.default_rng(seed))
            if random_mesh else uniform_mesh_1d(J))
    ops = assembly.assemble_1d(mesh, eps, b, f, *ends)
    A, load, S, resload = _assemble_1d_reference(mesh, eps, b, f, *ends)
    _assert_same_csr(ops.A, A, "A")
    _assert_same_csr(ops.S, S, "S")
    _assert_same_bytes(ops.load, load, "load")
    _assert_same_bytes(ops.residual_load, resload, "residual load")
    _assert_same_csr(ops.E, _compress_triplets([(J - 2, 0, 1.0)], J - 1, 1),
                     "E")
    _assert_same_bytes(hat_moments_1d(f, mesh),
                       _hat_moments_reference(f, mesh.nodes), "moments")
    x = mesh.nodes
    lq = analysis1d.l_qh_cellwise(mesh, b)
    want = 0.0
    for k in range(J - 1):
        want += lq[k] * _cell_integral_reference(f, x[k], x[k + 1])
    assert struct.pack("d", analysis1d.residual_r(f, mesh, b)) == \
        struct.pack("d", want)


# ---------------------------------------------------------------------------
# Constant coefficients are broadcast, not called per point


def _counting(fn, calls, field, constant):
    """fn wrapped again by field, its point calls counted; a constant
    passes its array form on, so only a callable is called per point."""
    def counted(p):
        calls.append(p)
        return fn(p)
    if constant:
        counted.array = fn.array
    return field(counted)


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(2, 6), ny=st.integers(2, 6),
       amplitude=st.sampled_from([0.0, 0.3]),
       diagonal=st.sampled_from(["SW-NE", "NW-SE"]),
       b=st.sampled_from([(1.0, 0.0), (0.0, 0.0), (2.0, 3.0), (-0.3, 1.7)]),
       c=st.sampled_from([0.0, 0.5, -0.3]), f=st.sampled_from([0.0, 1.0, -2.5]),
       eps=st.sampled_from([0.0, 1e-8, 1e-2]), seed=st.integers(0, 10 ** 6))
def test_constant_coefficients_match_lambdas_without_calls(
        nx, ny, amplitude, diagonal, b, c, f, eps, seed):
    rng = np.random.default_rng(seed)
    mesh = structured_triangulation(nx, ny, diagonal=diagonal)
    if amplitude:
        mesh = perturb_structured(mesh, amplitude, seed=seed % 1000)
    const = ProblemSpec(eps=eps, b=np.array(b), c=c, f=f)
    lambdas = ProblemSpec(eps=eps, b=lambda p: b, c=lambda p: c,
                          f=lambda p: f)
    const_calls, lambda_calls = [], []
    for spec, calls in ((const, const_calls), (lambdas, lambda_calls)):
        for name, field in (("b_fn", vector_field), ("c_fn", scalar_field),
                            ("f_fn", scalar_field)):
            setattr(spec, name, _counting(getattr(spec, name), calls, field,
                                          spec is const))
    hat = list(rng.permutation(mesh.n_elements)[:rng.integers(
        0, mesh.n_elements + 1)])
    dec = OmegaPlusDecomposition(omega_plus=[], omega_hat=hat, n_delta=[],
                                 b_h=[])
    u = rng.normal(size=mesh.n_nodes)
    built = []
    for spec in (const, lambdas):
        ops = [assemble_galerkin(mesh, spec, dec)]
        if eps > 0:
            params = compute_supg_parameters(mesh, spec)
            ops.append(assemble_supg(mesh, spec, params, dec))
            ops.append(params)
        residual = metrics.convective_residual_l2(mesh, u, spec, hat)
        built.append((ops, struct.pack("d", residual)))
    (got, got_residual), (want, want_residual) = built
    assert got_residual == want_residual
    for g, w in zip(got, want):
        if isinstance(g, assembly.SupgParameters):
            for part in ("delta", "pe", "diam"):
                _assert_same_bytes(getattr(g, part), getattr(w, part), part)
            continue
        for part in ("A", "S", "E"):
            _assert_same_csr(getattr(g, part), getattr(w, part), part)
        _assert_same_bytes(g.load, w.load, "load")
        _assert_same_bytes(g.residual_load, w.residual_load, "residual load")
    assert const_calls == []
    assert len(lambda_calls) >= 3 * 3 * mesh.n_elements
