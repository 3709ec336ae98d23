"""Nodal/residual error measures, layer oscillation indicators and rate
fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smsfem.assembly import ProblemSpec
from smsfem.meshes import Triangulation, perturb_structured, \
    structured_triangulation
from smsfem import metrics
from smsfem.metrics import (ArgumentError, NOT_CROSSED,
                            convective_residual_l2, element_gradients,
                            evaluate_p1, fit_rate, h1_seminorm_error,
                            linf_nodal_error, osc_int_smear_int,
                            osc_para_exp, osc_smear, over_undershoot)


def test_evaluate_p1_linear_exact():
    m = perturb_structured(structured_triangulation(5, 5), 0.2, seed=7)
    u = 3.0 * m.nodes[:, 0] - m.nodes[:, 1] + 0.1
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    vals = evaluate_p1(m, u, pts)
    exact = 3.0 * pts[:, 0] - pts[:, 1] + 0.1
    assert np.abs(vals - exact).max() <= 1e-12


def test_locate_point_outside():
    m = structured_triangulation(3, 3)
    with pytest.raises(ArgumentError, match=r"point \(1\.5, 0\.5\) outside"):
        metrics._locate(m, [np.array([1.5, 0.5])])


# ---------------------------------------------------------------------------
# The full scan over all elements that point location replaced, kept as
# its reference: the batched locator must give the same element (the
# lowest index on ties), the same coordinates and the same errors.


def _locate_reference(mesh, point, tol=1e-12):
    p = mesh.nodes[mesh.elements]
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    det = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
           - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    l1 = ((point[0] - a[:, 0]) * (c[:, 1] - a[:, 1])
          - (c[:, 0] - a[:, 0]) * (point[1] - a[:, 1])) / det
    l2 = ((b[:, 0] - a[:, 0]) * (point[1] - a[:, 1])
          - (point[0] - a[:, 0]) * (b[:, 1] - a[:, 1])) / det
    l0 = 1.0 - l1 - l2
    lam = np.stack([l0, l1, l2], axis=1)
    hits = np.nonzero((lam >= -tol).all(axis=1))[0]
    if hits.size == 0:
        raise ArgumentError("point (%g, %g) outside the mesh"
                            % (point[0], point[1]))
    k = int(hits[0])
    return k, np.clip(lam[k], 0.0, 1.0)


def _locate_one(mesh, point):
    k, lam = metrics._locate(mesh, [point])
    return int(k[0]), lam[0]


def _outcome(locate, mesh, point):
    try:
        k, lam = locate(mesh, point)
    except ArgumentError as err:
        return str(err)
    return k, lam.tobytes()


def _check_locations(mesh, u, points):
    """_locate and evaluate_p1 against the full scan, point by point
    and all at once (where the first outside point must raise)."""
    want = [_outcome(_locate_reference, mesh, pt) for pt in points]
    assert [_outcome(_locate_one, mesh, pt) for pt in points] == want
    errors = [w for w in want if isinstance(w, str)]
    if errors:
        with pytest.raises(ArgumentError) as err:
            evaluate_p1(mesh, u, points)
        assert str(err.value) == errors[0]
        return
    values = [float(np.frombuffer(lam) @ u[mesh.elements[k]])
              for k, lam in want]
    assert evaluate_p1(mesh, u, points).tobytes() == \
        np.array(values).tobytes()


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 8), ny=st.integers(2, 8),
       amplitude=st.sampled_from([0.0, 0.2, 0.3]),
       diagonal=st.sampled_from(["SW-NE", "NW-SE"]),
       seed=st.integers(0, 10 ** 6))
def test_evaluate_p1_matches_full_scan(nx, ny, amplitude, diagonal, seed):
    rng = np.random.default_rng(seed)
    mesh = structured_triangulation(nx, ny, diagonal=diagonal)
    if amplitude:
        mesh = perturb_structured(mesh, amplitude, seed=seed % 1000)
    u = rng.normal(size=mesh.n_nodes)
    tri = mesh.nodes[mesh.elements]
    # a point on every element edge, so shared edges are hit from both
    # sides and the lowest element index must win
    s = rng.uniform(size=(mesh.n_elements, 3, 1))
    on_edges = (s * tri + (1.0 - s) * np.roll(tri, -1, axis=1)).reshape(-1, 2)
    # boundary points pushed out along the normal by under 1e-12
    ends = np.array([(i, j) for i, j, _t in mesh.boundary_edges])
    pi, pj = mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]]
    t = rng.uniform(size=(len(ends), 1))
    q = t * pi + (1.0 - t) * pj
    normal = (pj - pi)[:, ::-1] * np.array([1.0, -1.0])
    normal *= np.sign(np.vecdot(normal, q - 0.5))[:, None]
    normal /= np.abs(normal).max(axis=1, keepdims=True)
    pushed = q + rng.uniform(0.0, 1e-12, size=(len(ends), 1)) * normal
    inside = np.concatenate([rng.uniform(size=(20, 2)), mesh.nodes,
                             on_edges])
    _check_locations(mesh, u, inside)
    for pt in pushed:
        _check_locations(mesh, u, np.concatenate([inside[:3], [pt]]))
    # farther out: the first such point in input order names the error
    far = q + rng.uniform(1e-9, 2.0, size=(len(ends), 1)) * normal
    _check_locations(mesh, u, np.concatenate([inside[:5], far[:3]]))


def test_locate_point_in_sliver_matches_full_scan():
    # rounding lets this needle pass for points far along its line, well
    # outside its widened box, so slivers are tested against every point
    m = Triangulation([(0.0, 0.0), (0.1, 0.1 * 1.1), (0.7, 0.7 * 1.1)],
                      [(0, 1, 2)], [(0, 1, "D"), (1, 2, "D"), (2, 0, "D")],
                      audit=False)
    u = np.array([0.5, -1.0, 2.0])
    far = (9.0, 9.0 * 1.1)
    assert _locate_reference(m, far)[0] == 0
    _check_locations(m, u, [far, (0.35, 0.35 * 1.1), m.nodes[1]])
    _check_locations(m, u, [far, (9.0, 0.0)])


def test_element_gradients_linear():
    m = structured_triangulation(4, 4)
    u = m.nodes[:, 0] + 2.0 * m.nodes[:, 1]
    g = element_gradients(m, u)
    assert np.abs(g - np.array([1.0, 2.0])).max() <= 1e-12


def test_linf_nodal_error():
    m = structured_triangulation(3, 3)
    exact = lambda p: p[0] * p[1]
    u = m.nodes[:, 0] * m.nodes[:, 1]
    assert linf_nodal_error(m, u, exact) == 0.0
    assert abs(linf_nodal_error(m, u + 1.0, exact) - 1.0) <= 1e-15
    with pytest.raises(ArgumentError):
        linf_nodal_error(m, u, exact, nodes=[])


def test_convective_residual_constant_offset():
    # zero function, f = -2: residual is |f| times the region area
    m = Triangulation([(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                      [(0, 1, "D"), (1, 2, "D"), (2, 0, "D")])
    spec = ProblemSpec(eps=0.0, b=np.array([0.0, 0.0]), f=-2.0)
    val = convective_residual_l2(m, np.zeros(3), spec, [0])
    assert abs(val - 2.0) <= 1e-14


def test_convective_residual_exact_linear():
    m = structured_triangulation(4, 4)
    u = 2.0 * m.nodes[:, 0] + m.nodes[:, 1]
    spec = ProblemSpec(eps=0.0, b=np.array([1.0, 1.0]), f=3.0)
    val = convective_residual_l2(m, u, spec, range(m.n_elements))
    assert val <= 1e-13


def test_h1_seminorm():
    m = structured_triangulation(4, 4)
    u = m.nodes[:, 0] + 2.0 * m.nodes[:, 1]
    assert h1_seminorm_error(m, u, lambda q: (1.0, 2.0)) <= 1e-14
    assert abs(h1_seminorm_error(m, m.nodes[:, 0], lambda q: (0.0, 0.0))
               - 1.0) <= 1e-13


def test_osc_smear_constant_along_midline():
    m = structured_triangulation(8, 8)
    osc, smear = osc_smear(m, m.nodes[:, 0])
    assert abs(osc) <= 1e-14 and abs(smear) <= 1e-14
    osc2, smear2 = osc_smear(m, m.nodes[:, 1])
    assert osc2 > 0.4 and smear2 > 0.4


def test_osc_para_exp_linear():
    m = structured_triangulation(16, 16)
    para, exp = osc_para_exp(m, m.nodes[:, 0])
    assert para == 0.0
    assert abs(exp - 1.0) <= 1e-13


def test_osc_para_exp_coarse_mesh_rejected():
    m = structured_triangulation(2, 2)
    with pytest.raises(ArgumentError):
        osc_para_exp(m, np.zeros(m.n_nodes))


def test_osc_int_smear_int_step():
    m = structured_triangulation(16, 16)
    u = (m.nodes[:, 0] >= 0.375 - 1e-12).astype(float)
    osc, smear = osc_int_smear_int(m, u)
    assert osc == 0.0
    assert abs(smear - 0.05) <= 1e-3  # the interpolated rise over one cell


def test_osc_int_smear_int_not_crossed():
    m = structured_triangulation(8, 8)
    osc, smear = osc_int_smear_int(m, np.zeros(m.n_nodes))
    assert osc == 0.0
    assert math.isnan(smear)
    assert math.isnan(NOT_CROSSED)


def test_over_undershoot():
    assert over_undershoot([-0.2, 0.5, 1.3]) == (1.3 - 1.0, -0.2)
    assert over_undershoot([0.0, 0.5, 1.0]) == (0.0, 0.0)


def test_fit_rate():
    hs = [0.1, 0.05, 0.025, 0.0125]
    assert abs(fit_rate([(h, 3.0 * h * h) for h in hs]) - 2.0) <= 1e-12
    assert abs(fit_rate([(h, 0.7) for h in hs])) <= 1e-12
    with pytest.raises(ArgumentError):
        fit_rate([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ArgumentError):
        fit_rate([(h, 0.0) for h in hs])


def test_measures_invariant_under_node_relabeling():
    m = structured_triangulation(6, 6)
    u = np.sin(3.0 * m.nodes[:, 0]) * m.nodes[:, 1]
    rng = np.random.default_rng(4)
    perm = rng.permutation(m.n_nodes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(m.n_nodes)
    m2 = Triangulation(m.nodes[perm], inv[np.asarray(m.elements)],
                       [(int(inv[i]), int(inv[j]), t)
                        for i, j, t in m.boundary_edges])
    u2 = u[perm]
    assert np.allclose(osc_smear(m, u), osc_smear(m2, u2), atol=1e-13)
    assert np.allclose(osc_para_exp(m, u), osc_para_exp(m2, u2), atol=1e-13)
    spec = ProblemSpec(eps=0.0, b=np.array([1.0, 0.5]), f=0.25)
    r1 = convective_residual_l2(m, u, spec, range(m.n_elements))
    r2 = convective_residual_l2(m2, u2, spec, range(m2.n_elements))
    assert abs(r1 - r2) <= 1e-13
