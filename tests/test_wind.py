"""Boundary classification, element decompositions and uniqueness
diagnostics/remediation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smsfem import defects, wind
from smsfem.meshes import (Triangulation, perturb_structured,
                           structured_triangulation)
from smsfem.problems import glazing_wind
from smsfem.wind import (OmegaPlusDecomposition, UpwindNotFound,
                         ValidationError, absorb_isolated, build_omega_plus,
                         build_omega_plus_shrunk, classify_boundary, diagnose,
                         remediate, upwind_elements, upwind_hits,
                         vector_field)


def _edge_mid(mesh, k):
    i, j, _t = mesh.boundary_edges[k]
    return 0.5 * (mesh.nodes[i] + mesh.nodes[j])


def test_classify_diagonal_wind():
    m = structured_triangulation(4, 4)
    c = classify_boundary(m, np.array([1.0, 1.0]))
    for k in c.inflow:
        mid = _edge_mid(m, k)
        assert mid[0] < 1e-9 or mid[1] < 1e-9
    for k in c.outflow:
        mid = _edge_mid(m, k)
        assert mid[0] > 1.0 - 1e-9 or mid[1] > 1.0 - 1e-9
    assert not c.characteristic
    gnodes = {v for pair in c.gamma_d_0plus for v in pair}
    for v in gnodes:
        x, y = m.nodes[v]
        assert x > 1.0 - 1e-9 or y > 1.0 - 1e-9


def test_classify_horizontal_wind():
    m = structured_triangulation(4, 4)
    c = classify_boundary(m, np.array([1.0, 0.0]))
    for k in c.characteristic:
        mid = _edge_mid(m, k)
        assert mid[1] < 1e-9 or mid[1] > 1.0 - 1e-9
    assert len(c.characteristic) == 8
    for k in c.outflow:
        assert _edge_mid(m, k)[0] > 1.0 - 1e-9
    for k in c.inflow:
        assert _edge_mid(m, k)[0] < 1e-9


def test_classify_reversed_wind():
    m = structured_triangulation(4, 4)
    c = classify_boundary(m, np.array([-1.0, 0.0]))
    for k in c.inflow:
        assert _edge_mid(m, k)[0] > 1.0 - 1e-9


def test_classify_requires_dirichlet_inflow():
    m = structured_triangulation(3, 3,
                                 tag_fn=lambda p: "N" if p[0] < 1e-9 else "D")
    with pytest.raises(ValidationError):
        classify_boundary(m, np.array([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.1, max_value=1.4),
       st.floats(min_value=1e-6, max_value=1e6))
def test_classification_scale_invariant(bx, by, scale):
    m = structured_triangulation(3, 3)
    b = np.array([bx, by])
    a = classify_boundary(m, b)
    c = classify_boundary(m, scale * b)
    assert a.inflow == c.inflow
    assert a.characteristic == c.characteristic
    assert a.outflow == c.outflow


def test_upwind_element_matches_point_location():
    m = structured_triangulation(4, 4)
    b = np.array([1.0, 1.0])
    h = 0.25
    for v in range(m.n_nodes):
        x, y = m.nodes[v]
        if not (0 < x < 1 and 0 < y < 1):
            continue
        if abs(x - y) < 1e-12:
            continue  # on-edge ray handled below
        k = upwind_elements(m, [v], [b])[0]
        probe = m.nodes[v] - 1e-9 * h * b
        _owner, k_ref, _lam = m.locate([probe])
        assert k == k_ref[0]


def test_upwind_element_on_edge_takes_lowest_index():
    m = structured_triangulation(4, 4)
    b = np.array([1.0, 1.0])
    # diagonal nodes: the upwind ray runs along the shared diagonal edge,
    # so both flanking elements qualify and the lower index must win
    t = m.topology
    emap = {tuple(key): t.edge_elements[t.edge_ptr[e]:t.edge_ptr[e + 1]]
            for e, key in enumerate(t.pairs.tolist())}
    checked = 0
    for v in range(m.n_nodes):
        x, y = m.nodes[v]
        if not (0 < x < 1 and 0 < y < 1) or abs(x - y) > 1e-12:
            continue
        k = upwind_elements(m, [v], [b])[0]
        flanking = None
        for key, elems in emap.items():
            if v not in key or len(elems) != 2:
                continue
            e = m.nodes[key[1]] - m.nodes[key[0]]
            other = key[0] if key[1] == v else key[1]
            upwind_side = (m.nodes[other] - m.nodes[v]) @ b < 0
            if abs(e[0] * b[1] - e[1] * b[0]) < 1e-12 and upwind_side:
                flanking = elems
        assert flanking is not None
        assert k == min(flanking)
        checked += 1
    assert checked == 3


def test_upwind_element_missing_at_inflow_corner():
    m = structured_triangulation(3, 3)
    corner = int(np.where((np.abs(m.nodes) < 1e-12).all(axis=1))[0][0])
    with pytest.raises(UpwindNotFound):
        upwind_elements(m, [corner], [np.array([1.0, 1.0])])


def _partition_ok(mesh, dec):
    plus, hat = set(dec.omega_plus), set(dec.omega_hat)
    assert not plus & hat
    assert plus | hat == set(range(mesh.n_elements))
    assert not set(dec.n_delta) & mesh.dirichlet_node_set()


def test_build_omega_plus_partition():
    for nx in (3, 4, 6):
        m = structured_triangulation(nx, nx)
        b = np.array([1.0, 1.0])
        dec = build_omega_plus(m, classify_boundary(m, b), b)
        _partition_ok(m, dec)
        assert set(dec.omega_plus) <= set(dec.b_h)
        # the band touches the outflow corner band of the square
        for k in dec.b_h:
            xy = m.nodes[m.elements[k]]
            assert (xy[:, 0].max() > 1.0 - 1e-9) or (xy[:, 1].max() > 1.0 - 1e-9)


def test_build_omega_plus_removes_upwind_of_interior_node():
    m = defects.band_interior_node_mesh()
    naive = defects.band_decomposition(m, defects.WIND)
    dec = build_omega_plus(m, classify_boundary(m, defects.WIND),
                           defects.WIND)
    assert len(dec.omega_plus) < len(naive.omega_plus)
    assert dec.removed_upwind
    _partition_ok(m, dec)


def test_shrunk_band_partition_and_guard():
    m = structured_triangulation(10, 10, domain=((-1.0, -1.0), (1.0, 1.0)))
    dec = build_omega_plus_shrunk(m, glazing_wind, 0.2)
    _partition_ok(m, dec)
    assert dec.omega_plus and dec.n_delta
    with pytest.raises(ValidationError):
        build_omega_plus_shrunk(m, glazing_wind, 1.5)


def test_diagnose_isolated_component():
    m = defects.isolated_component_mesh()
    dec = build_omega_plus(m, classify_boundary(m, defects.WIND),
                           defects.WIND)
    report = diagnose(dec, m, defects.WIND)
    assert report.has_defects()
    assert len(report.isolated_components) == 1
    assert len(report.isolated_components[0]) == 1
    text = report.to_text()
    assert "isolated components: 1" in text
    assert text.endswith("\n")


def test_diagnose_parallel_edge():
    m = defects.wind_parallel_edge_mesh()
    dec = build_omega_plus(m, classify_boundary(m, defects.WIND),
                           defects.WIND)
    report = diagnose(dec, m, defects.WIND)
    assert report.parallel_edges
    for k, (i, j) in report.parallel_edges:
        e = m.nodes[j] - m.nodes[i]
        cross = defects.WIND[0] * e[1] - defects.WIND[1] * e[0]
        assert abs(cross) <= 1e-10 * np.linalg.norm(e) * np.sqrt(2.0)


def test_diagnose_clean_mesh():
    m = structured_triangulation(5, 5)
    b = np.array([1.0, 1.0])
    dec = build_omega_plus(m, classify_boundary(m, b), b)
    report = diagnose(dec, m, b)
    assert not report.has_defects()
    # wind-parallel diagonals exist but are not downwind kernel candidates
    assert remediate(m, dec, report, b) is m


def test_remediate_cures_defects():
    for fixture in (defects.isolated_component_mesh,
                    defects.wind_parallel_edge_mesh):
        m = fixture()
        dec = build_omega_plus(m, classify_boundary(m, defects.WIND),
                               defects.WIND)
        report = diagnose(dec, m, defects.WIND)
        assert report.has_defects()
        fixed = remediate(m, dec, report, defects.WIND)
        dec2 = build_omega_plus(fixed, classify_boundary(fixed, defects.WIND),
                                defects.WIND)
        assert not diagnose(dec2, fixed, defects.WIND).has_defects()
        assert abs(fixed.areas().sum() - m.areas().sum()) <= 1e-12


def test_absorb_isolated_removes_components():
    m = defects.isolated_component_mesh()
    dec = build_omega_plus(m, classify_boundary(m, defects.WIND),
                           defects.WIND)
    report = diagnose(dec, m, defects.WIND)
    merged = absorb_isolated(m, dec, report, defects.WIND)
    _partition_ok(m, merged)
    assert not diagnose(merged, m, defects.WIND).isolated_components
    # no-op on a clean report
    clean = diagnose(merged, m, defects.WIND)
    assert absorb_isolated(m, merged, clean, defects.WIND) is merged


# ---------------------------------------------------------------------------
# the array ray clip against the one-pair reference clip


def _clip_reference(x, d, tri_pts, tmin=1e-12):
    """Entry parameter of the ray x + t*d (t > tmin) into the positively
    oriented triangle, or None: the one-pair half-plane clip."""
    lo, hi = tmin, np.inf
    for a in range(3):
        p, q = tri_pts[a], tri_pts[(a + 1) % 3]
        e = q - p
        n = np.array([-e[1], e[0]])  # inward normal for ccw orientation
        num = np.dot(n, x - p)
        den = np.dot(n, d)
        if abs(den) < 1e-300:
            if num < -1e-14 * (np.linalg.norm(n) + 1.0):
                return None
            continue
        t_cross = -num / den
        if den > 0:
            lo = max(lo, t_cross)
        else:
            hi = min(hi, t_cross)
        if lo > hi:
            return None
    return lo


def _upwind_reference(mesh, omega_plus, k, bf):
    """(downwind, first hit or -1) of element k by the one-pair clip."""
    bary = mesh.nodes[mesh.elements[k]].mean(axis=0)
    b = bf(bary)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return False, -1
    d = -b / nb
    downwind, best, best_t = False, -1, np.inf
    for j in omega_plus:
        t = _clip_reference(bary, d, mesh.nodes[mesh.elements[j]])
        if t is None:
            continue
        downwind = True
        if t < best_t:
            best, best_t = j, t
    return downwind, best


def _calm_left_half(p):
    return np.array([max(p[0] - 0.5, 0.0), 0.0])


# axis and diagonal winds run parallel to grid edges (den == 0); (1, 2)
# sends barycenter rays through grid vertices; the calm left half casts
# no ray
_EDGE_CASE_WINDS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0),
                    _calm_left_half]


def _random_split(mesh, fraction, seed):
    rng = np.random.default_rng(seed)
    size = max(1, int(fraction * mesh.n_elements))
    plus = rng.choice(mesh.n_elements, size=size, replace=False).tolist()
    hat = sorted(set(range(mesh.n_elements)) - set(plus))
    return OmegaPlusDecomposition(plus, hat, [], [])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.sampled_from([0.0, 0.3]),
       st.integers(min_value=0, max_value=2 ** 16),
       st.one_of(st.sampled_from(_EDGE_CASE_WINDS),
                 st.floats(min_value=0.0, max_value=2.0 * math.pi).map(
                     lambda a: (math.cos(a), math.sin(a)))),
       st.floats(min_value=0.05, max_value=0.6),
       st.booleans())
@example(n=4, amplitude=0.0, seed=0, b=(1.0, 0.0), fraction=0.3,
         shifted=False)
@example(n=5, amplitude=0.0, seed=1, b=(1.0, 2.0), fraction=0.5,
         shifted=False)
@example(n=5, amplitude=0.0, seed=1, b=(1.0, 1.0), fraction=0.5,
         shifted=True)
def test_upwind_hits_match_one_pair_clip(n, amplitude, seed, b, fraction,
                                         shifted):
    mesh = structured_triangulation(n, n)
    if amplitude:
        mesh = perturb_structured(mesh, amplitude, seed)
    if shifted:
        mesh = _shifted(mesh)
    # an unsorted Omega_h+ list: first hits break ties in list order
    dec = _random_split(mesh, fraction, seed)
    _assert_hits_match(mesh, dec, vector_field(b))


def _shifted(mesh):
    """The mesh scaled by 1e-3 and moved to (1e3, -1e3): the screen's
    margin must cover rounding at the size of the coordinates."""
    return Triangulation(mesh.nodes * 1e-3 + np.array([1e3, -1e3]),
                         mesh.elements, mesh.boundary_edges, audit=False)


def _assert_hits_match(mesh, dec, bf):
    downwind, first = upwind_hits(mesh, dec, dec.omega_hat, bf)
    ref = [_upwind_reference(mesh, dec.omega_plus, k, bf)
           for k in dec.omega_hat]
    assert downwind.tolist() == [r[0] for r in ref]
    assert first.tolist() == [r[1] for r in ref]


def _grazing_soup(seed, shifted):
    """Omega_h+ triangles, each with rays that graze it, and one tiny
    Omega_hat element centred on each ray origin; the wind at an origin
    sends its ray in the chosen direction.

    The rays run tangent to the circle about the barycentre through the
    farthest vertex (the screen's radius exactly), start just beyond
    that vertex pointing away from or back into the triangle, pass
    through a vertex of another triangle, or run along a horizontal
    edge (den == 0) at offsets around the parallel-edge tolerance.
    """
    rng = np.random.default_rng(seed)
    tris, rays = [], []
    for _ in range(6):
        c, size = rng.uniform(-1.0, 1.0, 2), 10.0 ** rng.uniform(-2.0, 0.0)
        if rng.random() < 0.5:
            tri = c + size * rng.uniform(-1.0, 1.0, (3, 2))
        else:
            tri = c + size * np.array([[0.0, 0.0], [1.0, 0.0],
                                       [rng.uniform(-0.5, 1.5),
                                        rng.uniform(0.2, 1.0)]])
            for k in (-2.0, -1.01, -0.99, -0.5, 0.0, 0.5):
                dy = k * 1e-14 * (1.0 + 1.0 / size)
                rays.append((tri[0] - [size * rng.uniform(0.1, 2.0), -dy],
                             (1.0, 0.0)))
                rays.append((tri[1] + [size * rng.uniform(0.1, 2.0), dy],
                             (-1.0, 0.0)))
        tris.append(tri)
        g = tri.mean(axis=0)
        v = tri[np.argmax(np.linalg.norm(tri - g, axis=1))]
        out = (v - g) / np.linalg.norm(v - g)
        tangent = np.array([-out[1], out[0]])
        for sign in (1.0, -1.0):
            t = sign * tangent
            rays.append((v - size * rng.uniform(0.1, 2.0) * t, t))
        for gap in (1e-15, 1e-12):
            rays.append((v + gap * size * out, out))
            rays.append((v + gap * size * out, -out))
    for tri in tris:
        for v in tri:
            x = rng.uniform(-1.5, 1.5, 2)
            rays.append((x, (v - x) / np.linalg.norm(v - x)))
    star = 1e-3 * np.array([[1.0, 0.0], [-0.5, 0.8660254037844386],
                            [-0.5, -0.8660254037844386]])
    tris += [x + star for x, _d in rays]
    nodes = np.concatenate(tris)
    mesh = Triangulation(nodes, np.arange(len(nodes)).reshape(-1, 3), [],
                         audit=False)
    if shifted:
        mesh = _shifted(mesh)
    plus = rng.permutation(6).tolist()
    dec = OmegaPlusDecomposition(plus, list(range(6, mesh.n_elements)),
                                 [], [])
    origins = mesh.nodes[mesh.elements[dec.omega_hat]].mean(axis=1)
    winds = -np.array([d for _x, d in rays])

    def bf(p):
        return winds[np.abs(origins - p).sum(axis=1).argmin()]

    return mesh, dec, vector_field(bf)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_upwind_hits_keep_grazing_rays(seed, shifted):
    _assert_hits_match(*_grazing_soup(seed, shifted))


def _one_direction_soup(seed, shifted, angle):
    """Six Omega_h+ triangles and rays in one direction t: rays that pass
    each triangle at the screen's reach of its radius and just inside or
    outside it, through each vertex, and from just beyond the vertex
    farthest along t; one tiny Omega_hat element centred on each ray
    origin, and the constant wind -t.  A constant wind is screened by
    bisection on the sorted ray offsets, not pair by pair."""
    rng = np.random.default_rng(seed)
    t = np.array([math.cos(angle), math.sin(angle)])
    across = np.array([-t[1], t[0]])
    tris, origins = [], []
    for _ in range(6):
        c, size = rng.uniform(-1.0, 1.0, 2), 10.0 ** rng.uniform(-2.0, 0.0)
        tri = c + size * rng.uniform(-1.0, 1.0, (3, 2))
        (ux, uy), (vx, vy) = tri[1] - tri[0], tri[2] - tri[0]
        if ux * vy - uy * vx < 0:
            tri = tri[::-1]
        tris.append(tri)
        g = tri.mean(axis=0)
        radius = np.linalg.norm(tri - g, axis=1).max()
        back = -3.0 * radius * t
        for side in (-1.0, 1.0):
            for gap in (-1e-12, -1e-15, 0.0, 1e-15, 1e-12):
                origins.append(g + side * (radius + gap) * across + back)
        for v in tri:
            origins.append(v + back)
        v = tri[np.argmax(tri @ t)]
        for gap in (0.0, 1e-15, 1e-12):
            origins.append(v + gap * size * t)
    star = 1e-3 * np.array([[1.0, 0.0], [-0.5, 0.8660254037844386],
                            [-0.5, -0.8660254037844386]])
    tris += [x + star for x in origins]
    nodes = np.concatenate(tris)
    mesh = Triangulation(nodes, np.arange(len(nodes)).reshape(-1, 3), [],
                         audit=False)
    if shifted:
        mesh = _shifted(mesh)
    dec = OmegaPlusDecomposition(rng.permutation(6).tolist(),
                                 list(range(6, mesh.n_elements)), [], [])
    return mesh, dec, vector_field(-t)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, math.pi / 4]),
                 st.floats(-math.pi, math.pi)))
def test_upwind_hits_one_direction_keeps_grazing_rays(seed, shifted, angle):
    _assert_hits_match(*_one_direction_soup(seed, shifted, angle))


@pytest.mark.parametrize("x", [(5.0, 0.0), (1.5, -0.5)])
def test_clip_rays_quiet_on_subnormal_direction(x):
    # 0 < |den| < 1e-300: -num/den overflows, and the clip treats the
    # edge as parallel to the ray without a warning
    x, d = np.array([x]), np.array([[1e-310, 1e-310]])
    tri = np.array([[[0.0, -1.0], [2.0, -1.0], [2.0, 1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit, entry, _exit = wind._clip_rays(x, d, tri)
    ref = _clip_reference(x[0], d[0], tri[0])
    assert bool(hit[0]) == (ref is not None)
    if ref is not None:
        assert entry[0] == ref


def test_upwind_hits_independent_of_chunking(monkeypatch):
    mesh = perturb_structured(structured_triangulation(6, 6), 0.3, 5)
    dec = _random_split(mesh, 0.3, 5)
    bf = vector_field((1.0, 0.5))
    whole = upwind_hits(mesh, dec, dec.omega_hat, bf)
    monkeypatch.setattr(wind, "RAY_CLIP_PAIRS", 7)
    chunked = upwind_hits(mesh, dec, dec.omega_hat, bf)
    assert whole[0].tolist() == chunked[0].tolist()
    assert whole[1].tolist() == chunked[1].tolist()
