"""Array forms of coefficients: `fn.array(points)` gives the bits of the
per-point call for every coefficient that carries one, and of the scalar
formulas the experiments were pinned with; the array negative norm gives
the bits of its loop."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from smsfem import analysis1d, assembly, problems, wind
from smsfem.analysis1d import discrete_negative_norm, random_mesh_1d


def _same(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the scalar formulas as written before the array forms


def _ex1_reference(eps):
    A = lambda x: x - math.exp(2.0 * (x - 1.0) / eps)
    Ap = lambda x: 1.0 - (2.0 / eps) * math.exp(2.0 * (x - 1.0) / eps)
    App = lambda x: -(4.0 / eps ** 2) * math.exp(2.0 * (x - 1.0) / eps)
    B = lambda y: y * y - math.exp(3.0 * (y - 1.0) / eps)
    Bp = lambda y: 2.0 * y - (3.0 / eps) * math.exp(3.0 * (y - 1.0) / eps)
    Bpp = lambda y: 2.0 - (9.0 / eps ** 2) * math.exp(3.0 * (y - 1.0) / eps)

    def f(p):
        x, y = p
        return (-eps * (App(x) * B(y) + A(x) * Bpp(y))
                + 2.0 * Ap(x) * B(y) + 3.0 * A(x) * Bp(y))

    return {"exact": lambda p: A(p[0]) * B(p[1]),
            "gradient": lambda p: np.array([Ap(p[0]) * B(p[1]),
                                            A(p[0]) * Bp(p[1])]),
            "load": f}


def _glazing_reference(p):
    x, y = p
    return np.array([y * (1.0 - x * x), -x * (1.0 - y * y)])


def _random_load_reference(rng):
    coeffs = rng.uniform(-2.0, 2.0, size=4)
    freq = rng.integers(1, 5)
    jump = rng.uniform(0.2, 0.8)
    step = rng.uniform(-1.0, 1.0)

    def f(x):
        base = (coeffs[0] + coeffs[1] * x + coeffs[2] * x * x
                + coeffs[3] * np.sin(freq * np.pi * x))
        return base + (step if x > jump else 0.0)

    return f, jump


def _negative_norm_sums_reference(moments, j_prime):
    half = (j_prime - 1) // 2
    sums = np.zeros(j_prime)
    run = 0
    for j in range(1, half + 1):
        run = sums[2 * j] = run + moments[2 * j - 1]
        sums[2 * j - 1] = assembly.ordered_sum(moments[2 * j:2 * half + 1:2])
    return sums


# ---------------------------------------------------------------------------


@st.composite
def _ex1_points(draw):
    """eps and points of the unit square, some within 10 eps of x = 1 or
    y = 1, where the layer exponentials are not zero."""
    eps = draw(st.sampled_from([1e-8, 1e-4]))
    layer = st.floats(0.0, 10.0 * eps).map(lambda d: 1.0 - d)
    coord = st.one_of(st.floats(0.0, 1.0), layer)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    return eps, np.array(points)


@settings(max_examples=60, deadline=None)
@given(case=_ex1_points(), chunk=st.sampled_from([1, 7, wind.POINT_CHUNK]))
def test_ex1_array_forms_equal_their_scalar_forms(case, chunk):
    eps, points = case
    ref = _ex1_reference(eps)
    spec = problems.ex1_spec(eps)
    for fn, name in ((problems.ex1_exact(eps), "exact"),
                     (problems.ex1_exact_gradient(eps), "gradient"),
                     (spec.f, "load"), (spec.g1, "exact")):
        want = np.array([ref[name](p) for p in points])
        _same([fn(p) for p in points], want)
        _same(fn.array(points), want)
        _same(fn.array(points[None]), want[None])
    saved, wind.POINT_CHUNK = wind.POINT_CHUNK, chunk
    try:
        # the wrapped fields evaluate chunk by chunk
        _same(spec.f_fn.array(points[None]),
              [[spec.f_fn(p) for p in points]])
        _same(spec.g1_fn.array(points), [spec.g1_fn(p) for p in points])
        _same(wind.vector_field(problems.ex1_exact_gradient(eps)).array(
            points), [ref["gradient"](p) for p in points])
    finally:
        wind.POINT_CHUNK = saved


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=30))
def test_glazing_wind_array_form_equals_its_scalar_form(points):
    points = np.array(points)
    want = np.array([_glazing_reference(p) for p in points])
    bf = wind.vector_field(problems.ex7_spec(1e-4).b)
    _same([problems.glazing_wind(tuple(p)) for p in points], want)
    _same(problems.glazing_wind.array(points), want)
    _same([bf(p) for p in points], want)
    _same(bf.array(points.reshape(1, -1, 2)), want[None])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       xs=st.lists(st.floats(0.0, 1.0), max_size=30))
def test_random_load_array_form_equals_its_scalar_form(seed, xs):
    f = analysis1d._random_piecewise_smooth_f(np.random.default_rng(seed))
    ref, jump = _random_load_reference(np.random.default_rng(seed))
    # the jump itself and its neighbours on both sides
    x = np.array(xs + [jump, np.nextafter(jump, 0.0), np.nextafter(jump, 1.0)])
    want = np.array([ref(t) for t in x])
    _same([f(t) for t in x], want)
    _same(f.array(x), want)
    _same(f.array(x.reshape(-1, 1)), want.reshape(-1, 1))
    mesh = random_mesh_1d(len(xs) + 2, np.random.default_rng(seed))
    _lam, wf = assembly.gauss5_cells(f, mesh.nodes)
    _lam, ref_wf = assembly.gauss5_cells(ref, mesh.nodes)
    _same(wf, ref_wf)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-10.0, 10.0),
       b=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       lead=st.sampled_from([(0,), (1,), (7,), (4, 3), (2, 3, 3), (5000,)]),
       seed=st.integers(0, 10 ** 6))
def test_constant_and_plain_fields_array_forms(c, b, lead, seed):
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, lead + (2,))
    flat = points.reshape(-1, 2)
    fields = [(assembly.scalar_field(c), ()), (wind.vector_field(b), (2,)),
              (assembly.scalar_field(lambda p: c * p[0] - p[1]), ()),
              (wind.vector_field(lambda p: (p[1], c * p[0])), (2,))]
    for fn, shape in fields:
        want = np.array([fn(p) for p in flat], dtype=float)
        _same(fn.array(points), want.reshape(lead + shape))


@settings(max_examples=40, deadline=None)
@given(J=st.integers(2, 1001), seed=st.integers(0, 10 ** 6),
       entries=st.sampled_from([1, 7, 64, analysis1d._TRIANGLE_ENTRIES]))
def test_negative_norm_sums_equal_the_loop(J, seed, entries):
    rng = np.random.default_rng(seed)
    mesh = random_mesh_1d(J, rng)
    f = analysis1d._random_piecewise_smooth_f(rng)
    chunk, analysis1d._TRIANGLE_ENTRIES = (analysis1d._TRIANGLE_ENTRIES,
                                           entries)
    try:
        work = discrete_negative_norm(f, mesh)
    finally:
        analysis1d._TRIANGLE_ENTRIES = chunk
    want = _negative_norm_sums_reference(work.moments, work.j_prime)
    assert work.sums.tobytes() == want.tobytes()
