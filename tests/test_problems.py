"""Benchmark problem catalog: manufactured solutions, boundary data and
wind fields."""

import math

import numpy as np
import pytest

from smsfem import experiments
from smsfem.problems import (EX5_LAYER_VALUE, EX5_ORIGIN, EX5_WIND,
                             GLAZING_DOMAIN, HEMKER_DOMAIN,
                             UnknownProblemError, catalog, ex1_exact,
                             ex1_exact_gradient, ex1_spec, ex3_spec,
                             ex4_spec, ex5_boundary, ex5_spec, ex6_spec,
                             ex7_spec, fig1_problem, glazing_boundary,
                             glazing_wind, hemker_boundary,
                             hemker_layer_origins)


def test_catalog_lookup_and_unknown():
    assert catalog("ex4").name == "ex4"
    with pytest.raises(UnknownProblemError):
        catalog("ex99")


def test_catalog_default_eps():
    spec = catalog("ex1").build()
    assert spec.eps == 1e-4
    spec2 = catalog("ex1").build(eps=1e-2)
    assert spec2.eps == 1e-2
    assert catalog("fig1").build() == {"eps": 1e-8, "b": 1.0, "f": 1.0}
    assert fig1_problem(1e-3)["eps"] == 1e-3


def test_manufactured_gradient_matches_fd():
    eps = 0.05
    u = ex1_exact(eps)
    grad = ex1_exact_gradient(eps)
    rng = np.random.default_rng(2)
    h = 1e-6
    for p in rng.uniform(0.0, 1.0, size=(100, 2)):
        gx = (u((p[0] + h, p[1])) - u((p[0] - h, p[1]))) / (2 * h)
        gy = (u((p[0], p[1] + h)) - u((p[0], p[1] - h))) / (2 * h)
        g = grad(p)
        scale = max(np.abs(g).max(), 1.0)
        assert abs(g[0] - gx) <= 1e-4 * scale
        assert abs(g[1] - gy) <= 1e-4 * scale


def test_manufactured_load_matches_pde():
    # f = -eps lap(u) + b . grad(u) with b = (2, 3), by finite differences
    eps = 0.5
    spec = ex1_spec(eps)
    u = ex1_exact(eps)
    rng = np.random.default_rng(3)
    h = 1e-4
    for p in rng.uniform(0.1, 0.9, size=(20, 2)):
        x, y = p
        uxx = (u((x + h, y)) - 2 * u((x, y)) + u((x - h, y))) / h ** 2
        uyy = (u((x, y + h)) - 2 * u((x, y)) + u((x, y - h))) / h ** 2
        gx = (u((x + h, y)) - u((x - h, y))) / (2 * h)
        gy = (u((x, y + h)) - u((x, y - h))) / (2 * h)
        f_fd = -eps * (uxx + uyy) + 2.0 * gx + 3.0 * gy
        assert abs(spec.f_fn(p) - f_fd) <= 1e-4 * max(abs(f_fd), 1.0)


def test_manufactured_solution_vanishes_on_boundary():
    eps = 1e-2
    u = ex1_exact(eps)
    for t in np.linspace(0.0, 1.0, 11):
        assert abs(u((t, 0.0))) <= 1e-12
        assert abs(u((0.0, t))) <= 1e-12
        assert abs(u((1.0, t))) <= 1e-12
        assert abs(u((t, 1.0))) <= 1e-12


def test_simple_spec_data():
    assert np.array_equal(ex3_spec(1e-4).b, [2.0, 3.0])
    assert ex3_spec(1e-4).f == 1.0
    assert np.array_equal(ex4_spec(1e-8).b, [1.0, 0.0])


def test_interior_layer_data():
    assert abs(np.linalg.norm(EX5_WIND) - 1.0) <= 1e-15
    assert EX5_WIND[1] < 0 < EX5_WIND[0]
    assert EX5_ORIGIN == (0.0, 0.7)
    # boundary data: 0 wins on x = 1 and below the discontinuity
    assert ex5_boundary((1.0, 1.0)) == 0.0
    assert ex5_boundary((0.5, 0.8)) == 1.0
    assert ex5_boundary((0.5, 0.7)) == 0.0
    assert ex5_boundary((0.0, 0.7)) == 0.0
    assert ex5_boundary((0.0, 0.9)) == 1.0
    assert EX5_LAYER_VALUE == 0.5
    assert ex5_spec(1e-8).g1_fn((0.0, 0.9)) == 1.0


def test_hemker_data():
    assert HEMKER_DOMAIN == ((-3.0, -3.0), (9.0, 3.0))
    assert hemker_boundary((1.0, 0.0)) == 1.0
    assert hemker_boundary((-3.0, 0.5)) == 0.0
    for theta in (0.0, 0.2):
        mesh = experiments.hemker_layered_mesh(theta)

        def tags(on_wall):
            return {t for i, j, t in mesh.boundary_edges
                    if on_wall(mesh.nodes[i]) and on_wall(mesh.nodes[j])}

        assert tags(lambda p: abs(p @ p - 1.0) < 1e-6) == {"D"}
        assert tags(lambda p: abs(p[0] + 3.0) < 1e-9) == {"D"}
        assert tags(lambda p: abs(p[0] - 9.0) < 1e-9) == {"N"}
        # the south wall turns inflow only when the wind has a lift
        # component
        assert tags(lambda p: abs(p[1] + 3.0) < 1e-9) == \
            ({"D"} if theta > 0.0 else {"N"})


def test_hemker_spec_and_origins():
    theta = math.pi / 6.0
    spec = ex6_spec(1e-4, theta)
    assert np.allclose(spec.b, [math.cos(theta), math.sin(theta)])
    for p in hemker_layer_origins(theta):
        assert abs(p[0] ** 2 + p[1] ** 2 - 1.0) <= 1e-12
        # tangency: the wind is orthogonal to the radius there
        assert abs(np.dot(spec.b, p)) <= 1e-12


def test_glazing_data():
    assert GLAZING_DOMAIN == ((-1.0, -1.0), (1.0, 1.0))
    assert np.array_equal(glazing_wind((0.0, 0.0)), [0.0, 0.0])
    # tangential on all four walls
    for t in np.linspace(-1.0, 1.0, 7):
        assert abs(glazing_wind((1.0, t))[0]) <= 1e-15
        assert abs(glazing_wind((t, 1.0))[1]) <= 1e-15
    assert glazing_boundary((1.0, 0.0)) == 1.0
    assert glazing_boundary((1.0, 1.0)) == 0.5
    assert glazing_boundary((1.0, -1.0)) == 0.5
    assert glazing_boundary((-1.0, 0.0)) == 0.0
    spec = ex7_spec(1e-4)
    assert np.allclose(spec.b_fn((0.5, 0.5)), glazing_wind((0.5, 0.5)))
