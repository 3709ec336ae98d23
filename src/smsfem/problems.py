"""Catalog of the benchmark convection-diffusion problems used by the
experiments: manufactured boundary layers, the parabolic-layer square,
interior-layer data, the Hemker problem and the double-glazing vortex."""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import ProblemSpec


class UnknownProblemError(KeyError):
    pass


@dataclass
class NamedProblem:
    name: str
    builder: object                 # (eps, **options) -> ProblemSpec
    dimension: int = 2
    default_eps: float = 1e-8

    def build(self, eps=None, **options):
        return self.builder(self.default_eps if eps is None else eps,
                            **options)


# ---------------------------------------------------------------------------
# 1D motivating problem


def fig1_problem(eps=1e-8):
    """b = f = 1, c = 0 on (0, 1); the SMS interval ends at 1 - sigma."""
    return {"eps": eps, "b": 1.0, "f": 1.0}


# ---------------------------------------------------------------------------
# manufactured solution with exponential outflow layers


def _array_exp(t):
    """math.exp of each entry (np.exp can differ in the last bit)."""
    return np.fromiter(map(math.exp, t.ravel()), float, t.size).reshape(
        t.shape)


def _ex1_function(eps, formula):
    """formula((A, A', A''), (B, B', B'')) of u = A(x) B(y) as a point
    function with its array form.  Both take math.exp, once for x and once
    for y, and so give the same bits."""
    def parts(x, y, exp):
        ex, ey = exp(2.0 * (x - 1.0) / eps), exp(3.0 * (y - 1.0) / eps)
        return ((x - ex, 1.0 - (2.0 / eps) * ex, -(4.0 / eps ** 2) * ex),
                (y * y - ey, 2.0 * y - (3.0 / eps) * ey,
                 2.0 - (9.0 / eps ** 2) * ey))

    fn = lambda p: formula(*parts(p[0], p[1], math.exp))
    fn.array = lambda p: formula(*parts(p[..., 0], p[..., 1], _array_exp))
    return fn


def ex1_exact(eps):
    return _ex1_function(eps, lambda A, B: A[0] * B[0])


def ex1_exact_gradient(eps):
    return _ex1_function(
        eps, lambda A, B: np.stack([A[1] * B[0], A[0] * B[1]], axis=-1))


def ex1_spec(eps):
    def f(A, B):
        return (-eps * (A[2] * B[0] + A[0] * B[2])
                + 2.0 * A[1] * B[0] + 3.0 * A[0] * B[1])

    return ProblemSpec(eps=eps, b=np.array([2.0, 3.0]),
                       f=_ex1_function(eps, f), g1=ex1_exact(eps))


# ---------------------------------------------------------------------------
# convective-derivative benchmark on the curved domain


def ex3_spec(eps):
    return ProblemSpec(eps=eps, b=np.array([2.0, 3.0]), f=1.0)


# ---------------------------------------------------------------------------
# parabolic layers


def ex4_spec(eps):
    return ProblemSpec(eps=eps, b=np.array([1.0, 0.0]), f=1.0)


# ---------------------------------------------------------------------------
# interior layer from a boundary-data discontinuity

EX5_WIND = np.array([math.cos(-math.pi / 3.0), math.sin(-math.pi / 3.0)])
EX5_ORIGIN = (0.0, 0.7)
EX5_LAYER_VALUE = 0.5   # mean of the one-sided boundary values 0 and 1


def ex5_boundary(p):
    """0 if x = 1 or y <= 0.7, 1 otherwise (stated precedence order)."""
    if p[0] >= 1.0 - 1e-12 or p[1] <= 0.7:
        return 0.0
    return 1.0


def ex5_spec(eps):
    return ProblemSpec(eps=eps, b=EX5_WIND, f=0.0, g1=ex5_boundary)


# ---------------------------------------------------------------------------
# Hemker problem: hot unit disc in a channel

HEMKER_DOMAIN = ((-3.0, -3.0), (9.0, 3.0))


def hemker_boundary(p, theta=0.0):
    """1 on the unit circle; 0 on x = -3 (and y = -3 for theta > 0)."""
    if abs(p[0] * p[0] + p[1] * p[1] - 1.0) < 1e-6:
        return 1.0
    return 0.0


def ex6_spec(eps, theta=0.0):
    b = np.array([math.cos(theta), math.sin(theta)])
    return ProblemSpec(eps=eps, b=b, f=0.0,
                       g1=lambda p: hemker_boundary(p, theta))


def hemker_layer_origins(theta=0.0):
    """Tangency points of the wind direction on the unit circle, where
    the characteristic layers start (boundary value jumps 1 -> 0)."""
    s, c = math.sin(theta), math.cos(theta)
    return [(-s, c), (s, -c)]


# ---------------------------------------------------------------------------
# double-glazing vortex

GLAZING_DOMAIN = ((-1.0, -1.0), (1.0, 1.0))


def glazing_wind(p):
    """b(x, y) = (y (1 - x^2), -x (1 - y^2)) at a point or at (..., 2)
    points, so the function is its own array form."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    return np.stack([y * (1.0 - x * x), -x * (1.0 - y * y)], axis=-1)


glazing_wind.array = glazing_wind


def glazing_boundary(p):
    """1 on the hot wall x = 1, 0 elsewhere, 0.5 at the shared corners."""
    if p[0] >= 1.0 - 1e-12:
        if abs(p[1]) >= 1.0 - 1e-12:
            return 0.5
        return 1.0
    return 0.0


def ex7_spec(eps):
    return ProblemSpec(eps=eps, b=glazing_wind, f=0.0, g1=glazing_boundary)


# ---------------------------------------------------------------------------

_CATALOG = {
    "fig1": NamedProblem("fig1", lambda eps: fig1_problem(eps), dimension=1),
    "ex1": NamedProblem("ex1", ex1_spec, default_eps=1e-4),
    "ex3": NamedProblem("ex3", ex3_spec, default_eps=1e-4),
    "ex4": NamedProblem("ex4", ex4_spec),
    "ex5": NamedProblem("ex5", ex5_spec),
    "ex6": NamedProblem("ex6", ex6_spec),
    "ex7": NamedProblem("ex7", ex7_spec, default_eps=1e-4),
}


def catalog(name):
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownProblemError("unknown problem %r (known: %s)"
                                  % (name, ", ".join(sorted(_CATALOG))))
