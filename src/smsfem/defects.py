"""Small regression meshes exhibiting the known uniqueness defects of
the residual-minimization system: a node interior to the boundary band,
an isolated interior component of Omega_hat, and a wind-parallel edge
downwind of Omega_h+.  All use the unit square with b = [1, 1] and full
Dirichlet boundary, so Gamma_D^{0+} is the sides x = 1 and y = 1."""

import numpy as np

from .meshes import structured_triangulation, Triangulation
from .wind import (classify_boundary, band_elements, OmegaPlusDecomposition,
                   _extract_n_delta)

WIND = np.array([1.0, 1.0])

# ring of the carved corner block [0.5, 1]^2, counterclockwise
_RING = {
    "r1": (0.50, 1.00), "r2": (0.75, 1.00), "r3": (1.00, 1.00),
    "r4": (1.00, 0.75), "r5": (1.00, 0.50), "r6": (0.75, 0.50),
    "r7": (0.50, 0.50), "r8": (0.50, 0.75),
}


def _carved_corner_mesh(extra_nodes, block_elements):
    """4x4 structured grid with the corner block [0.5,1]^2 retriangulated.

    extra_nodes: name -> (x, y) of new interior nodes; block_elements:
    triples of names from extra_nodes / the ring.
    """
    base = structured_triangulation(4, 4)
    keep = [tri for tri in base.elements.tolist()
            if not (base.nodes[tri].mean(axis=0) > 0.5).all()]
    index = {}
    nodes = base.nodes.tolist()
    for name, xy in _RING.items():
        hit = np.where((np.abs(base.nodes - np.asarray(xy)) < 1e-12).all(axis=1))[0]
        index[name] = int(hit[0])
    for name, xy in extra_nodes.items():
        hit = np.where((np.abs(base.nodes - np.asarray(xy)) < 1e-12).all(axis=1))[0]
        if hit.size:
            index[name] = int(hit[0])
        else:
            index[name] = len(nodes)
            nodes.append([float(xy[0]), float(xy[1])])
    elements = keep + [[index[a], index[b], index[c]]
                       for a, b, c in block_elements]
    # compact away nodes no longer referenced (the old block interior)
    used = sorted({v for tri in elements for v in tri})
    remap = {old: new for new, old in enumerate(used)}
    nodes = np.asarray(nodes, dtype=float)[used]
    elements = [[remap[v] for v in tri] for tri in elements]
    boundary = [(remap[i], remap[j], t) for i, j, t in base.boundary_edges]
    return Triangulation(nodes, elements, boundary)


def band_interior_node_mesh():
    """Corner block fanned around a = (0.75, 0.75) so that every element
    incident to a meets the outflow boundary: a is interior to the band
    B_h, making the naive Omega_h+ = B_h choice singular."""
    extra = {"a": (0.75, 0.75), "k": (0.625, 0.625)}
    block = [
        ("a", "r1", "r2"), ("a", "r2", "r3"), ("a", "r3", "r4"),
        ("a", "r4", "r5"), ("a", "r5", "k"), ("a", "k", "r1"),
        ("k", "r5", "r6"), ("k", "r6", "r7"), ("k", "r7", "r8"),
        ("k", "r8", "r1"),
    ]
    return _carved_corner_mesh(extra, block)


def isolated_component_mesh():
    """Corner block holding a triangle (p, q, s) whose three neighbours
    all meet the outflow boundary: the triangle is an isolated interior
    component of Omega_hat."""
    extra = {"p": (0.70, 0.85), "q": (0.85, 0.70), "s": (0.60, 0.60)}
    block = [
        ("p", "q", "s"),
        ("p", "r1", "r2"), ("p", "r2", "r3"), ("p", "r3", "q"),
        ("q", "r3", "r4"), ("q", "r4", "r5"), ("q", "r5", "s"),
        ("s", "r5", "r6"), ("s", "r6", "r7"), ("s", "r7", "r8"),
        ("s", "r8", "r1"), ("s", "r1", "p"),
    ]
    return _carved_corner_mesh(extra, block)


def wind_parallel_edge_mesh():
    """Corner block where the Omega_hat triangle (i, j, k) is downwind of
    Omega_h+ and its edge (j, k) is parallel to b = [1, 1], so the basis
    function of i has b-orthogonal gradient there (a convective kernel)."""
    extra = {"i": (0.75, 0.75), "j": (0.55, 0.60), "k": (0.65, 0.70)}
    block = [
        ("i", "j", "k"),
        ("i", "r1", "r2"), ("i", "r2", "r3"), ("i", "r3", "r4"),
        ("i", "r4", "r5"), ("i", "r5", "j"), ("i", "k", "r1"),
        ("j", "r1", "k"), ("j", "r8", "r1"), ("j", "r7", "r8"),
        ("j", "r6", "r7"), ("j", "r5", "r6"),
    ]
    return _carved_corner_mesh(extra, block)


def band_decomposition(mesh, b):
    """The naive Omega_h+ = B_h decomposition (no upwind removal)."""
    b_h = band_elements(mesh, classify_boundary(mesh, b))
    b_h_set = set(b_h)
    hat = [k for k in range(mesh.n_elements) if k not in b_h_set]
    return OmegaPlusDecomposition(omega_plus=b_h, omega_hat=hat,
                                  n_delta=_extract_n_delta(mesh, b_h_set),
                                  b_h=b_h)

