"""Loader for the committed domain meshes (generated offline by
scripts/generate_fixtures.py)."""

from functools import cache
from importlib import resources

from .meshes import Triangulation, read_mesh


@cache
def _parsed(name):
    ref = resources.files("smsfem") / "fixtures" / (name + ".mesh")
    with resources.as_file(ref) as path:
        return read_mesh(path)


def load(name):
    """Load a packaged mesh by stem name, e.g. 'trochoid'.  Each file is
    parsed once per process; every call returns a new mesh built from
    copies of the parsed one, which passed its audit when read."""
    mesh = _parsed(name)
    return Triangulation(mesh.nodes.copy(), mesh.elements,
                         mesh.boundary_edges, mesh.constraint_edges,
                         mesh.node_values, audit=False)
