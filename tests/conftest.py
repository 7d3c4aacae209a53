"""Shared test fixtures."""

import numpy as np
import pytest

from divcurl.mesh import Mesh
from invariants import mesh_at


@pytest.fixture
def jittered_mesh():
    """Factory ``(example, n, rng) -> (lattice, jittered)``: the lattice
    mesh of a built-in problem at 1/h = ``n``, and the same tets with every
    interior vertex moved by up to 5% of h, so that no face normal, area
    or quadrature point is a lattice value."""

    def build(example: int, n: int, rng: np.random.Generator):
        lattice = mesh_at(example, n)
        boundary = np.zeros(lattice.num_vertices, dtype=bool)
        boundary[lattice.faces[lattice.boundary_faces].ravel()] = True
        jitter = rng.uniform(-0.05, 0.05, (lattice.num_vertices, 3)) / n
        jitter[boundary] = 0.0
        return lattice, Mesh(lattice.vertices + jitter, lattice.vertex_ijk, lattice.tets)

    return build
