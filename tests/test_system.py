"""Bitwise guards and memory bounds for the assembled saddle system."""

import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from divcurl.analysis import triple_norm_dual, triple_norm_s
from divcurl.assembly import assemble_global, assemble_s1, assemble_s2
from divcurl.mesh import build_structured_tet_mesh
from divcurl.problems import make_problem
from divcurl.quadrature import simplex_rule
from divcurl.solver import SolutionFields
from divcurl.weak_ops import BLOCK_TETS

_DIGEST_FILE = Path(__file__).parent / "data" / "system_digests.json"


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _system_digests(example: int, n: int) -> dict:
    """SHA-256 of every array of ``A``, ``F`` and ``reduced()`` of problem
    ``example`` at 1/h = ``n``."""
    spec = make_problem(example)
    system = assemble_global(spec, build_structured_tet_mesh(spec.domain, n))
    A_ff, F_f = system.reduced()
    out = {"F": _digest(system.F), "F_f": _digest(F_f)}
    for prefix, M in (("A", system.A), ("A_ff", A_ff)):
        for name in ("indptr", "indices", "data"):
            out[f"{prefix}.{name}"] = _digest(getattr(M, name))
    return out


_RECORDED = json.loads(_DIGEST_FILE.read_text())


@pytest.mark.parametrize("key", sorted(_RECORDED))
def test_system_arrays_match_recorded_digests(key):
    example, n = (int(part) for part in key.split("/"))
    assert _system_digests(example, n) == _RECORDED[key]


def test_loads_are_evaluated_one_block_at_a_time():
    # problem 4 at 1/h = 4 has 2688 tets, two blocks; f, g and the
    # boundary field each see at most a block's Gauss points per call,
    # and F is bitwise the one assembled over the whole mesh at once
    spec = make_problem(4)
    sizes = {"f": [], "g": [], "trace": []}

    def counted(name, fn):
        def wrapper(points):
            sizes[name].append(len(points))
            return fn(points)
        return wrapper

    spec = dataclasses.replace(
        spec,
        f=counted("f", spec.f),
        g=counted("g", spec.g),
        normal_trace_field=counted("trace", spec.normal_trace_field or spec.exact_u),
    )
    mesh = build_structured_tet_mesh(spec.domain, 4)
    assert mesh.num_tets == 2688
    system = assemble_global(spec, mesh)
    k_tet, k_tri = len(simplex_rule(3, 4)[1]), len(simplex_rule(2, 4)[1])
    blocks = [BLOCK_TETS, mesh.num_tets - BLOCK_TETS]
    assert sizes["f"] == sizes["g"] == [b * k_tet for b in blocks]
    assert max(sizes["trace"]) <= BLOCK_TETS * k_tri
    assert sum(sizes["trace"]) == len(mesh.boundary_faces) * k_tri
    assert _digest(system.F) == _RECORDED["4/4"]["F"]


@pytest.mark.parametrize("example", [1, 4, 7])
def test_semi_norms_read_the_stabilizer_blocks_of_A_bitwise(example):
    spec = make_problem(example)
    mesh = build_structured_tet_mesh(spec.domain, 2)
    system = assemble_global(spec, mesh)
    x = np.random.default_rng(example).standard_normal(system.dofmap.total)
    sol = SolutionFields(x, system.dofmap)
    S1 = assemble_s1(mesh, system.dofmap)
    S2 = assemble_s2(mesh, system.dofmap)
    assert triple_norm_dual(system, sol) == np.sqrt(x @ (S1 @ x))
    assert triple_norm_s(system, sol) == np.sqrt(x @ (S2 @ x))


def _nbytes(M) -> int:
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


def test_assembly_holds_little_beyond_A():
    # problem 3 at 1/h = 4: keeping S1 and S2 next to A held 2.3 times
    # the bytes of A, and building all three blocks before the sum
    # peaked at 4 times them
    spec = make_problem(3)
    mesh = build_structured_tet_mesh(spec.domain, 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = assemble_global(spec, mesh)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = _nbytes(system.A)
    assert held - before <= 1.5 * size
    assert peak - before <= 3.5 * size
