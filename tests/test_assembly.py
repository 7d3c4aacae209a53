"""Degrees of freedom, stabilizers, coupling block, and the global system."""

import numpy as np
import pytest
import scipy.sparse as sparse

from divcurl import assembly
from divcurl.assembly import (
    assemble_Bh,
    assemble_global,
    assemble_rhs,
    assemble_s1,
    assemble_s2,
    build_dof_map,
)
from divcurl.mesh import build_domain, build_structured_tet_mesh
from divcurl.problems import ProblemSpec, make_problem
from divcurl.solver import solve
from divcurl.weak_ops import weak_curl, weak_gradient

from invariants import constant_problem, system_defects


def affine_problem(C, d, eps):
    """u = C x + d with constant eps: f = tr(eps C), g = axial part of C."""
    C = np.asarray(C, float)
    d = np.asarray(d, float)
    eps = np.asarray(eps, float)
    epsC = eps @ C
    curl = np.array([C[2, 1] - C[1, 2], C[0, 2] - C[2, 0], C[1, 0] - C[0, 1]])
    return ProblemSpec(
        eps,
        build_domain(1),
        lambda p: p @ C.T + d,
        lambda p: np.full(len(p), np.trace(epsC)),
        lambda p: np.broadcast_to(curl, (len(p), 3)).copy(),
    )


@pytest.fixture(scope="module")
def cube1():
    return build_structured_tet_mesh(build_domain(1), 1)


def test_dof_counts_unit_cube(cube1):
    dm = build_dof_map(cube1)
    counts = {name: stop - start for name, (start, stop) in dm.offsets.items()}
    assert counts == {
        "lam0": 6, "lamb": 18, "q0": 18, "qb": 36, "u": 18, "s0": 6, "sb": 18
    }
    # every multiplier block precedes the primal ones: triple_norm_dual
    # reads the multipliers as [0, offsets["u"][0]), and the direct solve's
    # lattice order keeps this raw order within each front
    u_start = dm.offsets["u"][0]
    for name in ("lam0", "lamb", "q0", "qb"):
        assert dm.offsets[name][1] <= u_start
    for name in ("s0", "sb"):
        assert dm.offsets[name][0] >= u_start
    assert dm.total == 120
    # 12 boundary faces: sb loses 12, qb loses 24, lam0 loses the pin
    assert dm.num_free == dm.total - 37 == 83
    assert dm.pinned_lam0 not in dm.free


def test_cavity_sb_grouping():
    m = build_structured_tet_mesh(build_domain(4), 2)
    dm = build_dof_map(m)
    assert set(dm.cavity_faces) == {1}
    assert len(dm.cavity_faces[1]) == 12 * 4
    vec = np.zeros(dm.total)
    vec[dm.index("sb", dm.cavity_faces[1])] = 1.0
    assert vec.sum() == 12 * 4
    assert np.all(vec[dm.block("sb")][m.face_tags == 1] == 1.0)


def test_tangent_basis_properties(cube1):
    dm = build_dof_map(cube1)
    t = dm.tangents
    assert np.allclose(np.linalg.norm(t, axis=2), 1.0)
    normals = cube1.face_normals
    assert np.abs(np.einsum("fkd,fd->fk", t, normals)).max() < 1e-14
    cross = np.cross(t[:, 0], t[:, 1])
    assert np.linalg.norm(cross, axis=1).min() > 1e-3  # independent pairs


def test_s1_single_tet_hand_value():
    # one tet, lam0 = 1, lamb = 0: s1 = h^-1 sum |F|
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    # single-tet mesh via the unit cube at n=1 is 6 tets; use tet 0 locally
    m = build_structured_tet_mesh(build_domain(1), 1)
    dm = build_dof_map(m)
    S1 = assemble_s1(m, dm)
    t = 0
    x = np.zeros(dm.total)
    x[dm.index("lam0", t)] = 1.0
    expected = m.face_areas[m.tet_faces[t]].sum() / m.geometry.diameters[t]
    assert x @ (S1 @ x) == pytest.approx(expected)
    # lam0 = lamb everywhere: zero energy in the lambda part
    x = np.zeros(dm.total)
    x[dm.block("lam0")] = 1.0
    x[dm.block("lamb")] = 1.0
    assert x @ (S1 @ x) == pytest.approx(0.0, abs=1e-14)


def test_s1_q_part_consistent_trace(cube1):
    # q0 constant with qb its tangential trace: zero energy
    dm = build_dof_map(cube1)
    S1 = assemble_s1(cube1, dm)
    c = np.array([0.3, -1.0, 0.7])
    x = np.zeros(dm.total)
    x[dm.block("q0")] = np.tile(c, cube1.num_tets)
    # tangential coefficients against the (generally non-orthogonal) basis
    for f in range(cube1.num_faces):
        T = dm.tangents[f]  # (2, 3)
        G = T @ T.T
        n = cube1.face_normals[f]
        ct = c - (c @ n) * n
        coef = np.linalg.solve(G, T @ ct)
        x[dm.index("qb", f, 0)] = coef[0]
        x[dm.index("qb", f, 1)] = coef[1]
    assert x @ (S1 @ x) == pytest.approx(0.0, abs=1e-12)


def test_s2_values(cube1):
    dm = build_dof_map(cube1)
    S2 = assemble_s2(cube1, dm)
    t = 0
    x = np.zeros(dm.total)
    x[dm.index("s0", t)] = 1.0
    # the fixed weight h_T^-gamma = h_T (gamma = -1)
    expected = cube1.face_areas[cube1.tet_faces[t]].sum() * cube1.geometry.diameters[t]
    assert x @ (S2 @ x) == pytest.approx(expected)
    # s0 = sb everywhere: zero
    x = np.zeros(dm.total)
    x[dm.block("s0")] = 1.0
    x[dm.block("sb")] = 1.0
    assert x @ (S2 @ x) == pytest.approx(0.0, abs=1e-14)


def test_coupling_entry_hand_value(cube1):
    # (u, eps grad_w phi)_T = -1/2 for u = e1, trace 1 on the x=0 face of
    # the reference-like tet: entry = |F| (eps n)_1 = 0.5 * (-1)
    dm = build_dof_map(cube1)
    B = assemble_Bh(cube1, np.eye(3), dm)
    # find a boundary face lying in the plane x=0 and its incident tet
    cands = [
        f
        for f in range(cube1.num_faces)
        if cube1.face_tet_count[f] == 1
        and np.allclose(cube1.vertices[cube1.faces[f]][:, 0], 0.0)
    ]
    f = cands[0]
    t = cube1.face_tets[f, 0]
    val = B[dm.index("lamb", f), dm.index("u", t, 0)]
    # x=0 boundary faces have area 1/2 and outward normal (-1,0,0)
    assert val == pytest.approx(-0.5)
    # (u, eps grad_w phi) with u constant and phi = {1, 1}: contributions 0
    x = np.zeros(dm.total)
    x[dm.block("u")] = np.tile([1.0, 2.0, 3.0], cube1.num_tets)
    y = np.zeros(dm.total)
    y[dm.block("lam0")] = 1.0
    y[dm.block("lamb")] = 1.0
    assert y @ (B @ x) == pytest.approx(0.0, abs=1e-13)


def test_curl_coupling_matches_kernel():
    # every entry of the three coupling blocks is |T| times a batched weak
    # kernel of a unit face trace, on every tet of a mesh with interior
    # faces of both orientations and a full coefficient matrix
    m = build_structured_tet_mesh(build_domain(4), 2)
    eps = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.2], [0.0, 0.2, 1.0]])
    dm = build_dof_map(m)
    B = assemble_Bh(m, eps, dm).tocsr()
    geom = m.geometry
    nt = m.num_tets
    tets = np.arange(nt)[:, None]
    u = dm.index("u", tets, np.arange(3))  # (nt, 3)
    q0 = dm.index("q0", tets, np.arange(3))

    def entries(rows, cols):
        rows, cols = np.broadcast_arrays(rows, cols)
        return np.asarray(B[rows.ravel(), cols.ravel()]).reshape(rows.shape)

    def check(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for i in range(4):
        f = m.tet_faces[:, i][:, None]
        unit = np.zeros((nt, 4))
        unit[:, i] = 1.0
        eps_grad = geom.volumes[:, None] * weak_gradient(geom, unit) @ eps.T
        check(entries(dm.index("lamb", f), u), eps_grad)  # lamb-u
        check(entries(q0, dm.index("sb", f)), eps_grad)  # q0-sb
        for j in (0, 1):
            psib = np.zeros((nt, 4, 3))
            psib[:, i] = dm.tangents[m.tet_faces[:, i], j]
            curl = geom.volumes[:, None] * weak_curl(geom, psib)
            check(entries(dm.index("qb", f, j), u), curl)  # qb-u


def test_global_symmetry_and_block_structure():
    spec = make_problem(1)
    m = build_structured_tet_mesh(spec.domain, 2)
    system = assemble_global(spec, m)
    asym = (system.A - system.A.T).tocoo()
    assert asym.nnz == 0 or np.abs(asym.data).max() == 0.0
    dm = system.dofmap
    # (u, u) block is empty
    ub = dm.block("u")
    assert system.A[ub, ub].nnz == 0
    # (lam, q) diagonal block equals S1; (s, s) equals -S2
    S1, S2 = assemble_s1(m, dm), assemble_s2(m, dm)
    for name in ("lam0", "lamb", "q0", "qb"):
        sl = dm.block(name)
        assert (system.A[sl, sl] - S1[sl, sl]).nnz == 0
    for name in ("s0", "sb"):
        sl = dm.block(name)
        assert (system.A[sl, sl] + S2[sl, sl]).nnz == 0


def _lexsort_reduction(rows, cols, vals, n):
    """The former reduction: duplicates summed in stable (row, col) order."""
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    fresh = np.empty(len(r), dtype=bool)
    fresh[0] = True
    fresh[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    head = np.flatnonzero(fresh)
    return sparse.csr_matrix(
        (np.add.reduceat(v, head), (r[head], c[head])), shape=(n, n)
    )


@pytest.fixture
def recorded_triplets(monkeypatch):
    """The flattened (rows, cols, vals, n, result) of every
    ``_csr_from_triplets`` call, in call order."""
    calls = []
    reduce = assembly._csr_from_triplets

    def record(blocks, n):
        rows, cols, vals = (
            np.concatenate([a.ravel() for a in arrays])
            for arrays in zip(*(np.broadcast_arrays(*block) for block in blocks))
        )
        result = reduce(blocks, n)
        calls.append((rows, cols, vals, n, result))
        return result

    monkeypatch.setattr(assembly, "_csr_from_triplets", record)
    return calls


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _check_order_free(problem, mesh, calls):
    # at most two triplets per (row, col), so the summation order cannot
    # change a bit: S1, B, S2 and A equal the ordered reduction's exactly
    calls.clear()
    system = assemble_global(problem, mesh)
    assert len(calls) == 3  # S1, B, S2, in the order they are built
    reference = []
    for rows, cols, vals, n, got in calls:
        _, counts = np.unique(rows * n + cols, return_counts=True)
        assert counts.max() <= 2
        want = _lexsort_reduction(rows, cols, vals, n)
        _assert_same_csr(got, want)
        reference.append(want)
    S1, B, S2 = reference
    _assert_same_csr(system.A, (S1 - S2 + B + B.T).tocsr())


@pytest.mark.parametrize("example", range(1, 8))
def test_assembly_independent_of_summation_order(example, recorded_triplets):
    spec = make_problem(example)
    mesh = build_structured_tet_mesh(spec.domain, 2)
    _check_order_free(spec, mesh, recorded_triplets)


def test_assembly_independent_of_summation_order_off_lattice(
    jittered_mesh, recorded_triplets
):
    rng = np.random.default_rng(3)
    for example, n in ((1, 3), (4, 4)):
        _, mesh = jittered_mesh(example, n, rng)
        _check_order_free(make_problem(example), mesh, recorded_triplets)


def test_quadratic_forms_psd():
    _, min_energy = system_defects(np.random.default_rng(5), 100)
    assert min_energy >= -1e-12


def test_rhs_zero_for_zero_loads():
    spec = constant_problem([0.0, 0.0, 0.0], np.eye(3))
    m = build_structured_tet_mesh(spec.domain, 1)
    F = assemble_rhs(spec, m, build_dof_map(m))
    assert np.abs(F).max() == 0.0


def test_rhs_constant_curl_source(cube1):
    spec = ProblemSpec(
        np.eye(3), build_domain(1),
        lambda p: np.zeros_like(p),
        lambda p: np.zeros(len(p)),
        lambda p: np.tile([0.0, 0.0, 1.0], (len(p), 1)),
    )
    dm = build_dof_map(cube1)
    F = assemble_rhs(spec, cube1, dm)
    q0z = F[dm.index("q0", np.arange(cube1.num_tets), 2)]
    assert np.allclose(q0z, cube1.geometry.volumes)
    assert np.abs(F[dm.block("lam0")]).max() == 0.0


def test_rhs_problem3_only_boundary():
    spec = make_problem(3)
    m = build_structured_tet_mesh(spec.domain, 2)
    dm = build_dof_map(m)
    F = assemble_rhs(spec, m, dm)
    assert np.abs(F[dm.block("lam0")]).max() == 0.0
    assert np.abs(F[dm.block("q0")]).max() == 0.0
    assert np.abs(F[dm.block("lamb")]).max() > 0.0


def test_consistency_identity_affine():
    # residual of (Q_h u, 0; lam=0, q=0) in the multiplier equations equals
    # the face-projection defect <u - Q_h u, eps n (phi0-phib) + (psib-psi0) x n>
    rng = np.random.default_rng(9)
    C = rng.standard_normal((3, 3))
    d = rng.standard_normal(3)
    eps = np.diag([3.0, 2.0, 1.0])
    spec = affine_problem(C, d, eps)
    m = build_structured_tet_mesh(spec.domain, 2)
    system = assemble_global(spec, m, quad_degree=3)
    dm = system.dofmap

    x = np.zeros(dm.total)
    centroids = m.vertices[m.tets].mean(axis=1)
    x[dm.block("u")] = (centroids @ C.T + d).ravel()
    resid = system.F - system.A @ x

    # independent evaluation of the defect, face by face
    defect = np.zeros(dm.total)
    areas = m.geometry.areas
    n_out = m.geometry.normals
    face_centroids = m.vertices[m.faces].mean(axis=1)
    fcent = face_centroids[m.tet_faces]  # (nt, 4, 3) exact mean of affine
    ubar_T = centroids @ C.T + d
    ubar_F = np.einsum("tfd,cd->tfc", fcent, C) + d
    du = ubar_F - ubar_T[:, None, :]  # mean of u - Q_h u per face
    eps_n = np.einsum("cd,tfd->tfc", eps, n_out)
    # phi0 - phib test pairs: row lam0 gets +, row lamb gets -
    lam_val = areas * np.einsum("tfc,tfc->tf", du, eps_n)
    np.add.at(defect, dm.index("lam0", np.arange(m.num_tets)), lam_val.sum(axis=1))
    np.subtract.at(defect, dm.index("lamb", m.tet_faces).ravel(), lam_val.ravel())
    # (psib - psi0) x n pairs: <du, t_j x n> on qb rows, -<du, e_c x n> on q0
    for j in (0, 1):
        txn = np.cross(dm.tangents[m.tet_faces][:, :, j, :], n_out)
        qb_val = areas * np.einsum("tfc,tfc->tf", du, txn)
        np.add.at(defect, dm.index("qb", m.tet_faces, j).ravel(), qb_val.ravel())
    for c in range(3):
        e = np.zeros(3)
        e[c] = 1.0
        exn = np.cross(e, n_out)
        q0_val = areas * np.einsum("tfc,tfc->tf", du, exn)
        np.subtract.at(
            defect, dm.index("q0", np.arange(m.num_tets), c), q0_val.sum(axis=1)
        )

    # the identity covers the imposed multiplier equations only: boundary
    # trace tests are constrained out of the space
    lamq = np.zeros(dm.total, dtype=bool)
    for name in ("lam0", "lamb", "q0", "qb"):
        lamq[dm.block(name)] = True
    lamq = dm.free[lamq[dm.free]]  # the free ones, as raw indices
    scale = max(1.0, np.abs(system.F).max())
    # the multiplier-equation residual is minus the projection defect
    assert np.abs((resid + defect)[lamq]).max() < 1e-10 * scale
    assert np.abs(defect[lamq]).max() > 1e-3  # the defect is genuinely nonzero
    # constant u: defect vanishes and the residual with it (patch identity)
    spec_c = constant_problem([1.0, -2.0, 0.5], eps=eps)
    system_c = assemble_global(spec_c, m, quad_degree=3)
    xc = np.zeros(dm.total)
    xc[dm.block("u")] = np.tile([1.0, -2.0, 0.5], m.num_tets)
    resid_c = system_c.F - system_c.A @ xc
    assert np.abs(resid_c[lamq]).max() < 1e-13


def test_joint_scaling_invariance():
    spec = make_problem(1)
    m = build_structured_tet_mesh(spec.domain, 2)
    system = assemble_global(spec, m)
    sol1 = solve(system, method="direct")
    system.A = system.A * 3.0
    system.F = system.F * 3.0
    sol2 = solve(system, method="direct")
    assert np.allclose(sol1.x, sol2.x, atol=1e-12)


def test_reduced_is_free_submatrix():
    # problem 4 constrains a pinned lam0, the cavity traces and the
    # boundary traces; reduced() must equal the restriction R A R^T
    from scipy import sparse

    spec = make_problem(4)
    system = assemble_global(spec, build_structured_tet_mesh(spec.domain, 2))
    dm, free = system.dofmap, system.dofmap.free
    assert dm.cavity_faces and dm.pinned_lam0 not in set(free)
    assert len(free) < dm.total - 1
    R = sparse.csr_matrix(
        (np.ones(len(free)), (np.arange(len(free)), free)),
        shape=(len(free), dm.total),
    )
    want = (R @ system.A @ R.T).tocsr()
    A_ff, F_f = system.reduced()
    assert np.array_equal(A_ff.indptr, want.indptr)
    assert np.array_equal(A_ff.indices, want.indices)
    assert np.array_equal(A_ff.data, want.data)
    assert np.array_equal(F_f, system.F[free])
