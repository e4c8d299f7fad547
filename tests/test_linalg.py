"""Kernels: clustered spectra, subspace arithmetic, matrix exponential."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from netdiscern import (
    Subspace,
    eig,
    expm,
    kernel,
    subspace_intersect,
)
from netdiscern import assemble_transition, laplacian, linalg
from netdiscern.example import EXAMPLE_B, example_dynamics
from netdiscern.linalg import cluster_indices, distinct_values

from conftest import (contains, max_angle, max_sine, reference_spectrum, ring_with_chords,
                      spectrum_dimension, spectrum_values, without_first_edge)


# ---------------------------------------------------------------------------
# eig
# ---------------------------------------------------------------------------


def test_eig_identity_multiplicity():
    spec = eig(np.eye(3))
    assert len(spec.eigenpairs) == 1
    pair = spec.eigenpairs[0]
    assert pair.value == 1.0
    assert pair.algebraic_multiplicity == 3
    assert pair.vectors.shape == (3, 3)


def test_eig_diagonal_exact():
    d = np.array([-2.0, 0.5, 3.25, 7.0])
    spec = eig(np.diag(d))
    assert np.allclose(np.sort(spectrum_values(spec).real), d, atol=1e-13, rtol=0)
    assert spectrum_dimension(spec) == 4


def test_eig_symmetric_tridiagonal_closed_form():
    # tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2 cos(k pi / (n+1))
    n = 6
    M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    expected = np.sort([2 - 2 * np.cos(k * np.pi / (n + 1)) for k in range(1, n + 1)])
    spec = eig(M)
    assert np.allclose(np.sort(spectrum_values(spec).real), expected, atol=1e-12, rtol=0)


def test_eig_sorting_is_lexicographic():
    # block diag of a rotation (eigenvalues +-i) and the scalar 2
    M = np.zeros((3, 3))
    M[0, 1] = -1.0
    M[1, 0] = 1.0
    M[2, 2] = 2.0
    values = spectrum_values(eig(M))
    assert np.allclose(values, [-1j, 1j, 2.0], atol=1e-12)


def test_eig_multiplicity_sums_to_dimension():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        M = rng.standard_normal((m, m))
        assert spectrum_dimension(eig(M)) == m


def test_eig_residuals_within_tolerance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        scale = np.linalg.norm(M, 2)
        spec = eig(M)
        for pair in spec.eigenpairs:
            for c in range(pair.vectors.shape[1]):
                v = pair.vectors[:, c]
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12
                assert np.linalg.norm(M @ v - pair.value * v) <= 1e-8 * scale


def test_eig_defective_reports_fewer_vectors():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    spec = eig(jordan)
    assert len(spec.eigenpairs) == 1
    pair = spec.eigenpairs[0]
    assert pair.algebraic_multiplicity == 2
    assert pair.vectors.shape[1] == 1  # no fabricated generalized eigenvector


def test_eig_clusters_nearby_values():
    spec = eig(np.diag([1.0, 1.0 + 1e-12, 5.0]))
    mults = sorted(p.algebraic_multiplicity for p in spec.eigenpairs)
    assert mults == [1, 2]
    for pair in spec.eigenpairs:
        assert abs(pair.value.imag) == 0.0


def reference_cases(rng):
    """60 matrices of each family, orders 2 to 7: general; defective
    (upper triangular with repeated integer diagonals); semisimple with
    repeated eigenvalues (S diag(d) S^-1); and symmetric with repeated
    eigenvalues (Q diag(d) Q^T, symmetrized exactly)."""
    for _ in range(60):
        m = int(rng.integers(2, 8))
        yield "general", rng.standard_normal((m, m))
        m = int(rng.integers(2, 8))
        yield "defective", (np.triu(rng.standard_normal((m, m)), 1)
                            + np.diag(rng.integers(-2, 3, m).astype(float)))
        m = int(rng.integers(2, 8))
        d = rng.integers(-2, 3, m).astype(float)
        S = rng.standard_normal((m, m)) + 2 * np.eye(m)
        yield "semisimple", S @ np.diag(d) @ np.linalg.inv(S)
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        M = Q @ np.diag(d) @ Q.T
        yield "symmetric", (M + M.T) / 2


def test_eig_matches_the_reference_spectrum():
    # each cluster's kernel spans what the clustered eigenvectors of
    # np.linalg.eig span: the same clusters and multiplicities, as many
    # vectors, and spans within a sine of 1e-8
    cases = list(reference_cases(np.random.default_rng(27)))
    assert len(cases) == 240
    for k, (family, M) in enumerate(cases):
        got = eig(M)
        want = reference_spectrum(M, *np.linalg.eig(M), got.cluster_tol)
        assert len(got.eigenpairs) == len(want.eigenpairs), (k, family)
        for p, q in zip(got.eigenpairs, want.eigenpairs):
            assert abs(p.value - q.value) <= got.cluster_tol, (k, family)
            assert p.algebraic_multiplicity == q.algebraic_multiplicity, (k, family)
            assert p.vectors.shape == q.vectors.shape, (k, family)
            assert max_sine(Subspace(p.vectors), Subspace(q.vectors)) <= 1e-8, (k, family)
        if family == "symmetric":
            assert all(not np.iscomplexobj(p.vectors) for p in got.eigenpairs), k


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# schur_basis
# ---------------------------------------------------------------------------


def _similar(T, seed):
    S = np.random.default_rng(seed).standard_normal(T.shape)
    return S @ T @ np.linalg.inv(S)


def _jordan(lam, k):
    return lam * np.eye(k) + np.eye(k, k=1)


# (M, the eigenvalue the cluster sits at, its member count, the largest sine
# of the angle allowed between the basis and SciPy's ordered Schur vectors)
SCHUR_CASES = {
    "jordan pair": (_similar(scipy.linalg.block_diag(_jordan(1.0, 2), np.diag([-2.0, 3.5])), 1),
                    1.0, 2, 1e-12),
    "jordan triple": (_similar(scipy.linalg.block_diag(_jordan(2.0, 3), np.diag([-1.0, 0.5])), 2),
                      2.0, 3, 1e-12),
    # the pair's invariant subspace is conditioned by 5e-6 squared over the
    # Jordan coupling, so both spans are exact only to about 1e-5
    "pair 5e-6 from a third": (
        _similar(scipy.linalg.block_diag(_jordan(1.0, 2), np.diag([1.0 + 5e-6, 4.0])), 3),
        1.0, 2, 1e-4),
    "nearly defective": (
        _similar(scipy.linalg.block_diag([[1.0, 1.0], [1e-14, 1.0]], np.diag([2.0, -3.0])), 4),
        1.0, 2, 1e-12),
    "complex pair": (
        _similar(scipy.linalg.block_diag(
            np.kron(np.eye(2), [[1.0, 2.0], [-2.0, 1.0]]) + np.eye(4, k=2), [[0.5]]), 5),
        1.0 + 2.0j, 2, 1e-12),
    "paper block at 3 - sqrt 3": (example_dynamics().A - (3 - np.sqrt(3)) * EXAMPLE_B,
                                  1.0, 2, 1e-12),
}


@pytest.mark.parametrize("name", SCHUR_CASES)
def test_schur_basis_is_an_exact_invariant_basis(name):
    # one column per member, orthonormal, invariant to roundoff, and the
    # span of SciPy's ordered Schur vectors for the same members
    M, centre, count, span_tol = SCHUR_CASES[name]
    w = np.linalg.eigvals(M)
    member = np.argsort(np.abs(w - centre))[:count]
    X = linalg.schur_basis(M, w[member])
    assert X.shape == (M.shape[0], count)
    assert np.linalg.norm(X.conj().T @ X - np.eye(count), 2) <= 1e-14
    norm = np.linalg.norm(M, 2)
    assert np.linalg.norm(M @ X - X @ (X.conj().T @ M @ X), 2) <= 1e-13 * norm
    _, Z, sdim = scipy.linalg.schur(M, output="complex",
                                    sort=lambda x: np.argmin(np.abs(w - x)) in member)
    assert sdim == count
    Z = Z[:, :sdim]
    assert np.linalg.norm(X - Z @ (Z.conj().T @ X), 2) <= span_tol


def test_distinct_values_chains_and_sorts():
    # 0 and 1.2e-8 are farther apart than tol, but 0.6e-8 links them
    reps, count = distinct_values([1.0, 1.2e-8, -1.0, 0.0, 0.6e-8], 1e-8)
    assert count == len(reps) == 3
    assert reps[0] == -1.0 and reps[2] == 1.0
    assert reps[1] == pytest.approx(0.6e-8, rel=1e-12)
    assert reps.tolist() == sorted(reps.tolist())


def union_find_clusters(values, tol):
    """Reference single linkage: union-find over every pair of values
    strictly closer than tol, clusters in order of their smallest index."""
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    values = np.asarray(values)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(values)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def reference_distinct_values(values, tol):
    v = np.sort(np.asarray(values, dtype=float))
    return [float(np.mean(v[idx])) for idx in union_find_clusters(v, tol)]


def clustering_cases():
    """(values, tol) pairs: dense equal clusters, scattered complex values,
    chains linked only through intermediate values, gaps of exactly tol,
    NaN entries and empty input, each seeded."""
    rng = np.random.default_rng(20)
    cases = [(np.array([]), 1e-8), (np.array([], dtype=complex), 1e-8)]
    for _ in range(4):
        # dense clusters of equal values (lambda = 1 in every block), with
        # and without roundoff, beside a few singletons
        dense = np.r_[np.ones(int(rng.integers(12, 21))),
                      1.0 + 1e-12 * rng.standard_normal(5),
                      np.full(4, 2.5), rng.uniform(3, 9, 6)]
        cases.append((rng.permutation(dense + 1j * (dense > 5) * dense), 1e-8))
        z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        cases.append((z, 0.3))
        # a chain 0, 0.9, 1.8, ... links end to end only through its
        # middle; the complex one runs along a diagonal
        chain = 0.9 * np.arange(8)
        cases.append((rng.permutation(np.r_[chain, 20 + chain]), 1.0))
        cases.append((rng.permutation(chain * (1 + 1j) / np.sqrt(2)), 1.0))
    # gaps of exactly tol do not link; a hair less does
    cases.append((np.array([0.0, 0.5, 1.0, 1.5 - 2 ** -40]), 0.5))
    cases.append((np.array([0.0, 0.5j, 0.5 + 0.5j, 3.0]), 0.5))
    # each NaN is its own cluster
    cases.append((np.array([1.0, np.nan, 1.0, np.nan, 2.0, np.nan]), 1e-8))
    cases.append((np.array([np.nan, 1j, np.nan + 1j, 1j]), 1e-8))
    return cases


def test_cluster_indices_matches_union_find():
    for values, tol in clustering_cases():
        got = cluster_indices(values, tol)
        assert got == union_find_clusters(values, tol)
        assert all(type(i) is int for group in got for i in group)


def test_distinct_values_matches_union_find_means_bitwise():
    # each value set alone, and stacks of them: a stack's representatives
    # are its sets' own, set after set, with each set's count
    cases = [(v.real, tol) for v, tol in clustering_cases()]
    rng = np.random.default_rng(21)
    for _ in range(20):
        # Laplacian-like spectra: repeated values up to roundoff
        values = rng.integers(0, 6, 30) + 1e-12 * rng.standard_normal(30)
        cases.append((values, 1e-8))
    for size in (8, 9, 15, 16, 17, 40):
        # runs of 8 or more values, which np.add.reduce sums pairwise
        values = np.r_[np.full(size, 1.0) + 1e-12 * rng.standard_normal(size),
                       rng.uniform(2, 3, 5)]
        cases.append((rng.permutation(values), 1e-8))
    for values, tol in cases:
        got, count = distinct_values(values, tol)
        want = np.array(reference_distinct_values(values, tol))
        assert got.tobytes() == want.tobytes() and count.shape == () and count == len(want)
    stacks = {}
    for values, tol in cases:
        stacks.setdefault((len(values), tol), []).append(values)
    stacks[30, 1e-8].append(np.full(30, -0.0))
    assert len(stacks[30, 1e-8]) > 20 and any(len(s) > 1 for s in stacks.values())
    for (_, tol), rows in stacks.items():
        want = [np.array(reference_distinct_values(row, tol)) for row in rows]
        got, counts = distinct_values(np.array(rows), tol)
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert counts.tolist() == [len(w) for w in want]
        # a stack of stacks counts per set, in the same order
        got, counts = distinct_values(np.array(rows)[None, :, :], tol)
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert counts.shape == (1, len(rows))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_zero_matrix_is_full():
    assert kernel(np.zeros((3, 3))).dim == 3


def test_kernel_invertible_is_zero():
    assert kernel(np.array([[1.0, 2.0], [3.0, 5.0]])).dim == 0


def test_kernel_of_example_input_matrix():
    # B annihilates [0, 1, 1]: row checks give exactly zero
    v = np.array([0.0, 1.0, 1.0])
    assert np.all(EXAMPLE_B @ v == 0.0)
    ker = kernel(EXAMPLE_B)
    assert ker.dim == 1
    assert contains(ker, v / np.sqrt(2.0), 1e-10)


def test_kernel_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.standard_normal((5, 7))
        M[:, 2] = M[:, 0] + M[:, 1]  # force rank deficiency
        ker = kernel(M)
        smax = np.linalg.norm(M, 2)
        assert ker.dim >= 2
        if ker.dim:
            assert np.linalg.norm(M @ ker.basis, 2) <= 1e-10 * smax * 10


def _low_rank(rng, rows, cols, rank, complex_=False):
    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    return draw((rows, rank)) @ draw((rank, cols))


@pytest.mark.parametrize(
    "rows, cols, rank, complex_",
    [(60, 6, 4, False), (60, 6, 4, True), (4, 9, 3, False)],
    ids=["tall-real", "tall-complex", "wide-real"],
)
def test_kernel_exact_dim_for_tall_and_wide(rows, cols, rank, complex_):
    # tall inputs take the thin factorization; a wide input keeps null
    # directions outside the thin V^H, which the full factorization must find
    M = _low_rank(np.random.default_rng(11), rows, cols, rank, complex_)
    ker = kernel(M)
    assert ker.dim == cols - rank
    smax = np.linalg.norm(M, 2)
    assert np.linalg.norm(M @ ker.basis, 2) <= 1e-12 * smax
    q = ker.basis
    assert np.allclose(q.conj().T @ q, np.eye(ker.dim), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# subspace arithmetic
# ---------------------------------------------------------------------------


def _span(*cols):
    return Subspace.from_spanning(np.column_stack(cols))


def test_spanned_basis_is_the_counted_leading_singular_vectors():
    # the count is the rank decision: the basis is the dim leading left
    # singular vectors of the parts' real columns, the columns the default
    # cut keeps when they agree, and it raises only when the parts cannot
    # hold dim dimensions (sigma_dim <= MIN_RANK_TOL * sigma_1)
    rng = np.random.default_rng(3)
    C, Z = rng.standard_normal((3, 2)), rng.standard_normal((2, 2)) @ [[1], [1j]]
    parts = [(C, Z), rng.standard_normal((6, 1))]  # kron(C, Z) and its conjugate: 4, then 1
    want = Subspace.from_spanning(linalg.real_columns(parts)).basis
    assert want.shape == (6, 5)
    assert Subspace.spanned(6, parts, 5).basis.tobytes() == want.tobytes()
    assert Subspace.spanned(6, parts, 3).basis.tobytes() == want[:, :3].tobytes()
    assert Subspace.spanned(6, [np.zeros((6, 0))], 0).basis.shape == (6, 0)
    for space in (Subspace.spanned(6, parts, 6), Subspace.spanned(6, [np.ones((6, 2))], 2)):
        with pytest.raises(ValueError, match="do not span"):
            space.basis


def test_kron_equals_np_kron_bitwise():
    # every Kronecker product of the package is linalg.kron: np.kron's
    # shape, dtype and bits, for real and complex operands, column vectors
    # and operands without columns
    rng = np.random.default_rng(5)
    real = rng.standard_normal((3, 4))
    cplx = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    column = rng.standard_normal((5, 1))
    for a, b in [(real, cplx), (cplx, real), (cplx, cplx), (real, real.T), (column, real),
                 (real, column), (column, cplx[:, :1]), (np.eye(4), real),
                 (real[:, :0], cplx), (cplx, real[:, :0]), (column[:, :0], column[:, :0])]:
        got, want = linalg.kron(a, b), np.kron(a, b)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def _sum(U: Subspace, V: Subspace) -> Subspace:
    """U + V, spanned by both bases side by side."""
    return Subspace.from_spanning(np.hstack([U.basis, V.basis]))


def test_intersect_with_itself():
    U = _span(np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    inter = subspace_intersect(U, U)
    assert inter.dim == U.dim and max_angle(inter, U) <= 1e-10


def test_intersect_coordinate_planes():
    e = np.eye(3)
    U = _span(e[:, 0], e[:, 1])
    V = _span(e[:, 1], e[:, 2])
    inter = subspace_intersect(U, V)
    assert inter.dim == 1
    assert contains(inter, e[:, 1], 1e-10)


def test_intersect_sync_with_mode_fan():
    # 3 + 4 - rank == 1: the overlap of the sync manifold with the
    # invariant-mode fan is exactly the uniform mode direction
    sync = np.kron(np.ones((4, 1)) / 2.0, np.eye(3))
    fan = np.kron(np.eye(4), np.array([[0.0], [1.0], [1.0]]) / np.sqrt(2.0))
    rank = np.linalg.matrix_rank(np.hstack([sync, fan]), tol=1e-10)
    assert rank == 6
    inter = subspace_intersect(Subspace(sync), Subspace(fan))
    assert inter.dim == 3 + 4 - rank == 1
    uniform = np.kron(np.ones(4), np.array([0.0, 1.0, 1.0]))
    assert contains(inter, uniform / np.linalg.norm(uniform), 1e-9)


def test_sum_with_zero():
    U = _span(np.array([1.0, 1.0, 0.0]))
    total = _sum(U, Subspace.zero(3))
    assert total.dim == U.dim and max_angle(total, U) <= 1e-10


def test_sum_orthogonal_dims_add():
    e = np.eye(4)
    U = _span(e[:, 0], e[:, 1])
    V = _span(e[:, 2])
    assert _sum(U, V).dim == 3


def test_sum_sync_and_mode_fan_is_six_dimensional():
    sync = Subspace(np.kron(np.ones((4, 1)) / 2.0, np.eye(3)))
    fan = Subspace(np.kron(np.eye(4), np.array([[0.0], [1.0], [1.0]]) / np.sqrt(2.0)))
    assert _sum(sync, fan).dim == 6


def test_dimension_identity_on_random_subspaces():
    # dim(U+V) + dim(U∩V) == dim U + dim V, 100 random draws
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(2, 13))
        p = int(rng.integers(0, m + 1))
        q = int(rng.integers(0, m + 1))
        U = Subspace.from_spanning(rng.standard_normal((m, p))) if p else Subspace.zero(m)
        V = Subspace.from_spanning(rng.standard_normal((m, q))) if q else Subspace.zero(m)
        total = _sum(U, V).dim + subspace_intersect(U, V).dim
        assert total == U.dim + V.dim
        # generic position cross-check
        assert _sum(U, V).dim == min(m, p + q)
        assert subspace_intersect(U, V).dim == max(0, p + q - m)


def stacked_intersect(U: Subspace, V: Subspace) -> Subspace:
    """The reference: the kernel of the stacked complement projectors
    [I - P_U; I - P_V], a 2m x m matrix, at the relative cutoff; a full
    operand, whose projector is pure roundoff, is decided directly."""
    m = U.ambient_dim
    if U.dim == 0 or V.dim == 0:
        return Subspace.zero(m)
    if U.dim == m or V.dim == m:
        return V if U.dim == m else U
    eye = np.eye(m)
    return kernel(np.vstack([eye - U.basis @ U.basis.conj().T,
                             eye - V.basis @ V.basis.conj().T]))


def planted_pairs():
    """(U, V, k): subspaces of C^m or R^m, m up to 40, sharing a planted
    k-dimensional part: generic pairs, nested and equal pairs, full and
    zero operands, real and complex bases."""
    rng = np.random.default_rng(19)

    def draw(m, cols, complex_):
        x = rng.standard_normal((m, cols))
        return x + 1j * rng.standard_normal((m, cols)) if complex_ else x

    for trial in range(300):
        m = int(rng.integers(2, 41))
        complex_ = trial % 3 == 0
        k = int(rng.integers(0, m + 1))
        p, q = (int(rng.integers(k, m + 1)) for _ in range(2))
        common = draw(m, k, complex_)
        U = Subspace.from_spanning(np.hstack([common, draw(m, p - k, complex_)]))
        V = Subspace.from_spanning(np.hstack([common, draw(m, q - k, complex_)]))
        yield U, V, max(k, p + q - m) if U.dim and V.dim else 0
        if U.dim:
            nested = Subspace.from_spanning(U.basis @ draw(U.dim, max(1, U.dim // 2), complex_))
            yield nested, U, nested.dim
            yield U, U, U.dim
            yield U, Subspace.full(m), U.dim
            yield Subspace.zero(m), U, 0
    yield Subspace.full(40), Subspace.full(40), 40


def test_intersect_matches_the_stacked_projectors_on_planted_pairs(monkeypatch):
    # dim(U ∩ V) is the planted dimension (generic otherwise), equal to the
    # stacked reference's in either argument order, and the span lies in
    # both operands; kernel receives the m x min(dim U, dim V) residual,
    # never a 2m x m stack
    shapes = []
    original = linalg.kernel
    monkeypatch.setattr(linalg, "kernel", lambda M, *a: shapes.append(M.shape) or original(M, *a))
    count = 0
    for U, V, dim in planted_pairs():
        shapes.clear()
        inter = subspace_intersect(U, V)
        assert shapes == ([(U.ambient_dim, min(U.dim, V.dim))] if U.dim and V.dim else [])
        assert inter.dim == subspace_intersect(V, U).dim == stacked_intersect(U, V).dim == dim
        assert contains(U, inter, 1e-8) and contains(V, inter, 1e-8)
        count += 1
    assert count > 1000


def test_contains_zero_vector():
    U = _span(np.array([1.0, 0.0, 0.0]))
    assert contains(U, np.zeros(3))
    assert contains(Subspace.zero(3), np.zeros(3))


def test_contains_own_basis_columns():
    rng = np.random.default_rng(9)
    U = Subspace.from_spanning(rng.standard_normal((6, 3)))
    for c in range(U.dim):
        assert contains(U, U.basis[:, c])
    assert contains(U, U)


def test_contains_rejects_outside_directions():
    e = np.eye(3)
    U = _span(e[:, 0], e[:, 1])
    assert not contains(U, e[:, 2])
    assert not contains(U, Subspace.full(3))


def test_ambient_mismatch_raises():
    U = Subspace.full(3)
    V = Subspace.full(4)
    with pytest.raises(ValueError):
        subspace_intersect(U, V)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def _with_inner_product(c: complex) -> np.ndarray:
    """Columns e1 and c*e1 + e2: unit norm up to |c|^2, inner product c."""
    return np.array([[1.0, c], [0.0, 1.0], [0.0, 0.0]])


def _stretched(c: complex) -> np.ndarray:
    """``_with_inner_product(c)`` with gram entry (0, 0) at 1 + 5e-6."""
    basis = _with_inner_product(c)
    basis[:, 0] *= np.sqrt(1 + 5e-6)
    return basis


@pytest.mark.parametrize("basis, ok", [
    # a diagonal gram entry passes within 1e-8 + 1e-5 of one
    (np.sqrt(1 + 5e-6) * np.eye(3, 1), True),
    (np.sqrt(1 + 2e-5) * np.eye(3, 1), False),
    # ... while every off-diagonal one still has to be within 1e-8 of zero
    (_stretched(5e-9), True),
    (_stretched(2e-8), False),
    # an off-diagonal one within 1e-8 of zero
    (_with_inner_product(5e-9), True),
    (_with_inner_product(2e-8), False),
    # complex entries are measured by modulus: 8e-9 in each part is 1.13e-8
    (_with_inner_product(5e-9j), True),
    (_with_inner_product(8e-9 + 8e-9j), False),
])
def test_subspace_orthonormality_threshold(basis, ok):
    if ok:
        assert Subspace(basis).dim == basis.shape[1]
    else:
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(basis)


def test_principal_angles():
    e = np.eye(3)
    U = _span(e[:, 0], e[:, 1])
    rot = _span(
        np.array([np.cos(0.3), np.sin(0.3), 0.0]),
        np.array([-np.sin(0.3), np.cos(0.3), 0.0]),
    )
    assert max_angle(U, rot) < 1e-12  # same plane
    tilted = _span(e[:, 0], np.array([0.0, np.cos(0.2), np.sin(0.2)]))
    assert abs(max_angle(U, tilted) - 0.2) < 1e-12


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------


def test_expm_zero_matrix():
    assert np.array_equal(expm(np.zeros((4, 4)), 2.0), np.eye(4))
    assert np.array_equal(expm(np.ones((3, 3)), 0.0), np.eye(3))
    assert expm(np.zeros((0, 0))).shape == (0, 0)


def test_expm_subnormal_norm_needs_no_logarithm():
    assert np.array_equal(expm(np.array([[5e-324]])), np.ones((1, 1)))


def test_expm_diagonal():
    E = expm(np.diag([-1.0, 2.0]), 1.0)
    assert np.allclose(E, np.diag([np.exp(-1.0), np.exp(2.0)]), rtol=1e-13)


def test_expm_semigroup_property():
    rng = np.random.default_rng(21)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        M *= 10.0 * rng.random() / np.linalg.norm(M, 2)
        s, t = rng.random(2) * 2.0
        lhs = expm(M, s + t)
        rhs = expm(M, s) @ expm(M, t)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)


def test_expm_matches_reference():
    rng = np.random.default_rng(22)
    M = rng.standard_normal((8, 8))
    assert np.allclose(expm(M, 0.7), scipy.linalg.expm(0.7 * M), rtol=1e-12, atol=0)


def test_expm_eigenvector_action(demo):
    x = np.kron(np.ones(4), np.array([0.0, 1.0, 1.0]))
    result = expm(demo.phi.phi, 0.5) @ x
    assert np.allclose(result, np.exp(0.5) * x, rtol=1e-10)


def expm_overflows_quietly(M, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match=r"overflowed for \|\|M t\|\|_1"):
            expm(M, t)


def test_expm_overflow_reported():
    expm_overflows_quietly(np.array([[800.0]]), 1.0)  # the squarings overflow


@pytest.mark.parametrize("M, t", [
    (np.array([[1.0, 2.0], [3.0, -1.0]]), 1e3),  # a non-normal matrix
    (np.array([[1e308, 0.0], [1e308, 0.0]]), 1.0),  # ||M t||_1 is infinite
    (np.array([[1e300]]), 1e10),  # M t itself overflows
], ids=["general", "infinite_norm", "product"])
def test_expm_overflow_raises_without_warning(M, t):
    expm_overflows_quietly(M, t)


def relative_gap(E, R):
    return np.linalg.norm(E - R, 1) / np.linalg.norm(R, 1)


def test_expm_matches_scipy_across_norms_and_sizes():
    # ||M||_1 from 1e-4 to 300 on both sides of theta_13: no scaling below
    # it, up to 6 squarings above; every third matrix upper triangular.
    # The relative condition number of e^M is at least ||M||_2, so two
    # stable methods may differ by about ||M|| u: the bound is 1e-12 up to
    # ||M||_1 = 1 and grows with the norm above it.  (On the 2 x 2 draw at
    # norm 300 SciPy's own relative error is 3.7e-11 against a 60-digit
    # reference; this expm's is 1.9e-13.)
    rng = np.random.default_rng(23)
    norms = np.geomspace(1e-4, 300.0, 9)
    assert norms.min() < linalg._THETA13 < norms.max()
    for n in range(1, 41):
        for k, target in enumerate(norms):
            M = rng.standard_normal((n, n))
            if (n + k) % 3 == 0:
                M = np.triu(M)
            M *= target / np.abs(M).sum(axis=0).max()
            gap = relative_gap(expm(M), scipy.linalg.expm(M))
            assert gap <= 1e-12 * max(1.0, target), (n, target)


@pytest.mark.parametrize("t", [0.1, 5.0])
def test_expm_matches_scipy_on_the_ring_transitions(t):
    dyn, g = example_dynamics(), ring_with_chords(8)
    for L in (laplacian(g), without_first_edge(g)):
        phi = assemble_transition(dyn, L).phi
        assert relative_gap(expm(phi, t), scipy.linalg.expm(phi * t)) <= 1e-12


def test_scaled_norm_keeps_finite_norms_and_rescales_overflow():
    # a finite norm is the plain np.linalg.norm bit for bit; where squaring
    # the entries overflows, the norm is taken on the rescaled entries, with
    # no RuntimeWarning, and the finite columns of the same call keep their
    # plain bits
    rng = np.random.default_rng(4)
    M = rng.standard_normal((3, 5, 4))
    assert linalg.scaled_norm(M[0]) == np.linalg.norm(M[0])
    assert linalg.scaled_norm(M, -2).tobytes() == np.linalg.norm(M, axis=-2).tobytes()
    big = M.copy()
    big[1, :, 2] *= 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        frobenius = linalg.scaled_norm(big[1])
        columns = linalg.scaled_norm(big, -2)
    assert frobenius == pytest.approx(1e300 * np.linalg.norm(M[1, :, 2]), rel=1e-14)
    assert columns[1, 2] == pytest.approx(1e300 * np.linalg.norm(M[1, :, 2]), rel=1e-14)
    finite = np.ones(columns.shape, dtype=bool)
    finite[1, 2] = False
    assert columns[finite].tobytes() == np.linalg.norm(M, axis=-2)[finite].tobytes()


def test_scaled_norm_rescales_underflow():
    # squared entries below about 1e-154 underflow, to 0 at last: such a
    # norm is taken on the rescaled entries, a zero norm stays 0, and the
    # other columns keep their plain bits
    rng = np.random.default_rng(5)
    M = rng.standard_normal((5, 4))
    tiny = M.copy()
    tiny[:, 1] *= 1e-170
    tiny[:, 3] = 0.0
    assert np.linalg.norm(tiny[:, 1]) == 0.0
    columns = linalg.scaled_norm(tiny, -2)
    assert columns[1] == pytest.approx(1e-170 * np.linalg.norm(M[:, 1]), rel=1e-14)
    assert columns[3] == 0.0
    assert columns[[0, 2]].tobytes() == np.linalg.norm(M, axis=-2)[[0, 2]].tobytes()
    assert linalg.scaled_norm(tiny[:, 1]) == pytest.approx(columns[1], rel=1e-15)
    assert linalg.scaled_norm(np.zeros((2, 2))) == 0.0
