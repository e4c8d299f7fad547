"""Network assembly, invariant modes, the sync manifold, modal decomposition."""

import numpy as np
import pytest

from netdiscern import (
    AnalyzeOptions,
    Graph,
    NodeDynamics,
    analyze,
    assemble_transition,
    corrected_condition,
    eig,
    laplacian,
    network_invariant_modes,
    sync_manifold,
)
from netdiscern.example import EXAMPLE_A, EXAMPLE_B, example_graph, example_modified_graph
from netdiscern.network import check_coupling, unobservable_subspace

from conftest import contains, multiplicity_of, random_graph, spectrum_values

P2_LAPLACIAN = np.array([[1.0, -1.0], [-1.0, 1.0]])


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembly_entry_formula():
    # phi[(p)n + r, (q)n + s] == (p == q) A[r,s] - L[p,q] B[r,s], exactly
    rng = np.random.default_rng(31)
    N, n = 4, 3
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    L = laplacian(random_graph(rng, N))
    phi = assemble_transition(NodeDynamics(A, B), L).phi
    for _ in range(1000):
        p, q = rng.integers(N, size=2)
        r, s = rng.integers(n, size=2)
        expected = (p == q) * A[r, s] - L[p, q] * B[r, s]
        assert phi[p * n + r, q * n + s] == expected


def test_single_node_network_is_node_dynamics():
    dyn = NodeDynamics(EXAMPLE_A, EXAMPLE_B)
    sys = assemble_transition(dyn, np.zeros((1, 1)))
    assert np.array_equal(sys.phi, EXAMPLE_A)


def test_zero_coupling_gives_block_diagonal():
    A = np.diag([2.0, 3.0])
    dyn = NodeDynamics(A, np.zeros((2, 2)))
    L = laplacian(random_graph(np.random.default_rng(7), 3))
    sys = assemble_transition(dyn, L)
    assert np.array_equal(sys.phi, np.kron(np.eye(3), A))
    spec = eig(sys.phi)
    assert multiplicity_of(spec, 2.0) == 3
    assert multiplicity_of(spec, 3.0) == 3


def test_demo_network_spectrum_contains_sync_values(demo):
    values = spectrum_values(eig(demo.phi.phi))
    for lam in (0.0, 1.0, 7.0):
        assert np.min(np.abs(values - lam)) < 1e-9


def test_reconstruction_is_exact(demo):
    rebuilt = np.kron(np.eye(4), demo.dyn.A) - np.kron(demo.L, demo.dyn.B)
    assert np.array_equal(demo.phi.phi, rebuilt)


def test_trace_identity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        L = laplacian(random_graph(rng, N))
        phi = assemble_transition(NodeDynamics(A, B), L).phi
        expected = N * np.trace(A) - np.trace(L) * np.trace(B)
        assert abs(np.trace(phi) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_assembly_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        NodeDynamics(EXAMPLE_A, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        assemble_transition(NodeDynamics(EXAMPLE_A, EXAMPLE_B), np.ones((2, 3)))


def test_blocks_that_overflow_are_refused_before_any_decomposition():
    # one edge at 1e308 keeps every degree finite, but alpha reaches about
    # 2e308, so A - alpha*B overflows and np.linalg.eig would raise a
    # LinAlgError: the base and a varied Laplacian are refused as input
    dyn = NodeDynamics(EXAMPLE_A, EXAMPLE_B)
    L = laplacian(example_graph())
    big = laplacian(Graph(4, ((1, 2, 1.0), (1, 3, 1e308), (2, 3, 1.0), (3, 4, 1.0))))
    assert np.isfinite(big).all()
    for call in (lambda: assemble_transition(dyn, big),
                 lambda: analyze(dyn, L, big),
                 lambda: analyze(dyn, L, big, base=assemble_transition(dyn, L))):
        with pytest.raises(ValueError, match="A - alpha\\*B overflow float64"):
            call()
    half = big / 2  # max|A| + 2 max L_ii max|B| is about 1e308: finite
    assert check_coupling(dyn, half) is half


def test_dynamics_reject_an_empty_pair():
    # n = 0 would pass every shape check and fail later, in sync_manifold
    with pytest.raises(ValueError, match="at least one entry"):
        NodeDynamics(np.zeros((0, 0)), np.zeros((0, 0)))


def test_dynamics_and_networks_compare_and_hash_by_identity(demo):
    # array fields have no single truth value and no hash, so two objects
    # are equal only when they are one; a dict or set can hold them
    dyn = NodeDynamics(EXAMPLE_A, EXAMPLE_B)
    twin = NodeDynamics(EXAMPLE_A.copy(), EXAMPLE_B.copy())
    net = assemble_transition(dyn, demo.L)
    other = assemble_transition(dyn, demo.L.copy())
    for obj, same_values in ((dyn, twin), (net, other)):
        assert obj == obj and not obj != obj
        assert obj != same_values and not obj == same_values
        assert hash(obj) == hash(obj)
        assert len({obj, same_values}) == 2 and {obj: 1}[obj] == 1


# ---------------------------------------------------------------------------
# network-invariant modes
# ---------------------------------------------------------------------------


def test_demo_dynamics_have_one_invariant_mode(demo):
    modes = network_invariant_modes(demo.dyn)
    assert len(modes) == 1
    mode = modes[0]
    assert abs(mode.value - 1.0) < 1e-10
    target = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(np.dot(mode.vector, target)) - 1.0) < 1e-10
    assert np.linalg.norm(EXAMPLE_A @ mode.vector - mode.vector) <= 1e-10
    assert np.linalg.norm(EXAMPLE_B @ mode.vector) <= 1e-10


def test_invertible_b_has_no_invariant_modes():
    dyn = NodeDynamics(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2))
    assert network_invariant_modes(dyn) == []


def test_zero_b_makes_every_eigenpair_invariant():
    A = np.diag([2.0, 5.0, -1.0])
    modes = network_invariant_modes(NodeDynamics(A, np.zeros((3, 3))))
    assert sorted(m.value.real for m in modes) == [-1.0, 2.0, 5.0]


def test_invariant_modes_depend_on_the_dynamics_alone():
    # (A, B) with one real eigenvector v of A in kernel(B): the base network
    # is (A, B, L) alone, so an analysis at rank_tol 0.5 reports the modes
    # of the default bit for bit (found at the analysis's rank tolerance,
    # this mode's vector moved in its last bits)
    rng = np.random.default_rng(0)
    n = 3
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    P = np.column_stack([v, rng.standard_normal((n, n - 1))])
    A = P @ np.diag(rng.standard_normal(n)) @ np.linalg.inv(P)
    B = rng.standard_normal((n, n)) @ (np.eye(n) - np.outer(v, v))
    dyn = NodeDynamics(A, B)
    L, Lbar = laplacian(example_graph()), laplacian(example_modified_graph())

    def modes(opts):
        return [(complex(m.value), m.vector.tobytes())
                for m in analyze(dyn, L, Lbar, opts).invariant_modes]

    default = modes(AnalyzeOptions())
    assert len(default) == 1
    assert modes(AnalyzeOptions(rank_tol=0.5)) == default


def test_invariant_mode_spans_network_eigenvectors(demo):
    # a (x) v is an eigenvector of the assembled network for ANY Laplacian
    rng = np.random.default_rng(34)
    mode = network_invariant_modes(demo.dyn)[0]
    for _ in range(20):
        L = laplacian(random_graph(rng, 4))
        phi = assemble_transition(demo.dyn, L).phi
        a = rng.standard_normal(4)
        x = np.kron(a, mode.vector)
        resid = np.linalg.norm(phi @ x - mode.value * x)
        assert resid <= 1e-9 * np.linalg.norm(phi, 2) * np.linalg.norm(x)


def test_unobservable_subspace_of_zero_output_is_full():
    S = unobservable_subspace(np.zeros((2, 3)), EXAMPLE_A)
    assert S.dim == 3


def test_unobservable_subspace_known_dimensions():
    shift = np.diag([1.0, 1.0], k=1)  # e2 -> e1, e3 -> e2, e1 -> 0
    # C = e1^T sees every state through its powers
    assert unobservable_subspace(np.array([[1.0, 0.0, 0.0]]), shift).dim == 0
    # C = e3^T: C*shift = 0 ends the stack, and span{e1, e2} is invariant
    S = unobservable_subspace(np.array([[0.0, 0.0, 1.0]]), shift)
    assert S.dim == 2
    assert np.allclose(S.basis[2], 0.0)
    # distinct eigenvalues: C = [1, 1, 0] misses only the e3 mode
    S = unobservable_subspace(np.array([[1.0, 1.0, 0.0]]), np.diag([1.0, 2.0, 3.0]))
    assert S.dim == 1
    assert contains(S, np.array([0.0, 0.0, 1.0]), 1e-12)


# ---------------------------------------------------------------------------
# sync manifold
# ---------------------------------------------------------------------------


def test_sync_manifold_dimensions():
    S = sync_manifold(4, 3)
    assert S.ambient_dim == 12
    assert S.dim == 3


def test_sync_manifold_single_node_is_full():
    S = sync_manifold(1, 3)
    assert S.dim == 3 == S.ambient_dim


def test_sync_manifold_contains_uniform_states():
    S = sync_manifold(4, 3)
    x = np.kron(np.ones(4), np.array([0.0, 1.0, 1.0]))
    assert contains(S, x / np.linalg.norm(x), 1e-10)


# ---------------------------------------------------------------------------
# modal eigenstructure
# ---------------------------------------------------------------------------


def block_spectra(dyn, L):
    """The clustered spectrum of A - alpha*B per distinct alpha of L, as
    (alpha, spectrum) pairs in ascending alpha."""
    dec = assemble_transition(dyn, L)
    return [(float(np.mean(dec.alphas[g])), eig(dec.blocks[int(g[0])], dec.cluster_tol))
            for g in dec.alpha_groups]


def test_demo_modal_eigenstructure(demo):
    spectra = block_spectra(demo.dyn, demo.L)
    assert len(spectra) == 4
    for _, spectrum in spectra:
        assert np.min(np.abs(spectrum_values(spectrum) - 1.0)) < 1e-9
    # every pair of distinct alphas collides at lambda = 1: one collision
    # naming all 4 alphas
    collisions = corrected_condition(demo.dyn, demo.L, demo.L).collisions
    at_one = [alphas for lam, alphas in collisions if abs(lam - 1.0) < 1e-6]
    assert [len(alphas) for alphas in at_one] == [4]
    assert multiplicity_of(eig(demo.phi.phi), 1.0) == 4


def test_decoupled_modal_structure():
    dyn = NodeDynamics(np.diag([2.0, 3.0]), np.zeros((2, 2)))
    L = laplacian(random_graph(np.random.default_rng(35), 3))
    spectra = block_spectra(dyn, L)
    for _, spectrum in spectra:
        assert np.allclose(np.sort(spectrum_values(spectrum).real), [2.0, 3.0], atol=1e-9)
    # both values collide across every block: one collision each
    collisions = corrected_condition(dyn, L, L).collisions
    assert [(round(lam.real, 9), len(alphas)) for lam, alphas in collisions] == [
        (2.0, len(spectra)), (3.0, len(spectra))]


def test_disjoint_modal_spectra():
    dyn = NodeDynamics(np.diag([1.0, 10.0]), np.eye(2))
    spectra = block_spectra(dyn, P2_LAPLACIAN)
    assert [round(alpha, 9) for alpha, _ in spectra] == [0.0, 2.0]
    assert np.allclose(np.sort(spectrum_values(spectra[0][1]).real), [1.0, 10.0])
    assert np.allclose(np.sort(spectrum_values(spectra[1][1]).real), [-1.0, 8.0])
    result = corrected_condition(dyn, P2_LAPLACIAN, P2_LAPLACIAN)
    assert result.collisions == ()
    assert result.min_cross_gap >= 2.0 - 1e-9


def test_defective_block_reported():
    dyn = NodeDynamics(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)))
    spectra = block_spectra(dyn, P2_LAPLACIAN)
    assert len(spectra) == 2
    for _, spectrum in spectra:
        # one true eigenvector per Jordan block
        assert [(p.vectors.shape[1], p.algebraic_multiplicity)
                for p in spectrum.eigenpairs] == [(1, 2)]


def test_kronecker_eigenvector_identity():
    # Phi (v (x) w) == lambda (v (x) w) for Laplacian eigenpair (alpha, v)
    # and modal eigenpair (lambda, w)
    rng = np.random.default_rng(36)
    for _ in range(20):
        N = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        dyn = NodeDynamics(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        L = laplacian(random_graph(rng, N))
        phi = assemble_transition(dyn, L).phi
        scale = np.linalg.norm(phi, 2)
        alphas, V = np.linalg.eigh(L)
        for i, alpha in enumerate(alphas):
            w_vals, W = np.linalg.eig(dyn.A - alpha * dyn.B)
            for j, lam in enumerate(w_vals):
                x = np.kron(V[:, i], W[:, j])
                assert np.linalg.norm(phi @ x - lam * x) <= 1e-9 * max(scale, 1.0)


def test_modal_decomposition_bases_are_generalized_eigenspaces():
    # random dynamics (complex pairs, no collision), the demo's shared
    # eigenvalue 1, a Jordan block at a collision and one inside a single
    # alpha group: each collision X_g is orthonormal, and each X_g and each
    # V_G (x) Z_G is Phi-invariant; with their conjugates they span the
    # whole space, each part counted as the rank of [X, conj(X)], which does
    # not hang on how a basis splits a defective eigenvalue
    rng = np.random.default_rng(37)
    ring = 2 * np.eye(4) - np.roll(np.eye(4), 1, axis=0) - np.roll(np.eye(4), -1, axis=0)
    cases = [
        (NodeDynamics(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))),
         laplacian(random_graph(rng, 5))),
        (NodeDynamics(EXAMPLE_A, EXAMPLE_B), laplacian(random_graph(rng, 4))),
        (NodeDynamics(np.array([[1.0, 1.0], [0.0, 4.0]]), np.diag([0.0, 1.0])),
         3 * np.eye(3) - np.ones((3, 3))),
        (NodeDynamics(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])),
         ring),
    ]
    collisions = []
    for dyn, L in cases:
        dec = assemble_transition(dyn, L)
        phi = dec.phi
        V = dec.laplacian_vectors
        parts = [np.kron(V[:, dec.alpha_groups[k]], Z) for k, Z in dec.group_vectors]
        assert all(Z.shape[1] for _, Z in dec.group_vectors)
        for X in dec.clusters:
            assert np.allclose(X.conj().T @ X, np.eye(X.shape[1]), atol=1e-12)
        total = 0
        for X in parts + list(dec.clusters):
            Q, _ = np.linalg.qr(X)
            H = Q.conj().T @ phi @ Q
            assert np.linalg.norm(phi @ Q - Q @ H, 2) <= 1e-12 * np.linalg.norm(phi, 2)
            total += np.linalg.matrix_rank(np.hstack([X, X.conj()]))
        assert total == phi.shape[0]
        everything = np.hstack(parts + list(dec.clusters))
        assert np.linalg.matrix_rank(np.hstack([everything, everything.conj()])) == phi.shape[0]
        collisions.append(len(dec.clusters))
    assert collisions[0] == 0 and min(collisions[1:3]) > 0
    # the 4-cycle's alpha = 0 block is the Jordan block, its double
    # eigenvalue 1 in no other block: two deflation vectors, no collision
    k, Z = dec.group_vectors[0]
    assert collisions[3] == 0 and dec.alpha_groups[k].tolist() == [0] and Z.shape[1] == 2


def test_modal_eigenstructure_requires_symmetric_laplacian(demo):
    with pytest.raises(ValueError):
        assemble_transition(demo.dyn, np.array([[1.0, -1.0], [0.0, 0.0]]))


TOL = 2.0**-20  # every value below is exact in binary


def two_block_condition(first: float, second: float):
    """The corrected condition on spectra {1, 5} (alpha = 0) and
    {1 + first, 5 + second} (alpha = 2), exact in binary."""
    dyn = NodeDynamics(np.diag([1.0, 5.0]), np.diag([-first / 2, -second / 2]))
    return corrected_condition(dyn, P2_LAPLACIAN, P2_LAPLACIAN, TOL)


def test_corrected_condition_tolerance_value_and_gap():
    inside, outside = 2.0**-22, TOL + 2.0**-30
    result = two_block_condition(inside, outside)
    assert result.collisions == ((complex(1.0 + inside / 2), (0.0, 2.0)),)
    assert result.min_cross_gap == inside
    assert not result.holds


def test_corrected_condition_gap_of_exactly_tol_collides():
    result = two_block_condition(TOL, TOL + 2.0**-30)
    assert result.collisions == ((complex(1.0 + TOL / 2), (0.0, 2.0)),)
    assert result.min_cross_gap == TOL
    assert not result.holds


def test_corrected_condition_single_alpha_has_none():
    # one alpha, whose block holds a repeated eigenvalue: no cross pair
    dyn = NodeDynamics(np.eye(2), np.eye(2))
    result = corrected_condition(dyn, np.zeros((2, 2)), np.zeros((2, 2)))
    assert (result.collisions, result.min_cross_gap, result.holds) == ((), np.inf, True)
