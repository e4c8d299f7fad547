"""The network of identical linear nodes, one object from assembly to its
modal decomposition.

A network of N identical nodes with local dynamics (A, B), coupled through
a Laplacian L, evolves under the block transition matrix

    Phi = I_N (x) A  -  L (x) B .

When L is symmetric with eigenpairs (alpha_i, v_i), Phi is similar to the
block diagonal of the modal matrices A - alpha_i*B, and the Kronecker
products v_i (x) w_ij of Laplacian and modal eigenvectors are eigenvectors
of Phi; they span the whole space only when the modal spectra of different
alpha_i are distinct.  ``assemble_transition`` validates L and builds the
``NetworkSystem`` of (A, B, L) alone, the one place the blocks are
decomposed, read by the indiscernible subspace and the shared modal span.
It sorts the eigenvalue clusters of Phi in two: a single-alpha cluster,
whose eigenvalue is in the blocks of one distinct alpha only, is kept as
the block's vectors Z for it (Phi's eigenspace is V_alpha (x) Z), so its
indiscernible part is decided on the graph side alone; a collision
cluster, whose eigenvalue is in the blocks of two or more, keeps an
orthonormal basis X_g of Phi's generalized eigenspace.  The constants of
the base network a variation reads are kept on it, so the variations of
one base graph share them: the Laplacian spectrum and ||B||_2.
``assemble_transition`` refuses blocks that would overflow
(``check_coupling``).  Each part is formed on its first read, so a
variation that is only analysed, and not simulated by the oracle, never
forms its Phibar, and the oracle's Phibar never decomposes.
``network_invariant_modes`` finds the modes (A v = lambda v with
B v = 0) that put an eigenvalue in Phi for every topology.

``unobservable_subspace`` is the one power stack, the largest A-invariant
subspace inside kernel(C): the invariant-mode core (C = B), the solve of
each collision cluster of the indiscernible subspace, and, for the whole
network (C = Delta, A = Phi), the tests' desk-scale reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import validate_laplacian
from .linalg import (
    CLUSTER_TOL,
    RANK_TOL,
    RESID_TOL,
    Subspace,
    canonical_sign,
    cluster_indices,
    eig,
    kernel,
    scaled_norm,
    schur_basis,
)


@dataclass(frozen=True, eq=False)
class NodeDynamics:
    """The per-node matrix pair (A, B).  Equality and hashing are by
    identity: the fields are arrays, whose == is elementwise."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if A.size == 0:
            raise ValueError("A must have at least one entry (n >= 1)")
        if B.shape != A.shape:
            raise ValueError(f"B must match A's shape {A.shape}, got {B.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("A and B entries must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class NetworkSystem:
    """The N*n-state network of the node dynamics coupled through a
    Laplacian, Phi = I_N (x) A - L (x) B, and its modal decomposition:
    with L = V diag(alpha) V^T, Phi is orthogonally similar to the block
    diagonal of the blocks A - alpha_i*B, decomposed by one batched
    ``np.linalg.eig``.  Build it with ``assemble_transition``, which
    validates L; the bare constructor checks nothing.  Equality and
    hashing are by identity, as for ``NodeDynamics``.

    Every part is computed on its first read and kept, so every
    ``enumerate`` row reads the one shared base value, and a network the
    oracle only simulates forms ``phi`` and ``norm2`` (||phi||_2) but never
    decomposes.  The base-side constants a variation reads are kept each
    on its own: ``laplacian_values`` (np.linalg.eigvalsh(L), the corrected
    condition's spectrum of L, whose last bits can differ from ``alphas``,
    from eigh) and ``b_norm`` (||B||_2); so the corrected condition alone
    decomposes no block.

    The union of the block spectra is clustered at 1e-6 * max(1, ||Phi||_2):
    merging clusters is exact, splitting one is not, and the copies of a
    defective eigenvalue differ by about sqrt(eps) * ||block||.  Only the
    clusters with imaginary part >= 0 are kept; a conjugate cluster's basis
    is the complex conjugate.  Per block, a cluster takes the block's unit
    eigenvector when the block owns one of its members, else the block's
    ordered Schur vectors for its members (``schur_basis``), which are
    exact for defective blocks.

    A cluster whose members all come from the blocks of one alpha group G
    (the indices of one distinct eigenvalue of L) is single-alpha: Phi's
    generalized eigenspace for it is V_G (x) Z, with Z the block G[0]'s
    vectors for it.  ``group_vectors`` holds a pair (k, Z) for each group
    ``alpha_groups[k]`` with a single-alpha cluster, Z all of its clusters'
    vectors side by side, columns of unit norm but not orthonormal.  Every
    other cluster is a collision, its eigenvalue in the blocks of two or
    more alphas, and ``clusters`` holds an orthonormal basis X_g of its
    generalized eigenspace, columns v_i (x) z.  A network-invariant mode
    puts its eigenvalue in every block, so it is a collision when L has two
    or more distinct eigenvalues; with one, every cluster is kept as a
    collision.

    What an indiscernible subspace counts is recorded with the parts, at
    the threshold that skips a conjugate cluster: a kept cluster whose
    mean imaginary part is above it is not real and stands for its
    conjugate too.  ``group_dims`` holds, per ``group_vectors`` entry, the
    real dimension that Z and its conjugate span, a column of a non-real
    cluster counted twice; ``cluster_copies``, per collision cluster, 2
    when it is not real and 1 when it is.
    """

    dynamics: NodeDynamics
    laplacian: np.ndarray

    @property
    def node_count(self) -> int:
        return self.laplacian.shape[0]

    @property
    def node_dim(self) -> int:
        return self.dynamics.n

    @property
    def dim(self) -> int:
        return self.node_count * self.node_dim

    @cached_property
    def phi(self) -> np.ndarray:
        L, dyn, m = self.laplacian, self.dynamics, self.dim
        # np.kron(I, A) - np.kron(L, B): np.kron's products, without its call overhead
        eye = np.eye(self.node_count)
        return (eye[:, None, :, None] * dyn.A[None, :, None, :]
                - L[:, None, :, None] * dyn.B[None, :, None, :]).reshape(m, m)

    @cached_property
    def norm2(self) -> float:
        return float(np.linalg.norm(self.phi, 2))

    @cached_property
    def _parts(self) -> tuple:  # in the order below: one eigh of L, one batched eig
        dyn, n = self.dynamics, self.node_dim
        alphas, V = np.linalg.eigh(self.laplacian)
        blocks = dyn.A[None] - alphas[:, None, None] * dyn.B[None]
        w, W = np.linalg.eig(blocks)
        ctol = 1e-6 * max(1.0, self.norm2)
        # ||L||_2 = max |alpha| for a symmetric L; each group is a run of the ascending alphas
        groups = tuple(map(np.asarray, cluster_indices(
            alphas, CLUSTER_TOL * max(1.0, float(np.abs(alphas).max(initial=0.0))))))
        group_of = [k for k, group in enumerate(groups) for _ in group]

        def block_basis(i: int, idx: list[int]) -> np.ndarray:
            """Block i's vectors for its members of the cluster idx: its unit
            eigenvector for one member, else its ordered Schur vectors for
            them, which are exact for defective blocks."""
            member = [j % n for j in idx if j // n == i]
            if len(member) < 2:
                return W[i][:, member]
            return schur_basis(blocks[i], w[i][member])

        zs: list[list[np.ndarray]] = [[] for _ in groups]
        z_dims = [0] * len(groups)
        clusters, copies = [], []
        for idx in cluster_indices(w.reshape(-1), ctol):
            imag, bound = sum(w.flat[j].imag for j in idx), len(idx) * ctol / 4
            if imag < -bound:
                continue  # the conjugate of a kept cluster
            count = 1 if imag <= bound else 2  # a non-real cluster stands for its conjugate too
            owners = sorted({j // n for j in idx})
            k = group_of[owners[0]]
            if len(groups) > 1 and all(group_of[i] == k for i in owners):  # single-alpha
                zs[k].append(block_basis(groups[k][0], idx))
                z_dims[k] += count * zs[k][-1].shape[1]
            else:
                cols = [(V[:, i, None, None] * block_basis(i, idx)).reshape(self.dim, -1)
                        for i in owners]
                clusters.append(np.hstack(cols))
                copies.append(count)
        group_vectors = tuple((k, np.hstack(z)) for k, z in enumerate(zs) if z)
        return (alphas, V, groups, blocks, (w, W), ctol, group_vectors, tuple(clusters),
                tuple(network_invariant_modes(dyn)),
                tuple(z_dims[k] for k, _ in group_vectors), tuple(copies))

    alphas = property(lambda self: self._parts[0])             # eigenvalues of L, ascending
    laplacian_vectors = property(lambda self: self._parts[1])  # V
    alpha_groups = property(lambda self: self._parts[2])       # indices of each distinct alpha
    blocks = property(lambda self: self._parts[3])             # (N, n, n): A - alphas[i]*B
    block_eig = property(lambda self: self._parts[4])          # np.linalg.eig(blocks)
    cluster_tol = property(lambda self: self._parts[5])        # 1e-6 * max(1, ||Phi||_2)
    group_vectors = property(lambda self: self._parts[6])      # (k, Z), Z not empty
    clusters = property(lambda self: self._parts[7])           # the X_g of the collisions
    modes = property(lambda self: self._parts[8])              # of the dynamics
    group_dims = property(lambda self: self._parts[9])         # per (k, Z): dim of Z and Z conj
    cluster_copies = property(lambda self: self._parts[10])    # per X_g: 2 if not real, else 1

    @cached_property
    def laplacian_values(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.laplacian)

    @cached_property
    def b_norm(self) -> float:
        return float(np.linalg.norm(self.dynamics.B, 2))


def check_coupling(dyn: NodeDynamics, L: np.ndarray) -> np.ndarray:
    """L, one Laplacian or a stack, once the blocks A - alpha*B of its
    eigenvalues are known finite: alpha lies in [0, 2 max L_ii]
    (Gershgorin), so max|A| + 2 max L_ii max|B|, L_ii over the stack,
    bounds every block entry, and a bound past float64 is a ValueError."""
    bound = (float(np.abs(dyn.A).max())  # Python floats overflow to inf without a warning
             + float(np.diagonal(L, 0, -2, -1).max(initial=0.0)) * float(np.abs(dyn.B).max()) * 2)
    if not np.isfinite(bound):
        raise ValueError("the blocks A - alpha*B overflow float64: the weighted "
                         "degrees are too large for the node dynamics")
    return L


def assemble_transition(dyn: NodeDynamics, L) -> NetworkSystem:
    """The network of ``dyn`` coupled through L, after ``validate_laplacian``
    and ``check_coupling`` check L: it depends on (A, B, L) alone.  Its
    transition matrix and modal parts are formed on first read."""
    return NetworkSystem(dyn, check_coupling(dyn, validate_laplacian(L)))


@dataclass(frozen=True)
class NetworkInvariantMode:
    """A pair (lambda, v) with A v = lambda v and B v = 0.  Such a mode is
    an eigenpair of A - alpha*B for every alpha, hence of the network for
    every topology."""

    value: complex
    vector: np.ndarray


def unobservable_subspace(C, A, tol: float = RANK_TOL) -> Subspace:
    """The largest A-invariant subspace contained in kernel(C): the kernel
    of the stacked products [C; CA; ...; CA^(m-1)], m the order of A.

    Each power block C*A^k is renormalized to unit Frobenius norm before
    stacking; kernels are unaffected by row scaling, and the
    renormalization keeps spectral radii > 1 from overflowing the stack.
    Once a block is numerically zero, so is every later one, and the
    stack stops there.  The norms are ``scaled_norm``'s, which neither
    overflow nor underflow (a unit R keeps ||R A||_F <= ||A||_F).
    """
    m = A.shape[0]
    scale = max(1.0, float(scaled_norm(A)))
    blocks = []
    R = C
    for _ in range(m):
        nr = float(scaled_norm(R))
        if nr <= 1e-14 * scale:
            break
        R = R / nr
        blocks.append(R)
        R = R @ A
    if not blocks:  # C == 0: the whole space qualifies
        return Subspace.full(m)
    return kernel(np.vstack(blocks), tol)


def network_invariant_modes(dyn: NodeDynamics) -> list[NetworkInvariantMode]:
    """All eigenpairs of A restricted to kernel(B).

    The restriction is taken on the largest A-invariant subspace contained
    in kernel(B) (``unobservable_subspace(B, A)`` at ``RANK_TOL``, so the
    modes depend on (A, B) alone); eigenvectors of A inside kernel(B) live
    exactly there.  With Q its orthonormal basis, the modes are Q times the
    eigenvectors of Q^H A Q from ``eig``: unit vectors, real for a real
    eigenvalue, in its sorted order, or none.
    """
    core = unobservable_subspace(dyn.B, dyn.A)
    if core.dim == 0:
        return []

    scale = max(1.0, float(np.linalg.norm(dyn.A, 2)))
    Q = core.basis
    restricted = Q.conj().T @ dyn.A @ Q
    modes: list[NetworkInvariantMode] = []
    for pair in eig(restricted).eigenpairs:
        for v in (Q @ pair.vectors).T:
            v = canonical_sign(v)
            resid_a = np.linalg.norm(dyn.A @ v - pair.value * v)
            resid_b = np.linalg.norm(dyn.B @ v)
            if resid_a <= RESID_TOL * scale and resid_b <= RESID_TOL * scale:
                modes.append(NetworkInvariantMode(pair.value, v))
    return modes


def sync_manifold(N: int, n: int) -> Subspace:
    """States with all nodes identical: span{1 (x) e_k}, dimension n."""
    if N < 1 or n < 1:
        raise ValueError("N and n must be >= 1")
    ones = np.ones((N, 1)) / np.sqrt(N)
    return Subspace(np.kron(ones, np.eye(n)))
