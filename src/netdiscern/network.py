"""Networked linear system assembly and per-eigenvalue modal analysis.

A network of N identical nodes with local dynamics (A, B), coupled through
a Laplacian L, evolves under the block transition matrix

    Phi = I_N (x) A  -  L (x) B .

When L is symmetric with eigenpairs (alpha_i, v_i), Phi is similar to the
block diagonal of the modal matrices A - alpha_i*B, and the Kronecker
products v_i (x) w_ij of Laplacian and modal eigenvectors are eigenvectors
of Phi.  That family spans the whole space only when the modal spectra for
different alpha_i are mutually distinct; this module computes the blocks,
flags the cross-block eigenvalue collisions, and finds the network-invariant
modes (A v = lambda v with B v = 0) that make an eigenvalue of Phi appear
for every topology.

``unobservable_subspace`` is the one power-stack routine of the package:
the largest A-invariant subspace inside kernel(C).  It gives the
invariant-mode core here (C = B) and the indiscernible subspace in
``discernibility`` (C = Delta, A = Phi).  ``cross_collisions`` is the one
cross-block collision scan, shared with ``discernibility``'s corrected
condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RANK_TOL,
    RESID_TOL,
    Spectrum,
    Subspace,
    canonical_sign,
    default_cluster_tol,
    eig,
    kernel,
)


@dataclass(frozen=True)
class NodeDynamics:
    """The per-node matrix pair (A, B)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"B must match A's shape {A.shape}, got {B.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("A and B entries must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class NetworkSystem:
    """The assembled N*n-state network: phi = I_N (x) A - L (x) B, kept
    together with its ingredients so it can be reconstructed exactly."""

    dynamics: NodeDynamics
    laplacian: np.ndarray
    phi: np.ndarray

    @property
    def node_count(self) -> int:
        return self.laplacian.shape[0]

    @property
    def node_dim(self) -> int:
        return self.dynamics.n

    @property
    def dim(self) -> int:
        return self.node_count * self.node_dim


def assemble_transition(dyn: NodeDynamics, L) -> NetworkSystem:
    """Exact Kronecker assembly of the network transition matrix."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"Laplacian must be square, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise ValueError("Laplacian entries must be finite")
    N = L.shape[0]
    phi = np.kron(np.eye(N), dyn.A) - np.kron(L, dyn.B)
    return NetworkSystem(dyn, L, phi)


def modal_matrix(dyn: NodeDynamics, alpha: complex) -> np.ndarray:
    """The per-eigenvalue modal matrix A - alpha*B."""
    if isinstance(alpha, complex) and alpha.imag != 0:
        return dyn.A - alpha * dyn.B.astype(complex)
    return dyn.A - float(np.real(alpha)) * dyn.B


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
    stack stops there.
    """
    m = A.shape[0]
    scale = max(1.0, float(np.linalg.norm(A)))
    blocks = []
    R = C
    for _ in range(m):
        nr = float(np.linalg.norm(R))
        if nr <= 1e-14 * scale:
            break
        R = R / nr
        blocks.append(R)
        R = R @ A
    if not blocks:  # C == 0: the whole space qualifies
        return Subspace.full(m, tol)
    return kernel(np.vstack(blocks), tol)


def network_invariant_modes(
    dyn: NodeDynamics, tol: float = RANK_TOL
) -> list[NetworkInvariantMode]:
    """All eigenpairs of A restricted to kernel(B).

    The restriction is taken on the largest A-invariant subspace contained
    in kernel(B) (``unobservable_subspace(B, A)``); eigenvectors of A
    inside kernel(B) live exactly there.  Returns the empty list when
    kernel(B) holds no eigenvector of A.
    """
    core = unobservable_subspace(dyn.B, dyn.A, tol)
    if core.dim == 0:
        return []

    scale = max(1.0, float(np.linalg.norm(dyn.A, 2)))
    Q = core.basis
    restricted = Q.conj().T @ dyn.A @ Q
    spec = eig(restricted)
    modes: list[NetworkInvariantMode] = []
    for pair in spec.eigenpairs:
        for c in range(pair.vectors.shape[1]):
            v = Q @ pair.vectors[:, c]
            v = canonical_sign(v / np.linalg.norm(v))
            if np.iscomplexobj(v) and np.max(np.abs(v.imag)) < spec.cluster_tol:
                v = v.real / np.linalg.norm(v.real)
            value = pair.value
            resid_a = np.linalg.norm(dyn.A @ v - value * v)
            resid_b = np.linalg.norm(dyn.B @ v)
            if resid_a <= RESID_TOL * scale and resid_b <= RESID_TOL * scale:
                modes.append(NetworkInvariantMode(value, v))
    modes.sort(key=lambda mi: (mi.value.real, mi.value.imag))
    return modes


def sync_manifold(N: int, n: int, tol: float = RANK_TOL) -> Subspace:
    """States with all nodes identical: span{1 (x) e_k}, dimension n."""
    if N < 1 or n < 1:
        raise ValueError("N and n must be >= 1")
    ones = np.ones((N, 1)) / np.sqrt(N)
    return Subspace(np.kron(ones, np.eye(n)), tol)


@dataclass(frozen=True)
class ModalBlock:
    """One distinct Laplacian eigenvalue with its eigenvector block and the
    spectrum of the corresponding modal matrix A - alpha*B."""

    alpha: float
    laplacian_vectors: np.ndarray
    modal: Spectrum

    @property
    def deficient(self) -> bool:
        """True when the modal matrix supplies fewer independent
        eigenvectors than its dimension (defective block)."""
        n = self.modal.dimension
        return sum(p.vectors.shape[1] for p in self.modal.eigenpairs) < n


@dataclass(frozen=True)
class ModalEigenstructure:
    """Per-eigenvalue modal decomposition of a symmetric-Laplacian network,
    with the cross-block eigenvalue collisions that break completeness of
    the Kronecker eigenvector family."""

    blocks: tuple[ModalBlock, ...]
    cross_block_collisions: tuple[tuple[float, float, complex], ...]
    min_cross_gap: float
    kron_rank: int
    complete: bool

    @property
    def deficient_alphas(self) -> tuple[float, ...]:
        return tuple(b.alpha for b in self.blocks if b.deficient)


def cross_collisions(
    alphas, spectra, tol: float
) -> tuple[tuple[tuple[float, float, complex], ...], float]:
    """Eigenvalue collisions between the spectra of different alphas.

    For every i < j and every lambda in ``spectra[i]``, the nearest value
    of ``spectra[j]`` within ``tol`` is a collision, reported as
    (alphas[i], alphas[j], midpoint of the pair).  Also returns the
    smallest such cross distance (inf for fewer than two alphas)."""
    collisions: list[tuple[float, float, complex]] = []
    min_gap = np.inf
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            for lam in spectra[i]:
                dists = np.abs(spectra[j] - lam)
                k = int(np.argmin(dists))
                min_gap = min(min_gap, float(dists[k]))
                if dists[k] <= tol:
                    collisions.append(
                        (alphas[i], alphas[j], complex((lam + spectra[j][k]) / 2))
                    )
    return tuple(collisions), float(min_gap)


def modal_eigenstructure(dyn: NodeDynamics, L) -> ModalEigenstructure:
    """Eigen-decompose each modal matrix A - alpha_i*B over the distinct
    Laplacian eigenvalues, verify that every Kronecker product v_i (x) w_ij
    is an eigenvector of the assembled network, and list the eigenvalue
    collisions between blocks of different alpha."""
    L = np.asarray(L, dtype=float)
    if not np.allclose(L, L.T, atol=1e-12 * max(1.0, np.abs(L).max(initial=0.0))):
        raise ValueError("modal analysis requires a symmetric Laplacian")
    sys = assemble_transition(dyn, L)
    phi_scale = max(1.0, float(np.linalg.norm(sys.phi, 2)))
    ctol = default_cluster_tol(L)

    alphas, V = np.linalg.eigh(L)
    lap_spec = eig(L, ctol)

    blocks: list[ModalBlock] = []
    kron_cols: list[np.ndarray] = []
    for pair in lap_spec.eigenpairs:
        alpha = float(pair.value.real)
        sel = np.abs(alphas - alpha) <= ctol
        lap_vecs = V[:, sel]
        modal = eig(modal_matrix(dyn, alpha), ctol)
        for c in range(lap_vecs.shape[1]):
            v = lap_vecs[:, c]
            for mp in modal.eigenpairs:
                for k in range(mp.vectors.shape[1]):
                    w = mp.vectors[:, k]
                    x = np.kron(v, w)
                    resid = np.linalg.norm(sys.phi @ x - mp.value * x)
                    if resid > 1e-9 * phi_scale:
                        raise RuntimeError(
                            "Kronecker candidate failed the eigenvector check "
                            f"(residual {resid:.3e} at alpha={alpha:g})"
                        )
                    kron_cols.append(x)
        blocks.append(ModalBlock(alpha, lap_vecs, modal))

    collisions, min_gap = cross_collisions(
        [b.alpha for b in blocks], [b.modal.values for b in blocks], ctol
    )

    cols = np.column_stack(kron_cols) if kron_cols else np.zeros((sys.dim, 0))
    if cols.shape[1]:
        s = np.linalg.svd(cols, compute_uv=False)
        rank = int(np.sum(s > RANK_TOL * s[0]))
    else:
        rank = 0
    return ModalEigenstructure(
        blocks=tuple(blocks),
        cross_block_collisions=collisions,
        min_cross_gap=min_gap,
        kron_rank=rank,
        complete=rank == sys.dim,
    )
