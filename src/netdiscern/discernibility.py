"""Indiscernible-state analysis for a pair of network transition matrices.

An initial state x is indiscernible for (Phi, Phibar) when the natural
responses coincide for all time: e^{Phi t} x = e^{Phibar t} x for every
t >= 0, equivalently Phi^k x = Phibar^k x for every k >= 0.  Those states
form a subspace: the kernel of the stacked matrix

    [Delta; Delta Phi; Delta Phi^2; ...; Delta Phi^(m-1)],   Delta = Phi - Phibar,

which is also the largest Phi-invariant subspace contained in kernel(Delta).
The stack is ``network.unobservable_subspace(Delta, Phi)``, the same routine
that finds the invariant-mode core of (B, A).  The stacked-kernel route is
authoritative (no diagonalizability assumption); a Wong-style subspace
iteration provides an independent cross-check, and the modal route explains
the result in terms of shared eigenstructure, with the corrected condition's
collisions found by ``network.cross_collisions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import validate_laplacian
from .linalg import (
    ANGLE_TOL,
    RANK_TOL,
    Subspace,
    default_cluster_tol,
    distinct_values,
    eig,
    kernel,
    realify,
    subspace_intersect,
)
from .network import (
    NetworkInvariantMode,
    NetworkSystem,
    NodeDynamics,
    assemble_transition,
    cross_collisions,
    modal_matrix,
    network_invariant_modes,
    sync_manifold,
    unobservable_subspace,
)
from .oracle import OracleConfig, ValidationSummary, _check_pair, validate_subspace


def indiscernible_subspace(
    phi: NetworkSystem, phibar: NetworkSystem, tol: float = RANK_TOL
) -> Subspace:
    """The exact subspace of initial states whose responses under the two
    systems coincide for all time (stacked-kernel method).

    This is the largest Phi-invariant subspace contained in kernel(Delta):
    ``unobservable_subspace(Delta, Phi)``.
    """
    _check_pair(phi, phibar)
    return unobservable_subspace(phi.phi - phibar.phi, phi.phi, tol)


def indiscernible_subspace_wong(
    phi: NetworkSystem, phibar: NetworkSystem, tol: float = RANK_TOL
) -> Subspace:
    """Cross-check by monotone subspace recursion: the fixed point of

        V_0 = kernel(Delta),   V_{k+1} = V_0  ∩  {x : Phi x ∈ V_k},

    i.e. the largest Phi-invariant subspace contained in kernel(Delta),
    detected by dimension stabilization rather than a fixed power count.

    The annihilator of V_k is the row space of [Delta; Delta Phi; ...;
    Delta Phi^k], so each preimage-and-intersect step appends one exact
    product block (unit-normalized) and the fixed point shows up as a
    stabilized kernel dimension.  Carrying V_k itself through projector
    geometry is numerically treacherous: direction errors amplify by
    roughly ||Phi|| / gap per iteration and the computed space can
    collapse below the true fixed point."""
    _check_pair(phi, phibar)
    m = phi.phi.shape[0]
    delta = phi.phi - phibar.phi
    scale = max(1.0, float(np.linalg.norm(phi.phi)))
    if float(np.linalg.norm(delta)) <= 1e-14 * scale:
        return Subspace.full(m, tol)
    blocks = [delta / float(np.linalg.norm(delta))]
    V = kernel(blocks[0], tol)
    R = blocks[0]
    for _ in range(m + 1):
        if V.dim == 0:
            return V
        R = R @ phi.phi
        nr = float(np.linalg.norm(R))
        if nr <= 1e-14 * scale:
            return V  # the next constraint vanishes: V is already invariant
        R = R / nr
        blocks.append(R)
        Vn = kernel(np.vstack(blocks), tol)
        if Vn.dim == V.dim:
            return Vn
        V = Vn
    raise RuntimeError("subspace iteration failed to reach a fixed point")


def shared_modal_subspace(
    dyn: NodeDynamics,
    L,
    Lbar,
    rank_tol: float = RANK_TOL,
) -> Subspace:
    """Span of the Kronecker eigenvectors shared by construction:
    v (x) w for every common eigenpair (alpha, v) of L and Lbar with
    (lambda, w) an eigenpair of A - alpha*B, plus a (x) v over all
    coefficient vectors a for each network-invariant mode (lambda, v).
    Always contained in the indiscernible subspace."""
    L = np.asarray(L, dtype=float)
    Lbar = np.asarray(Lbar, dtype=float)
    if L.shape != Lbar.shape:
        raise ValueError(f"dimension mismatch: {L.shape} vs {Lbar.shape}")
    for M in (L, Lbar):
        if not np.allclose(M, M.T, atol=1e-12 * max(1.0, np.abs(M).max(initial=0.0))):
            raise ValueError("shared modal analysis requires symmetric Laplacians")
    N = L.shape[0]
    n = dyn.n
    ctol = max(default_cluster_tol(L), default_cluster_tol(Lbar))

    a1, V1 = np.linalg.eigh(L)
    a2, V2 = np.linalg.eigh(Lbar)

    cols: list[np.ndarray] = []
    # Common eigenpairs: cluster the two spectra jointly, intersect the
    # per-cluster eigenspaces.
    for alpha in distinct_values(np.concatenate([a1, a2]), ctol):
        sel1 = np.abs(a1 - alpha) <= ctol
        sel2 = np.abs(a2 - alpha) <= ctol
        if not (sel1.any() and sel2.any()):
            continue
        U = Subspace.from_spanning(V1[:, sel1], rank_tol)
        W = Subspace.from_spanning(V2[:, sel2], rank_tol)
        common = subspace_intersect(U, W)
        if common.dim == 0:
            continue
        modal = eig(modal_matrix(dyn, alpha), ctol)
        for c in range(common.dim):
            v = common.basis[:, c]
            for mp in modal.eigenpairs:
                for k in range(mp.vectors.shape[1]):
                    cols.append(np.kron(v, mp.vectors[:, k]))
    # Invariant-mode fans: a (x) v for every coefficient vector a.
    for mode in network_invariant_modes(dyn, rank_tol):
        for p in range(N):
            e = np.zeros(N)
            e[p] = 1.0
            cols.append(np.kron(e, mode.vector))

    if not cols:
        return Subspace.zero(N * n, rank_tol)
    span = Subspace.from_spanning(np.column_stack(cols), rank_tol)
    return realify(span)


@dataclass(frozen=True)
class CorrectedConditionResult:
    """Verdict of the spectral-disjointness requirement: the spectra of
    A - alpha_i*B for distinct alpha_i (drawn from the union of both
    Laplacian spectra) must not intersect."""

    holds: bool
    collisions: tuple[tuple[float, float, complex], ...]
    min_cross_gap: float
    tol: float
    reading: str = "union-spectra"

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"


def corrected_condition(
    dyn: NodeDynamics, L, Lbar, tol: float = 1e-8
) -> CorrectedConditionResult:
    """Check that modal spectra across distinct Laplacian eigenvalues are
    pairwise disjoint at tolerance ``tol``.

    alpha ranges over spec(L) ∪ spec(Lbar) (the strictest reading); every
    colliding triple (alpha_i, alpha_j, lambda) is reported, along with the
    minimum cross-block spectral gap for tolerance auditing."""
    L = validate_laplacian(L)
    Lbar = validate_laplacian(Lbar)
    if L.shape != Lbar.shape:
        raise ValueError(f"dimension mismatch: {L.shape} vs {Lbar.shape}")
    alphas = distinct_values(
        np.concatenate([np.linalg.eigvalsh(L), np.linalg.eigvalsh(Lbar)]), tol
    )
    spectra = [np.linalg.eigvals(modal_matrix(dyn, a)) for a in alphas]
    collisions, min_gap = cross_collisions(alphas, spectra, tol)
    return CorrectedConditionResult(
        holds=not collisions,
        collisions=collisions,
        min_cross_gap=min_gap,
        tol=float(tol),
    )


@dataclass(frozen=True)
class AnalyzeOptions:
    rank_tol: float = RANK_TOL
    angle_tol: float = ANGLE_TOL
    eig_tol: float = 1e-8
    validate: bool = False
    oracle: OracleConfig = field(default_factory=OracleConfig)


@dataclass(frozen=True)
class DiscernibilityReport:
    """Everything the analysis produces for one (L, Lbar) pair."""

    node_count: int
    node_dim: int
    indiscernible: Subspace
    sync: Subspace
    sync_overlap_dim: int
    extra_dim: int
    shared_modal: Subspace
    invariant_modes: tuple[NetworkInvariantMode, ...]
    corrected: CorrectedConditionResult
    verdict: str
    oracle_summary: ValidationSummary | None = None

    @property
    def ambient_dim(self) -> int:
        return self.node_count * self.node_dim


VERDICT_NO_VARIATION = "no variation"
VERDICT_DETECTABLE = "detectable-outside-sync"
VERDICT_EXTRA_STATES = "extra indiscernible states present"


def analyze(
    dyn: NodeDynamics, L, Lbar, opts: AnalyzeOptions | None = None
) -> DiscernibilityReport:
    """Full discernibility analysis of a topology variation.

    Computes the indiscernible subspace (stacked-kernel method), its overlap
    with the synchronous manifold, the shared modal span, the
    network-invariant modes, and the spectral-disjointness verdict; when
    ``opts.validate`` is set the computed subspace is checked against the
    trajectory oracle.
    """
    opts = opts or AnalyzeOptions()
    L = validate_laplacian(L)
    Lbar = validate_laplacian(Lbar)
    if L.shape != Lbar.shape:
        raise ValueError(f"dimension mismatch: {L.shape} vs {Lbar.shape}")

    sys = assemble_transition(dyn, L)
    sysbar = assemble_transition(dyn, Lbar)
    ind = indiscernible_subspace(sys, sysbar, opts.rank_tol)
    sync = sync_manifold(sys.node_count, sys.node_dim, opts.rank_tol)
    overlap = subspace_intersect(ind, sync)
    extra = ind.dim - overlap.dim
    shared = shared_modal_subspace(dyn, L, Lbar, rank_tol=opts.rank_tol)
    modes = tuple(network_invariant_modes(dyn, opts.rank_tol))
    corrected = corrected_condition(dyn, L, Lbar, opts.eig_tol)

    if np.array_equal(sys.phi, sysbar.phi):
        verdict = VERDICT_NO_VARIATION
    elif extra == 0:
        verdict = VERDICT_DETECTABLE
    else:
        verdict = VERDICT_EXTRA_STATES

    summary = None
    if opts.validate:
        summary = validate_subspace(sys, sysbar, ind, opts.oracle)

    return DiscernibilityReport(
        node_count=sys.node_count,
        node_dim=sys.node_dim,
        indiscernible=ind,
        sync=sync,
        sync_overlap_dim=overlap.dim,
        extra_dim=extra,
        shared_modal=shared,
        invariant_modes=modes,
        corrected=corrected,
        verdict=verdict,
        oracle_summary=summary,
    )
