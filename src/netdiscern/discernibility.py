"""Indiscernible-state analysis for a pair of network transition matrices.

An initial state x is indiscernible for (Phi, Phibar) when the natural
responses coincide for all time: e^{Phi t} x = e^{Phibar t} x for every
t >= 0, equivalently Phi^k x = Phibar^k x for every k >= 0.  Those states
form the largest Phi-invariant subspace inside kernel(Delta), Delta = Phi -
Phibar = -(L - Lbar) (x) B for one node dynamics (A, B).  Every entry
point checks the pair once (``check_pair``), and a variation enters only
as L - Lbar, formed by the Laplacian rule on Lbar - L
(``laplacian_difference``), which sends 1 to 0 whatever the roundoff of
the two degree sums; only the trajectory oracle forms Phibar.

The one algorithm is modal, over the eigenvalue clusters of Phi that the
base ``network.NetworkSystem`` decomposes.  The common eigenvectors of L
and Lbar, decided for every distinct alpha of L
(``common_laplacian_vectors``), settle every single-alpha cluster: its
indiscernible part is the common vectors (x) the block's vectors for it
(the PBH test of the output matrix (L - Lbar) (x) B).  Only a collision
cluster, whose eigenvalue the blocks of two or more alphas share, takes a
small ``network.unobservable_subspace`` stack on Delta X_g, applied by a
reshape (``delta_product``); these add the states beyond the shared
eigenvectors that the paper's corrected condition is about.  That stack
over the whole network gives the same subspace without the modal split,
but loses rank as N grows; it is the tests' desk-scale reference.  The
subspace is kept as these parts, its dimension their count
(``linalg.Subspace.spanned``), the row's one rank decision, and its
basis is formed on the first read, which an ``enumerate`` row never
makes.  L 1 = Lbar 1 = 0, so the synchronous manifold 1 (x) C^n is
indiscernible by theorem, and the states beyond it number dim - n.  A
report forms the shared modal span, and the corrected condition's
collisions (each one cluster of the block spectra, from
``linalg.cluster_indices``), on their first read too: a row reports only
the verdict.

The rows of ``enumerate`` share the base, which keeps what depends on it
alone (spec(L), ||B||_2), and ``analyze_rows`` decides them together
(``analyze`` is its batch of one): the pair check, the graph-side
decision, each collision cluster's SVD of Delta X_g (``collision_svds``)
and the corrected condition (``corrected_conditions``) are each one
stacked call over a chunk of rows.  A row then computes on its own only
its indiscernible parts and their count, the oracle and its report.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import laplacian_of, validate_laplacian
from .linalg import (
    MIN_RANK_TOL,
    RANK_TOL,
    Subspace,
    cluster_indices,
    distinct_values,
    eig,
    kernel,  # noqa: F401 - looked up here by the benchmark's tracer test
    real_columns,
    scaled_norm,
)
from .network import (
    NetworkInvariantMode,
    NetworkSystem,
    NodeDynamics,
    assemble_transition,
    check_coupling,
    unobservable_subspace,
)
from .oracle import OracleConfig, ValidationSummary, validate_subspace

Common = tuple[tuple[np.ndarray, ...], float]
Svds = tuple[tuple[np.ndarray, np.ndarray], ...]


def check_pair(dyn: NodeDynamics, L, Lbars,
               base: NetworkSystem | None = None) -> tuple[NetworkSystem, np.ndarray]:
    """The one check every entry point takes first, of node dynamics
    (A, B), a Laplacian L and Laplacians ``Lbars`` (a chunk of rows, or
    one).  Without ``base``, ``assemble_transition`` validates L and builds
    the network of (dyn, L); a given base must be that network (identity
    first: a row passes the base's arrays).  The Lbars, as one stack, pass
    ``validate_laplacian``, have L's shape and pass ``check_coupling``; a
    stack that fails is checked again an Lbar at a time, for the error of
    its first bad one alone.  Returns the base and the stack."""
    if base is None:
        base = assemble_transition(dyn, L)
    elif not all(x is y or np.array_equal(x, y) for x, y in (
            (L, base.laplacian), (dyn.A, base.dynamics.A), (dyn.B, base.dynamics.B))):
        raise ValueError("base belongs to another network")
    try:
        stack = np.asarray(Lbars, dtype=float)
        if stack.shape[1:] == base.laplacian.shape:
            return base, check_coupling(dyn, validate_laplacian(stack))
    except ValueError:  # a bad Lbar, or Lbars of other shapes
        pass
    for Lbar in map(validate_laplacian, Lbars):
        if Lbar.shape != base.laplacian.shape:
            raise ValueError(f"dimension mismatch: {base.laplacian.shape} vs {Lbar.shape}")
        check_coupling(dyn, Lbar)
    return base, np.empty((0, *base.laplacian.shape))  # no Lbars


def laplacian_difference(L: np.ndarray, Lbar: np.ndarray) -> np.ndarray:
    """L - Lbar, or L minus each Laplacian of a stack Lbar, as the
    Laplacian of the weight change: ``graphs.laplacian_of(Lbar - L)``.  L
    and Lbar each round their own degree sums, so their plain difference
    has row sums of roundoff, which the cutoff rank_tol * ||L - Lbar||_2
    of a small reweight reads as a touched alpha = 0 direction; this one
    sends 1 to 0 up to the roundoff of its own entries."""
    return laplacian_of(Lbar - L)


def common_laplacian_vectors(base: NetworkSystem, diffs: np.ndarray,
                             rank_tol: float = RANK_TOL) -> list[Common]:
    """The graph-side decision of each variation diff = L - Lbar of the
    stack ``diffs`` (R x N x N): the eigenvectors of L that Lbar shares,
    for every alpha group G of ``base`` (the network of L), V_G times the
    kernel of diff V_G, decided against ``rank_tol`` * ||diff||_2 (the
    largest value of one batched SVD without factors).  A group of one
    vector has rank 0 or 1, so the norm of its image decides it; the groups
    of each larger size share one batched thin SVD over rows x groups.
    Returns, per row, the bases, indexed like ``base.alpha_groups``, and
    ||diff||_2."""
    V, groups = base.laplacian_vectors, base.alpha_groups
    diff_v = diffs @ V
    norms = np.linalg.svd(diffs, compute_uv=False).max(axis=-1)
    cutoffs = rank_tol * norms
    # a group of one vector is kept whole or dropped; a larger one is replaced below
    kept = (scaled_norm(diff_v, -2) <= cutoffs[:, None])[:, [group[0] for group in groups]]
    cols, empty = [V[:, group] for group in groups], V[:, :0]
    common = [[col if keep else empty for col, keep in zip(cols, row)] for row in kept.tolist()]
    for size in sorted({len(group) for group in groups} - {1}):
        ks = [k for k, group in enumerate(groups) if len(group) == size]
        idx = np.array([groups[k] for k in ks])
        _, s, vh = np.linalg.svd(diff_v[:, :, idx].transpose(0, 2, 1, 3), full_matrices=False)
        ranks = (s > cutoffs[:, None, None]).sum(axis=-1).tolist()
        # one product per (row, group): a stacked one rounds otherwise
        for row, row_ranks, vh_row in zip(common, ranks, vh):
            for k, rank, vhk in zip(ks, row_ranks, vh_row):
                row[k] = cols[k] @ vhk[rank:].T
    return [(tuple(row), norm) for row, norm in zip(common, norms.tolist())]


def delta_product(diff: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Delta X = -((L - Lbar) (x) B) X for diff = L - Lbar, or for each of
    a stack of them, by a reshape of X's rows into N node blocks, without
    forming Delta.  diff and B are real, so a complex X is multiplied as
    its real and imaginary parts side by side (its float view), which
    spares a complex cast of each."""
    *rows, N, _ = diff.shape
    Y = np.ascontiguousarray(X).view(np.float64)
    product = (diff @ Y.reshape(N, -1)).reshape(*rows, N, B.shape[0], -1)
    return -(B @ product).reshape(*rows, X.shape[0], -1).view(X.dtype)


def collision_svds(base: NetworkSystem, diffs: np.ndarray) -> list[Svds]:
    """The singular values s and right vectors V^H of Delta X_g for each
    variation diff = L - Lbar of the stack ``diffs`` and each collision
    cluster X_g of ``base``, with Delta X_g from ``delta_product``: one
    batched thin SVD per cluster over the rows.  Returns, per row, the
    (s, vh) pairs in the order of ``base.clusters``."""
    per_cluster = [np.linalg.svd(delta_product(diffs, base.dynamics.B, X),
                                 full_matrices=False)[1:] for X in base.clusters]
    return [tuple((s[r], vh[r]) for s, vh in per_cluster) for r in range(len(diffs))]


def no_variation(base: NetworkSystem, common: Common) -> bool:
    """Whether Delta = -(L - Lbar) (x) B is 0: the ||L - Lbar||_2 of the
    row's decision ``common`` is 0, or ||B||_2 is."""
    return common[1] == 0 or base.b_norm == 0


def indiscernible_subspace(dyn: NodeDynamics, L, Lbar, tol: float = RANK_TOL,
                           base: NetworkSystem | None = None,
                           decided: tuple[Common, Svds] | None = None) -> Subspace:
    """The exact subspace of initial states whose responses under Phi and
    Phibar, the networks of the node dynamics (A, B) coupled through L and
    Lbar, coincide for all time: the largest Phi-invariant subspace inside
    kernel(Delta), Delta = -(L - Lbar) (x) B, one eigenvalue cluster of Phi
    at a time.  Every state is indiscernible when Delta is 0
    (``no_variation``).

    An invariant subspace is the direct sum of its parts in Phi's
    generalized eigenspaces (from ``base``, the network of (dyn, L)).  On
    the space V_G (x) Z of a single-alpha cluster, Delta (v (x) z) =
    -((L - Lbar) v) (x) (B z), and no invariant part of Z lies in kernel(B)
    (it would hold a network-invariant mode, whose eigenvalue is a
    collision), so the indiscernible part is C_G (x) Z with C_G the common
    eigenvectors of the group: the PBH test of the output matrix
    (L - Lbar) (x) B, decided on the graph side alone, by this row of
    ``common_laplacian_vectors``.  Only a collision cluster X_g takes X_g *
    ``unobservable_subspace``(Delta X_g, X_g^H Phi X_g), from the SVD of
    Delta X_g (this row of ``collision_svds``).  Its rank is decided
    against ||Delta||_2 = ||L - Lbar||_2 ||B||_2, not its own norm, which
    would read the roundoff left by a cluster that Delta misses as rank;
    the stack starts from the orthonormal rows above that cutoff, and a
    cluster of rank 0 is kept whole without one.  The parts hold one
    cluster of each conjugate pair.  Unless handed ``decided``, the
    (common, svds) ``analyze_rows`` made on ``base``, a call checks the
    pair (``check_pair``) and decides it.

    The result is ``Subspace.spanned``: its parts, one per entry of
    ``base.group_vectors`` (the pair (C_G, Z), for kron(C_G, Z)) and then
    one per cluster of ``base.clusters`` (no columns when Delta X_g has
    full rank), and its dimension counted from them, rank(C_G) times the
    dimension of Z (``base.group_dims``) and each cluster's columns, twice
    for a non-real cluster, which stands for its conjugate
    (``base.cluster_copies``).  The first read of ``basis`` turns the parts
    into a real basis of that dimension with one SVD, Kronecker products
    included.
    """
    if decided is None:
        base, Lbars = check_pair(dyn, L, [Lbar], base)
        diffs = laplacian_difference(base.laplacian, Lbars)
        decided = common_laplacian_vectors(base, diffs, tol)[0], collision_svds(base, diffs)[0]
    elif base is None:
        raise ValueError("decisions are read with the base they were made on")
    common, svds = decided
    if no_variation(base, common):
        return Subspace.full(base.dim)
    bases, diff_norm = common
    parts: list = [(bases[k], Z) for k, Z in base.group_vectors]  # kron(C_G, Z)
    dim = sum(bases[k].shape[1] * z_dim
              for (k, _), z_dim in zip(base.group_vectors, base.group_dims))
    cutoff = tol * diff_norm * base.b_norm  # tol * ||Delta||_2
    for X, count, (s, vh) in zip(base.clusters, base.cluster_copies, svds):
        rank = int(np.sum(s > cutoff))
        if rank == 0:
            parts.append(X)
        elif rank < X.shape[1]:
            stack = unobservable_subspace(vh[:rank], X.conj().T @ (base.phi @ X), tol)
            parts.append(X @ stack.basis)
        else:
            parts.append(X[:, :0])
        dim += count * parts[-1].shape[1]
    return Subspace.spanned(base.dim, parts, dim)


def shared_modal_subspace(dyn: NodeDynamics, L, Lbar, rank_tol: float = RANK_TOL,
                          base: NetworkSystem | None = None,
                          common: Common | None = None) -> Subspace:
    """Span of the Kronecker eigenvectors shared by construction:
    v (x) w for every common eigenpair (alpha, v) of L and Lbar with
    (lambda, w) an eigenpair of A - alpha*B, plus a (x) v over all
    coefficient vectors a for each network-invariant mode (lambda, v).
    Always contained in the indiscernible subspace.

    The common eigenvectors of each distinct alpha of L are ``common``,
    the row of ``common_laplacian_vectors`` a report passes with its base,
    else checked (``check_pair``) and decided here.
    A block whose eigenvalues are pairwise at least ``base.cluster_tol``
    apart has n independent eigenvectors, so its common vectors contribute
    common (x) I_n; only a block with a repeated eigenvalue takes the
    eigenvectors of its clusters at the base's ``cluster_tol`` from
    ``eig``.  The basis, one SVD of the ``real_columns`` cut at
    ``rank_tol`` * sigma_max, is a real orthonormal basis of the span, not
    a canonical one.  ``base`` is the network of (dyn, L)."""
    if common is None:
        base, Lbars = check_pair(dyn, L, [Lbar], base)
        [common] = common_laplacian_vectors(
            base, laplacian_difference(base.laplacian, Lbars), rank_tol)
    elif base is None:
        raise ValueError("decisions are read with the base they were made on")
    N, n = base.node_count, base.node_dim
    bases, _ = common
    w = base.block_eig[0]
    # each block's pairwise gaps off the diagonal (eye * inf would put NaN on it)
    gaps = np.where(np.eye(n, dtype=bool), np.inf,
                    np.abs(w[:, :, None] - w[:, None, :]))
    simple = gaps.min(axis=(1, 2), initial=np.inf) >= base.cluster_tol

    # v (x) w over all common v and eigenvectors w, one Kronecker product
    # per alpha; then a (x) v over all coefficient vectors a: I_N (x) v
    cols = [np.zeros((N * n, 0))]
    for group, C in zip(base.alpha_groups, bases):
        if C.size:
            i = int(group[0])
            eigvecs = np.eye(n) if simple[i] else np.hstack(
                [p.vectors for p in eig(base.blocks[i], base.cluster_tol).eigenpairs])
            cols.append(np.kron(C, eigvecs))
    cols += [np.kron(np.eye(N), mode.vector[:, None]) for mode in base.modes]
    return Subspace.from_spanning(real_columns(cols), rank_tol)


@dataclass(frozen=True, eq=False)
class CorrectedConditionResult:
    """Verdict of the spectral-disjointness requirement: the spectra of
    A - alpha_i*B for distinct alpha_i (drawn from the union of both
    Laplacian spectra) must not intersect.  Each collision is one
    (lambda, alphas) pair: a cluster of the block spectra at mean lambda
    whose members come from the ascending alphas, two or more.

    ``holds`` and ``min_cross_gap`` are decided when the result is made;
    ``collisions`` are formed from the kept ``alphas`` and block
    ``spectra`` on first read, and kept, so an ``enumerate`` row, which
    reports only the verdict, never clusters.  Two results are equal when
    their verdicts, gaps, tolerances and collisions are."""

    holds: bool
    min_cross_gap: float
    tol: float
    alphas: np.ndarray = field(repr=False)   # the distinct alphas, ascending
    spectra: np.ndarray = field(repr=False)  # row i: eigenvalues of A - alphas[i]*B

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"

    @cached_property
    def collisions(self) -> tuple[tuple[complex, tuple[float, ...]], ...]:
        if self.holds:  # a cluster over two alphas holds a cross link of length <= tol
            return ()
        flat = self.spectra.reshape(-1)
        owner = np.repeat(np.arange(len(self.alphas)), self.spectra.shape[1])
        collisions = []
        # cluster_indices links strictly below its width: a gap of exactly tol links
        for idx in cluster_indices(flat, np.nextafter(self.tol, np.inf)):
            if len(idx) > 1 and len(members := np.unique(owner[idx])) > 1:
                collisions.append((complex(np.mean(flat[idx])),
                                   tuple(self.alphas[members].tolist())))
        collisions.sort(key=lambda c: (c[0].real, c[0].imag))
        return tuple(collisions)

    def __eq__(self, other):
        if not isinstance(other, CorrectedConditionResult):
            return NotImplemented
        return ((self.holds, self.min_cross_gap, self.tol, self.collisions)
                == (other.holds, other.min_cross_gap, other.tol, other.collisions))

    def __hash__(self):
        return hash((self.holds, self.min_cross_gap, self.tol))


def corrected_condition(
    dyn: NodeDynamics, L, Lbar, tol: float = 1e-8,
    base: NetworkSystem | None = None,
) -> CorrectedConditionResult:
    """Check that modal spectra across distinct Laplacian eigenvalues are
    pairwise disjoint at tolerance ``tol``.

    alpha ranges over spec(L) ∪ spec(Lbar) (the strictest reading).  The
    union of the block spectra is clustered by single linkage, two values
    linked when at most ``tol`` apart; a cluster with members of two or
    more alphas is one collision, and the condition holds when there is
    none, i.e. when the minimum cross-block gap exceeds ``tol``.  The
    clusters are formed on the first read of ``collisions``, and only when
    the condition is violated.  spec(L) is the ``laplacian_values`` of
    ``base``, the network of (dyn, L); the pair is checked by
    ``check_pair`` and decided as a stack of one."""
    base, Lbars = check_pair(dyn, L, [Lbar], base)
    [result] = corrected_conditions(base, Lbars, tol)
    return result


def corrected_conditions(base: NetworkSystem, Lbars: np.ndarray,
                         tol: float) -> list[CorrectedConditionResult]:
    """The corrected condition of ``base`` against each Laplacian of the
    stack ``Lbars`` (R x N x N), as ``corrected_condition`` states it, for
    the rows together: one eigvalsh, one sort for every row's distinct
    alphas (``linalg.distinct_values``), one eigvals of the blocks of each
    alpha bit pattern, and a sweep for every row's least cross gap, which
    holds R x 2Nn values, not (2Nn)^2 per row.  A row's spectra are real
    when all of its eigenvalues are, as its blocks alone give them."""
    A, B, n = base.dynamics.A, base.dynamics.B, base.node_dim
    values, R = np.linalg.eigvalsh(Lbars), len(Lbars)
    alphas, counts = distinct_values(np.concatenate(
        (np.repeat(base.laplacian_values[None], R, axis=0), values), axis=1), tol)
    # bitwise equal alphas of different rows give one block, decomposed once
    bits, block_of = (np.unique(alphas.view(np.int64), return_inverse=True) if R > 1
                      else (alphas.view(np.int64), slice(None)))
    stacked = np.linalg.eigvals(A - np.multiply.outer(bits.view(np.float64), B))[block_of]
    # each row's values on a line, sorted by real part, own the place of each
    # one's alpha; NaN pads, sorted last and passed over by fmin, fill a row
    ends, k = np.cumsum(counts), int(counts.max())
    z = stacked
    if len(alphas) < R * k:
        z = np.full((R * k, n), np.nan, stacked.dtype)
        z[np.arange(len(alphas)) + np.repeat(np.arange(R) * k - ends + counts, counts)] = stacked
    order = np.argsort(z.reshape(R, k * n).real, axis=1)
    z, own = z.reshape(R, k * n)[np.arange(R)[:, None], order], order // n
    # the least |z_i - z_j| of different alphas, by offsets w = j - i: pairs
    # farther apart differ more in real part, so once no real-part gap at w
    # is below a row's least, the pairwise minimum's pair is found (and
    # abs(x + 0j) is |x|, so a real row among complex ones keeps its float)
    gaps = np.full(R, np.inf)
    for w in range(1, k * n):
        d = z[:, w:] - z[:, :-w]
        gaps = np.fmin(gaps, np.fmin.reduce(
            np.where(own[:, w:] != own[:, :-w], np.abs(d), np.inf), axis=1))
        if not (np.fmin.reduce(d.real, axis=1) < gaps).any():
            break
    real = (~z.imag.any(axis=1)).tolist() if np.iscomplexobj(z) else [False] * R
    return [CorrectedConditionResult(gap > tol, gap, float(tol), alphas[a:b],
                                     stacked[a:b].real.copy() if as_real else stacked[a:b])
            for gap, a, b, as_real in zip(gaps.tolist(), (ends - counts).tolist(),
                                           ends.tolist(), real)]


@dataclass(frozen=True)
class AnalyzeOptions:
    rank_tol: float = RANK_TOL
    eig_tol: float = 1e-8
    validate: bool = False
    oracle: OracleConfig = field(default_factory=OracleConfig)

    def __post_init__(self):
        # a relative singular-value cutoff >= 1 makes every matrix rank 0
        if not 0 < self.rank_tol < 1:
            raise ValueError(f"rank_tol must be in (0, 1), got {self.rank_tol!r}")
        if self.rank_tol < MIN_RANK_TOL:
            raise ValueError(f"rank_tol must be at least {MIN_RANK_TOL:g}, since a smaller "
                             f"cutoff reads roundoff as rank; got {self.rank_tol!r}")
        if not 0 < self.eig_tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.eig_tol!r}")


@dataclass(frozen=True)
class DiscernibilityReport:
    """Everything the analysis produces for one (L, Lbar) pair.

    ``shared_modal`` is computed on first read and kept, from ``base``,
    ``varied_laplacian``, ``rank_tol`` and ``common``, the graph-side
    decision (``common_laplacian_vectors``) the indiscernible subspace was
    decided from; ``enumerate`` rows never read it.  The synchronous
    manifold lies in every indiscernible subspace, so it is the overlap,
    of dimension ``node_dim``, and ``extra_dim`` counts the rest."""

    node_count: int
    node_dim: int
    indiscernible: Subspace
    invariant_modes: tuple[NetworkInvariantMode, ...]
    corrected: CorrectedConditionResult
    verdict: str
    base: NetworkSystem = field(repr=False, compare=False)
    varied_laplacian: np.ndarray = field(repr=False, compare=False)
    common: Common = field(repr=False, compare=False)
    rank_tol: float
    oracle_summary: ValidationSummary | None = None

    @property
    def ambient_dim(self) -> int:
        return self.node_count * self.node_dim

    @property
    def sync_overlap_dim(self) -> int:
        return self.node_dim

    @property
    def extra_dim(self) -> int:
        return self.indiscernible.dim - self.node_dim

    @cached_property
    def shared_modal(self) -> Subspace:
        base = self.base
        return shared_modal_subspace(base.dynamics, base.laplacian, self.varied_laplacian,
                                     self.rank_tol, base, self.common)


VERDICT_NO_VARIATION = "no variation"
VERDICT_DETECTABLE = "detectable-outside-sync"
VERDICT_EXTRA_STATES = "extra indiscernible states present"


# Upper bound on the bytes of the largest stacked array one chunk of
# ``analyze_rows`` holds; the chunk's row count follows from it and the
# network's size.
_CHUNK_BYTES = 256 * 1024


def analyze(
    dyn: NodeDynamics,
    L,
    Lbar,
    opts: AnalyzeOptions | None = None,
    base: NetworkSystem | None = None,
) -> DiscernibilityReport:
    """Full discernibility analysis of a topology variation: the one row
    of ``analyze_rows``.

    Computes the indiscernible subspace (modal method), its dimension
    beyond the synchronous manifold, the network-invariant modes, and the
    spectral-disjointness verdict; the shared modal span waits for the
    first read of ``report.shared_modal``, and the collision list for the
    first read of ``report.corrected.collisions``.  When ``opts.validate``
    is set the computed subspace is checked against the trajectory oracle.
    ``base`` is the network of (dyn, L), as ``analyze_rows`` takes it.
    The verdict is "no variation" exactly when Delta = -(L - Lbar) (x) B
    is 0 (``no_variation``).
    """
    [report] = analyze_rows(dyn, L, [Lbar], opts, base)
    return report


def analyze_rows(
    dyn: NodeDynamics,
    L,
    Lbars: Iterable,
    opts: AnalyzeOptions | None = None,
    base: NetworkSystem | None = None,
) -> Iterator[DiscernibilityReport]:
    """The ``analyze`` report of every variation Lbar of ``Lbars`` against
    (dyn, L), yielded in order: the rows of ``enumerate`` and the one row
    of ``analyze`` take this one path.

    ``base`` is the network of (dyn, L) from ``assemble_transition``, built
    here when not given, so each Laplacian is validated once: L by its
    base, and the Lbars by one ``check_pair`` per chunk of rows, which
    neither ``indiscernible_subspace`` nor the oracle repeats.  The stages
    whose inputs have one shape in every row are one stacked call each
    over L - Lbar: ``common_laplacian_vectors``, ``collision_svds`` and
    ``corrected_conditions``.  The rest of a row is its own: its
    indiscernible parts and their count, the oracle and the report.  The
    first chunk holds as many rows as keep its Lbars within _CHUNK_BYTES;
    it and each later chunk are decided in stacks that keep the largest
    stacked array within it, and yielded before the next chunk is read.
    """
    opts = opts or AnalyzeOptions()
    tol = opts.rank_tol
    if base is None:
        base = assemble_transition(dyn, L)
        L = base.laplacian
    # the base's clusters are read only once a chunk is checked, so no base
    # decomposes for a bad Lbar or for no rows
    nbytes = base.laplacian.nbytes
    rows, size = iter(Lbars), max(_CHUNK_BYTES // nbytes, 1)
    while chunk := list(itertools.islice(rows, size)):
        checked = check_pair(dyn, L, chunk, base)[1]
        size = max(_CHUNK_BYTES // max([nbytes] + [X.nbytes for X in base.clusters]), 1)
        for start in range(0, len(checked), size):
            stack = checked[start:start + size]
            diffs = laplacian_difference(base.laplacian, stack)
            decided = zip(stack, common_laplacian_vectors(base, diffs, tol),
                          collision_svds(base, diffs),
                          corrected_conditions(base, stack, opts.eig_tol))
            for Lbar, common, svds, corrected in decided:
                ind = indiscernible_subspace(dyn, L, Lbar, tol, base, (common, svds))
                verdict = (VERDICT_NO_VARIATION if no_variation(base, common)
                           else VERDICT_DETECTABLE if ind.dim == base.node_dim
                           else VERDICT_EXTRA_STATES)
                summary = (validate_subspace(base, NetworkSystem(dyn, Lbar), ind, opts.oracle)
                           if opts.validate else None)
                yield DiscernibilityReport(
                    node_count=base.node_count, node_dim=base.node_dim, indiscernible=ind,
                    invariant_modes=base.modes, corrected=corrected, verdict=verdict,
                    base=base, varied_laplacian=Lbar, common=common, rank_tol=tol,
                    oracle_summary=summary)
