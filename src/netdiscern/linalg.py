"""Dense linear-algebra kernels: clustered spectra, null spaces, the
intersection of two subspaces and the matrix exponential.

The package runs all of it but ``subspace_intersect``, a reference for
the tests.  ``eig`` clusters a spectrum at an explicit tolerance and
takes each cluster's eigenvectors as a ``kernel``; ``kernel`` and
``real_columns`` are the subspace arithmetic the analysis needs; ``expm``
serves the trajectory oracle and ``schur_basis`` the modal decomposition.
Operands are small: the state dimension m = N*n is a few dozen, and the
tall stacks ``kernel`` receives are per-eigenvalue-cluster power stacks,
the shifted matrices M - lambda*I of ``eig`` and the m x min(dim U, dim V)
principal-angle residual of ``subspace_intersect``.  A ``Subspace`` is an
orthonormal basis and its dimension; one from ``Subspace.spanned`` knows
its dimension first and keeps the parts it spans, whose basis it forms on
the first read, so a caller that needs only the dimension forms no basis.
Every other rank decision goes through one singular-value threshold that
the caller passes, relative to sigma_max unless the caller names the
reference magnitude.

NumPy does all of it, ``expm`` and ``schur_basis`` included: a SciPy call
would wake the separate OpenBLAS thread pool that SciPy ships, whose worker
then spins on a second core after every burst of tiny calls, and importing
SciPy's linear algebra alone adds about 28 MB of resident memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Default tolerances.  Matrices in this problem domain are tiny and well
# conditioned, so conservative fixed relative tolerances are reproducible.
RANK_TOL = 1e-10    # relative singular-value cutoff for rank decisions
RESID_TOL = 1e-8    # eigenpair residual, relative to ||M||_2
CLUSTER_TOL = 1e-8  # eigenvalue clustering width, relative to max(1, ||M||_2)
# The smallest relative rank cutoff: one near roundoff (about 1e-16
# relative) reads the roundoff of a rank-deficient product as rank.
MIN_RANK_TOL = 1e-12
_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))  # about 1.5e-154: squares below it underflow


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _as_square(M) -> np.ndarray:
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue cluster: representative value, independent unit
    eigenvectors (columns; may be fewer than the multiplicity when the
    matrix is defective), and the algebraic multiplicity."""

    value: complex
    vectors: np.ndarray
    algebraic_multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """Full spectrum of a square matrix, clustered at ``cluster_tol`` and
    sorted lexicographically by (real, imaginary) part."""

    eigenpairs: tuple[Eigenpair, ...]
    cluster_tol: float


def cluster_indices(values: np.ndarray, tol: float) -> list[list[int]]:
    """Single-linkage clustering of complex values at absolute tolerance:
    two values link when strictly less than ``tol`` apart (a NaN links to
    nothing).  Clusters are ordered by their smallest index, members
    ascending.

    Label propagation over the link matrix: each label becomes the
    smallest label among its links and itself, then jumps to that label's
    own label, until nothing changes; every label is then the smallest
    index of its connected component."""
    values = np.asarray(values)
    n = len(values)
    close = np.abs(values[:, None] - values[None, :]) < tol
    np.fill_diagonal(close, True)
    labels = np.arange(n)
    while True:
        # initial: NumPy refuses a min over the empty matrix of an empty input
        new = np.where(close, labels, n).min(axis=1, initial=n)
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def distinct_values(values, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct representatives of each real value set of a stack (..., K)
    at absolute tolerance, ascending, in one flat array, and each set's
    count: the mean of each run of the sorted values split where neighbours
    are not less than ``tol`` apart, with np.mean's bits (a run of under 8
    summed from 0.0 in order, all runs at once; a longer one by np.add.reduce)."""
    shape, v = np.shape(values)[:-1], np.sort(np.asarray(values, dtype=float), axis=-1)
    v = v.reshape(math.prod(shape), v.shape[-1])
    starts = np.ones(v.shape, dtype=bool)  # each set's first value starts a run
    starts[:, 1:] = ~(v[:, 1:] - v[:, :-1] < tol)
    flat, first = v.reshape(-1), starts.reshape(-1).nonzero()[0]
    bounds = np.concatenate((first, [flat.size]))
    length = bounds[1:] - first
    sums = flat[first] + 0.0  # 0.0 + the first value: -0.0 turns to 0.0
    for k in range(1, min(int(length.max(initial=0)), 7)):
        sums[length > k] += flat[first[length > k] + k]
    for r in np.flatnonzero(length >= 8).tolist():
        sums[r] = np.add.reduce(flat[first[r]:bounds[r + 1]])
    return sums / length, starts.sum(axis=-1).reshape(shape)


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0:
        return v
    w = v * (abs(pivot) / pivot) + 0.0  # "+ 0.0" clears negative zeros
    if not np.iscomplexobj(v):
        return w.real
    return w


def scaled_norm(M: np.ndarray, axis: int | None = None):
    """np.linalg.norm(M, axis=axis), taken again on M over its largest
    |entry| where the squares overflow (not finite) or underflow (below
    about 1e-154); every norm in between keeps the plain norm's bits."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(M, axis=axis)
    plain = (norm >= _SQRT_TINY) & (norm < np.inf)
    if plain if axis is None else plain.all():  # a scalar's .all() costs a microsecond
        return norm
    peak = np.abs(M).max(axis=axis, keepdims=True)
    peak = np.where(peak > 0, peak, 1.0)
    return np.where(plain, norm, np.squeeze(peak, axis) * np.linalg.norm(M / peak, axis=axis))


def eig(M, cluster_tol: float | None = None) -> Spectrum:
    """Full spectrum of a square matrix with eigenvalues clustered into
    multiplicities.

    The eigenvalues come from the symmetric solver for a Hermitian input
    and from the general one otherwise (A - alpha*B can have complex
    eigenvalues even for real inputs); they are clustered at
    ``cluster_tol``, by default ``CLUSTER_TOL * max(1, ||M||_2)``.  Each
    cluster's vectors are the kernel of M - lambda*I at its mean lambda,
    every singular value up to the cluster width counted as null, each
    vector rotated by ``canonical_sign``.  A defective cluster so reports
    fewer independent vectors than its multiplicity instead of
    fabricating generalized eigenvectors.
    """
    M = _as_square(M)
    tol = (CLUSTER_TOL * max(1.0, float(np.linalg.norm(M, 2))) if cluster_tol is None
           else float(cluster_tol))
    hermitian = np.array_equal(M, M.conj().T)
    w = (np.linalg.eigvalsh(M) if hermitian else np.linalg.eigvals(M)).astype(complex)
    eye = np.eye(len(M))
    pairs = []
    for idx in cluster_indices(w, tol):
        rep = complex(np.mean(w[idx]))
        if abs(rep.imag) < tol:
            rep = complex(rep.real, 0.0)
        shift = rep.real if rep.imag == 0 else rep  # a real M keeps real vectors
        vecs = kernel(M - shift * eye, 1.0, tol).basis
        for c in range(vecs.shape[1]):
            vecs[:, c] = canonical_sign(vecs[:, c])
        pairs.append(Eigenpair(rep, vecs, len(idx)))
    pairs.sort(key=lambda p: (p.value.real, p.value.imag))
    return Spectrum(tuple(pairs), tol)


def schur_basis(M: np.ndarray, values) -> np.ndarray:
    """An orthonormal basis of M's invariant subspace for ``values``, its
    computed eigenvalues counted with multiplicity: the leading vectors of a
    Schur basis of M ordered to put them first, built by deflation.  For
    each value lambda in turn, C is an orthonormal complement of the
    columns found so far (all of C^n at the start); the next column is C y,
    y the smallest right singular vector of C^H (M - lambda I) C, and the
    other right singular vectors give the next C.  Each step deflates by an
    eigenvector of the remaining part, so a defective eigenvalue stays
    exact, and the basis has one column per value."""
    n = M.shape[0]
    cols, C = [], np.eye(n)
    for lam in values:
        H = C @ np.linalg.svd(C.conj().T @ (M - lam * np.eye(n)) @ C)[2].conj().T
        cols.append(H[:, -1])
        C = H[:, :-1]
    return np.column_stack(cols)


class Subspace:
    """A linear subspace, held as an orthonormal column basis.  The
    functions that decide a rank (``from_spanning``, ``kernel`` and
    ``subspace_intersect``) take their tolerance as an argument.

    ``Subspace(basis)`` checks the basis it is given.  A subspace from
    ``spanned`` is the real span of its ``parts`` whose dimension the
    caller has counted: it keeps the parts, and forms its basis on the
    first read of ``basis``."""

    def __init__(self, basis):
        b = np.asarray(basis)
        if b.ndim != 2:
            raise ValueError(f"basis must be a 2-D array, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis entries must be finite")
        if b.shape[1] > b.shape[0]:
            raise ValueError("more basis columns than ambient dimensions")
        if b.shape[1]:
            # np.allclose(gram, I, atol=1e-8) for finite entries, without
            # its per-call overhead or an identity: 1 comes off the Gram
            # diagonal in place (a view of the fresh, contiguous product),
            # and the diagonal's 1e-5 relative allowance is read only when
            # some |entry| passes 1e-8
            k = b.shape[1]
            gram = b.conj().T @ b
            gram.reshape(-1)[::k + 1] -= 1
            dev = np.abs(gram)
            if not (dev <= 1e-8).all():
                dev.reshape(-1)[::k + 1] -= 1e-5
                if not (dev <= 1e-8).all():
                    raise ValueError("basis columns are not orthonormal")
        self.basis = b  # fills the cache of the ``basis`` property below
        self.ambient_dim, self.dim = b.shape

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim})"

    @classmethod
    def spanned(cls, ambient_dim: int, parts, dim: int) -> "Subspace":
        """The real span of the parts' ``real_columns`` in ambient_dim
        dimensions, whose count ``dim`` is the one rank decision: the first
        read of ``basis`` forms their ``dim`` leading left singular
        vectors, and raises ValueError only if sigma_dim <= MIN_RANK_TOL *
        sigma_1 (or there are fewer than ``dim`` columns)."""
        space = cls.__new__(cls)
        space.ambient_dim, space.parts, space.dim = ambient_dim, tuple(parts), dim
        return space

    @cached_property
    def basis(self) -> np.ndarray:  # a spanned subspace's; Subspace(basis) fills it
        u, s, _ = np.linalg.svd(real_columns(self.parts), full_matrices=False)
        if self.dim > s.size or (self.dim and not s[self.dim - 1] > MIN_RANK_TOL * s[0]):
            raise ValueError(f"the parts do not span the {self.dim} dimensions counted")
        return u[:, :self.dim]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim))

    @classmethod
    def from_spanning(cls, columns: np.ndarray, tol: float = RANK_TOL) -> "Subspace":
        """Orthonormalize an arbitrary spanning set: the left singular
        vectors whose singular values exceed ``tol * sigma_max``."""
        cols = np.asarray(columns)
        if cols.ndim == 1:
            cols = cols[:, None]
        if cols.shape[1] == 0:
            return cls.zero(cols.shape[0])
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        if s.size == 0 or s[0] <= 0:
            return cls.zero(cols.shape[0])
        return cls(u[:, s > tol * s[0]])


def real_columns(parts) -> np.ndarray:
    """Real columns that span the columns of the parts and their complex
    conjugates, for parts that hold one cluster of each conjugate pair:
    [Re P, Im P], P the parts side by side (a column with no imaginary part
    adds none).  A part given as a pair (C, Z) is kron(C, Z), formed here."""
    cols = []
    for part in parts:
        if isinstance(part, tuple):  # np.kron's products, without its call overhead
            C, Z = part
            part = (C[:, None, :, None] * Z[:, None]).reshape(C.shape[0] * Z.shape[0], -1)
        cols.append(part)
    P = np.hstack(cols)
    if np.iscomplexobj(P):
        P = np.hstack([P.real, P.imag[:, P.imag.any(axis=0)]])
    return P


def kernel(M, tol: float = RANK_TOL, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the null space: the right singular vectors
    whose singular values are at most ``tol * scale``, with ``scale``
    sigma_max unless given (a relative threshold).  A caller that knows
    the magnitude a nonzero singular value must reach, such as the sines
    of ``subspace_intersect``, passes it, so a matrix of pure roundoff
    has no rank.

    The basis is the trailing rows of V^H from the SVD M = U S V^H; U is
    never read.  For a tall or square M the thin factors already hold all
    of V, so only they are formed (a full U would be rows x rows).  A wide
    M has null directions outside the thin V^H, so only then is the full
    V^H formed.  The singular values, and so the rank decision, are the
    same either way."""
    M = _as_matrix(M)
    rows, ambient = M.shape
    if rows == 0:
        return Subspace.full(ambient)
    _, s, vh = np.linalg.svd(M, full_matrices=rows < ambient)
    if s.size == 0 or s[0] == 0:
        return Subspace.full(ambient)
    rank = int(np.sum(s > tol * (s[0] if scale is None else scale)))
    basis = vh[rank:].conj().T
    if np.iscomplexobj(basis) and np.max(np.abs(basis.imag), initial=0.0) < 1e-14:
        basis = basis.real.copy()
    return Subspace(basis)


def subspace_intersect(U: Subspace, V: Subspace, tol: float = RANK_TOL) -> Subspace:
    """U ∩ V by principal angles (Björck & Golub, Math. Comp. 27, 1973).

    With A the basis of the operand of smaller dimension and B the other,
    the singular values of the m x dim A residual R = A - B(B^H A) are the
    sines of the principal angles, and U ∩ V is A·kernel(R), the sines cut
    at an absolute 2·tol.  That is the relative cutoff of the stacked
    complement projectors [I - P_U; I - P_V] whenever some direction lies
    outside U + V: the stack then has sigma_max = sqrt(2) and singular
    values sqrt(2)·sin(θ/2), so it keeps sin(θ/2) <= tol, i.e.
    sin θ <~ 2·tol.  Being absolute, the cutoff also reads the roundoff
    residual of a full or equal operand as no angle."""
    if U.ambient_dim != V.ambient_dim:
        raise ValueError(f"ambient dimension mismatch: {U.ambient_dim} vs {V.ambient_dim}")
    if U.dim == 0 or V.dim == 0:
        return Subspace.zero(U.ambient_dim)
    a, b = (U.basis, V.basis) if U.dim <= V.dim else (V.basis, U.basis)
    return Subspace(a @ kernel(a - b @ (b.conj().T @ a), tol, 2.0).basis)


# Coefficients b_0 .. b_13 of the [13/13] Padé approximant to e^x, and the
# 1-norm up to which it needs no scaling (Higham 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(M, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{M t} by scaling and squaring the [13/13] Padé
    approximant (Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005):
    A = M t / 2^s with ||A||_1 <= theta_13, r(A) = (V - U)^{-1} (V + U)
    from the odd part U and even part V of the numerator, then s
    squarings.  e^0 is exactly the identity.  Overflow is reported as an
    OverflowError, never as a warning or a non-finite result."""
    M = _as_square(M)
    b = _PADE13
    with np.errstate(over="ignore", invalid="ignore"):  # overflow becomes the raise below
        A = M * float(t)
        norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
        if not math.isfinite(norm):
            raise OverflowError(f"matrix exponential overflowed for ||M t||_1 = {norm:.3e}")
        ident = np.eye(len(A), dtype=A.dtype)
        if norm == 0:
            return ident
        s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
        A = A * 2.0 ** -s
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
        E = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            E = E @ E
    if not np.isfinite(E).all():
        raise OverflowError(f"matrix exponential overflowed for ||M t||_1 = {norm:.3e}")
    return E
