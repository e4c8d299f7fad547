"""Simulation-based ground truth for indiscernibility claims.

The oracle never looks at subspace algebra: it compares the natural
responses of the two systems directly, on a time grid through the matrix
exponential and over a range of matrix powers.  Both checks are normalized
by the propagator magnitude so that growing modes (spectral radius well
above 1) cannot mask or fake a divergence through floating-point roundoff.

The continuous check walks the grid in ascending order and advances both
propagators by the semigroup identity e^{Phi (t + d)} = e^{Phi d} e^{Phi t},
so it computes one matrix exponential per system for each distinct step d;
steps equal up to a few ulps of the largest time share one (2 expm calls
for the default grid, whose 50 steps are 0.1 up to roundoff).  Any grid
works (unsorted, repeated, non-uniform).  The power check works on the
powers of F = Phi / nu and Fbar = Phibar / nu with
nu = max(1, ||Phi||_2, ||Phibar||_2), whose 2-norms are at most 1, so they
stay bounded instead of overflowing.

Both checks are evaluated in blocks: the propagators of a run of grid
times (or a run of consecutive powers) are stacked, and each block is
checked for overflow and reduced to gaps by a few batched products and
einsum reductions instead of per-time calls.  The block length follows
from a byte budget (_BLOCK_BYTES) on the largest stacked array, so memory
stays flat as the system grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Subspace, expm
from .network import NetworkSystem

DEFAULT_TIME_GRID = tuple(float(t) for t in np.linspace(0.0, 5.0, 51))

# Every sample is a column of each check, so a plan far past this bound
# would not finish in useful time.
MAX_SAMPLE_COUNT = 10_000

# Upper bound on the bytes of the largest stacked array one block of the
# checks holds; the block length follows from it and the problem size.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class OracleConfig:
    """Sampling plan for the trajectory oracle.

    The power check always takes the powers up to twice the ambient
    dimension m: by Cayley-Hamilton, Phi^k x = Phibar^k x for every k <= m
    implies it for every k, so no longer range can see more.  The sampler
    is a seeded PCG64 generator, so a fixed seed reproduces summaries
    bit-for-bit on one platform.
    """

    time_grid: tuple[float, ...] = DEFAULT_TIME_GRID
    rel_tol: float = 1e-7
    sample_count: int = 100
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(t) for t in self.time_grid)
        if not grid:
            raise ValueError("time_grid must be nonempty")
        if not all(math.isfinite(t) and t >= 0 for t in grid):
            raise ValueError("time_grid entries must be finite and nonnegative")
        object.__setattr__(self, "time_grid", grid)
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if not 1 <= self.sample_count <= MAX_SAMPLE_COUNT:
            raise ValueError(f"sample_count must be in [1, {MAX_SAMPLE_COUNT}]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _block_len(m: int, s: int) -> int:
    """Grid times or powers per block: the largest stack a block holds,
    (B, m, max(m, s)) in float64, stays within _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * m * max(m, s)))


def _frobenius(S: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of the stack S."""
    return np.sqrt(np.einsum("kij,kij->k", S, S))


def _column_norms(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Column norms of each D[k] @ X, shape (len(D), X.shape[1])."""
    G = D @ X
    return np.sqrt(np.einsum("kij,kij->kj", G, G))


def _cached_step(steps: dict, d: float, tol: float, slack: float):
    """The cached (step, e^{Phi step}, e^{Phibar step}) whose step is within
    ``tol`` and ``slack`` of d, or None.  ``steps`` is keyed by
    round(step / tol), so a match sits in d's bucket or a neighbour."""
    key = round(d / tol)
    for step in map(steps.get, (key, key - 1, key + 1)):
        if step is not None and abs(step[0] - d) <= min(tol, slack):
            return step
    return None


def _continuous_gap_table(
    phi: np.ndarray, phibar: np.ndarray, X: np.ndarray, time_grid
) -> np.ndarray:
    """Per-(t, sample) normalized trajectory gaps for unit columns X, in
    grid order: ||(E - Ebar) x|| / max(1, ||E||_F, ||Ebar||_F) with
    E = e^{Phi t}, Ebar = e^{Phibar t}.

    The propagators start at the identity (t = 0) and are advanced through
    the grid in ascending order, one cached pair of step exponentials per
    distinct step, into a stack of one block of grid times; each block is
    then checked and reduced in a few batched calls.  Steps within a few
    ulps of the largest time are one step, as long as the propagated time
    stays within 1e-14 * t_max of the grid."""
    grid = np.asarray(time_grid, dtype=float)
    order = np.argsort(grid, kind="stable")
    times = grid[order]
    deltas = np.diff(times, prepend=0.0).tolist()
    tol = 4 * float(np.spacing(times[-1]))  # steps this close are one step
    budget = 1e-14 * float(times[-1])  # bound on the propagated time error
    drift = 0.0  # propagated time minus grid time
    m = phi.shape[0]
    out = np.empty((len(grid), X.shape[1]))
    block = _block_len(m, X.shape[1])
    E_prev, Eb_prev = np.eye(m), np.eye(m)
    steps: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(grid), block):
            stop = min(start + block, len(grid))
            E = np.empty((stop - start, m, m))
            Eb = np.empty((stop - start, m, m))
            failed = None
            for k, d in enumerate(deltas[start:stop]):
                if d:
                    step = _cached_step(steps, d, tol, budget - abs(drift))
                    if step is None:
                        try:
                            step = (d, expm(phi, d), expm(phibar, d))
                        except OverflowError as exc:
                            # raised once the times before this one are checked
                            failed, stop = exc, start + k
                            E, Eb = E[:k], Eb[:k]
                            break
                        steps[round(d / tol)] = step
                    drift += step[0] - d
                    np.matmul(step[1], E_prev, out=E[k])
                    np.matmul(step[2], Eb_prev, out=Eb[k])
                else:
                    E[k], Eb[k] = E_prev, Eb_prev
                E_prev, Eb_prev = E[k], Eb[k]
            scale = np.maximum(_frobenius(E), _frobenius(Eb))
            finite = np.isfinite(scale)
            if not finite.all():
                raise OverflowError(
                    "propagated matrix exponential overflowed at "
                    f"t = {times[start + np.argmin(finite)]:g}"
                )
            if failed is not None:
                raise failed
            out[order[start:stop]] = (
                _column_norms(E - Eb, X) / np.maximum(1.0, scale)[:, None]
            )
    return out


def _discrete_gaps(
    sys: NetworkSystem, sysbar: NetworkSystem, X: np.ndarray, powers: int
) -> np.ndarray:
    """Per-sample max over k <= powers of ||(Phi^k - Phibar^k) x||
    / nu^k with nu = max(1, ||Phi||_2, ||Phibar||_2), the 2-norms kept on
    the systems.  The powers of F = Phi / nu have 2-norm at most 1, so
    they cannot overflow.

    One block of powers F^1 .. F^B is built by doubling (log2 B batched
    products); each later block is the previous one times F^B."""
    phi, phibar = sys.phi, sysbar.phi
    nu = max(1.0, sys.norm2, sysbar.norm2)
    m = phi.shape[0]
    block = min(powers, _block_len(m, X.shape[1]))
    P = np.empty((block, m, m))
    Pb = np.empty((block, m, m))
    P[0], Pb[0] = phi / nu, phibar / nu
    n = 1
    while n < block:
        h = min(n, block - n)
        np.matmul(P[n - 1], P[:h], out=P[n:n + h])
        np.matmul(Pb[n - 1], Pb[:h], out=Pb[n:n + h])
        n += h
    step, step_b = P[-1], Pb[-1]
    gaps = _column_norms(P - Pb, X).max(axis=0)
    for done in range(block, powers, block):
        h = min(block, powers - done)
        P, Pb = step @ P[:h], step_b @ Pb[:h]
        gaps = np.maximum(gaps, _column_norms(P - Pb, X).max(axis=0))
    return gaps


def _gap_columns(
    phi: NetworkSystem,
    phibar: NetworkSystem,
    X: np.ndarray,
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(per-sample gap, per-t continuous max over samples) for unit columns."""
    table = _continuous_gap_table(phi.phi, phibar.phi, X, cfg.time_grid)
    gaps = np.maximum(
        table.max(axis=0), _discrete_gaps(phi, phibar, X, 2 * phi.phi.shape[0])
    )
    return gaps, table.max(axis=1)


@dataclass(frozen=True)
class ValidationSummary:
    """Outcome of sampling a candidate indiscernible subspace against the
    trajectory oracle.  Inside samples must stay below rel_tol; samples
    with a component outside the subspace must exceed it."""

    rel_tol: float
    seed: int
    inside_total: int
    inside_pass: int
    inside_worst_gap: float
    outside_total: int
    outside_pass: int
    outside_worst_gap: float | None
    continuous_trace: tuple[tuple[float, float], ...]

    @property
    def passed(self) -> bool:
        return (
            self.inside_pass == self.inside_total
            and self.outside_pass == self.outside_total
        )


def _unit_columns(cols: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms <= 1e-12):
        raise ValueError("degenerate sample draw")
    return cols / norms


def validate_subspace(
    phi: NetworkSystem,
    phibar: NetworkSystem,
    V: Subspace,
    cfg: OracleConfig | None = None,
) -> ValidationSummary:
    """Draw random unit states inside V (gap must be <= rel_tol) and unit
    states with an equal-weight component in V's orthocomplement (gap must
    exceed rel_tol), and report pass/fail counts with the worst gaps."""
    cfg = cfg or OracleConfig()
    m = phi.phi.shape[0]
    if phibar.phi.shape != (m, m) or V.ambient_dim != m:
        raise ValueError(f"dimension mismatch: Phi {phi.phi.shape}, Phibar "
                         f"{phibar.phi.shape}, subspace ambient {V.ambient_dim}")
    rng = np.random.default_rng(cfg.seed)
    s = cfg.sample_count
    Q = V.basis
    if np.iscomplexobj(Q):
        if np.max(np.abs(Q.imag), initial=0.0) < 1e-12:
            Q = Q.real.copy()
        else:
            raise ValueError("validation expects a real subspace basis")

    samples: list[np.ndarray] = []
    inside_total = 0
    if V.dim > 0:
        inside = _unit_columns(Q @ rng.standard_normal((V.dim, s)))
        samples.append(inside)
        inside_total = s

    outside_total = 0
    if V.dim < m:
        Z = rng.standard_normal((m, s))
        U = _unit_columns(Z - Q @ (Q.conj().T @ Z)) if V.dim else _unit_columns(Z)
        if V.dim > 0:
            mix = _unit_columns(Q @ rng.standard_normal((V.dim, s)))
            outside = _unit_columns(U + mix)
        else:
            outside = U
        samples.append(outside)
        outside_total = s

    if not samples:
        raise ValueError("subspace admits neither inside nor outside samples")
    X = np.hstack(samples)
    gaps, trace = _gap_columns(phi, phibar, X, cfg)

    in_gaps = gaps[:inside_total]
    out_gaps = gaps[inside_total:]
    return ValidationSummary(
        rel_tol=cfg.rel_tol,
        seed=cfg.seed,
        inside_total=inside_total,
        inside_pass=int(np.sum(in_gaps <= cfg.rel_tol)),
        inside_worst_gap=float(in_gaps.max()) if inside_total else 0.0,
        outside_total=outside_total,
        outside_pass=int(np.sum(out_gaps > cfg.rel_tol)),
        outside_worst_gap=float(out_gaps.min()) if outside_total else None,
        continuous_trace=tuple(
            (float(t), float(gv)) for t, gv in zip(cfg.time_grid, trace)
        ),
    )
