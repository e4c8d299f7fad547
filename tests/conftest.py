"""Shared fixtures: the bundled four-node case, random-instance generators,
and the comparisons the tests make between subspaces and of one state's
trajectory gap.

Random graphs use dyadic edge weights (multiples of 1/16 in [0.5, 2]) so
Laplacian row sums cancel exactly in floating point; that keeps the exactness
assertions honest instead of tolerance-washed.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from netdiscern import (Eigenpair, NodeDynamics, OracleConfig, Spectrum, Subspace,
                        assemble_transition, laplacian)
from netdiscern.example import (
    example_dynamics,
    example_graph,
    example_modified_graph,
)
from netdiscern.graphs import Graph, LinkVariation
from netdiscern.linalg import RANK_TOL, RESID_TOL, canonical_sign, cluster_indices
from netdiscern.oracle import _gap_columns

DYADIC_WEIGHTS = np.arange(8, 33) / 16.0  # 0.5 .. 2.0, exactly representable


@dataclass(frozen=True)
class DemoCase:
    dyn: NodeDynamics
    graph: Graph
    graph_bar: Graph
    L: np.ndarray
    Lbar: np.ndarray
    phi: object
    phibar: object


@pytest.fixture(scope="session")
def demo() -> DemoCase:
    dyn = example_dynamics()
    g = example_graph()
    gbar = example_modified_graph()
    L = laplacian(g)
    Lbar = laplacian(gbar)
    return DemoCase(
        dyn=dyn,
        graph=g,
        graph_bar=gbar,
        L=L,
        Lbar=Lbar,
        phi=assemble_transition(dyn, L),
        phibar=assemble_transition(dyn, Lbar),
    )


def reference_spectrum(M: np.ndarray, w, V: np.ndarray, tol: float) -> Spectrum:
    """The clustered ``Spectrum`` of M from a computed eigen-decomposition
    (eigenvalues ``w``, unit eigenvectors in the columns of ``V``, as from
    np.linalg.eig), clustered at absolute ``tol``: per cluster, the
    eigenvectors' left singular vectors above RANK_TOL relative, those
    whose residual is within RESID_TOL * max(1, ||M||_2), else the best
    raw eigenvector; real when every imaginary part is below ``tol``.
    This is how ``eig`` formed its vectors before it took each cluster's
    as a kernel, kept as a reference independent of that path."""
    w = np.asarray(w).astype(complex)
    scale = max(1.0, float(np.linalg.norm(M, 2)))
    pairs = []
    for idx in cluster_indices(w, tol):
        rep = complex(np.mean(w[idx]))
        if abs(rep.imag) < tol:
            rep = complex(rep.real, 0.0)
        cols = V[:, idx]
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        keep = u[:, s > RANK_TOL * s[0]] if s.size and s[0] > 0 else u[:, :0]
        good = [canonical_sign(v) for v in keep.T
                if np.linalg.norm(M @ v - rep * v) <= RESID_TOL * scale]
        if not good:
            raw = cols / np.linalg.norm(cols, axis=0)
            best = np.argmin(np.linalg.norm(M @ raw - rep * raw, axis=0))
            good.append(canonical_sign(raw[:, best]))
        vecs = np.column_stack(good)
        if np.iscomplexobj(vecs) and np.max(np.abs(vecs.imag)) < tol:
            vecs = vecs.real.copy()
        pairs.append(Eigenpair(rep, vecs, len(idx)))
    pairs.sort(key=lambda p: (p.value.real, p.value.imag))
    return Spectrum(tuple(pairs), tol)


def spectrum_values(spec: Spectrum) -> np.ndarray:
    """The distinct (clustered) eigenvalues of a spectrum."""
    return np.array([p.value for p in spec.eigenpairs])


def multiplicity_of(spec: Spectrum, value: complex, tol: float | None = None) -> int:
    """The algebraic multiplicity of the first cluster within ``tol`` of
    ``value`` (by default the spectrum's own cluster_tol), 0 if none is."""
    tol = spec.cluster_tol if tol is None else tol
    for p in spec.eigenpairs:
        if abs(p.value - value) <= tol:
            return p.algebraic_multiplicity
    return 0


def spectrum_dimension(spec: Spectrum) -> int:
    """The sum of the algebraic multiplicities: the matrix's order."""
    return sum(p.algebraic_multiplicity for p in spec.eigenpairs)


def edge_weight(g: Graph, i: int, j: int) -> float:
    """The weight of the edge {i, j}; KeyError when the graph has none."""
    i, j = min(i, j), max(i, j)
    for a, b, w in g.edges:
        if (a, b) == (i, j):
            return w
    raise KeyError(f"no edge ({i},{j})")


def random_graph(rng: np.random.Generator, node_count: int, p: float = 0.5) -> Graph:
    edges = []
    for i in range(1, node_count + 1):
        for j in range(i + 1, node_count + 1):
            if rng.random() < p:
                edges.append((i, j, float(rng.choice(DYADIC_WEIGHTS))))
    if not edges:
        i, j = sorted(
            int(v) + 1
            for v in rng.choice(node_count, size=2, replace=False)
        )
        edges.append((i, j, float(rng.choice(DYADIC_WEIGHTS))))
    return Graph(node_count, tuple(edges))


def absent_pairs(g: Graph) -> list[tuple[int, int]]:
    """The node pairs (i < j) that no edge of g joins, in order."""
    present = {(i, j) for i, j, _ in g.edges}
    return [p for p in itertools.combinations(range(1, g.node_count + 1), 2)
            if p not in present]


def random_single_variation(rng: np.random.Generator, g: Graph) -> np.ndarray:
    """The Laplacian of one random single-link change of g; it always
    differs from laplacian(g)."""
    kinds = ["remove_edge", "reweight_edge", "disconnect_node"]
    if absent_pairs(g):
        kinds.append("add_edge")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "remove_edge":
        i, j, _ = g.edges[int(rng.integers(len(g.edges)))]
        var = LinkVariation(kind, (i, j))
    elif kind == "add_edge":
        pairs = absent_pairs(g)
        var = LinkVariation(kind, pairs[int(rng.integers(len(pairs)))],
                            float(rng.choice(DYADIC_WEIGHTS)))
    elif kind == "reweight_edge":
        i, j, w = g.edges[int(rng.integers(len(g.edges)))]
        other = DYADIC_WEIGHTS[DYADIC_WEIGHTS != w]
        var = LinkVariation(kind, (i, j), float(rng.choice(other)))
    else:
        touched = sorted({v for i, j, _ in g.edges for v in (i, j)})
        var = LinkVariation(kind, touched[int(rng.integers(len(touched)))])
    return var.apply(laplacian(g))


def random_instance(rng: np.random.Generator):
    """One desk-scale test case: dynamics plus a Laplacian pair differing
    by a single link (N <= 5, n <= 4)."""
    N = int(rng.integers(2, 6))
    n = int(rng.integers(1, 5))
    g = random_graph(rng, N)
    Lbar = random_single_variation(rng, g)
    A = rng.uniform(-1.0, 1.0, (n, n))
    B = rng.uniform(-0.6, 0.6, (n, n))
    return NodeDynamics(A, B), laplacian(g), Lbar


def ring_with_chords(N: int) -> Graph:
    """C_N plus a chord from every third node to the node N // 2 ahead."""
    pairs = {tuple(sorted((i, (i + 1) % N))) for i in range(N)}
    pairs |= {tuple(sorted((i, (i + N // 2) % N))) for i in range(0, N, 3)}
    return Graph(N, tuple(sorted((i + 1, j + 1, 1.0) for i, j in pairs if i != j)))


def without_first_edge(g: Graph) -> np.ndarray:
    """The Laplacian of g without its first edge."""
    return LinkVariation("remove_edge", g.edges[0][:2]).apply(laplacian(g))


BAD_ROWS = {
    "non-finite": "Laplacian entries must be finite",
    "skewed": "Laplacian is not symmetric",
    "shifted": "Laplacian rows do not sum to zero (max 1.000e+00)",
    "overflow": ("the blocks A - alpha*B overflow float64: the weighted degrees are "
                 "too large for the node dynamics"),
}


def bad_row(kind, L, Lbar):
    """Lbar spoiled for one check of check_pair: an infinite entry, one
    entry off its mirror, a row sum of 1, or an edge (1,2) at 1e308, a
    Laplacian whose blocks overflow."""
    bad = Lbar.copy()
    if kind == "non-finite":
        bad[3, 3] = np.inf
    elif kind == "skewed":
        bad[0, 5] -= 1.0
    elif kind == "shifted":
        bad[4, 4] += 1.0
    else:
        bad = LinkVariation("reweight_edge", (1, 2), 1e308).apply(L)
    return bad


def bench_inputs():
    """The benchmark's seeded input generator, bench/inputs.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def component_count(g: Graph) -> int:
    """Union-find count of connected components (independent of any
    spectral machinery)."""
    parent = list(range(g.node_count + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j, _ in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(1, g.node_count + 1)})


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _residual_sine(container: Subspace, probe: np.ndarray) -> float:
    """||(I - QQ^H) probe||_2 for Q the container's basis: for orthonormal
    probe columns, the sine of the largest principal angle between the two
    spans.  Sine-based, so it resolves angles far below arccos resolution."""
    q = container.basis
    return float(min(1.0, np.linalg.norm(probe - q @ (q.conj().T @ probe), 2)))


def max_sine(U: Subspace, V: Subspace) -> float:
    """Sine of the largest principal angle between two subspaces: the
    smaller one measured against the larger, both ways for equal
    dimensions; 0 when either is zero-dimensional."""
    if U.ambient_dim != V.ambient_dim:
        raise ValueError(f"ambient dimension mismatch: {U.ambient_dim} vs {V.ambient_dim}")
    if U.dim == 0 or V.dim == 0:
        return 0.0
    if U.dim == V.dim:
        return max(_residual_sine(U, V.basis), _residual_sine(V, U.basis))
    small, big = (U, V) if U.dim < V.dim else (V, U)
    return _residual_sine(big, small.basis)


def max_angle(U: Subspace, V: Subspace) -> float:
    """The largest principal angle between two subspaces, in radians."""
    return float(np.arcsin(max_sine(U, V)))


def contains(U: Subspace, other, tol: float = 1e-8) -> bool:
    """True iff ``other`` (a Subspace or one vector) lies in U up to a
    sine of ``tol``.  Every subspace contains the zero vector and the zero
    subspace."""
    if isinstance(other, Subspace):
        if other.ambient_dim != U.ambient_dim:
            raise ValueError(f"ambient dimension mismatch: {U.ambient_dim} vs {other.ambient_dim}")
        probe = other.basis
    else:
        v = np.asarray(other).reshape(-1)
        if v.shape[0] != U.ambient_dim:
            raise ValueError(f"ambient dimension mismatch: {U.ambient_dim} vs {v.shape[0]}")
        nv = np.linalg.norm(v)
        probe = (v / nv)[:, None] if nv > 1e-300 else np.zeros((len(v), 0))
    if probe.shape[1] == 0:
        return True
    if probe.shape[1] > U.dim:
        return False
    return _residual_sine(U, probe) <= tol


def state_gap(phi, phibar, x, cfg: OracleConfig | None = None) -> float:
    """The oracle's worst normalized divergence of the two natural
    responses from one nonzero state x (``oracle._gap_columns`` on x / ||x||):
    the larger of the time-grid and the matrix-power checks."""
    x = np.asarray(x, dtype=float).reshape(-1)
    gaps, _ = _gap_columns(phi, phibar, (x / np.linalg.norm(x))[:, None], cfg or OracleConfig())
    return float(gaps[0])
