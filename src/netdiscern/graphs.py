"""Weighted undirected graphs, Laplacians, and single-link variations."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

VARIATION_KINDS = ("remove_edge", "add_edge", "reweight_edge", "disconnect_node")


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes 1..node_count.

    Edges are stored canonically: endpoints ordered (i < j), the list
    sorted by (i, j).  No self-loops, no duplicate pairs, weights > 0.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        canon = []
        seen = set()
        for edge in self.edges:
            if len(edge) == 2:
                i, j = edge
                w = 1.0
            else:
                i, j, w = edge
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.node_count}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            if not math.isfinite(w):
                raise ValueError(f"edge ({i},{j}) has non-finite weight {w}")
            if not w > 0:
                raise ValueError(f"edge ({i},{j}) has nonpositive weight {w}")
            seen.add((i, j))
            canon.append((i, j, w))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    def has_edge(self, i: int, j: int) -> bool:
        i, j = min(i, j), max(i, j)
        return any(e[0] == i and e[1] == j for e in self.edges)

    def absent_pairs(self) -> list[tuple[int, int]]:
        present = {(e[0], e[1]) for e in self.edges}
        return [
            (i, j)
            for i, j in itertools.combinations(range(1, self.node_count + 1), 2)
            if (i, j) not in present
        ]

    def with_edge_removed(self, i: int, j: int) -> "Graph":
        i, j = min(i, j), max(i, j)
        if not self.has_edge(i, j):
            raise ValueError(f"cannot remove: no edge ({i},{j})")
        kept = tuple(e for e in self.edges if (e[0], e[1]) != (i, j))
        return Graph(self.node_count, kept)

    def with_edge_added(self, i: int, j: int, w: float = 1.0) -> "Graph":
        if self.has_edge(i, j):
            raise ValueError(f"cannot add: edge ({min(i,j)},{max(i,j)}) exists")
        return Graph(self.node_count, self.edges + ((i, j, w),))

    def with_edge_reweighted(self, i: int, j: int, w: float) -> "Graph":
        i, j = min(i, j), max(i, j)
        if not self.has_edge(i, j):
            raise ValueError(f"cannot reweight: no edge ({i},{j})")
        new = tuple((a, b, w if (a, b) == (i, j) else wt) for a, b, wt in self.edges)
        return Graph(self.node_count, new)

    def with_node_disconnected(self, node: int) -> "Graph":
        """Remove all edges incident to ``node``; the node itself stays so
        the network keeps its state dimension."""
        if not (1 <= node <= self.node_count):
            raise ValueError(f"node {node} out of range")
        kept = tuple(e for e in self.edges if node not in (e[0], e[1]))
        return Graph(self.node_count, kept)

    def adjacency(self) -> np.ndarray:
        W = np.zeros((self.node_count, self.node_count))
        for i, j, w in self.edges:
            W[i - 1, j - 1] = w
            W[j - 1, i - 1] = w
        return W


def laplacian(g: Graph) -> np.ndarray:
    """Weighted graph Laplacian: degree on the diagonal, negated edge
    weights off it.  Rows sum to zero by construction.  Finite weights can
    still sum to a degree past float64; that raises ValueError."""
    W = g.adjacency()
    with np.errstate(over="ignore"):
        degrees = W.sum(axis=1)
    if not np.all(np.isfinite(degrees)):
        raise ValueError("the weighted degrees overflow float64")
    return np.diag(degrees) - W


def validate_laplacian(L, tol: float = 1e-12) -> np.ndarray:
    """Check the Laplacian invariants: square, finite, symmetric, zero row
    sums and nonpositive off the diagonal, the last three to an absolute
    ``tol * max(1, max |L_ij|)``.  Returns L as a float array; raises
    ValueError on a violation."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"Laplacian must be square, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise ValueError("Laplacian entries must be finite")
    scale = max(1.0, float(np.max(np.abs(L), initial=0.0)))
    if np.abs(L - L.T).max(initial=0.0) > tol * scale:
        raise ValueError("Laplacian is not symmetric")
    rowsum = np.abs(L @ np.ones(L.shape[0]))
    if rowsum.size and rowsum.max() > tol * scale:
        raise ValueError(f"Laplacian rows do not sum to zero (max {rowsum.max():.3e})")
    off = L - np.diag(np.diag(L))
    if off.size and off.max(initial=0.0) > tol * scale:
        raise ValueError("Laplacian has positive off-diagonal entries")
    return L


@dataclass(frozen=True)
class LinkVariation:
    """A single-link topology change: remove/add/reweight one edge, or
    disconnect one node (drop all its incident edges, keep the node)."""

    kind: str
    target: tuple[int, int] | int
    new_weight: float | None = None

    def __post_init__(self):
        if self.kind not in VARIATION_KINDS:
            raise ValueError(f"unknown variation kind {self.kind!r}")
        if self.kind == "disconnect_node":
            if not isinstance(self.target, int):
                raise ValueError("disconnect_node target must be a node index")
        else:
            i, j = self.target  # type: ignore[misc]
            object.__setattr__(self, "target", (min(i, j), max(i, j)))
        if self.kind in ("add_edge", "reweight_edge") and self.new_weight is not None:
            if not math.isfinite(self.new_weight):
                raise ValueError(f"new_weight must be finite, got {self.new_weight}")
            if not self.new_weight > 0:
                raise ValueError("new_weight must be positive")

    def apply(self, g: Graph) -> Graph:
        if self.kind == "remove_edge":
            return g.with_edge_removed(*self.target)
        if self.kind == "add_edge":
            w = 1.0 if self.new_weight is None else self.new_weight
            return g.with_edge_added(*self.target, w)
        if self.kind == "reweight_edge":
            if self.new_weight is None:
                raise ValueError("reweight_edge requires new_weight")
            return g.with_edge_reweighted(*self.target, self.new_weight)
        return g.with_node_disconnected(self.target)  # disconnect_node

    def describe(self) -> str:
        """The row label: the weight in ``:g`` form when that reads back as
        the weight, and its ``repr`` otherwise, so no label names another
        weight."""
        if self.kind == "disconnect_node":
            return f"disconnect_node({self.target})"
        i, j = self.target
        if self.new_weight is not None:
            w = f"{self.new_weight:g}"
            if float(w) != self.new_weight:
                w = repr(self.new_weight)
            return f"{self.kind}({i},{j},w={w})"
        return f"{self.kind}({i},{j})"


def enumerate_single_link_variations(
    g: Graph,
    kinds: set[str] | tuple[str, ...] | list[str],
    reweight_to: float | None = None,
) -> Iterator[tuple[LinkVariation, Graph, np.ndarray]]:
    """All single-link variations of the requested kinds, in deterministic
    order (kind, then node indices).  Added links default to weight 1;
    reweighting needs an explicit ``reweight_to``.  Each entry carries the
    varied graph and its Laplacian.

    The kinds, ``reweight_to`` and the degrees of every reweighted graph
    are checked here, at the call: reweighting is the one kind that can
    raise a degree past float64 (an added link weighs 1).  The entries are
    yielded one by one, each built when it is read, so a caller that keeps
    only what it reports holds one varied graph at a time."""
    if not all(isinstance(kind, str) for kind in kinds):
        raise ValueError(f"variation kinds must be strings, got {list(kinds)!r}")
    kinds = set(kinds)
    unknown = kinds - set(VARIATION_KINDS)
    if unknown:
        raise ValueError(f"unknown variation kinds: {sorted(unknown)}")
    if "reweight_edge" in kinds and reweight_to is None:
        raise ValueError("reweight_edge enumeration requires reweight_to")

    variations: list[LinkVariation] = []
    if "remove_edge" in kinds:
        for i, j, _ in g.edges:
            variations.append(LinkVariation("remove_edge", (i, j)))
    if "add_edge" in kinds:
        for i, j in g.absent_pairs():
            variations.append(LinkVariation("add_edge", (i, j), 1.0))
    if "reweight_edge" in kinds:
        for i, j, _ in g.edges:
            variations.append(LinkVariation("reweight_edge", (i, j), reweight_to))
            laplacian(variations[-1].apply(g))  # raises now if its degrees overflow
    if "disconnect_node" in kinds:
        touched = sorted({v for i, j, _ in g.edges for v in (i, j)})
        for node in touched:
            variations.append(LinkVariation("disconnect_node", node))

    def entries():
        for var in variations:
            varied = var.apply(g)
            yield var, varied, laplacian(varied)

    return entries()
