"""Weighted undirected graphs, their Laplacians, and single-link variations.

One rule forms every Laplacian (``laplacian_of``): for a weight matrix W,
0.0 - W off the diagonal and 0.0 - the row sum of that on it.  A graph's
Laplacian is the rule on its weights (``laplacian``), and a single-link
variation is an edit of those weights, read back from the base Laplacian
(``LinkVariation.apply``): no varied graph is built.
"""

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

    def adjacency(self) -> np.ndarray:
        W = np.zeros((self.node_count, self.node_count))
        for i, j, w in self.edges:
            W[i - 1, j - 1] = w
            W[j - 1, i - 1] = w
        return W


def laplacian_of(W: np.ndarray) -> np.ndarray:
    """The Laplacian rule, for one weight matrix W or a stack of them:
    0.0 - W off the diagonal and 0.0 - the row sum of that on it; W's own
    diagonal is not read.  Rows sum to zero up to the roundoff of their
    own entries, and the ``0.0 -`` keeps +0.0 where a row has no weight.
    Finite weights can still sum past float64; that raises ValueError."""
    M = 0.0 - W
    i = np.arange(M.shape[-1])
    M[..., i, i] = 0.0
    M[..., i, i] = _degrees(M)
    return M


def _degrees(M: np.ndarray) -> np.ndarray:
    """The rule's diagonal of rows M of 0.0 - W with 0.0 on the diagonal."""
    with np.errstate(over="ignore"):
        sums = np.add.reduce(M, axis=-1)
    if not np.isfinite(sums).all():
        raise ValueError("the weighted degrees overflow float64")
    return 0.0 - sums


def laplacian(g: Graph) -> np.ndarray:
    """The weighted graph Laplacian: ``laplacian_of`` g's weights."""
    return laplacian_of(g.adjacency())


def validate_laplacian(L, tol: float = 1e-12) -> np.ndarray:
    """Check the Laplacian invariants of L or of each of a stack: square,
    finite, symmetric, zero row sums and nonpositive off the diagonal, the
    last three to an absolute ``tol * max(1, max |L_ij|)``.  Returns L as
    floats; raises ValueError at the first bad matrix's first violation."""
    L = np.asarray(L, dtype=float)
    stack = L if L.ndim == 3 else L[None]
    if L.ndim not in (2, 3) or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"Laplacian must be square, got shape {stack.shape[1:]}")
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack = np.where(finite[:, None, None], stack, 0.0)  # a non-finite one fails first
    bound = tol * np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0.0))
    rowsum = np.abs(stack @ np.ones(stack.shape[1])).max(axis=1, initial=0.0)
    skew = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    off = stack.max(axis=(1, 2), initial=0.0, where=~np.eye(stack.shape[1], dtype=bool))
    fails = np.array([~finite, skew > bound, rowsum > bound, off > bound])
    if fails.any():
        row = int(fails.any(axis=0).argmax())
        raise ValueError(("Laplacian entries must be finite", "Laplacian is not symmetric",
                          f"Laplacian rows do not sum to zero (max {rowsum[row]:.3e})",
                          "Laplacian has positive off-diagonal entries")[fails[:, row].argmax()])
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

    def apply(self, L: np.ndarray) -> np.ndarray:
        """Lbar for L = laplacian(g): g's weights, read off L (an edge is a
        nonzero entry off the diagonal), edited, under ``laplacian_of``'s
        rule, which for a link changes only its entries and its nodes'
        degrees.  Raises ValueError when the edit does not fit g (an absent
        edge to remove or reweight, a present one to add, a self-loop, a
        node out of range) or the degrees overflow."""
        Lbar = np.array(L, dtype=float)
        N = Lbar.shape[-1]
        if self.kind == "disconnect_node":
            node = self.target
            if not 1 <= node <= N:
                raise ValueError(f"node {node} out of range")
            Lbar[node - 1, :] = Lbar[:, node - 1] = 0.0
            return laplacian_of(0.0 - Lbar)
        i, j = self.target
        present = 1 <= i < j <= N and Lbar[i - 1, j - 1] != 0.0
        if self.kind == "add_edge":
            if present:
                raise ValueError(f"cannot add: edge ({i},{j}) exists")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i and j <= N):
                raise ValueError(f"edge ({i},{j}) out of range 1..{N}")
            w = 1.0 if self.new_weight is None else self.new_weight
        elif self.kind == "reweight_edge" and self.new_weight is None:
            raise ValueError("reweight_edge requires new_weight")
        elif not present:
            raise ValueError(f"cannot {self.kind.removesuffix('_edge')}: no edge ({i},{j})")
        else:
            w = 0.0 if self.kind == "remove_edge" else self.new_weight
        a, b = i - 1, j - 1
        Lbar[a, b] = Lbar[b, a] = 0.0 - w
        Lbar[a, a] = Lbar[b, b] = 0.0
        Lbar[a, a], Lbar[b, b] = _degrees(Lbar[a:b + 1:b - a])  # rows a < b
        return Lbar

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
    L: np.ndarray,
    kinds: set[str] | tuple[str, ...] | list[str],
    reweight_to: float | None = None,
) -> Iterator[tuple[LinkVariation, np.ndarray]]:
    """All single-link variations of the requested kinds of the graph g
    of L = laplacian(g), whose edges are L's nonzero entries off the
    diagonal, in deterministic order (kind, then node indices), each with
    its Laplacian Lbar.  Added links default to weight 1; reweighting
    needs an explicit ``reweight_to``.  The kinds, ``reweight_to`` and the
    degrees of every reweighted Lbar are checked at the call: reweighting
    is the one kind that can raise a degree past float64 (an added link
    weighs 1).  Each Lbar is an edit of L (``LinkVariation.apply``),
    formed when its pair is read, so a caller that keeps only what it
    reports holds one Lbar at a time."""
    if not all(isinstance(kind, str) for kind in kinds):
        raise ValueError(f"variation kinds must be strings, got {list(kinds)!r}")
    kinds = set(kinds)
    unknown = kinds - set(VARIATION_KINDS)
    if unknown:
        raise ValueError(f"unknown variation kinds: {sorted(unknown)}")
    if "reweight_edge" in kinds and reweight_to is None:
        raise ValueError("reweight_edge enumeration requires reweight_to")

    edges = [(i + 1, j + 1) for i, j in np.argwhere(np.triu(L, 1)).tolist()]
    variations: list[LinkVariation] = []
    if "remove_edge" in kinds:
        variations += [LinkVariation("remove_edge", e) for e in edges]
    if "add_edge" in kinds:
        present = set(edges)
        variations += [LinkVariation("add_edge", p, 1.0)
                       for p in itertools.combinations(range(1, len(L) + 1), 2)
                       if p not in present]
    if "reweight_edge" in kinds:
        for e in edges:
            variations.append(LinkVariation("reweight_edge", e, reweight_to))
            variations[-1].apply(L)  # raises now if its degrees overflow
    if "disconnect_node" in kinds:
        variations += [LinkVariation("disconnect_node", v)
                       for v in sorted({v for e in edges for v in e})]
    return ((var, var.apply(L)) for var in variations)
