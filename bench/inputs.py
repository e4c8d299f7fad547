"""Seeded inputs for the netdiscern benchmark.

Everything the program under test receives is a config file written from
what this module builds; the seed alone decides the inputs.  The gate
rebuilds the transition matrices from the same objects, never from the
program's own helpers.

Sizes stay inside the range where the current stacked-kernel algorithm
certifies for every seed (see README.md, "Certified range"): paper
dynamics up to N = 12, random dynamics up to N = 6.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

# The paper's node dynamics: a controllable pair (A, B) with a
# network-invariant mode at eigenvalue 1, mode vector [0, 1, 1].
PAPER_A = np.array([[7.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
PAPER_B = np.array([[1.0, 1.0, -1.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])

# The paper's four-node example: triangle 1-2-3 with pendant 4; the
# variation removes edge (1,3).
PAPER_EDGES = ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0))
PAPER_VARIED_EDGES = ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))

# Multiples of 1/16 in [0.5, 2]: exact in binary, so Laplacian row sums
# cancel exactly.
DYADIC_WEIGHTS = np.arange(8, 33) / 16.0
RANDOM_COND_LIMIT = 100.0
KINDS = ("remove_edge", "add_edge", "reweight_edge", "disconnect_node")

SCREEN_N = 12
VALIDATE_N = 8
# oneshot: per pass, 10 calls at each paper size and 10 at each random
# size, the variation kinds cycling in a fixed order; the schedule is
# fixed so every seed does about the same amount of work.
ONESHOT_PAPER_SIZES = (6, 8, 10, 12)
ONESHOT_RANDOM_SIZES = (5, 6)
ONESHOT_PER_SIZE = 10

Edges = tuple[tuple[int, int, float], ...]


def ring_with_chords(N: int) -> Edges:
    """C_N (unit weights) plus a chord from every third node to the node
    N // 2 steps ahead; nodes are 1-based, edges sorted with i < j."""
    pairs = {tuple(sorted((i, (i + 1) % N))) for i in range(N)}
    pairs |= {tuple(sorted((i, (i + N // 2) % N))) for i in range(0, N, 3)}
    return tuple(sorted((i + 1, j + 1, 1.0) for i, j in pairs if i != j))


def relabel(edges: Edges, N: int, rng: np.random.Generator) -> Edges:
    """Apply a random permutation of the node labels."""
    perm = rng.permutation(N) + 1
    out = []
    for i, j, w in edges:
        a, b = int(perm[i - 1]), int(perm[j - 1])
        out.append((min(a, b), max(a, b), w))
    return tuple(sorted(out))


def random_dynamics(rng: np.random.Generator, n: int = 3):
    """Uniform (A, B) on [-1, 1] with cond(B) < RANDOM_COND_LIMIT, so B is
    invertible and the network has no invariant mode."""
    A = rng.uniform(-1.0, 1.0, (n, n))
    while True:
        B = rng.uniform(-1.0, 1.0, (n, n))
        if np.linalg.cond(B) < RANDOM_COND_LIMIT:
            return A, B


def absent_pairs(N: int, edges: Edges) -> list[tuple[int, int]]:
    present = {(i, j) for i, j, _ in edges}
    return [p for p in itertools.combinations(range(1, N + 1), 2) if p not in present]


def apply_link(edges: Edges, link: dict) -> Edges:
    """The varied edge list for one single-link change (config schema)."""
    kind = link["kind"]
    if kind == "disconnect_node":
        node = link["node"]
        return tuple(e for e in edges if node not in (e[0], e[1]))
    target = (link["i"], link["j"])
    rest = tuple(e for e in edges if (e[0], e[1]) != target)
    if kind == "remove_edge":
        return rest
    return tuple(sorted(rest + ((*target, float(link.get("w", 1.0))),)))


def random_link(rng: np.random.Generator, N: int, edges: Edges, kind: str) -> dict:
    """One random single-link change of the given kind."""
    if kind == "disconnect_node":
        return {"kind": kind, "node": int(rng.integers(1, N + 1))}
    if kind == "add_edge":
        pairs = absent_pairs(N, edges)
        i, j = pairs[int(rng.integers(len(pairs)))]
        return {"kind": kind, "i": i, "j": j, "w": float(rng.choice(DYADIC_WEIGHTS))}
    i, j, w = edges[int(rng.integers(len(edges)))]
    if kind == "remove_edge":
        return {"kind": kind, "i": i, "j": j}
    other = DYADIC_WEIGHTS[DYADIC_WEIGHTS != w]
    return {"kind": kind, "i": i, "j": j, "w": float(rng.choice(other))}


def enumerated_links(N: int, edges: Edges) -> list[tuple[str, Edges]]:
    """The remove_edge + add_edge variations in the order the enumerate
    subcommand documents (kind, then node indices), with the row label it
    prints."""
    out = [(f"remove_edge({i},{j})", apply_link(edges, {"kind": "remove_edge", "i": i, "j": j}))
           for i, j, _ in edges]
    out += [(f"add_edge({i},{j},w=1)", apply_link(edges, {"kind": "add_edge", "i": i, "j": j}))
            for i, j in absent_pairs(N, edges)]
    return out


@dataclass
class Call:
    """One CLI invocation of a pass, with the data the gate needs."""

    command: str                     # analyze | enumerate | paper-example
    flags: list[str]
    A: np.ndarray
    B: np.ndarray
    N: int
    edges: Edges
    varied: list[tuple[str, Edges]]  # (row label, varied edges); one per analysis
    validate: bool = False
    config: dict | None = None
    config_path: str | None = None

    @property
    def ops(self) -> int:
        """Operations: one per analysis or enumerate row, plus one per
        oracle check."""
        return len(self.varied) * (2 if self.validate else 1)


def _config(A, B, N: int, edges: Edges, variation: dict) -> dict:
    return {
        "node_dynamics": {"n": A.shape[0], "A": A.reshape(-1).tolist(),
                          "B": B.reshape(-1).tolist()},
        "base_graph": {"nodes": N,
                       "edges": [{"i": i, "j": j, "w": w} for i, j, w in edges]},
        "variation": variation,
    }


def _enumerate_call(rng, N: int, seed: int, validate: bool) -> Call:
    edges = relabel(ring_with_chords(N), N, rng)
    flags = ["--jobs", "1"] + (["--validate", "--seed", str(seed)] if validate else [])
    config = _config(PAPER_A, PAPER_B, N, edges,
                     {"enumerate": {"kinds": ["remove_edge", "add_edge"]}})
    return Call("enumerate", flags, PAPER_A, PAPER_B, N, edges,
                enumerated_links(N, edges), validate, config)


def _oneshot_calls(rng) -> list[Call]:
    schedule = [("paper", N) for N in ONESHOT_PAPER_SIZES]
    schedule += [("random", N) for N in ONESHOT_RANDOM_SIZES]
    calls = []
    for k in range(ONESHOT_PER_SIZE):
        for dynamics, N in schedule:
            A, B = (PAPER_A, PAPER_B) if dynamics == "paper" else random_dynamics(rng)
            edges = relabel(ring_with_chords(N), N, rng)
            link = random_link(rng, N, edges, KINDS[k % len(KINDS)])
            config = _config(A, B, N, edges, {"link": link})
            calls.append(Call("analyze", ["--jobs", "1"], A, B, N, edges,
                              [(link["kind"], apply_link(edges, link))], False, config))
    return calls


def make_plan(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of ``workload``, built from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    if workload == "screen":
        return [_enumerate_call(rng, SCREEN_N, seed, validate=False)]
    if workload == "oneshot":
        return _oneshot_calls(rng)
    if workload == "validate":
        return [Call("paper-example", ["--jobs", "1", "--seed", str(seed)],
                     PAPER_A, PAPER_B, 4, PAPER_EDGES,
                     [("paper-example", PAPER_VARIED_EDGES)], True),
                _enumerate_call(rng, VALIDATE_N, seed, validate=True)]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(calls: list[Call], directory: str) -> None:
    """Write each call's config file; the program sees only these files."""
    os.makedirs(directory, exist_ok=True)
    for k, call in enumerate(calls):
        if call.config is None:
            continue
        call.config_path = os.path.join(directory, f"config-{k:03d}.json")
        with open(call.config_path, "w") as fh:
            json.dump(call.config, fh)


def argv(call: Call) -> list[str]:
    """The call's CLI arguments; the worker appends ``--out``."""
    return [call.command] + ([call.config_path] if call.config_path else []) + call.flags
