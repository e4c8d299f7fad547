"""Bundled demonstration network: four nodes with three-state dynamics.

The node pair (A, B) below carries a network-invariant mode (eigenvalue 1
with eigenvector [0, 1, 1], annihilated by B), so every topology variation
of the base graph leaves a four-dimensional fan of indiscernible states on
top of the synchronous manifold.  The shipped variation removes edge (1,3),
turning the base graph into the path 1-2-3-4.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .network import NodeDynamics

EXAMPLE_A = np.array(
    [
        [7.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
    ]
)

EXAMPLE_B = np.array(
    [
        [1.0, 1.0, -1.0],
        [0.0, -1.0, 1.0],
        [0.0, 0.0, 0.0],
    ]
)


def example_dynamics() -> NodeDynamics:
    return NodeDynamics(EXAMPLE_A, EXAMPLE_B)


def example_graph() -> Graph:
    """Base topology: triangle 1-2-3 with a pendant node 4 on node 3."""
    return Graph(4, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 1.0)))


def example_modified_graph() -> Graph:
    """The varied topology: the base graph with edge (1,3) removed."""
    return Graph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))


def example_config(validate: bool = True) -> dict:
    """The bundled scenario in the CLI's JSON config schema."""
    base = example_graph()
    varied = example_modified_graph()
    return {
        "node_dynamics": {
            "n": 3,
            "A": [x for row in EXAMPLE_A.tolist() for x in row],
            "B": [x for row in EXAMPLE_B.tolist() for x in row],
        },
        "base_graph": {
            "nodes": base.node_count,
            "edges": [{"i": i, "j": j, "w": w} for i, j, w in base.edges],
        },
        "variation": {
            "modified_graph": {
                "nodes": varied.node_count,
                "edges": [{"i": i, "j": j, "w": w} for i, j, w in varied.edges],
            }
        },
        "options": {"validate": validate},
    }
