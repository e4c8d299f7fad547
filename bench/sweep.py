"""Certified-range sweep: how large a network the current algorithm
answers correctly, per dynamics family.

    python3 bench/sweep.py

For every size and seed, the ring with chords is relabelled, one random
single-link variation is applied, the kind cycling over the seeds (the
generator the ``oneshot`` workload uses), and ``analyze`` runs.  Its basis is certified
by the benchmark's gate; the table gives the worst residuals and how many
seeds fail at the gate's threshold.  Re-run it, with the new size added to
the constants below, before adding a size to a workload.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netdiscern import NodeDynamics, analyze  # noqa: E402

import gate  # noqa: E402
from inputs import (KINDS, PAPER_A, PAPER_B, apply_link,  # noqa: E402
                    random_dynamics, random_link, relabel, ring_with_chords)

# The sizes and seed count behind the table in README.md.
SEEDS = 40
SIZES = (("paper", (6, 8, 10, 12, 14, 16, 20)), ("random", (5, 6, 8, 10, 12)))


def sweep_size(dynamics: str, N: int) -> dict:
    worst = {"invariance": 0.0, "containment": 0.0, "shared_sine": 0.0}
    failures = 0
    for seed in range(SEEDS):
        rng = np.random.default_rng([N, seed])
        A, B = (PAPER_A, PAPER_B) if dynamics == "paper" else random_dynamics(rng)
        edges = relabel(ring_with_chords(N), N, rng)
        varied = apply_link(edges, random_link(rng, N, edges, KINDS[seed % len(KINDS)]))
        L, Lbar = gate.laplacian(N, edges), gate.laplacian(N, varied)
        rep = analyze(NodeDynamics(A, B), L, Lbar)
        cert = gate.certificate(gate.transition(A, B, L), gate.transition(A, B, Lbar),
                                np.asarray(rep.indiscernible.basis),
                                np.asarray(rep.shared_modal.basis))
        for key in worst:
            worst[key] = max(worst[key], cert[key])
        failures += bool(cert["failed"])
    return {"dynamics": dynamics, "N": N, "seeds": SEEDS, "failures": failures, **worst}


def main() -> int:
    print(f"{'dynamics':8} {'N':>3} {'seeds':>5} {'failed':>6} "
          f"{'invariance':>10} {'containment':>11} {'shared_sine':>11}")
    for dynamics, sizes in SIZES:
        for N in sizes:
            r = sweep_size(dynamics, N)
            print(f"{dynamics:8} {N:>3} {r['seeds']:>5} {r['failures']:>6} "
                  f"{r['invariance']:>10.1e} {r['containment']:>11.1e} "
                  f"{r['shared_sine']:>11.1e}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
