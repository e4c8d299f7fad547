"""The benchmark's own checks: the gate accepts a right answer and rejects
wrong ones, the tracer sees calls under every name, and inputs depend on
the seed alone.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from inputs import (PAPER_A, PAPER_B, PAPER_EDGES, PAPER_VARIED_EDGES,  # noqa: E402
                    apply_link, make_plan, random_dynamics, ring_with_chords)
from netdiscern import NodeDynamics, shared_modal_subspace  # noqa: E402
from tracer import Tracer  # noqa: E402

# Outside the certified range (README.md): with paper dynamics the stacked
# kernel returns 38 dimensions here, 2 too many, with invariance residual
# ~1e-3.
KNOWN_WRONG_N = 22
# The paper dynamics' network-invariant mode: A v = v, B v = 0.
PAPER_MODE = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)


def stacked_kernel(phi, phibar):
    """The program's stacked-kernel construction, in NumPy alone: the
    kernel of the unit-Frobenius blocks Delta Phi^k, k < dim Phi, at
    relative singular-value cutoff 1e-10."""
    R, blocks = phi - phibar, []
    for _ in range(phi.shape[0]):
        R = R / np.linalg.norm(R)
        blocks.append(R)
        R = R @ phi
    _, s, vt = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    return vt[int(np.sum(s > 1e-10 * s[0])):].T


def _paper_case(N, edges, varied):
    L, Lbar = gate.laplacian(N, edges), gate.laplacian(N, varied)
    return L, Lbar, gate.transition(PAPER_A, PAPER_B, L), gate.transition(PAPER_A, PAPER_B, Lbar)


@pytest.fixture(scope="module")
def shared_case():
    L, Lbar, phi, phibar = _paper_case(4, PAPER_EDGES, PAPER_VARIED_EDGES)
    S = np.asarray(shared_modal_subspace(NodeDynamics(PAPER_A, PAPER_B), L, Lbar).basis)
    return phi, phibar, S


def test_gate_accepts_shared_modal_span(shared_case):
    phi, phibar, S = shared_case
    cert = gate.certificate(phi, phibar, S, S)
    assert S.shape[1] == 6
    assert cert["failed"] == [], cert


def test_gate_rejects_rotated_span(shared_case):
    phi, phibar, S = shared_case
    # Rotate one basis vector by 1e-6 rad towards the direction Delta
    # amplifies most; that direction is orthogonal to kernel(Delta) ⊇ S.
    u = np.linalg.svd(phi - phibar)[2][0]
    Q = S.copy()
    Q[:, 0] = np.cos(1e-6) * S[:, 0] + np.sin(1e-6) * u
    cert = gate.certificate(phi, phibar, Q, S)
    assert cert["orthonormality"] <= gate.CERT_TOL
    assert "containment" in cert["failed"], cert
    assert "shared_sine" in cert["failed"], cert


def test_gate_rejects_invariant_subspace_that_is_too_small():
    # The invariant-mode fan e_p (x) v is Phi-invariant and inside
    # kernel(Delta), but only 4 of the 6 indiscernible dimensions; a
    # matching "shared" span hides it from every check but the dimension.
    L, Lbar, phi, phibar = _paper_case(4, PAPER_EDGES, PAPER_VARIED_EDGES)
    fan = np.kron(np.eye(4), PAPER_MODE[:, None])
    cert = gate.certificate(phi, phibar, fan, fan)
    assert (cert["dim"], cert["own_dim"]) == (4, 6)
    assert cert["failed"] == ["dim"], cert


def test_gate_rejects_stacked_kernel_at_known_wrong_size():
    N = KNOWN_WRONG_N
    edges = ring_with_chords(N)
    varied = apply_link(edges, {"kind": "remove_edge", "i": edges[0][0], "j": edges[0][1]})
    _, _, phi, phibar = _paper_case(N, edges, varied)
    Q = stacked_kernel(phi, phibar)
    cert = gate.certificate(phi, phibar, Q, Q[:, :0])
    assert "invariance" in cert["failed"], cert


def test_corrected_verdict():
    # The paper's invariant mode puts eigenvalue 1 in every A - alpha*B.
    L, Lbar = gate.laplacian(4, PAPER_EDGES), gate.laplacian(4, PAPER_VARIED_EDGES)
    assert gate.corrected_verdict(PAPER_A, PAPER_B, L, Lbar) == "violated"
    A, B = random_dynamics(np.random.default_rng(0))
    edges = ring_with_chords(5)
    varied = apply_link(edges, {"kind": "remove_edge", "i": edges[0][0], "j": edges[0][1]})
    assert gate.corrected_verdict(A, B, gate.laplacian(5, edges),
                                  gate.laplacian(5, varied)) == "holds"


def test_tracer_sees_every_lookup_name_and_restores():
    import netdiscern
    from netdiscern import cli, discernibility, linalg, network, oracle

    originals = (linalg.kernel, linalg.expm, discernibility.analyze)
    tracer = Tracer()
    tracer.install()
    try:
        assert discernibility.kernel is network.kernel is linalg.kernel is not originals[0]
        assert oracle.expm is linalg.expm is not originals[1]
        assert cli.analyze is netdiscern.analyze is not originals[2]
        L, Lbar = gate.laplacian(4, PAPER_EDGES), gate.laplacian(4, PAPER_VARIED_EDGES)
        cli.analyze(NodeDynamics(PAPER_A, PAPER_B), L, Lbar)
    finally:
        tracer.uninstall()
    assert (linalg.kernel, linalg.expm, discernibility.analyze) == originals
    assert discernibility.kernel is originals[0]
    summary = tracer.summary()
    assert summary["discernibility.analyze.calls"] == 1
    assert summary["discernibility.indiscernible_subspace.calls"] == 1
    assert summary["linalg.kernel.calls"] > 1  # via discernibility, network and linalg
    assert summary["linalg.kernel.u_bytes"] > 0
    assert summary["oracle.validate_subspace.calls"] == 0
    analyze_span = summary["discernibility.analyze.s"]
    assert 0 <= summary["discernibility.analyze.self_s"] < analyze_span


@pytest.mark.parametrize("workload", ["screen", "oneshot", "validate"])
def test_inputs_depend_on_seed_alone(workload):
    configs = lambda seed: [c.config for c in make_plan(workload, seed)]  # noqa: E731
    assert configs(3) == configs(3)
    assert configs(3) != configs(4)
