"""Acceptance suite: one test per shipped criterion, each printing a
pass line with its measured numbers.  Run with `pytest -s tests/test_acceptance.py`
to see the lines; every criterion pins its stated tolerance.
"""

import json

import numpy as np
import pytest

from netdiscern import (
    NodeDynamics,
    OracleConfig,
    Subspace,
    assemble_transition,
    corrected_condition,
    eig,
    indiscernible_subspace,
    laplacian,
    network_invariant_modes,
    subspace_intersect,
    sync_manifold,
    validate_subspace,
)
from netdiscern.cli import canonical_json, main
from netdiscern.example import EXAMPLE_A, EXAMPLE_B, example_config
from netdiscern.network import unobservable_subspace

from conftest import max_angle, multiplicity_of, random_graph, random_instance, spectrum_values

P2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.fixture(scope="module")
def random_suite():
    """200 random desk-scale instances (N <= 5, n <= 4) with the modal
    algorithm, the stacked reference (the m^2 x m stack of the whole
    network) and a full oracle validation run on each."""
    rng = np.random.default_rng(20260810)
    cfg = OracleConfig(sample_count=100, seed=99)
    cases = []
    for _ in range(200):
        dyn, L, Lbar = random_instance(rng)
        s1 = assemble_transition(dyn, L)
        s2 = assemble_transition(dyn, Lbar)
        V = indiscernible_subspace(dyn, L, Lbar)
        W = unobservable_subspace(s1.phi - s2.phi, s1.phi)
        summary = validate_subspace(s1, s2, V, cfg)
        cases.append({"modal": V, "stacked": W, "summary": summary})
    return cases


def test_criterion_01_laplacian_spectra(demo):
    values = np.sort(spectrum_values(eig(demo.L)).real)
    assert np.allclose(values, [0.0, 1.0, 3.0, 4.0], atol=1e-9, rtol=0)
    expected = np.array([0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
    values_bar = np.sort(spectrum_values(eig(demo.Lbar)).real)
    assert np.allclose(values_bar, expected, atol=1e-9, rtol=0)
    assert np.allclose(np.round(values_bar, 2), [0.0, 0.59, 2.0, 3.41])
    print("\nPASS 1: spectra {0,1,3,4} and {0, 2-sqrt2, 2, 2+sqrt2} within 1e-9")


def test_criterion_02_controllability(demo):
    ctrb = np.hstack([EXAMPLE_B, EXAMPLE_A @ EXAMPLE_B, EXAMPLE_A @ EXAMPLE_A @ EXAMPLE_B])
    rank = np.linalg.matrix_rank(ctrb)
    assert rank == 3
    print("PASS 2: controllability matrix [B, AB, A^2B] has rank 3")


def test_criterion_03_shared_sync_modes(demo):
    a_values = np.sort(spectrum_values(eig(EXAMPLE_A)).real)
    assert np.allclose(a_values, [0.0, 1.0, 7.0], atol=1e-9, rtol=0)
    spec_a = eig(EXAMPLE_A)
    for phi in (demo.phi.phi, demo.phibar.phi):
        scale = np.linalg.norm(phi, 2)
        for pair in spec_a.eigenpairs:
            w = pair.vectors[:, 0]
            x = np.kron(np.ones(4), w)
            assert np.linalg.norm(phi @ x - pair.value * x) <= 1e-9 * scale * np.linalg.norm(x)
    print("PASS 3: spec(A) = {0,1,7}; both networks carry eigenpairs (lambda, 1 (x) w)")


def test_criterion_04_multiplicity_four(demo):
    m1 = multiplicity_of(eig(demo.phi.phi), 1.0)
    m2 = multiplicity_of(eig(demo.phibar.phi), 1.0)
    assert m1 == 4 and m2 == 4
    print("PASS 4: eigenvalue 1 has algebraic multiplicity exactly 4 in both networks")


def test_criterion_05_six_dimensional_subspace(demo):
    V = indiscernible_subspace(demo.dyn, demo.L, demo.Lbar)
    assert V.dim == 6
    sync = np.kron(np.ones((4, 1)) / 2.0, np.eye(3))
    fan = np.kron(np.eye(4), np.array([[0.0], [1.0], [1.0]]) / np.sqrt(2.0))
    expected = Subspace.from_spanning(np.hstack([sync, fan]))
    angle = max_angle(V, expected)
    assert expected.dim == 6
    assert angle <= 1e-7
    print(f"PASS 5: indiscernible dim 6 = sync + mode fan (max angle {angle:.2e})")


def test_criterion_06_mode_detection(demo):
    modes = network_invariant_modes(demo.dyn)
    assert len(modes) == 1
    mode = modes[0]
    assert abs(mode.value - 1.0) <= 1e-10
    target = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    assert abs(abs(np.dot(np.real(mode.vector), target)) - 1.0) <= 1e-10
    ra = np.linalg.norm(EXAMPLE_A @ mode.vector - mode.vector)
    rb = np.linalg.norm(EXAMPLE_B @ mode.vector)
    assert ra <= 1e-10 and rb <= 1e-10
    print(f"PASS 6: one invariant mode (1, [0,1,1]/sqrt2), residuals {ra:.1e}/{rb:.1e}")


def test_criterion_07_corrected_condition(demo):
    violated = corrected_condition(demo.dyn, demo.L, demo.Lbar)
    assert not violated.holds
    at_one = [alphas for lam, alphas in violated.collisions if abs(lam - 1.0) < 1e-6]
    assert [len(alphas) for alphas in at_one] == [7]  # all 21 pairs of 7 alphas

    dyn = NodeDynamics(np.diag([1.0, 10.0]), np.eye(2))
    held = corrected_condition(dyn, P2, 0.5 * P2)
    assert held.holds
    s1 = assemble_transition(dyn, P2)
    s2 = assemble_transition(dyn, 0.5 * P2)
    V = indiscernible_subspace(dyn, P2, 0.5 * P2)
    assert V.dim == 2
    sync = sync_manifold(2, 2)
    assert V.dim == sync.dim and max_angle(V, sync) <= 1e-7
    summary = validate_subspace(s1, s2, V, OracleConfig(seed=77))
    assert summary.passed
    print("PASS 7: condition violated at lambda=1 for all 21 alpha pairs; "
          "holds on diag(1,10) with sync-only subspace (oracle-validated)")


def test_criterion_08_every_variation_keeps_extra_states(tmp_path):
    config = example_config(validate=False)
    config["variation"] = {"enumerate": {"kinds": ["remove_edge", "add_edge"]}}
    path = tmp_path / "enum.json"
    path.write_text(canonical_json(config))
    out = tmp_path / "out"
    assert main(["enumerate", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "variations.json").read_text())["rows"]
    assert len(rows) == 6
    assert all(row["extra_dim"] >= 3 for row in rows)
    print("PASS 8: all 6 single-link variations keep extra_dim >= 3 "
          f"(values {[row['extra_dim'] for row in rows]})")


def test_criterion_09_algorithm_cross_check(demo, random_suite):
    V = indiscernible_subspace(demo.dyn, demo.L, demo.Lbar)
    W = unobservable_subspace(demo.phi.phi - demo.phibar.phi, demo.phi.phi)
    worst = max_angle(V, W)
    assert V.dim == W.dim
    for case in random_suite:
        assert case["modal"].dim == case["stacked"].dim
        angle = max_angle(case["modal"], case["stacked"])
        worst = max(worst, angle)
    assert worst <= 1e-7
    print(f"PASS 9: modal and stacked subspaces agree on 200 random instances "
          f"(worst angle {worst:.2e})")


def test_criterion_10_oracle_equivalence(random_suite):
    worst_in = 0.0
    worst_out = np.inf
    for case in random_suite:
        summary = case["summary"]
        assert summary.inside_pass == summary.inside_total
        assert summary.outside_pass == summary.outside_total
        worst_in = max(worst_in, summary.inside_worst_gap)
        if summary.outside_worst_gap is not None:
            worst_out = min(worst_out, summary.outside_worst_gap)
    assert worst_in <= 1e-7
    assert worst_out > 1e-7
    print(f"PASS 10: zero oracle misclassifications over 200 instances "
          f"(inside <= {worst_in:.2e}, outside >= {worst_out:.2e})")


def test_criterion_11_property_suite(demo):
    rng = np.random.default_rng(1100)

    # Laplacian row sums exactly zero; positive semidefinite at 1e-10
    for _ in range(1000):
        g = random_graph(rng, int(rng.integers(2, 11)))
        L = laplacian(g)
        assert np.all(L @ np.ones(g.node_count) == 0.0)
    for _ in range(200):
        L = laplacian(random_graph(rng, int(rng.integers(2, 11))))
        assert np.linalg.eigvalsh(L).min() >= -1e-10

    # dim(U+V) + dim(U∩V) == dim U + dim V, U+V spanned by both bases
    for _ in range(100):
        m = int(rng.integers(2, 13))
        p = int(rng.integers(0, m + 1))
        q = int(rng.integers(0, m + 1))
        U = Subspace.from_spanning(rng.standard_normal((m, p))) if p else Subspace.zero(m)
        V = Subspace.from_spanning(rng.standard_normal((m, q))) if q else Subspace.zero(m)
        total = Subspace.from_spanning(np.hstack([U.basis, V.basis])).dim
        assert total + subspace_intersect(U, V).dim == U.dim + V.dim

    # Kronecker eigenvector identity on random symmetric couplings
    for _ in range(25):
        N = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        dyn = NodeDynamics(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        L = laplacian(random_graph(rng, N))
        phi = assemble_transition(dyn, L).phi
        scale = max(1.0, np.linalg.norm(phi, 2))
        alphas, Vl = np.linalg.eigh(L)
        for i, alpha in enumerate(alphas):
            w_vals, W = np.linalg.eig(dyn.A - alpha * dyn.B)
            for j, lam in enumerate(w_vals):
                x = np.kron(Vl[:, i], W[:, j])
                assert np.linalg.norm(phi @ x - lam * x) <= 1e-9 * scale

    # invariant-mode identity for random coefficient vectors and Laplacians
    mode = network_invariant_modes(demo.dyn)[0]
    for _ in range(25):
        L = laplacian(random_graph(rng, 4))
        phi = assemble_transition(demo.dyn, L).phi
        a = rng.standard_normal(4)
        x = np.kron(a, mode.vector)
        resid = np.linalg.norm(phi @ x - mode.value * x)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(phi, 2)) * np.linalg.norm(x)

    print("PASS 11: property suite (row sums, PSD, dimension identity, "
          "Kronecker and invariant-mode identities) at stated tolerances")
