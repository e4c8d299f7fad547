"""Trajectory oracle: gap measurement and subspace validation."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from netdiscern import (
    NodeDynamics,
    OracleConfig,
    analyze,
    assemble_transition,
    enumerate_single_link_variations,
    indiscernible_subspace,
    laplacian,
    validate_subspace,
    sync_manifold,
)
from netdiscern import oracle
from netdiscern.cli import _time_grid_from
from netdiscern.example import example_dynamics
from netdiscern.graphs import Graph
from netdiscern.linalg import Subspace, expm

from conftest import bench_inputs, random_instance, ring_with_chords, state_gap, without_first_edge

P2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(time_grid=())
    with pytest.raises(ValueError):
        OracleConfig(time_grid=(0.0, -1.0))
    with pytest.raises(ValueError):
        OracleConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        OracleConfig(sample_count=0)
    with pytest.raises(ValueError):
        OracleConfig(seed=-1)
    # a plan past its bound is refused when it is made, before any sample
    # is taken; at the bound it is accepted (and not run here)
    OracleConfig(sample_count=oracle.MAX_SAMPLE_COUNT)
    with pytest.raises(ValueError, match="sample_count must be in"):
        OracleConfig(sample_count=oracle.MAX_SAMPLE_COUNT + 1)
    for t in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            OracleConfig(time_grid=(0.0, t))
    # the sampler takes integers alone: a fractional or string count or
    # seed is refused when the plan is made, an integer of any type is kept
    for name in ("sample_count", "seed"):
        for value in (2.5, 1.5, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
                OracleConfig(**{name: value})
    cfg = OracleConfig(sample_count=np.int64(3), seed=np.int64(2))
    assert (cfg.sample_count, cfg.seed) == (3, 2)


UNSORTED_GRID = (2.5, 0.0, 1.0, 2.5, 0.3, 4.0)


def test_default_grid_runs_zero_to_five():
    cfg = OracleConfig()
    assert cfg.time_grid[0] == 0.0
    assert cfg.time_grid[-1] == 5.0
    assert len(cfg.time_grid) == 51


# ---------------------------------------------------------------------------
# trajectory gaps
# ---------------------------------------------------------------------------


def test_gap_zero_for_identical_systems(demo):
    x = np.arange(1.0, 13.0)
    assert state_gap(demo.phi, demo.phi, x) == 0.0


def test_gap_tiny_on_shared_eigenvector(demo):
    x = np.kron(np.ones(4), np.array([0.0, 1.0, 1.0]))
    assert state_gap(demo.phi, demo.phibar, x) <= 1e-9


def test_gap_large_on_first_canonical_vector(demo):
    e1 = np.zeros(12)
    e1[0] = 1.0
    assert state_gap(demo.phi, demo.phibar, e1) > 0.1


def test_gap_scale_invariance(demo):
    e1 = np.zeros(12)
    e1[0] = 1.0
    g1 = state_gap(demo.phi, demo.phibar, e1)
    g2 = state_gap(demo.phi, demo.phibar, 3.0 * e1)
    g3 = state_gap(demo.phi, demo.phibar, 1e-6 * e1)
    assert abs(g1 - g2) <= 1e-12
    assert abs(g1 - g3) <= 1e-12


def test_gap_bounded_despite_fast_modes():
    # spectral radius 10: the exponential reaches ~e^50 on the grid, and
    # normalization must keep a true invariant direction at gap ~ 0
    dyn = NodeDynamics(np.diag([1.0, 10.0]), np.eye(2))
    s1 = assemble_transition(dyn, P2)
    s2 = assemble_transition(dyn, 0.5 * P2)
    fast_sync = np.kron(np.ones(2), np.array([0.0, 1.0]))
    assert state_gap(s1, s2, fast_sync) <= 1e-9


def dense_gap_table(phi, phibar, X, grid):
    """Reference for the propagated table: both exponentials computed anew
    at every grid time."""
    out = np.zeros((len(grid), X.shape[1]))
    for row, t in enumerate(grid):
        E, Eb = expm(phi, t), expm(phibar, t)
        scale = max(1.0, np.linalg.norm(E), np.linalg.norm(Eb))
        out[row] = np.linalg.norm((E - Eb) @ X, axis=0) / scale
    return out


def sequential_gap_table(phi, phibar, X, grid):
    """Reference for the blocked table: both propagators advanced one grid
    time at a time in ascending order, each time checked and reduced on
    its own."""
    grid = np.asarray(grid, dtype=float)
    out = np.zeros((len(grid), X.shape[1]))
    E, Eb = np.eye(phi.shape[0]), np.eye(phibar.shape[0])
    steps = {}
    t_prev = 0.0
    for row in np.argsort(grid, kind="stable"):
        d = float(grid[row]) - t_prev
        t_prev = float(grid[row])
        with np.errstate(over="ignore", invalid="ignore"):
            if d:
                if d not in steps:
                    steps[d] = (expm(phi, d), expm(phibar, d))
                E, Eb = steps[d][0] @ E, steps[d][1] @ Eb
            norms = (float(np.linalg.norm(E)), float(np.linalg.norm(Eb)))
            if not np.all(np.isfinite(norms)):
                raise OverflowError(
                    f"propagated matrix exponential overflowed at t = {t_prev:g}"
                )
            out[row] = np.linalg.norm((E - Eb) @ X, axis=0) / max(1.0, *norms)
    return out


def sequential_discrete_gaps(system, systembar, X, power_range):
    """Reference for the blocked power check: one normalized iterate per
    power, with nu from its own 2-norms of the two systems' matrices."""
    phi, phibar = system.phi, systembar.phi
    nu = max(1.0, np.linalg.norm(phi, 2), np.linalg.norm(phibar, 2))
    gaps = np.zeros(X.shape[1])
    P, Pb = X.copy(), X.copy()
    for _ in range(power_range):
        P, Pb = phi @ P / nu, phibar @ Pb / nu
        gaps = np.maximum(gaps, np.linalg.norm(P - Pb, axis=0))
    return gaps


def as_system(phi):
    """A one-node network whose transition matrix is exactly ``phi``."""
    return assemble_transition(NodeDynamics(phi, np.zeros_like(phi)), np.zeros((1, 1)))


def pair_and_samples(demo, case, samples=200):
    if case == "demo":
        phi, phibar = demo.phi.phi, demo.phibar.phi
    elif case == "random":
        dyn, L, Lbar = random_instance(np.random.default_rng(7))
        phi = assemble_transition(dyn, L).phi
        phibar = assemble_transition(dyn, Lbar).phi
    else:
        # orthogonal Phi, Phibar = 0.9 Phi: the power gap 1 - 0.9^k grows
        # with k, so the last power decides the max
        phi = np.linalg.qr(np.random.default_rng(4).standard_normal((12, 12)))[0]
        phibar = 0.9 * phi
    X = np.random.default_rng(3).standard_normal((phi.shape[0], samples))
    return phi, phibar, X / np.linalg.norm(X, axis=0)


@pytest.mark.parametrize("case", ["demo", "random"])
def test_blocked_table_matches_sequential_across_blocks(demo, case):
    phi, phibar, X = pair_and_samples(demo, case)
    block = oracle._block_len(phi.shape[0], X.shape[1])
    # more than three blocks of an unsorted grid with repeated times
    times = np.round(np.linspace(0.0, 4.0, 3 * block + 2), 6)
    grid = np.random.default_rng(5).permutation(np.r_[times, times[1::4], 0.0])
    assert len(grid) > 3 * block
    got = oracle._continuous_gap_table(phi, phibar, X, tuple(grid))
    want = sequential_gap_table(phi, phibar, X, grid)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("case", ["demo", "random", "orthogonal"])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=["1", "B-1", "B", "B+1", "2B+3"])
def test_blocked_powers_match_sequential_across_blocks(demo, case, blocks, extra):
    phi, phibar, X = pair_and_samples(demo, case)
    power_range = blocks * oracle._block_len(phi.shape[0], X.shape[1]) + extra
    system, systembar = as_system(phi), as_system(phibar)
    assert np.array_equal(system.phi, phi) and np.array_equal(systembar.phi, phibar)
    got = oracle._discrete_gaps(system, systembar, X, power_range)
    want = sequential_discrete_gaps(system, systembar, X, power_range)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("case", ["demo", "random", "orthogonal"])
def test_a_one_node_norm_is_the_dense_norm(demo, case):
    # a one-node network's one block is its transition matrix, so the power
    # check's nu reads ||Phi||_2 and ||Phibar||_2 within 8 ulps of the SVD's
    phi, phibar, _ = pair_and_samples(demo, case, samples=1)
    for M in (phi, phibar):
        dense = np.linalg.norm(M, 2)
        assert abs(as_system(M).norm2 - dense) <= 8 * np.finfo(float).eps * dense


def fast_mode_pair(rate=200.0):
    # e^{rate t} is the largest entry of both propagators
    dyn = NodeDynamics(np.diag([1.0, rate]), np.eye(2))
    return (assemble_transition(dyn, P2).phi,
            assemble_transition(dyn, 0.5 * P2).phi)


@pytest.mark.parametrize("grid, message", [
    # the squared Frobenius scale passes the float range near t = 1.8,
    # the 19th time in ascending order: the third block of eight
    (tuple(np.random.default_rng(2).permutation(np.linspace(0.0, 5.0, 51))),
     r"propagated matrix exponential overflowed at t = 1\.8$"),
    # the first overflowing time comes before a step whose own expm
    # overflows, in the same block
    ((0.0, 1.0, 2.0, 2.1, 500.0), r"overflowed at t = 2$"),
    # only the step exponential overflows
    ((0.0, 0.1, 0.2, 500.0), r"overflowed for \|\|M t\|\|"),
], ids=["later_block", "propagated_first", "step_expm"])
def test_overflow_names_first_time_in_ascending_order(grid, message):
    phi, phibar = fast_mode_pair()
    X = np.eye(4)[:, [0] * 1024]  # 1024 samples: blocks of 8 times
    assert oracle._block_len(4, X.shape[1]) == 8
    with pytest.raises(OverflowError) as want:
        sequential_gap_table(phi, phibar, X, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match=message) as got:
            oracle._continuous_gap_table(phi, phibar, X, grid)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", ["demo", "random"])
@pytest.mark.parametrize("grid", [
    OracleConfig().time_grid,
    _time_grid_from({"time_grid": {"t_max": 3.0, "step": 0.25}}),
    UNSORTED_GRID,
])
def test_propagated_table_matches_dense_exponentials(demo, case, grid):
    if case == "demo":
        s1, s2 = demo.phi, demo.phibar
    else:
        dyn, L, Lbar = random_instance(np.random.default_rng(7))
        s1, s2 = assemble_transition(dyn, L), assemble_transition(dyn, Lbar)
    X = np.random.default_rng(3).standard_normal((s1.phi.shape[0], 8))
    X /= np.linalg.norm(X, axis=0)
    got = oracle._continuous_gap_table(s1.phi, s2.phi, X, grid)
    want = dense_gap_table(s1.phi, s2.phi, X, grid)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.fixture
def expm_calls(monkeypatch):
    calls = []

    def counting(M, t=1.0):
        calls.append(t)
        return expm(M, t)

    monkeypatch.setattr(oracle, "expm", counting)
    return calls


def test_one_expm_per_distinct_step(demo, expm_calls):
    # the default grid's 50 steps are 0.1 up to roundoff: 7 distinct floats
    # in [0.09999999999999964, 0.10000000000000053] share one step pair
    grid = sorted(OracleConfig().time_grid)
    assert len({b - a for a, b in zip(grid, grid[1:])}) == 7
    V = indiscernible_subspace(demo.dyn, demo.L, demo.Lbar)
    validate_subspace(demo.phi, demo.phibar, V, OracleConfig(seed=14))
    assert len(expm_calls) == 2


def test_unequal_steps_keep_their_own_exponentials(demo, expm_calls):
    phi, phibar, X = pair_and_samples(demo, "random", samples=8)
    grid = (0.0, 0.1, 0.3, 0.35)  # steps 0.1, 0.2 and 0.05 (up to roundoff)
    got = oracle._continuous_gap_table(phi, phibar, X, grid)
    assert len(expm_calls) == 2 * 3
    want = sequential_gap_table(phi, phibar, X, grid)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_shared_steps_keep_time_error_within_budget(demo, expm_calls):
    # every step after the first is 3 ulps of t_max longer than it: each
    # one alone may share the first step, but the time error they add up
    # to passes 1e-14 * t_max, so a second step pair is computed
    phi, phibar, X = pair_and_samples(demo, "random", samples=8)
    grid = [0.0, 0.1]
    for _ in range(49):
        grid.append(grid[-1] + 0.1 + 3 * np.spacing(5.0))
    got = oracle._continuous_gap_table(phi, phibar, X, grid)
    assert len(expm_calls) == 2 * 2
    want = sequential_gap_table(phi, phibar, X, grid)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_overflowing_fast_mode_raises_without_warning():
    # e^{200 t} passes the float range near t = 3.5 on the default grid
    dyn = NodeDynamics(np.diag([1.0, 200.0]), np.eye(2))
    s1 = assemble_transition(dyn, P2)
    s2 = assemble_transition(dyn, 0.5 * P2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError):
            state_gap(s1, s2, np.array([1.0, 0.0, 0.0, 0.0]))


def scipy_expm(M, t=1.0):
    return scipy.linalg.expm(np.asarray(M) * float(t))


def validation_cases(demo):
    """(Phi, Phibar, computed subspace) for the paper example and for
    every remove_edge and add_edge row of the 8-node ring with chords."""
    cases = [(demo.phi, demo.phibar, indiscernible_subspace(demo.dyn, demo.L, demo.Lbar))]
    dyn, g = example_dynamics(), ring_with_chords(8)
    base = assemble_transition(dyn, laplacian(g))
    for _, Lvar in enumerate_single_link_variations(laplacian(g), ["remove_edge", "add_edge"]):
        report = analyze(dyn, base.laplacian, Lvar, base=base)
        cases.append((base, assemble_transition(dyn, Lvar), report.indiscernible))
    return cases


def test_verdicts_match_scipy_exponentials(demo, monkeypatch):
    cases = validation_cases(demo)
    assert len(cases) == 1 + 28
    runs = []
    for step_expm in (expm, scipy_expm):
        monkeypatch.setattr(oracle, "expm", step_expm)
        runs.append([validate_subspace(phi, phibar, V, OracleConfig(seed=seed))
                     for phi, phibar, V in cases for seed in range(3)])
    for ours, ref in zip(*runs):
        assert (ours.inside_total, ours.inside_pass, ours.outside_total, ours.outside_pass) \
            == (ref.inside_total, ref.inside_pass, ref.outside_total, ref.outside_pass)
        assert abs(ours.inside_worst_gap - ref.inside_worst_gap) <= 1e-12
        if ref.outside_worst_gap is None:
            assert ours.outside_worst_gap is None
        else:
            assert abs(ours.outside_worst_gap - ref.outside_worst_gap) <= 1e-12


# ---------------------------------------------------------------------------
# subspace validation
# ---------------------------------------------------------------------------


def test_validate_computed_subspace(demo):
    V = indiscernible_subspace(demo.dyn, demo.L, demo.Lbar)
    summary = validate_subspace(demo.phi, demo.phibar, V, OracleConfig(seed=8))
    assert summary.passed
    assert summary.inside_pass == summary.inside_total == 100
    assert summary.outside_pass == summary.outside_total == 100
    assert summary.inside_worst_gap <= 1e-7
    assert summary.outside_worst_gap > 1e-7


def test_validate_full_space_identical_systems(demo):
    summary = validate_subspace(
        demo.phi, demo.phi, Subspace.full(12), OracleConfig(seed=9)
    )
    assert summary.passed
    assert summary.outside_total == 0  # no orthocomplement to sample


def test_sync_manifold_passes_but_is_not_maximal(demo):
    sync = sync_manifold(4, 3)
    summary = validate_subspace(demo.phi, demo.phibar, sync, OracleConfig(seed=10))
    assert summary.inside_pass == summary.inside_total  # sync is indiscernible
    # ... yet a direction orthogonal to sync is indiscernible too
    extra = np.kron(np.array([1.0, -1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    assert state_gap(demo.phi, demo.phibar, extra) <= 1e-9


def test_validation_is_deterministic(demo):
    V = indiscernible_subspace(demo.dyn, demo.L, demo.Lbar)
    cfg = OracleConfig(seed=11)
    first = validate_subspace(demo.phi, demo.phibar, V, cfg)
    second = validate_subspace(demo.phi, demo.phibar, V, cfg)
    assert first == second  # bit-for-bit, including worst gaps and trace


def test_continuous_trace_shape(demo):
    V = indiscernible_subspace(demo.dyn, demo.L, demo.Lbar)
    cfg = OracleConfig(seed=12)
    summary = validate_subspace(demo.phi, demo.phibar, V, cfg)
    assert len(summary.continuous_trace) == len(cfg.time_grid)
    t0, gap0 = summary.continuous_trace[0]
    assert t0 == 0.0
    assert gap0 == 0.0
    assert [x[0] for x in summary.continuous_trace] == list(cfg.time_grid)


def test_continuous_trace_keeps_unsorted_grid_order(demo):
    V = indiscernible_subspace(demo.dyn, demo.L, demo.Lbar)
    cfg = OracleConfig(time_grid=UNSORTED_GRID, seed=12)
    summary = validate_subspace(demo.phi, demo.phibar, V, cfg)
    assert [x[0] for x in summary.continuous_trace] == list(UNSORTED_GRID)
    assert dict(summary.continuous_trace)[0.0] == 0.0


def test_validation_agrees_with_subspace_algorithms():
    rng = np.random.default_rng(500)
    cfg = OracleConfig(sample_count=25, seed=13)
    for _ in range(30):
        dyn, L, Lbar = random_instance(rng)
        s1 = assemble_transition(dyn, L)
        s2 = assemble_transition(dyn, Lbar)
        V = indiscernible_subspace(dyn, L, Lbar)
        summary = validate_subspace(s1, s2, V, cfg)
        assert summary.passed, (
            f"misclassification: inside {summary.inside_pass}/{summary.inside_total}, "
            f"outside {summary.outside_pass}/{summary.outside_total}, "
            f"worst in {summary.inside_worst_gap:.3e}, "
            f"worst out {summary.outside_worst_gap}"
        )


def ladder_pair():
    """Paper dynamics on the 40-node ring with chords, and the same ring
    minus its first edge."""
    dyn = example_dynamics()
    g = ring_with_chords(40)
    return (assemble_transition(dyn, laplacian(g)),
            assemble_transition(dyn, without_first_edge(g)))


def test_validate_ladder_without_power_overflow():
    # ||Phi||_2^k overflows within the default power range of 240
    s1, s2 = ladder_pair()
    V = indiscernible_subspace(s1.dynamics, s1.laplacian, s2.laplacian)
    assert V.dim == 62
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = validate_subspace(s1, s2, V)
    assert summary.inside_pass == summary.inside_total == 100
    assert summary.outside_pass == summary.outside_total == 100


def test_validate_dimension_mismatch(demo):
    with pytest.raises(ValueError):
        validate_subspace(demo.phi, demo.phibar, Subspace.full(5))


def validate_plan_checks(seeds):
    """(Phi, Phibar, seed) of every oracle check of the benchmark's
    validate workload: the paper example plus the 28 rows of the 8-node
    ring, per seed."""
    inputs = bench_inputs()
    for seed in seeds:
        for call in inputs.make_plan("validate", seed):
            dyn = NodeDynamics(call.A, call.B)
            base = assemble_transition(dyn, laplacian(Graph(call.N, call.edges)))
            for _, edges in call.varied:
                varied = laplacian(Graph(call.N, edges))
                yield base, assemble_transition(dyn, varied), seed


def test_blocked_oracle_keeps_every_verdict(monkeypatch):
    checks = list(validate_plan_checks(range(3))) + [(*ladder_pair(), 0)]
    assert len(checks) == 3 * 29 + 1
    cases = [(s1, s2, indiscernible_subspace(s1.dynamics, s1.laplacian, s2.laplacian),
              OracleConfig(seed=seed))
             for s1, s2, seed in checks]
    blocked = [validate_subspace(*case) for case in cases]
    monkeypatch.setattr(oracle, "_continuous_gap_table", sequential_gap_table)
    monkeypatch.setattr(oracle, "_discrete_gaps", sequential_discrete_gaps)
    for case, got in zip(cases, blocked):
        want = validate_subspace(*case)
        assert got.passed
        assert (got.inside_total, got.inside_pass, got.outside_total,
                got.outside_pass) == (want.inside_total, want.inside_pass,
                                      want.outside_total, want.outside_pass)
        assert abs(got.inside_worst_gap - want.inside_worst_gap) <= 1e-12
        if want.outside_worst_gap is not None:
            assert got.outside_worst_gap == pytest.approx(
                want.outside_worst_gap, rel=1e-12, abs=0.0)
