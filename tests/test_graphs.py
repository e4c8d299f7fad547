"""Graphs, Laplacians, spectra, and single-link variation enumeration."""

import itertools
import re
import warnings

import numpy as np
import pytest

from netdiscern import (
    Graph,
    LinkVariation,
    eig,
    enumerate_single_link_variations,
    laplacian,
    validate_laplacian,
)
from netdiscern.discernibility import laplacian_difference
from netdiscern.graphs import VARIATION_KINDS
from netdiscern.example import example_graph, example_modified_graph

from conftest import component_count, edge_weight, multiplicity_of, random_graph, spectrum_values

EXPECTED_L = np.array(
    [
        [2.0, -1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [-1.0, -1.0, 3.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ]
)

EXPECTED_LBAR = np.array(
    [
        [1.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ]
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float arrays, signs of zeros included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_laplacian_of_base_graph():
    assert np.array_equal(laplacian(example_graph()), EXPECTED_L)


def test_laplacian_of_modified_graph():
    assert np.array_equal(laplacian(example_modified_graph()), EXPECTED_LBAR)


def test_graphs_differ_by_one_link():
    # recovered by matrix subtraction: exactly the (1,3) edge
    diff = EXPECTED_L - EXPECTED_LBAR
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[2, 2] = 1.0
    expected[0, 2] = expected[2, 0] = -1.0
    assert np.array_equal(diff, expected)
    assert np.array_equal(LinkVariation("remove_edge", (1, 3)).apply(EXPECTED_L), EXPECTED_LBAR)


def test_laplacian_of_edgeless_graph_is_zero():
    assert np.array_equal(laplacian(Graph(3, ())), np.zeros((3, 3)))


def test_graph_input_validation():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1, 1.0),))  # self-loop
    with pytest.raises(ValueError):
        Graph(3, ((1, 2, 1.0), (2, 1, 2.0)))  # duplicate unordered pair
    with pytest.raises(ValueError):
        Graph(3, ((1, 2, -1.0),))  # nonpositive weight
    with pytest.raises(ValueError):
        Graph(3, ((1, 4, 1.0),))  # endpoint out of range
    with pytest.raises(ValueError):
        Graph(0, ())


def test_a_node_index_must_be_integral():
    # a fractional or string node index is refused, naming its edge, where
    # it was truncated (and an edit of L ended in an IndexError); integral
    # values of any number type are the node they name
    L = laplacian(example_graph())
    for edge, bad in (((1, 2.5), 2.5), ((1.5, 2), 1.5), (("1", "3"), "1"),
                      ((1, float("nan")), float("nan"))):
        message = f"has a node index that is not an integer: {bad!r}"
        with pytest.raises(ValueError, match=re.escape(f"edge {(*edge, 1.0)!r} {message}")):
            Graph(3, ((*edge, 1.0),))
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} {message}")):
            LinkVariation("remove_edge", edge).apply(L)
    with pytest.raises(ValueError, match=re.escape("edge ('1', '3', '2') has a node index")):
        Graph(3, (("1", "3", "2"),))
    for two in (2, 2.0, np.int64(2), np.float64(2.0)):
        assert Graph(3, ((1, two, 1.0),)).edges == ((1, 2, 1.0),)
        var = LinkVariation("remove_edge", (two, 1))
        assert var.target == (1, 2) and all(type(v) is int for v in var.target)
        assert np.array_equal(var.apply(L), LinkVariation("remove_edge", (1, 2)).apply(L))


@pytest.mark.parametrize("w, message", [
    (float("inf"), "non-finite weight inf"),
    (float("nan"), "non-finite weight nan"),
    (-1.0, "nonpositive weight -1.0"),
])
def test_graph_names_a_nonfinite_weight_as_nonfinite(w, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, ((1, 2, w),))


@pytest.mark.parametrize("w, message", [
    (float("inf"), "must be finite, got inf"),
    (float("nan"), "must be finite, got nan"),
    (-1.0, "must be positive"),
])
def test_link_variation_names_a_nonfinite_weight_as_nonfinite(w, message):
    for kind in ("add_edge", "reweight_edge"):
        with pytest.raises(ValueError, match=message):
            LinkVariation(kind, (1, 2), new_weight=w)


def test_laplacian_rejects_overflowing_degrees():
    # two finite weights of 1e308 at node 2 sum past float64: an error,
    # with no overflow warning on the way
    g = Graph(3, ((1, 2, 1e308), (2, 3, 1e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="overflow"):
            laplacian(g)
    assert laplacian(Graph(2, ((1, 2, 1e308),)))[0, 0] == 1e308


def test_validate_laplacian_rejects_violations():
    with pytest.raises(ValueError):
        validate_laplacian(np.array([[1.0, -1.0], [0.0, 0.0]]))  # row sums
    with pytest.raises(ValueError):
        validate_laplacian(np.array([[1.0, -1.0], [-2.0, 2.0]]))  # asymmetric
    with pytest.raises(ValueError):
        validate_laplacian(np.array([[-1.0, 1.0], [1.0, -1.0]]))  # positive off-diag


def test_validate_laplacian_takes_a_stack_first_failure_first():
    # a stack of the path's Laplacian with two bad ones among good ones
    # raises the message of its first bad Laplacian, for the first check
    # that one fails, as that Laplacian alone does; a good stack passes
    # whole, and a non-finite one among them warns of nothing
    L = laplacian(Graph(4, ((1, 2, 1.0), (2, 3, 0.3), (3, 4, 0.7))))
    bad = {name: L.copy() for name in ("non-finite", "skewed", "positive")}
    bad["non-finite"][1, 1] = np.nan
    bad["skewed"][0, 1] -= 0.5
    bad["positive"][0, 3] = bad["positive"][3, 0] = 0.5
    bad["positive"][[0, 3], [0, 3]] -= 0.5
    bad["shifted"], bad["skewed-shifted"] = L + np.eye(4), bad["skewed"] + np.eye(4)
    messages = {}
    for name, M in bad.items():
        with pytest.raises(ValueError) as alone:
            validate_laplacian(M)
        messages[name] = str(alone.value)
    assert messages["skewed-shifted"] == messages["skewed"] == "Laplacian is not symmetric"
    assert messages["shifted"] == "Laplacian rows do not sum to zero (max 1.000e+00)"
    good = np.array([L] * 5)
    assert validate_laplacian(good) is good
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for first, later in itertools.permutations(bad, 2):
            stack = good.copy()
            stack[2], stack[4] = bad[first], bad[later]
            with pytest.raises(ValueError) as got:
                validate_laplacian(stack)
            assert str(got.value) == messages[first], (first, later)
    with pytest.raises(ValueError, match=r"square, got shape \(4, 3\)"):
        validate_laplacian(np.zeros((2, 4, 3)))


# ---------------------------------------------------------------------------
# Laplacian invariants on random graphs
# ---------------------------------------------------------------------------


def test_row_sums_exactly_zero_on_random_graphs():
    rng = np.random.default_rng(1001)
    ones_cache = {}
    for _ in range(1000):
        g = random_graph(rng, int(rng.integers(2, 11)))
        L = laplacian(g)
        ones = ones_cache.setdefault(g.node_count, np.ones(g.node_count))
        assert np.all(L @ ones == 0.0)  # exact: dyadic weights cancel


def test_positive_semidefinite_at_tolerance():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        L = laplacian(random_graph(rng, int(rng.integers(2, 11))))
        assert np.linalg.eigvalsh(L).min() >= -1e-10


def test_zero_multiplicity_counts_components():
    rng = np.random.default_rng(1003)
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(2, 11)), p=0.3)
        L = laplacian(g)
        near_zero = int(np.sum(np.abs(np.linalg.eigvalsh(L)) < 1e-8))
        assert near_zero == component_count(g)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_base_graph_spectrum(demo):
    values = np.sort(spectrum_values(eig(demo.L)).real)
    assert np.allclose(values, [0.0, 1.0, 3.0, 4.0], atol=1e-9, rtol=0)


def test_modified_graph_spectrum_matches_path_closed_form(demo):
    # path on 4 nodes: eigenvalues 2 - 2 cos(k pi / 4), k = 0..3
    expected = np.sort([2.0 - 2.0 * np.cos(k * np.pi / 4) for k in range(4)])
    values = np.sort(spectrum_values(eig(demo.Lbar)).real)
    assert np.allclose(values, expected, atol=1e-9, rtol=0)
    assert np.allclose(expected, [0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])


def test_zero_laplacian_spectrum():
    spec = eig(np.zeros((3, 3)))
    assert multiplicity_of(spec, 0.0) == 3


def test_connected_graph_has_uniform_null_vector(demo):
    spec = eig(demo.L)
    zero_pair = spec.eigenpairs[0]
    assert abs(zero_pair.value) < 1e-9
    v = zero_pair.vectors[:, 0]
    assert np.allclose(np.abs(v), 0.5, atol=1e-9)  # proportional to all-ones


# ---------------------------------------------------------------------------
# variation enumeration
# ---------------------------------------------------------------------------


def test_enumerate_remove_only(demo):
    out = list(enumerate_single_link_variations(laplacian(demo.graph), {"remove_edge"}))
    assert len(out) == 4
    # the (1,3) removal reproduces the path
    assert any(np.array_equal(Lbar, demo.Lbar) for _, Lbar in out)


def test_enumerate_add_on_complete_graph():
    k3 = Graph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
    assert list(enumerate_single_link_variations(laplacian(k3), {"add_edge"})) == []


def test_enumerate_remove_and_add_counts(demo):
    # C(4,2) = 6 pairs: 4 present, 2 absent
    out = list(enumerate_single_link_variations(
        laplacian(demo.graph), {"remove_edge", "add_edge"}))
    assert len(out) == 6
    kinds = [v.kind for v, _ in out]
    assert kinds == ["remove_edge"] * 4 + ["add_edge"] * 2


def test_enumerate_is_deterministic(demo):
    L = laplacian(demo.graph)
    first = list(enumerate_single_link_variations(L, {"remove_edge", "add_edge"}))
    second = list(enumerate_single_link_variations(L, {"remove_edge", "add_edge"}))
    assert [v.describe() for v, _ in first] == [v.describe() for v, _ in second]
    for (_, l1), (_, l2) in zip(first, second):
        assert np.array_equal(l1, l2)


def test_removals_reapplied_reconstruct_base(demo):
    for var, Lbar in enumerate_single_link_variations(laplacian(demo.graph), {"remove_edge"}):
        i, j = var.target
        readded = LinkVariation("add_edge", (i, j), edge_weight(demo.graph, i, j)).apply(Lbar)
        assert same_bits(readded, demo.L)


def test_enumerate_disconnect_node(demo):
    out = list(enumerate_single_link_variations(laplacian(demo.graph), {"disconnect_node"}))
    assert [v.target for v, _ in out] == [1, 2, 3, 4]
    for var, L in out:
        assert L.shape == demo.L.shape  # N stays fixed
        assert np.all(L[var.target - 1] == 0.0) and np.all(L[:, var.target - 1] == 0.0)


def test_enumerate_reweight_requires_weight(demo):
    with pytest.raises(ValueError):
        enumerate_single_link_variations(laplacian(demo.graph), {"reweight_edge"})
    out = list(enumerate_single_link_variations(
        laplacian(demo.graph), {"reweight_edge"}, reweight_to=0.5
    ))
    assert len(out) == 4
    assert all(v.new_weight == 0.5 for v, _ in out)


def test_enumerate_rejects_unknown_kind(demo):
    with pytest.raises(ValueError):
        enumerate_single_link_variations(laplacian(demo.graph), {"flip_edge"})


def test_link_variation_validation():
    with pytest.raises(ValueError):
        LinkVariation("mystery", (1, 2))
    with pytest.raises(ValueError):
        LinkVariation("add_edge", (1, 2), new_weight=-1.0)
    L = laplacian(example_graph())
    with pytest.raises(ValueError, match=r"cannot add: edge \(1,2\) exists"):
        LinkVariation("add_edge", (1, 2)).apply(L)
    with pytest.raises(ValueError, match=r"cannot remove: no edge \(1,4\)"):
        LinkVariation("remove_edge", (1, 4)).apply(L)


def test_describe_names_the_weight_it_applies():
    # :g keeps six significant digits, so it would label a reweight to
    # 0.1000001 with the weight 0.1; a label shows :g only when it reads back
    labels = {w: LinkVariation("reweight_edge", (2, 1), w).describe()
              for w in (0.1000001, 1 / 3, 2.5, 1.0, 1e-7)}
    assert labels == {0.1000001: "reweight_edge(1,2,w=0.1000001)",
                      1 / 3: "reweight_edge(1,2,w=0.3333333333333333)",
                      2.5: "reweight_edge(1,2,w=2.5)",
                      1.0: "reweight_edge(1,2,w=1)",
                      1e-7: "reweight_edge(1,2,w=1e-07)"}
    assert LinkVariation("add_edge", (1, 3), 1.0).describe() == "add_edge(1,3,w=1)"
    assert LinkVariation("remove_edge", (1, 3)).describe() == "remove_edge(1,3)"


def edited_graph(g: Graph, var: LinkVariation) -> Graph:
    """The reference for ``var.apply``: g's edge list edited by var, built
    as a new Graph, which raises on a self-loop or a node out of range.  An
    edit that does not fit g raises the message ``apply`` gives."""
    N, kind = g.node_count, var.kind
    if kind == "disconnect_node":
        if not 1 <= var.target <= N:
            raise ValueError(f"node {var.target} out of range")
        return Graph(N, tuple(e for e in g.edges if var.target not in e[:2]))
    (i, j), present = var.target, var.target in {e[:2] for e in g.edges}
    if kind == "add_edge":
        if present:
            raise ValueError(f"cannot add: edge ({i},{j}) exists")
        return Graph(N, g.edges + ((i, j, 1.0 if var.new_weight is None else var.new_weight),))
    if kind == "reweight_edge" and var.new_weight is None:
        raise ValueError("reweight_edge requires new_weight")
    if not present:
        raise ValueError(f"cannot {kind.removesuffix('_edge')}: no edge ({i},{j})")
    kept = tuple(e for e in g.edges if e[:2] != (i, j))
    return Graph(N, kept if kind == "remove_edge" else kept + ((i, j, var.new_weight),))


def test_apply_equals_the_laplacian_of_the_edited_graph():
    # non-dyadic weights, so the degree sums round: every kind, every target
    # in and out of range, and three new weights, against the Laplacian of
    # the edited graph and diag(degrees) - W of its weights, bit for bit
    # (signs of zeros included), or against its error; the last 12 graphs,
    # of 8 to 24 nodes, whose rows NumPy sums in 8 partial sums, take at
    # most 30 targets of each kind
    rng = np.random.default_rng(2024)
    checked = raised = 0
    for trial in range(72):
        N = int(rng.integers(1, 8)) if trial < 60 else int(rng.integers(8, 25))
        if trial % 3 == 0:
            weights = lambda: float(rng.uniform(0.01, 3.0))  # noqa: E731
        elif trial % 3 == 1:
            weights = lambda: float(10.0 ** rng.uniform(-8, 8))  # noqa: E731
        else:
            weights = lambda: float(rng.choice([0.1, 0.3, 0.7]))  # noqa: E731
        g = Graph(N, tuple((i, j, weights())
                           for i, j in itertools.combinations(range(1, N + 1), 2)
                           if rng.random() < 0.5))
        L = laplacian(g)
        for kind in VARIATION_KINDS:
            targets = list(range(0, N + 2) if kind == "disconnect_node"
                           else itertools.combinations_with_replacement(range(0, N + 2), 2))
            if N >= 8:
                targets = [targets[k] for k in rng.choice(len(targets), min(30, len(targets)),
                                                          replace=False)]
            for target, w in itertools.product(targets, (None, 0.37, 1e-5)):
                var = LinkVariation(kind, target, w)
                try:
                    edited = edited_graph(g, var)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        var.apply(L)
                    assert str(got.value) == str(exc)
                    raised += 1
                    continue
                Lbar, W = var.apply(L), edited.adjacency()
                assert same_bits(Lbar, laplacian(edited)), (g, var)
                assert same_bits(Lbar, np.diag(W.sum(axis=1)) - W), (g, var)
                diff = L - Lbar
                np.fill_diagonal(diff, 0.0)
                np.fill_diagonal(diff, -diff.sum(axis=1))
                assert np.array_equal(laplacian_difference(L, Lbar), diff)
                checked += 1
    assert checked > 1000 and raised > 1000
