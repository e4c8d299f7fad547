"""CLI: config ingestion, report emission, exit codes, determinism."""

import json
import math
import os
import stat
import subprocess
import sys
import warnings
from functools import cached_property

import numpy as np
import pytest

from netdiscern import (
    AnalyzeOptions,
    LinkVariation,
    Subspace,
    analyze,
    assemble_transition,
    cli,
    discernibility,
    enumerate_single_link_variations,
    graphs,
    laplacian,
    network,
    oracle,
)
from netdiscern.cli import (ConfigError, _build_parser, _time_grid_from, canonical_json,
                            load_config, main, report_to_dict, run_enumerate)
from netdiscern.example import example_config, example_dynamics
from netdiscern.linalg import cluster_indices
from netdiscern.network import NetworkSystem

from conftest import BAD_ROWS, bad_row, ring_with_chords


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(canonical_json(config))
    return str(path)


def two_node_config(validate=False):
    return {
        "node_dynamics": {
            "n": 2,
            "A": [1.0, 0.0, 0.0, 10.0],
            "B": [1.0, 0.0, 0.0, 1.0],
        },
        "base_graph": {"nodes": 2, "edges": [{"i": 1, "j": 2, "w": 1.0}]},
        "variation": {
            "link": {"kind": "reweight_edge", "i": 1, "j": 2, "w": 0.5}
        },
        "options": {"validate": validate, "seed": 0},
    }


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_json_round_trip():
    doc = {
        "b": [1, 2.5, {"z": True, "a": None}],
        "a": 0.1,
        "c": "text",
        "zero": -0.0,
    }
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.10000000000000001" in text  # 17 significant digits
    assert "-0" not in text  # negative zero normalized


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_canonical_json_golden_layout():
    doc = {
        "b": {"empty": {}, "list": [], "nested": {"t": (1, "x")}},
        "f": [0.1, -0.0, 2.5e-300],
        "a": [True, False, None],
        "i": -3,
        "s": 'q"\u00e9',
    }
    assert canonical_json(doc) == (
        "{\n"
        '  "a": [\n'
        "    true,\n"
        "    false,\n"
        "    null\n"
        "  ],\n"
        '  "b": {\n'
        '    "empty": {},\n'
        '    "list": [],\n'
        '    "nested": {\n'
        '      "t": [\n'
        "        1,\n"
        '        "x"\n'
        "      ]\n"
        "    }\n"
        "  },\n"
        '  "f": [\n'
        "    0.10000000000000001,\n"
        "    0,\n"
        "    2.5e-300\n"
        "  ],\n"
        '  "i": -3,\n'
        '  "s": "q\\"\\u00e9"\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"z": [], "a": {}, "m": [1, [2, [3, {}]], {"k": None}], "t": (True, "é\n")},
        [{"b": {"c": {"d": [False, -7, "x"]}}}, [], {}],
        "bare",
        0,
    ],
)
def test_canonical_json_matches_json_dumps_without_floats(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "items",
    [
        [1.0, float("nan")],
        [float("inf")],
        [-0.0, float("-inf")],
        [1, float("nan")],  # mixed list: item by item
        [[0.5, 1e308], [5e-324, float("nan")]],  # [re, im] pairs: one template
        [[float("inf"), -0.0]],
        [1, [float("-inf"), 0.0]],  # a pair inside a mixed list
    ],
)
def test_canonical_json_rejects_nonfinite_in_lists(items):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"x": items})


@pytest.mark.parametrize(
    "items, text",
    [
        ([1, 2.5, True, None], "[\n  1,\n  2.5,\n  true,\n  null\n]\n"),
        ([2.5, False], "[\n  2.5,\n  false\n]\n"),
    ],
)
def test_canonical_json_mixed_list_keeps_ints_and_bools(items, text):
    assert canonical_json(items) == text


def test_canonical_json_numpy_floats_match_python_floats():
    values = [0.1, -0.0, 1e-7, 3.0, -2.5e300]
    as_numpy = {"list": [np.float64(x) for x in values], "one": np.float64(0.1)}
    assert canonical_json(as_numpy) == canonical_json({"list": values, "one": 0.1})


def reference_dumps(obj, level: int = 0) -> str:
    """The per-item serializer the float templates replaced: one format()
    per float, one call per [re, im] pair."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "  " * (level + 1)
        items = [f"{inner}{json.dumps(key)}: {reference_dumps(obj[key], level + 1)}"
                 for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + "  " * level + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "  " * (level + 1)
        if all(type(x) is float for x in obj):
            body = f",\n{inner}".join([format(x + 0.0, ".17g") for x in obj])
            if "n" in body:
                raise ValueError("non-finite float cannot be serialized")
        else:
            body = f",\n{inner}".join([reference_dumps(x, level + 1) for x in obj])
        return f"[\n{inner}{body}\n" + "  " * level + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float cannot be serialized")
        return format(0.0 if obj == 0.0 else obj, ".17g")
    raise ValueError(f"cannot serialize {type(obj).__name__}")


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1 / 3, 2.5e-300]


def test_canonical_json_float_templates_match_the_reference():
    rng = np.random.default_rng(23)
    pairs = [[float(x), float(y)] for x, y in rng.standard_normal((12, 2))]
    g = ring_with_chords(12)
    L = laplacian(g)
    report = report_to_dict(analyze(example_dynamics(), L,
                                     LinkVariation("remove_edge", g.edges[0][:2]).apply(L)))
    docs = [
        EDGE_FLOATS,
        {"basis": EDGE_FLOATS + rng.standard_normal(50).tolist(), "value": [-0.0, 5e-324]},
        {"vector": [[x, y] for x in EDGE_FLOATS for y in EDGE_FLOATS]},
        {"nested": [pairs, [pairs, [pairs]]], "pairs": pairs},
        [1, 2.5, True, -0.0, None],              # ints and bools inside float lists
        [[1.0, 2.0], [3.0, 4]],                  # a pair with an int: item by item
        [[1.0, 2.0], [3.0, 4.0, 5.0], [6.0]],    # not all pairs
        [[1.0, True], (2.0, 3.0)],               # a bool, a tuple pair
        [np.float64(0.5), [np.float64(-0.0), 1.0]],
        [[-0.0, -0.0]],
        report,
    ]
    for doc in docs:
        assert canonical_json(doc) == reference_dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# input errors (exit code 1, distinct messages)
# ---------------------------------------------------------------------------


def test_missing_file_message(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_message(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_wrong_matrix_size_message(tmp_path, capsys):
    config = two_node_config()
    config["node_dynamics"]["A"] = [1.0, 2.0, 3.0]
    assert main(["analyze", write_config(tmp_path, config)]) == 1
    err = capsys.readouterr().err
    assert "expected 4" in err


def test_node_count_mismatch_message(tmp_path, capsys):
    config = example_config(validate=False)
    config["variation"] = {
        "modified_graph": {"nodes": 3, "edges": [{"i": 1, "j": 2, "w": 1.0}]}
    }
    assert main(["analyze", write_config(tmp_path, config)]) == 1
    assert "node counts differ" in capsys.readouterr().err


def test_unknown_option_message(tmp_path, capsys):
    for key in ("mystery", "angle_tol", "power_range"):  # the last two are no longer options
        config = two_node_config()
        config["options"][key] = 1
        assert main(["analyze", write_config(tmp_path, config)]) == 1
        assert f"unknown options ['{key}']" in capsys.readouterr().err


def test_analyze_rejects_enumerate_config(tmp_path, capsys):
    config = example_config(validate=False)
    config["variation"] = {"enumerate": {"kinds": ["remove_edge"]}}
    assert main(["analyze", write_config(tmp_path, config)]) == 1
    assert "enumerate subcommand" in capsys.readouterr().err


BIG_INT = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize(
    "where, literal, message",
    [
        (("base_graph", "nodes"), "1e400", "bad base_graph"),
        (("node_dynamics", "A", 0), BIG_INT, "bad node_dynamics"),
        (("variation", "link", "i"), "1e400", "bad link variation"),
        (("options", "seed"), "1e400", "seed must be an integer"),
        (("options", "tol"), '"abc"', "tol must be a number"),
        (("options", "rel_tol"), "[1]", "rel_tol must be a number"),
        (("options", "time_grid"), f"[0, {BIG_INT}]", "bad time_grid"),
        (("options", "time_grid"), f'{{"t_max": {BIG_INT}, "step": 1}}', "bad time_grid"),
        (("options", "tol"), "-1", "tol must be finite and > 0"),
        (("options", "tol"), "0", "tol must be finite and > 0"),
        (("options", "tol"), "NaN", "tol must be finite and > 0"),
        (("options", "tol"), "Infinity", "tol must be finite and > 0"),
        (("options", "rank_tol"), "NaN", "rank_tol must be in (0, 1)"),
        (("options", "rank_tol"), "-1", "rank_tol must be in (0, 1)"),
        (("options", "rank_tol"), "1", "rank_tol must be in (0, 1)"),
        # 10**10 + 1 points: rejected by its count, never built
        (("options", "time_grid"), '{"t_max": 1e-300, "step": 1e-310}',
         "time_grid has 10000000001 points, more than 100000"),
        (("options", "time_grid"), '{"t_max": 1e300, "step": 1e-300}',
         "time_grid has inf points, more than 100000"),
    ],
    ids=["nodes", "A", "link", "seed", "tol", "rel_tol", "grid_list", "grid_spec",
         "tol_negative", "tol_zero", "tol_nan", "tol_inf", "rank_tol_nan",
         "rank_tol_negative", "rank_tol_one", "grid_spec_count", "grid_spec_inf_count"],
)
def test_unconvertible_numbers_are_config_errors(tmp_path, capsys, where, literal,
                                                 message):
    config = two_node_config()
    node = config
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "PLACEHOLDER"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"PLACEHOLDER"', literal))
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and message in err
    assert "shorten" not in err
    assert not out.exists()


def test_empty_node_dynamics_is_a_config_error(tmp_path, capsys):
    # n = 0 with empty A and B parses; the dynamics reject it before any
    # stage runs, so nothing is written
    config = two_node_config()
    config["node_dynamics"] = {"n": 0, "A": [], "B": []}
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: invalid config: A must have at least one entry (n >= 1)\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("rank_tol", ["1e-16", "1e-14", "1e-13", "9.9e-13"])
def test_rank_tol_below_1e12_is_a_config_error(tmp_path, capsys, rank_tol):
    # a cutoff near roundoff reads it as rank: at 1e-16 the two-node case
    # shows extra indiscernible states, and at 1e-14 the 12-node ring's
    # first row loses a dimension of the synchronous manifold
    config = two_node_config()
    config["options"]["rank_tol"] = float(rank_tol)
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid config: rank_tol must be at least 1e-12")
    assert captured.out == "" and not out.exists()


def test_rank_tol_at_its_floor_gives_the_default_answers(tmp_path, capsys):
    outputs = []
    for rank_tol in (None, 1e-12):
        config = two_node_config()
        if rank_tol is not None:
            config["options"]["rank_tol"] = rank_tol
        out = tmp_path / f"out-{rank_tol}"
        assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "indiscernible dim 2 (sync 2, extra 0)" in outputs[0]
    graph = ring_with_chords(12)
    L = laplacian(graph)
    Lbar = LinkVariation("remove_edge", graph.edges[0][:2]).apply(L)
    dyn = example_dynamics()
    for opts in (AnalyzeOptions(), AnalyzeOptions(rank_tol=1e-12)):
        report = analyze(dyn, L, Lbar, opts)
        assert (report.indiscernible.dim, report.sync_overlap_dim) == (24, 3)


@pytest.mark.parametrize("rank_tol", [0.5, 0.9])
def test_a_large_rank_tol_reports_the_counted_basis(tmp_path, rank_tol):
    # the count is the one rank decision: the basis is the counted number of
    # leading singular vectors, so no second cut at rank_tol * sigma_max can
    # disagree with it (at 0.5 such a cut keeps 7 of the 10 counted), and
    # the sync overlap is n = 3
    config = example_config(validate=True)
    config["options"]["rank_tol"] = rank_tol
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) in (0, 2)
    report = json.loads((out / "report.json").read_text())
    ind = report["indiscernible"]
    assert len(ind["basis"]) == ind["ambient_dim"] * ind["dim"]
    assert report["sync_overlap_dim"] == 3
    assert report["extra_dim"] == ind["dim"] - 3


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_bad_tol_flag_is_a_config_error(tmp_path, capsys, tol):
    # a tolerance <= 0 would report the paper's violated condition as held
    out = tmp_path / "out"
    assert main(["paper-example", "--tol", tol, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid config: tol must be finite and > 0")
    assert captured.out == "" and not out.exists()


INTEGER_FIELDS = [
    ("node_dynamics", "n"),
    ("base_graph", "nodes"),
    ("base_graph", "edges", 0, "i"),
    ("base_graph", "edges", 0, "j"),
    ("variation", "link", "i"),
    ("variation", "link", "j"),
    ("variation", "link", "node"),
]
REAL_FIELDS = [
    ("options", "tol"),
    ("options", "rank_tol"),
    ("options", "rel_tol"),
    ("base_graph", "edges", 0, "w"),
    ("variation", "link", "w"),
    ("variation", "enumerate", "reweight_to"),
    ("options", "time_grid", 1),
    ("options", "time_grid", "t_max"),
    ("options", "time_grid", "step"),
    ("node_dynamics", "A", 0),
    ("node_dynamics", "B", 3),
    ("node_dynamics", "A", 1, 1),
]


@pytest.mark.parametrize("where", INTEGER_FIELDS + REAL_FIELDS,
                         ids=lambda where: "/".join(map(str, where)))
def test_config_numbers_are_strict(tmp_path, capsys, where):
    # integer fields take integral JSON numbers only, real fields any JSON
    # number; a bool, a string or a fraction is an error, not a coercion
    config = two_node_config(validate=True)
    command = "analyze"
    if where[-1] == "node":
        config["variation"]["link"] = {"kind": "disconnect_node", "node": 1}
    elif where[-1] == "reweight_to":
        config["variation"] = {"enumerate": {"kinds": ["reweight_edge"],
                                             "reweight_to": 2.0}}
        command = "enumerate"
    elif where[-1] in ("t_max", "step"):
        config["options"]["time_grid"] = {"t_max": 1.0, "step": 0.5}
    elif where[1] == "time_grid":
        config["options"]["time_grid"] = [0.0, 0.5]
    elif len(where) == 4:
        config["node_dynamics"]["A"] = [[1.0, 0.0], [0.0, 10.0]]  # in rows
    node = config
    for key in where[:-1]:
        node = node[key]
    assert main([command, write_config(tmp_path, config),
                 "--out", str(tmp_path / "valid")]) == 0

    if where in INTEGER_FIELDS:
        literals, message = ["1.5", "true", '"1"'], "must be an integer"
    else:
        literals, message = ["true", '"0.5"'], "must be a number"
    for k, literal in enumerate(literals):
        node[where[-1]] = "PLACEHOLDER"
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(config).replace('"PLACEHOLDER"', literal))
        out = tmp_path / f"out{k}"
        capsys.readouterr()
        assert main([command, str(path), "--out", str(out)]) == 1, literal
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and message in err, err
        assert not out.exists()


def test_no_partial_outputs_on_error(tmp_path):
    config = two_node_config()
    config["node_dynamics"]["B"] = [1.0]
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 1
    assert not out.exists() or not list(out.iterdir())


def test_oracle_overflow_exits_one_without_output(tmp_path, capsys):
    config = example_config(validate=True)
    config["options"]["time_grid"] = [0.0, 500.0]
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflowed" in err
    assert "shorten the time_grid" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "option, literal, message",
    [
        ("validate", '"no"', "validate must be true or false"),
        ("validate", "1", "validate must be true or false"),
        ("seed", "true", "seed must be an integer"),
        ("seed", "2.5", "seed must be an integer"),
        ("seed", '"3"', "seed must be an integer"),
        ("seed", "null", "seed must be an integer"),
        ("seed", "-1", "seed must be >= 0"),
        ("sample_count", "2.7", "sample_count must be an integer"),
        ("sample_count", "false", "sample_count must be an integer"),
        ("time_grid", "[0.0, NaN]", "finite"),
        ("time_grid", "[0.0, Infinity]", "finite"),
        ("time_grid", '{"t_max": NaN, "step": 0.1}', "finite"),
        ("time_grid", '{"t_max": 1.0, "step": Infinity}', "finite"),
    ],
)
def test_oracle_options_are_strict(tmp_path, capsys, option, literal, message):
    config = example_config(validate=True)
    config["options"][option] = "PLACEHOLDER"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"PLACEHOLDER"', literal))
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and message in err
    assert not out.exists()


def test_oracle_plan_bounds_are_checked_before_any_work(tmp_path, capsys, monkeypatch):
    # one past the sample bound is an input error before the analysis starts
    monkeypatch.setattr("netdiscern.cli.analyze", None)  # never reached
    config = example_config(validate=True)
    config["options"]["sample_count"] = oracle.MAX_SAMPLE_COUNT + 1
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and "sample_count must be in" in err
    assert not out.exists()


def test_infinite_edge_weight_is_named_non_finite(tmp_path, capsys):
    # Python's json reads the literal Infinity; the edge is an input error
    # that says what is wrong with the weight, and nothing is written
    config = two_node_config()
    config["base_graph"]["edges"][0]["w"] = math.inf
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: base_graph: edge (1,2) has non-finite "
                          "weight inf")
    assert not out.exists()


@pytest.mark.parametrize("t_max, step, count", [
    (0.9, 0.6, 2), (1.0, 0.28, 4), (5.0, 0.1, 51), (3.0, 0.25, 13), (0.3, 0.1, 4)])
def test_time_grid_spec_stops_at_t_max(t_max, step, count):
    # k * step for every k with k * step <= t_max, to a few ulps (3 * 0.1
    # is one ulp past 0.3): a later time only makes the oracle's
    # propagators overflow sooner
    grid = _time_grid_from({"time_grid": {"t_max": t_max, "step": step}})
    assert grid == tuple(k * step for k in range(count))
    assert grid[-1] <= t_max * (1 + 1e-15)


@pytest.mark.parametrize("command", ["analyze", "enumerate"])
def test_overflowing_laplacian_is_an_input_error(tmp_path, capsys, command):
    # every weight 1e308: finite, but the degrees of the base graph sum
    # past float64; an error line, no warning, no traceback, no output
    config = example_config(validate=True)
    for graph in (config["base_graph"], config["variation"]["modified_graph"]):
        for edge in graph["edges"]:
            edge["w"] = 1e308
    if command == "enumerate":
        config["variation"] = {"enumerate": {"kinds": ["remove_edge"]}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, write_config(tmp_path, config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid config: base_graph: the weighted degrees overflow float64\n"
    assert not out.exists()


BLOCKS_OVERFLOW = ("the blocks A - alpha*B overflow float64: the weighted degrees are "
                   "too large for the node dynamics")


@pytest.mark.parametrize("command", ["analyze", "enumerate"])
def test_a_base_whose_blocks_overflow_is_an_input_error(tmp_path, capsys, command):
    # the paper example with edge (1,3) at 1e308: the degrees are finite,
    # but A - alpha*B is not, and np.linalg.eig cannot decompose it; an
    # error line, no warning, no traceback, no output
    config = example_config(validate=True)
    assert config["base_graph"]["edges"][1]["j"] == 3
    config["base_graph"]["edges"][1]["w"] = 1e308
    if command == "enumerate":
        config["variation"] = {"enumerate": {"kinds": ["remove_edge"]}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, write_config(tmp_path, config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid config: base_graph: {BLOCKS_OVERFLOW}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["base", "row", "varied"])
def test_an_overflow_error_names_the_graph_it_is_in(tmp_path, capsys, case):
    # every base weight at 1e308 overflows the base degrees, which is told
    # before any reweighting of it; unit weights reweighted, or an edge
    # added, at 1e308 keep the degrees finite but not the blocks, which the
    # first such row, or the varied graph, is named for
    config = example_config(validate=False)
    command = "analyze" if case == "varied" else "enumerate"
    if case == "base":
        for edge in config["base_graph"]["edges"]:
            edge["w"] = 1e308
        config["variation"] = {"enumerate": {"kinds": ["reweight_edge"]}}
        err = "base_graph: the weighted degrees overflow float64"
    elif case == "row":
        config["variation"] = {"enumerate": {"kinds": ["reweight_edge"], "reweight_to": 1e308}}
        err = f"reweight_edge(1,2,w=1e+308): {BLOCKS_OVERFLOW}"
    else:
        config["variation"] = {"link": {"kind": "add_edge", "i": 1, "j": 4, "w": 1e308}}
        err = f"varied graph: {BLOCKS_OVERFLOW}"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, write_config(tmp_path, config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid config: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("link, err", [
    ({"kind": "remove_edge", "i": 4, "j": 1}, "cannot remove: no edge (1,4)"),
    ({"kind": "reweight_edge", "i": 1, "j": 4, "w": 2.0}, "cannot reweight: no edge (1,4)"),
    ({"kind": "reweight_edge", "i": 1, "j": 2}, "reweight_edge requires new_weight"),
    ({"kind": "add_edge", "i": 2, "j": 1}, "cannot add: edge (1,2) exists"),
    ({"kind": "add_edge", "i": 2, "j": 2}, "self-loop at node 2"),
    ({"kind": "add_edge", "i": 1, "j": 5}, "edge (1,5) out of range 1..4"),
    ({"kind": "disconnect_node", "node": 5}, "node 5 out of range"),
])
def test_a_link_that_does_not_fit_the_base_names_the_varied_graph(tmp_path, capsys, link, err):
    # the link is applied to the base's Laplacian once the base is built,
    # so an edit that does not fit the base graph is told as the varied
    # graph's error, as a modified graph's is: one error line, no output
    config = example_config(validate=False)
    config["variation"] = {"link": link}
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid config: varied graph: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("kinds", [["reweight_edge"], ["remove_edge", "add_edge", "reweight_edge"]])
def test_an_overflowing_variation_is_an_input_error(tmp_path, capsys, kinds):
    # the base edge (1,3) at 1e308 is finite, and so are the base degrees,
    # but reweighting (1,2) to 1.7e308 sums node 1's degree past float64:
    # the enumeration is refused before any row is decided, with an error
    # line, no warning, no traceback and no output
    config = enumerate_config(kinds)
    config["base_graph"]["edges"][1]["w"] = 1e308
    assert config["base_graph"]["edges"][1]["j"] == 3
    config["variation"]["enumerate"]["reweight_to"] = 1.7e308
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["enumerate", write_config(tmp_path, config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid config: the weighted degrees overflow float64\n"
    assert not out.exists()


def large_weight_runs(tmp_path, weight):
    """The example with base edge (1,3) at ``weight`` and the oracle off,
    run as analyze on its shipped variation (which removes that edge),
    analyze with link remove_edge(1,2) and enumerate over all four kinds:
    per run, the dimensions and verdicts it writes."""
    runs = []
    for case in ("shipped", "link", "enumerate"):
        config = example_config(validate=False)
        assert config["base_graph"]["edges"][1]["j"] == 3
        config["base_graph"]["edges"][1]["w"] = weight
        if case == "link":
            config["variation"] = {"link": {"kind": "remove_edge", "i": 1, "j": 2}}
        elif case == "enumerate":
            config["variation"] = {"enumerate": {"kinds": [
                "remove_edge", "add_edge", "reweight_edge", "disconnect_node"],
                "reweight_to": 2.5}}
        out = tmp_path / f"{weight:g}-{case}"
        command = "enumerate" if case == "enumerate" else "analyze"
        assert main([command, write_config(tmp_path, config), "--out", str(out)]) == 0
        if command == "enumerate":
            rows = json.loads((out / "variations.json").read_text())["rows"]
            runs.append([(r["indiscernible_dim"], r["extra_dim"], r["verdict"]) for r in rows])
        else:
            report = json.loads((out / "report.json").read_text())
            runs.append((report["indiscernible"]["dim"], report["extra_dim"], report["verdict"]))
    return runs


@pytest.mark.parametrize("weight", [1e160, 1e200, 1e300])
def test_large_edge_weights_overflow_no_norm(tmp_path, capsys, weight):
    # the squares of entries past about 1e154 overflow a plain 2-norm: the
    # column norms of (L - Lbar)V and the Frobenius norms of the collision
    # stacks are taken again on the rescaled entries where they are not
    # finite, so no RuntimeWarning is raised, every run exits 0, and every
    # dimension and verdict is the one at 1e100, whose norms are finite.
    # This checks consistency across weights only, not correctness: in
    # rational arithmetic both analyze runs have dimension 6 at every
    # weight from 3 to 1e300, where these floating-point runs read 10
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runs = large_weight_runs(tmp_path, weight)
        assert runs == large_weight_runs(tmp_path, 1e100)
    assert len(runs[2]) == 14
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_mode_of_a_plain_open(tmp_path, umask):
    # each output of an atomic write has 0o666 less the umask, as open()
    # would give it, not the 0o600 of a tempfile.mkstemp file
    path = write_config(tmp_path, enumerate_config(["remove_edge"]))
    previous = os.umask(umask)
    try:
        assert main(["paper-example", "--out", str(tmp_path / "out")]) == 0
        assert main(["enumerate", path, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(previous)
    names = sorted(f.name for f in (tmp_path / "out").iterdir())
    assert names == ["gaps.csv", "report.json", "variations.csv", "variations.json"]
    want = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert want == 0o666 & ~umask
    for name in names:
        assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == want, name


def test_integral_option_values_are_accepted(tmp_path, capsys):
    config = example_config(validate=True)
    config["options"].update(seed=3.0, sample_count=4.0)
    assert main(["analyze", write_config(tmp_path, config),
                 "--out", str(tmp_path / "out")]) == 0
    assert "oracle: inside 4/4, outside 4/4" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_bundled_scenario(tmp_path, capsys):
    path = write_config(tmp_path, example_config(validate=False))
    out = tmp_path / "out"
    assert main(["analyze", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["indiscernible"]["dim"] == 6
    assert report["sync_overlap_dim"] == 3
    assert report["extra_dim"] == 3
    assert report["corrected_condition"]["verdict"] == "violated"
    assert report["verdict"] == "extra indiscernible states present"
    modes = report["invariant_modes"]
    assert len(modes) == 1
    assert np.allclose(modes[0]["value"], [1.0, 0.0], atol=1e-9)
    vec = np.array([re for re, im in modes[0]["vector"]])
    target = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(vec), target, atol=1e-9)
    assert not (out / "gaps.csv").exists()  # no validation requested


def test_analyze_with_validation_writes_gap_trace(tmp_path):
    path = write_config(tmp_path, example_config(validate=True))
    out = tmp_path / "out"
    assert main(["analyze", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["oracle"]["passed"] is True
    assert report["oracle"]["inside_pass"] == 100
    assert report["oracle"]["outside_pass"] == 100
    lines = (out / "gaps.csv").read_text().splitlines()
    assert lines[0] == "t,gap"
    assert len(lines) == 52  # header + 51 grid points
    t, gap = lines[1].split(",")
    assert float(t) == 0.0
    assert float(gap) == 0.0


def test_analyze_identical_graphs_verdict(tmp_path):
    config = example_config(validate=False)
    config["variation"] = {"modified_graph": config["base_graph"]}
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "no variation"
    assert report["indiscernible"]["dim"] == 12


def test_analyze_link_variation_matches_modified_graph(tmp_path):
    explicit = write_config(tmp_path, example_config(validate=False), "explicit.json")
    by_link = example_config(validate=False)
    by_link["variation"] = {"link": {"kind": "remove_edge", "i": 1, "j": 3}}
    linked = write_config(tmp_path, by_link, "link.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["analyze", explicit, "--out", str(out1)]) == 0
    assert main(["analyze", linked, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()


def test_analyze_two_node_detectable(tmp_path):
    path = write_config(tmp_path, two_node_config(validate=True))
    out = tmp_path / "out"
    assert main(["analyze", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["indiscernible"]["dim"] == 2
    assert report["verdict"] == "detectable-outside-sync"
    assert report["corrected_condition"]["verdict"] == "holds"
    assert report["oracle"]["passed"] is True


def test_analyze_seed_flag_overrides(tmp_path):
    path = write_config(tmp_path, example_config(validate=True))
    out = tmp_path / "out"
    assert main(["analyze", path, "--out", str(out), "--seed", "5"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["oracle"]["seed"] == 5


def test_validation_failure_exits_two(tmp_path, capsys):
    # an absurd tolerance forces inside samples to "fail": exit code 2
    config = example_config(validate=True)
    config["options"]["rel_tol"] = 1e-18
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 2
    assert "FAILED" in capsys.readouterr().err
    assert (out / "report.json").exists()  # report still written, exit code flags it


def test_report_round_trip_is_byte_identical(tmp_path):
    path = write_config(tmp_path, example_config(validate=True))
    out = tmp_path / "out"
    assert main(["analyze", path, "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    assert canonical_json(json.loads(text)) == text


def test_cached_parser_carries_no_state_between_calls(tmp_path):
    assert _build_parser() is _build_parser()
    path = write_config(tmp_path, example_config(validate=False))
    calls = {
        "a": ["analyze", path, "--validate", "--tol", "1e-6"],
        "b": ["analyze", path],
        "c": ["paper-example"],
    }
    for name, argv in calls.items():  # each call first in a fresh parser
        _build_parser.cache_clear()
        assert main(argv + ["--out", str(tmp_path / f"fresh-{name}")]) == 0
    _build_parser.cache_clear()
    for name, argv in calls.items():  # then all three through one parser
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    for name in calls:
        assert (tmp_path / name / "report.json").read_bytes() == (
            tmp_path / f"fresh-{name}" / "report.json"
        ).read_bytes()
    assert not (tmp_path / "b" / "gaps.csv").exists()
    assert json.loads((tmp_path / "b" / "report.json").read_text())["oracle"] is None


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def enumerate_config(kinds):
    config = example_config(validate=False)
    config["variation"] = {"enumerate": {"kinds": kinds}}
    return config


def test_enumerate_remove_and_add(tmp_path):
    path = write_config(tmp_path, enumerate_config(["remove_edge", "add_edge"]))
    out = tmp_path / "out"
    assert main(["enumerate", path, "--out", str(out)]) == 0
    rows = json.loads((out / "variations.json").read_text())["rows"]
    assert len(rows) == 6
    assert all(row["extra_dim"] >= 3 for row in rows)
    csv_lines = (out / "variations.csv").read_text().splitlines()
    assert csv_lines[0] == "variation,indiscernible_dim,extra_dim,corrected_condition"
    assert len(csv_lines) == 7


def test_enumerate_remove_only_rows(tmp_path):
    path = write_config(tmp_path, enumerate_config(["remove_edge"]))
    out = tmp_path / "out"
    assert main(["enumerate", path, "--out", str(out)]) == 0
    rows = json.loads((out / "variations.json").read_text())["rows"]
    assert len(rows) == 4
    by_name = {row["variation"]: row for row in rows}
    assert by_name["remove_edge(1,3)"]["indiscernible_dim"] == 6


def test_enumerate_empty_for_edgeless_base(tmp_path):
    config = enumerate_config(["remove_edge"])
    config["base_graph"] = {"nodes": 3, "edges": []}
    out = tmp_path / "out"
    assert main(["enumerate", write_config(tmp_path, config), "--out", str(out)]) == 0
    assert json.loads((out / "variations.json").read_text())["rows"] == []


def test_jobs_flag_leaves_outputs_unchanged(tmp_path, capsys):
    # --jobs stays accepted on every subcommand and changes nothing: each
    # runs its analyses in one process
    config = example_config(validate=True)
    config["options"]["sample_count"] = 10
    commands = {
        "analyze": ["analyze", write_config(tmp_path, config, "analyze.json")],
        "enumerate": ["enumerate", "--validate", write_config(
            tmp_path, enumerate_config(["remove_edge"]), "enumerate.json")],
        "paper-example": ["paper-example"],
    }
    for name, args in commands.items():
        runs = []
        for flags in ([], ["--jobs", "1"], ["--jobs", "2"]):
            out = tmp_path / "-".join([name, *flags])
            assert main(args + flags + ["--out", str(out)]) == 0
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            runs.append((files, capsys.readouterr().out))
        assert runs[0][0] and runs[0] == runs[1] == runs[2], name


def test_each_laplacian_is_validated_once(tmp_path, monkeypatch):
    # the 66 rows of the 12-node ring with chords share one base, a
    # validated network: assemble_transition validates L once, and the
    # rows, one chunk, are validated in one call whose stack holds each
    # Lbar once, in order; a standalone analyze validates each of its two
    # Laplacians once, also when the oracle builds Phibar from the Lbar it
    # validated
    calls = []
    validate = graphs.validate_laplacian
    for module in (network, discernibility):
        monkeypatch.setattr(module, "validate_laplacian",
                            lambda L: calls.append(np.copy(L)) or validate(L))
    graph = ring_with_chords(12)
    config = enumerate_config(["remove_edge", "add_edge"])
    config["base_graph"] = {
        "nodes": 12, "edges": [{"i": i, "j": j, "w": w} for i, j, w in graph.edges]}
    assert run_enumerate(config, str(tmp_path)) == 0
    assert len(json.loads((tmp_path / "variations.json").read_text())["rows"]) == 66
    L = laplacian(graph)
    Lbars = [Lvar for _, Lvar in enumerate_single_link_variations(L, ["remove_edge", "add_edge"])]
    assert [M.shape for M in calls] == [(12, 12), (66, 12, 12)]
    assert [M.tobytes() for M in calls] == [L.tobytes(), np.array(Lbars).tobytes()]
    Lbar = LinkVariation("disconnect_node", 1).apply(L)
    for opts in (AnalyzeOptions(), AnalyzeOptions(validate=True)):
        calls.clear()
        analyze(example_dynamics(), L, Lbar, opts)
        assert [M.shape for M in calls] == [(12, 12), (1, 12, 12)]
        assert [M.tobytes() for M in calls] == [L.tobytes(), Lbar.tobytes()]


@pytest.mark.parametrize("kind", ["non-finite", "skewed", "shifted", "overflow"])
def test_a_bad_row_is_named_for_its_variation(tmp_path, capsys, monkeypatch, kind):
    # row 30 of the 66 of the 12-node ring with chords, in the middle of
    # the one chunk they are checked in, fails one check: the run exits 1
    # with one error line, naming that row's variation and the message its
    # Laplacian gives alone, and writes no output
    graph = ring_with_chords(12)
    config = enumerate_config(["remove_edge", "add_edge"])
    config["base_graph"] = {
        "nodes": 12, "edges": [{"i": i, "j": j, "w": w} for i, j, w in graph.edges]}
    L = laplacian(graph)
    entries = list(enumerate_single_link_variations(L, ["remove_edge", "add_edge"]))
    var, Lbar = entries[30]
    entries[30] = var, bad_row(kind, L, Lbar)
    monkeypatch.setattr(cli, "enumerate_single_link_variations", lambda *args: iter(entries))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["enumerate", write_config(tmp_path, config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid config: {var.describe()}: {BAD_ROWS[kind]}\n"
    assert not out.exists()


def test_enumerate_rows_form_no_indiscernible_basis(tmp_path, monkeypatch):
    # a row reports its indiscernible dimension, which is counted from the
    # modal parts: the 66 rows of the 12-node ring with chords form none of
    # their bases, while a report, which writes its basis, forms one
    made = []
    spanned = Subspace.spanned
    monkeypatch.setattr(Subspace, "spanned",
                        lambda *args: made.append(spanned(*args)) or made[-1])
    graph = ring_with_chords(12)
    config = enumerate_config(["remove_edge", "add_edge"])
    config["base_graph"] = {
        "nodes": 12, "edges": [{"i": i, "j": j, "w": w} for i, j, w in graph.edges]}
    assert run_enumerate(config, str(tmp_path)) == 0
    assert len(made) == 66 and not any("basis" in vars(space) for space in made)
    made.clear()
    report_to_dict(analyze(example_dynamics(), laplacian(graph),
                           LinkVariation("disconnect_node", 1).apply(laplacian(graph))))
    assert len(made) == 1 and "basis" in vars(made[0])


def test_enumerate_clusters_each_base_block_once(tmp_path, monkeypatch):
    # 66 rows of the 12-node ring with chords: the rows never compute the
    # shared modal span, so they cluster no block spectrum; reading the
    # span of a row clusters at most each base block with a repeated
    # eigenvalue, and no other block
    graph = ring_with_chords(12)
    config = enumerate_config(["remove_edge", "add_edge"])
    config["base_graph"] = {
        "nodes": 12, "edges": [{"i": i, "j": j, "w": w} for i, j, w in graph.edges]}
    dyn = example_dynamics()
    L = laplacian(graph)
    dec = assemble_transition(dyn, L)

    calls = {"eig": 0, "shared_modal_subspace": 0}

    def count_calls(module, name):
        wrapped = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(module, name, wrapper)

    count_calls(discernibility, "eig")
    count_calls(discernibility, "shared_modal_subspace")
    assert run_enumerate(config, str(tmp_path)) == 0
    rows = json.loads((tmp_path / "variations.json").read_text())["rows"]
    assert len(rows) == 66
    assert calls == {"eig": 0, "shared_modal_subspace": 0}

    entries = list(enumerate_single_link_variations(laplacian(graph), ["remove_edge", "add_edge"]))
    assert len(entries) == 66
    for _, Lvar in entries:
        analyze(dyn, L, Lvar, base=dec).shared_modal
    assert calls["shared_modal_subspace"] == 66
    w, _ = dec.block_eig
    repeated = sum(len(cluster_indices(w[int(group[0])], dec.cluster_tol)) < dyn.n
                   for group in dec.alpha_groups)
    assert calls["eig"] <= len(entries) * repeated


def test_enumerate_rows_never_cluster_collisions(tmp_path, monkeypatch):
    # a row reports only the corrected condition's verdict, so no row
    # forms its collision list; every one of these rows is violated
    graph = ring_with_chords(12)
    config = enumerate_config(["remove_edge", "add_edge", "reweight_edge", "disconnect_node"])
    config["variation"]["enumerate"]["reweight_to"] = 2.5
    config["base_graph"] = {
        "nodes": 12, "edges": [{"i": i, "j": j, "w": w} for i, j, w in graph.edges]}

    def refuse(*args):
        raise AssertionError("an enumerate row clustered the block spectra")

    monkeypatch.setattr(discernibility, "cluster_indices", refuse)
    assert run_enumerate(config, str(tmp_path)) == 0
    rows = json.loads((tmp_path / "variations.json").read_text())["rows"]
    assert len(rows) == 92 and all(r["corrected_condition"] == "violated" for r in rows)
    # the reported analysis does read them, through the same name
    report = analyze(example_dynamics(), laplacian(graph),
                     LinkVariation("disconnect_node", 1).apply(laplacian(graph)))
    with pytest.raises(AssertionError, match="clustered"):
        report_to_dict(report)


def test_enumerate_validate_takes_one_norm_of_the_base(tmp_path, monkeypatch):
    # the decomposition and every row's oracle read the 2-norm kept on the
    # one shared base system
    graph = ring_with_chords(8)
    config = enumerate_config(["remove_edge", "add_edge"])
    config["base_graph"] = {
        "nodes": 8, "edges": [{"i": i, "j": j, "w": w} for i, j, w in graph.edges]}
    phi = assemble_transition(example_dynamics(), laplacian(graph)).phi
    base_norms = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2 and np.shape(x) == phi.shape and np.array_equal(x, phi):
            base_norms.append(ord)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    assert run_enumerate(config, str(tmp_path), cli_validate=True) == 0
    rows = json.loads((tmp_path / "variations.json").read_text())["rows"]
    assert len(rows) == 28 and all(row["oracle_passed"] for row in rows)
    assert len(base_norms) == 1


def test_only_the_oracle_forms_the_varied_transition_matrix(tmp_path, monkeypatch):
    # a variation enters the analysis as L - Lbar: enumerate rows and a
    # plain analyze form only the base Phi, and with the oracle each
    # report forms its Phibar once
    built = []
    form = NetworkSystem.phi.func

    def counted(system):
        built.append(system.laplacian)
        return form(system)

    phi = cached_property(counted)
    phi.__set_name__(NetworkSystem, "phi")
    monkeypatch.setattr(NetworkSystem, "phi", phi)
    graph = ring_with_chords(8)
    L = laplacian(graph)
    config = enumerate_config(["remove_edge", "add_edge"])
    config["base_graph"] = {
        "nodes": 8, "edges": [{"i": i, "j": j, "w": w} for i, j, w in graph.edges]}
    assert run_enumerate(config, str(tmp_path / "plain")) == 0
    assert len(built) == 1 and np.array_equal(built[0], L)

    built.clear()
    assert run_enumerate(config, str(tmp_path / "validated"), cli_validate=True) == 0
    rows = json.loads((tmp_path / "validated" / "variations.json").read_text())["rows"]
    assert len(rows) == 28 and len(built) == 1 + 28
    assert np.array_equal(built[0], L)
    assert not any(np.array_equal(Lbar, L) for Lbar in built[1:])

    dyn, Lbar = example_dynamics(), LinkVariation("disconnect_node", 2).apply(L)
    for validate, want in ((False, [L]), (True, [L, Lbar])):
        built.clear()
        report = analyze(dyn, L, Lbar, AnalyzeOptions(validate=validate))
        report_to_dict(report)
        assert [M.tobytes() for M in built] == [M.tobytes() for M in want], validate


def test_enumerate_requires_enumerate_variation(tmp_path, capsys):
    path = write_config(tmp_path, example_config(validate=False))
    assert main(["enumerate", path]) == 1
    assert "variation.enumerate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, variation, message",
    [
        ("enumerate", {"enumerate": {"kinds": [["remove_edge"]]}},
         "variation kinds must be strings"),
        ("enumerate", {"enumerate": {"kinds": [1, "x"]}}, "variation kinds must be strings"),
        ("analyze", {"link": ["remove_edge"]}, "link variation must be an object"),
    ],
    ids=["unhashable_kind", "mixed_kinds", "link_list"],
)
def test_malformed_variations_are_config_errors(tmp_path, capsys, command, variation,
                                                message):
    config = example_config(validate=False)
    config["variation"] = variation
    out = tmp_path / "out"
    assert main([command, write_config(tmp_path, config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and message in err, err
    assert not out.exists()


# ---------------------------------------------------------------------------
# paper-example subcommand
# ---------------------------------------------------------------------------


def test_paper_example_subcommand(tmp_path):
    out = tmp_path / "out"
    assert main(["paper-example", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["indiscernible"]["dim"] == 6
    assert report["oracle"]["passed"] is True
    assert (out / "gaps.csv").exists()


def test_paper_example_matches_shipped_config(tmp_path):
    out1, out2 = tmp_path / "direct", tmp_path / "via-config"
    assert main(["paper-example", "--out", str(out1)]) == 0
    path = write_config(tmp_path, example_config(validate=True))
    assert main(["analyze", path, "--validate", "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()


# ---------------------------------------------------------------------------
# shipped scenario files
# ---------------------------------------------------------------------------

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_shipped_scenario_matches_embedded_config():
    path = os.path.join(REPO_ROOT, "scenarios", "paper_example.json")
    with open(path) as fh:
        assert fh.read() == canonical_json(example_config(validate=True))


def test_shipped_two_node_scenario_analyzes(tmp_path):
    path = os.path.join(REPO_ROOT, "scenarios", "two_node_detectable.json")
    out = tmp_path / "out"
    assert main(["analyze", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "detectable-outside-sync"
    assert report["indiscernible"]["dim"] == 2


# ---------------------------------------------------------------------------
# config loading details
# ---------------------------------------------------------------------------


def test_load_config_requires_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_nested_matrix_rows_accepted(tmp_path):
    config = two_node_config()
    config["node_dynamics"]["A"] = [[1.0, 0.0], [0.0, 10.0]]
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["indiscernible"]["dim"] == 2


def test_time_grid_spec_forms(tmp_path):
    config = two_node_config(validate=True)
    config["options"]["time_grid"] = {"t_max": 2.0, "step": 0.5}
    out = tmp_path / "out"
    assert main(["analyze", write_config(tmp_path, config), "--out", str(out)]) == 0
    lines = (out / "gaps.csv").read_text().splitlines()
    assert len(lines) == 6  # header + t in {0, 0.5, 1, 1.5, 2}


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

SCIPY_PROBE = """
import json, sys
import netdiscern, netdiscern.cli
loaded = [["import", "scipy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    loaded.append([netdiscern.cli.main(argv), "scipy" in sys.modules])
print(json.dumps(loaded))
"""


def test_no_command_imports_scipy(tmp_path):
    # NumPy is the only numerical dependency: importing the CLI, screening
    # the link variations of a 12-node ring with chords, the paper example,
    # validating every single-link variation of the example and of the
    # 8-node ring with chords (whose blocks at alpha = 3 -+ sqrt(3) hold a
    # defective eigenvalue 1, the case schur_basis serves) and one
    # analysis of random dynamics all run in one process without SciPy
    def ring_config(N, kinds):
        config = enumerate_config(kinds)
        ring = ring_with_chords(N)
        config["base_graph"] = {"nodes": ring.node_count,
                                "edges": [{"i": i, "j": j, "w": w} for i, j, w in ring.edges]}
        return config

    ring_path = write_config(tmp_path, ring_config(12, ["remove_edge", "add_edge"]), "ring.json")
    config = enumerate_config(["remove_edge", "add_edge", "reweight_edge", "disconnect_node"])
    config["variation"]["enumerate"]["reweight_to"] = 2.5
    example_path = write_config(tmp_path, config, "example.json")
    ring8_path = write_config(tmp_path, ring_config(8, ["remove_edge", "add_edge"]), "ring8.json")
    rng = np.random.default_rng(41)
    config = two_node_config()
    config["node_dynamics"] = {"n": 3, "A": rng.uniform(-1, 1, 9).tolist(),
                               "B": rng.uniform(-1, 1, 9).tolist()}
    random_path = write_config(tmp_path, config, "random.json")
    commands = [["enumerate", ring_path, "--out", str(tmp_path / "enumerate")],
                ["paper-example", "--out", str(tmp_path / "paper")],
                ["enumerate", example_path, "--validate", "--out", str(tmp_path / "validated")],
                ["enumerate", ring8_path, "--validate", "--out", str(tmp_path / "ring8")],
                ["analyze", random_path, "--out", str(tmp_path / "random")]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(network.__file__)))
    probe = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
                           env=env, capture_output=True, text=True, timeout=300, check=True)
    loaded = json.loads(probe.stdout.splitlines()[-1])
    assert loaded == [["import", False]] + [[0, False]] * len(commands)
    rows = json.loads((tmp_path / "enumerate" / "variations.json").read_text())["rows"]
    assert len(rows) == 12 * 11 // 2
    rows = json.loads((tmp_path / "validated" / "variations.json").read_text())["rows"]
    assert len(rows) == 14 and all(row["oracle_passed"] for row in rows)
    rows = json.loads((tmp_path / "ring8" / "variations.json").read_text())["rows"]
    assert len(rows) == 8 * 7 // 2 and all(row["oracle_passed"] for row in rows)
