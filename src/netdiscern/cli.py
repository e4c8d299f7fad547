"""Command-line front end: scenario configs in, JSON/CSV reports out.

Subcommands
-----------
analyze <config>    full discernibility report for one topology variation
enumerate <config>  one table row per single-link variation of the base graph
paper-example       run the bundled demonstration scenario with validation

Config schema (JSON)
--------------------
{
  "node_dynamics": {"n": 3, "A": [  ... n*n row-major ... ], "B": [ ... ]},
  "base_graph":    {"nodes": 4, "edges": [{"i": 1, "j": 2, "w": 1.0}, ...]},
  "variation":     {"modified_graph": { ... graph ... }}
                 | {"link": {"kind": "remove_edge", "i": 1, "j": 3}}
                 | {"enumerate": {"kinds": ["remove_edge", "add_edge"]}},
  "options":       {"tol": 1e-8, "validate": true, "seed": 0, ...}
}

Exit codes: 0 success, 1 input error (including an oracle time grid so long
that a matrix exponential overflows; no output is written), 2 oracle
validation failure.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import json
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from .discernibility import AnalyzeOptions, DiscernibilityReport, analyze_rows, check_pair
from .discernibility import analyze  # noqa: F401 - looked up here by the benchmark's tracer test
from .example import example_config
from .graphs import (
    Graph,
    LinkVariation,
    VARIATION_KINDS,
    enumerate_single_link_variations,
    laplacian,
)
from .linalg import Subspace
from .network import NetworkInvariantMode, NodeDynamics, assemble_transition
from .oracle import DEFAULT_TIME_GRID, OracleConfig, ValidationSummary


class ConfigError(ValueError):
    """Invalid input configuration (exit code 1)."""


# The default grid has 51 points.  Every point costs matrix products in each
# oracle check, so a grid far past this bound would not finish in useful time.
MAX_TIME_GRID_POINTS = 100_000


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, floats at 17
    significant digits. Re-reading and re-serializing a canonical document
    is byte-identical.

    A list whose items are all exactly ``float`` (a subspace basis, a
    complex pair), or all ``[re, im]`` lists of two such floats (a mode
    vector), is formatted by one "%.17g" template applied once; every
    other value is emitted item by item. Both follow one float rule:
    ``-0.0`` is written as ``0``, and NaN or infinity raises ValueError."""
    return _dumps(obj, 0) + "\n"


def _dumps(obj, level: int) -> str:
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "  " * (level + 1)
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError("JSON object keys must be strings")
            items.append(f"{inner}{json.dumps(key)}: {_dumps(obj[key], level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + "  " * level + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "  " * (level + 1)
        sep = f",\n{inner}"
        if all(type(x) is float for x in obj):
            template, values = sep.join(["%.17g"] * len(obj)), obj
        elif all(type(x) is list and len(x) == 2 and type(x[0]) is float
                 and type(x[1]) is float for x in obj):
            # [re, im] pairs (a mode vector), one template for all of them
            pair = f"[\n{inner}  %.17g,\n{inner}  %.17g\n{inner}]"
            template, values = sep.join([pair] * len(obj)), [y for x in obj for y in x]
        else:
            body = sep.join([_dumps(x, level + 1) for x in obj])
            return f"[\n{inner}{body}\n" + "  " * level + "]"
        # x + 0.0 turns -0.0 into 0.0; a finite float's %.17g form has no
        # "n", while NaN and infinity format as "nan" and "inf"
        body = template % tuple([x + 0.0 for x in values])
        if "n" in body:
            raise ValueError("non-finite float cannot be serialized")
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
        return _fmt_float(obj)
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename, so an
    interrupted run never leaves a partial output file.  The temp file gets
    the mode ``open`` gives, 0o666 less the umask (mkstemp's is 0o600)."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"invalid config in {path}: top level must be an object")
    return data


def _integer(value, name: str) -> int:
    """A JSON integer or an integral number, never a boolean, a string or
    a fractional number."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A JSON number, integer or not, never a boolean or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _parse_matrix(entries, n: int, name: str) -> np.ndarray:
    """n*n entries, flat or in rows, each under the ``_real`` rule."""
    arr = np.asarray([[_real(x, f"{name} entry") for x in row]
                      if isinstance(row, list) else _real(row, f"{name} entry")
                      for row in entries], dtype=float)
    if arr.ndim == 1:
        if arr.size != n * n:
            raise ConfigError(
                f"invalid config: {name} has {arr.size} entries, expected {n * n}"
            )
        arr = arr.reshape(n, n)
    elif arr.shape != (n, n):
        raise ConfigError(
            f"invalid config: {name} has shape {arr.shape}, expected ({n}, {n})"
        )
    return arr


def _parse_dynamics(data: dict) -> NodeDynamics:
    try:
        nd = data["node_dynamics"]
        n = _integer(nd["n"], "n")
        A = _parse_matrix(nd["A"], n, "A")
        B = _parse_matrix(nd["B"], n, "B")
    except KeyError as exc:
        raise ConfigError(f"invalid config: missing node_dynamics key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: bad node_dynamics ({exc})") from exc
    try:
        return NodeDynamics(A, B)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _parse_graph(data, context: str) -> Graph:
    if not isinstance(data, dict):
        raise ConfigError(f"invalid config: {context} must be an object")
    try:
        nodes = _integer(data["nodes"], "nodes")
        edges = [
            (_integer(e["i"], "edge i"), _integer(e["j"], "edge j"),
             _real(e.get("w", 1.0), "edge w"))
            for e in data.get("edges", [])
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: bad {context} ({exc})") from exc
    try:
        return Graph(nodes, tuple(edges))
    except ValueError as exc:
        raise ConfigError(f"invalid config: {context}: {exc}") from exc


def _parse_link(data) -> LinkVariation:
    if not isinstance(data, dict):
        raise ConfigError("invalid config: link variation must be an object")
    try:
        kind = data["kind"]
    except KeyError as exc:
        raise ConfigError("invalid config: link variation needs a kind") from exc
    if kind not in VARIATION_KINDS:
        raise ConfigError(f"invalid config: unknown variation kind {kind!r}")
    try:
        if kind == "disconnect_node":
            return LinkVariation(kind, _integer(data["node"], "node"))
        target = (_integer(data["i"], "i"), _integer(data["j"], "j"))
        w = data.get("w")
        return LinkVariation(kind, target, None if w is None else _real(w, "w"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: bad link variation ({exc})") from exc


def _parse_options(data: dict) -> dict:
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise ConfigError("invalid config: options must be an object")
    known = {
        "tol",
        "rank_tol",
        "validate",
        "seed",
        "sample_count",
        "rel_tol",
        "time_grid",
    }
    unknown = set(opts) - known
    if unknown:
        raise ConfigError(f"invalid config: unknown options {sorted(unknown)}")
    return opts


def _time_grid_from(opts: dict) -> tuple[float, ...]:
    grid = opts.get("time_grid")
    if grid is None:
        return DEFAULT_TIME_GRID
    if isinstance(grid, dict):
        try:
            t_max = _real(grid["t_max"], "t_max")
            step = _real(grid["step"], "step")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config: bad time_grid ({exc})") from exc
        if not (math.isfinite(step) and math.isfinite(t_max)
                and step > 0 and t_max >= 0):
            raise ConfigError(
                "invalid config: time_grid needs finite step > 0, t_max >= 0"
            )
        # k * step for every k with k * step <= t_max, to a few ulps of the
        # ratio's roundoff (0.3 / 0.1 < 3); inf when the count overflows a float
        ratio = t_max / step * (1 + 4 * sys.float_info.epsilon)
        count = math.floor(ratio) + 1 if math.isfinite(ratio) else ratio
        _check_grid_size(count)
        return tuple(float(k * step) for k in range(count))
    try:
        times = tuple(_real(t, "time_grid entry") for t in grid)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: bad time_grid ({exc})") from exc
    _check_grid_size(len(times))
    return times


def _check_grid_size(count) -> None:
    """Reject an oracle time grid of more than MAX_TIME_GRID_POINTS points;
    a ``{t_max, step}`` grid is checked before any point is built."""
    if count > MAX_TIME_GRID_POINTS:
        raise ConfigError(f"invalid config: time_grid has {count} points, "
                          f"more than {MAX_TIME_GRID_POINTS}")


def _analyze_options(opts: dict, cli_tol, cli_seed, cli_validate) -> AnalyzeOptions:
    validate = opts.get("validate", False)
    if type(validate) is not bool:
        raise ConfigError(
            f"invalid config: validate must be true or false, got {validate!r}"
        )
    try:
        eig_tol = (_real(opts.get("tol", 1e-8), "tol") if cli_tol is None
                   else float(cli_tol))
        seed = _integer(opts.get("seed", 0), "seed") if cli_seed is None else int(cli_seed)
        oracle = OracleConfig(
            time_grid=_time_grid_from(opts),
            rel_tol=_real(opts.get("rel_tol", 1e-7), "rel_tol"),
            sample_count=_integer(opts.get("sample_count", 100), "sample_count"),
            seed=seed,
        )
        return AnalyzeOptions(
            rank_tol=_real(opts.get("rank_tol", 1e-10), "rank_tol"),
            eig_tol=eig_tol,
            validate=validate or cli_validate,
            oracle=oracle,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: {exc}") from exc


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _subspace_dict(S: Subspace) -> dict:
    """A reported subspace, whose basis is real."""
    return {
        "ambient_dim": int(S.ambient_dim),
        "dim": int(S.dim),
        "basis": S.basis.reshape(-1).tolist(),  # row-major ambient x dim
    }


def _mode_dict(mode: NetworkInvariantMode) -> dict:
    return {
        "value": _complex_pair(mode.value),
        "vector": [_complex_pair(z) for z in np.asarray(mode.vector).reshape(-1)],
    }


def _summary_dict(summary: ValidationSummary) -> dict:
    worst_out = summary.outside_worst_gap
    return {
        "rel_tol": float(summary.rel_tol),
        "seed": int(summary.seed),
        "inside_total": int(summary.inside_total),
        "inside_pass": int(summary.inside_pass),
        "inside_worst_gap": float(summary.inside_worst_gap),
        "outside_total": int(summary.outside_total),
        "outside_pass": int(summary.outside_pass),
        "outside_worst_gap": None if worst_out is None else float(worst_out),
        "passed": bool(summary.passed),
    }


def report_to_dict(report: DiscernibilityReport) -> dict:
    corrected = report.corrected
    return {
        "node_count": int(report.node_count),
        "node_dim": int(report.node_dim),
        "ambient_dim": int(report.ambient_dim),
        "verdict": report.verdict,
        "indiscernible": _subspace_dict(report.indiscernible),
        "sync_overlap_dim": int(report.sync_overlap_dim),
        "extra_dim": int(report.extra_dim),
        "shared_modal": _subspace_dict(report.shared_modal),
        "invariant_modes": [_mode_dict(m) for m in report.invariant_modes],
        "corrected_condition": {
            "verdict": corrected.verdict,
            "tol": float(corrected.tol),
            "min_cross_gap": float(corrected.min_cross_gap)
            if math.isfinite(corrected.min_cross_gap)
            else None,
            "collisions": [
                {"alphas": list(alphas), "value": _complex_pair(lam)}
                for lam, alphas in corrected.collisions
            ],
        },
        "oracle": None
        if report.oracle_summary is None
        else _summary_dict(report.oracle_summary),
    }


def _gaps_csv(summary: ValidationSummary) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "gap"])
    for t, gap in summary.continuous_trace:
        writer.writerow([_fmt_float(t), _fmt_float(gap)])
    return out.getvalue()


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------


def _checked(context: str, check, *args):
    """check(*args), whose ValueError is an input error naming ``context``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {context}: {exc}") from exc


def _reports(dyn: NodeDynamics, net, rows, opts: AnalyzeOptions, name=str):
    """(label, report) for each (label, Lbar) of ``rows``, in order, from
    ``analyze_rows`` on the base ``net``.  When a chunk fails, its first row
    that fails alone is an input error named ``name(label)``; any other
    ValueError propagates unchanged."""
    pending = collections.deque()  # each row read and not yet reported
    laplacians = (pending.append(row) or row[1] for row in rows)
    try:
        for report in analyze_rows(dyn, net.laplacian, laplacians, opts, net):
            yield pending.popleft()[0], report
    except ValueError:
        for label, Lbar in pending:
            _checked(name(label), check_pair, dyn, net.laplacian, [Lbar], net)
        raise


def _resolve_pair(config: dict) -> tuple[NodeDynamics, Graph, Callable[[np.ndarray], np.ndarray]]:
    """The dynamics, the base graph and the varied Laplacian as a function
    of the base's: a modified graph's own, or the link's edit of it."""
    dyn = _parse_dynamics(config)
    if "base_graph" not in config:
        raise ConfigError("invalid config: missing base_graph")
    base = _parse_graph(config["base_graph"], "base_graph")
    variation = config.get("variation")
    if not isinstance(variation, dict):
        raise ConfigError("invalid config: variation must be an object")
    if "modified_graph" in variation:
        varied = _parse_graph(variation["modified_graph"], "modified_graph")
        if varied.node_count != base.node_count:
            raise ConfigError(
                "invalid config: node counts differ between base and modified graphs "
                f"({base.node_count} vs {varied.node_count})"
            )
        return dyn, base, lambda L: laplacian(varied)
    if "link" in variation:
        return dyn, base, _parse_link(variation["link"]).apply
    if "enumerate" in variation:
        raise ConfigError(
            "invalid config: this scenario enumerates variations; "
            "use the enumerate subcommand"
        )
    raise ConfigError("invalid config: variation must contain modified_graph, link, or enumerate")


def run_analyze(config: dict, out_dir: str, cli_tol=None, cli_seed=None,
                cli_validate: bool = False) -> int:
    """Analyze one explicit variation; writes report.json (+ gaps.csv when
    validating).  Returns the process exit code."""
    dyn, base, vary = _resolve_pair(config)
    opts = _analyze_options(_parse_options(config), cli_tol, cli_seed, cli_validate)
    net = _checked("base_graph", assemble_transition, dyn, _checked("base_graph", laplacian, base))
    Lbar = _checked("varied graph", vary, net.laplacian)
    [(_, report)] = _reports(dyn, net, [("varied graph", Lbar)], opts)

    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "report.json"), canonical_json(report_to_dict(report)))
    if report.oracle_summary is not None:
        _write_atomic(os.path.join(out_dir, "gaps.csv"), _gaps_csv(report.oracle_summary))

    print(f"verdict: {report.verdict}")
    print(f"indiscernible dim {report.indiscernible.dim} (sync {report.node_dim}, "
          f"extra {report.extra_dim}); corrected condition {report.corrected.verdict}")
    if report.oracle_summary is not None:
        s = report.oracle_summary
        print(f"oracle: inside {s.inside_pass}/{s.inside_total}, "
              f"outside {s.outside_pass}/{s.outside_total}")
        if not s.passed:
            print("oracle validation FAILED", file=sys.stderr)
            return 2
    return 0


def run_enumerate(config: dict, out_dir: str, cli_tol=None, cli_seed=None,
                  cli_validate: bool = False) -> int:
    """Analyze every single-link variation of the base graph, one table row
    per variation in enumeration order."""
    dyn = _parse_dynamics(config)
    if "base_graph" not in config:
        raise ConfigError("invalid config: missing base_graph")
    base = _parse_graph(config["base_graph"], "base_graph")
    variation = config.get("variation")
    if not isinstance(variation, dict) or "enumerate" not in variation:
        raise ConfigError("invalid config: enumerate needs variation.enumerate")
    spec = variation["enumerate"]
    if not isinstance(spec, dict) or "kinds" not in spec:
        raise ConfigError("invalid config: variation.enumerate needs kinds")
    kinds = spec["kinds"]
    if not isinstance(kinds, list) or not kinds:
        raise ConfigError("invalid config: enumerate kinds must be a nonempty list")
    reweight_to = spec.get("reweight_to")
    opts = _analyze_options(_parse_options(config), cli_tol, cli_seed, cli_validate)
    L = _checked("base_graph", laplacian, base)

    try:
        if reweight_to is not None:
            reweight_to = _real(reweight_to, "reweight_to")
        entries = enumerate_single_link_variations(L, kinds, reweight_to)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    net = _checked("base_graph", assemble_transition, dyn, L)  # after the enumeration's checks

    # the rows are checked and decided a chunk at a time, against one base
    rows = []
    for var, report in _reports(dyn, net, entries, opts, LinkVariation.describe):
        summary = report.oracle_summary
        rows.append({
            "variation": var.describe(),
            "kind": var.kind,
            "indiscernible_dim": int(report.indiscernible.dim),
            "extra_dim": int(report.extra_dim),
            "corrected_condition": report.corrected.verdict,
            "verdict": report.verdict,
            "oracle_passed": None if summary is None else bool(summary.passed),
        })

    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "variations.json"), canonical_json({"rows": rows}))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = ["variation", "indiscernible_dim", "extra_dim", "corrected_condition"]
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    _write_atomic(os.path.join(out_dir, "variations.csv"), out.getvalue())

    width = max([len(r["variation"]) for r in rows] + [len("variation")])
    print(f"{'variation':<{width}}  ind_dim  extra_dim  corrected")
    for row in rows:
        print(f"{row['variation']:<{width}}  {row['indiscernible_dim']:>7}  "
              f"{row['extra_dim']:>9}  {row['corrected_condition']}")
    if opts.validate and any(row["oracle_passed"] is False for row in rows):
        print("oracle validation FAILED", file=sys.stderr)
        return 2
    return 0


def run_paper_example(out_dir: str, cli_tol=None, cli_seed=None) -> int:
    """Run the bundled scenario with oracle validation enabled."""
    return run_analyze(example_config(validate=True), out_dir, cli_tol, cli_seed, True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdiscern",
        description=(
            "Decide whether a topology variation in a network of identical "
            "linear subsystems is detectable from its natural response."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="eigenvalue-matching tolerance override")
        p.add_argument("--seed", type=int, default=None,
                       help="oracle sampling seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: every subcommand runs in "
                            "one process")

    pa = sub.add_parser("analyze", help="analyze one topology variation")
    pa.add_argument("config", help="scenario config JSON")
    pa.add_argument("--validate", action="store_true",
                    help="check the result against the trajectory oracle")
    add_common(pa)

    pe = sub.add_parser("enumerate", help="analyze every single-link variation")
    pe.add_argument("config", help="scenario config JSON")
    pe.add_argument("--validate", action="store_true",
                    help="check each row against the trajectory oracle")
    add_common(pe)

    pp = sub.add_parser("paper-example",
                        help="run the bundled demonstration scenario")
    add_common(pp)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "paper-example":
            return run_paper_example(args.out, args.tol, args.seed)
        run = run_analyze if args.command == "analyze" else run_enumerate
        return run(load_config(args.config), args.out, args.tol, args.seed, args.validate)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # the oracle's trajectories e^{Phi t} outgrew float64 before any
        # output was written
        print(f"error: {exc}; shorten the time_grid option", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
