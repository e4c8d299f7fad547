"""netdiscern benchmark: seeded workloads through the CLI entry point, with
an outside-in correctness gate and optional per-layer tracing.

    python3 bench/run.py --workload screen|oneshot|validate --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
result file with the environment, every pass and every failure goes to
``.bench_out/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("screen", "oneshot", "validate")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "jobs": 1,
    }


def run_worker(job: dict, job_path: Path) -> dict:
    """Run the worker; the timeout leaves room for passes far slower than
    ``--seconds``, so a slow program is reported, not cut off."""
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(SRC), str(job_path)],
                   check=True, timeout=4 * job["seconds"] + 120, stdout=subprocess.DEVNULL)
    return json.loads(Path(job["result_path"]).read_text())


def gate_passes(calls, passes: list[dict], out_root: Path) -> tuple[int, list[str]]:
    """Failed operations over every pass, and the failure messages."""
    import gate

    references = [gate.reference_rows(c) if c.command == "enumerate" else None
                  for c in calls]
    failed, messages = 0, []
    for p in passes:
        for k, call in enumerate(calls):
            where = f"pass {p['pass']} call {k} ({call.command})"
            if p["exit_codes"][k] != 0:
                errors = [f"exit code {p['exit_codes'][k]}"] * call.ops
            else:
                out_dir = out_root / f"pass-{p['pass']:03d}" / f"call-{k:03d}"
                try:
                    errors = gate.check_call_output(call, str(out_dir), references[k])
                except Exception as exc:  # missing or malformed output fails the call
                    errors = [f"unreadable output: {exc!r}"] * call.ops
            failed += min(len(errors), call.ops)
            messages += [f"{where}: {e}" for e in errors]
    return failed, messages


def end_to_end(passes: list[dict], maxrss_kb: int, setup: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": maxrss_kb / 1024.0, "unit": "MB"},
    }


def per_layer(passes: list[dict], layers: list[dict]) -> dict:
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced = statistics.median(p["wall_s"] for p in passes if p["traced"])
    metrics = {}
    for key in layers[0]:
        unit = "s" if key.endswith("_s") or key.endswith(".s") else (
            "bytes" if key.endswith("bytes") else "count")
        metrics[key] = {"value": statistics.median(layer[key] for layer in layers),
                        "unit": unit}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "netdiscern" / "cli.py").is_file():
        print(f"error: no netdiscern sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import make_plan, write_configs, argv

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        calls = make_plan(args.workload, args.seed)
        write_configs(calls, str(work / "inputs"))
        out_root = work / "out"
        job = {
            "calls": [argv(c) for c in calls],
            "out_root": str(out_root),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "result_path": str(work / "worker.json"),
            "spans_path": str(results / f"spans-{tag}.jsonl"),
        }
        worker = run_worker(job, work / "job.json")
        passes = worker["passes"]
        failed, messages = gate_passes(calls, passes, out_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(passes, worker["layers"])
    else:
        metrics = end_to_end(passes, worker["maxrss_kb"], worker["setup_s"])
    ops_per_pass = sum(c.ops for c in calls)
    attempted = ops_per_pass * len(passes)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {**line, "workload": args.workload, "environment": environment(args.seed),
              "ops_per_pass": ops_per_pass, "passes": passes,
              "setup_samples_s": worker["setup_s"],
              "failures": messages}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
