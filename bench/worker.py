"""The measured process: runs one workload's passes through
``netdiscern.cli.main`` in-process and records time per pass.

    python3 bench/worker.py <src_dir> <job.json>

``job.json`` holds the argv of every call of a pass (without ``--out``),
the output root, the seconds to measure, the trace flag and where to write
the result and the spans.  Passes repeat until the seconds are up (at
least three).  With tracing off, each pass is followed by one set-up
sample: a fresh interpreter times ``import netdiscern.cli``.  Spreading
the samples over the run, rather than taking them back to back, averages
over the machine's slow swings in speed.  With tracing on, untraced and
traced passes alternate so their difference is the tracing overhead.
The process runs nothing but this workload, so its ru_maxrss is the
workload's peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(directory) for f in files)


def _setup_sample(src_dir: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    netdiscern.cli.  The child reads the same monotonic clock when the
    import is done, so its exit and the wait for it are not counted."""
    code = (f"import sys, time; sys.path.insert(0, {src_dir!r}); "
            "import netdiscern.cli; print(time.perf_counter())")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                          capture_output=True, text=True).stdout
    return float(done) - t0


def _run(cli, argv: list[str]) -> int:
    """Exit code of one CLI call; an exception is reported and counted as
    a failed call (-1) so the remaining calls still run."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def main() -> int:
    src_dir, job_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, src_dir)
    import netdiscern.cli as cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    passes, layers, spans, setup = [], [], [], []
    deadline = time.perf_counter() + job["seconds"]
    p = 0
    while p < 3 or time.perf_counter() < deadline:
        traced = tracer is not None and p % 2 == 1
        out_dir = os.path.join(job["out_root"], f"pass-{p:03d}")
        if traced:
            tracer.reset()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        with contextlib.redirect_stdout(io.StringIO()):
            rcs = [_run(cli, argv + ["--out", os.path.join(out_dir, f"call-{k:03d}")])
                   for k, argv in enumerate(job["calls"])]
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        if traced:
            tracer.uninstall()
        passes.append({"pass": p, "wall_s": wall, "cpu_s": cpu, "traced": traced,
                       "exit_codes": rcs})
        if traced:
            layer = tracer.summary()
            layer["cli.output_bytes"] = _tree_bytes(out_dir)
            layer["trace.spans"] = len(tracer.spans)
            layers.append(layer)
            spans.extend([p, *s] for s in tracer.spans)
        elif tracer is None:
            setup.append(_setup_sample(src_dir))
        p += 1

    if spans:
        with open(job["spans_path"], "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    result = {"passes": passes, "layers": layers, "setup_s": setup,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
