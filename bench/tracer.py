"""Outside-in tracer: wraps netdiscern's public functions from the
benchmark's own code, without touching the package's source.

A function is wrapped under every module attribute that refers to it, so a
call is seen however the caller looks the function up
(``discernibility.kernel``, ``network.kernel``, ``oracle.expm``,
``cli.analyze``, ...).  Spans (name, start, end, parent) and counters are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# Layer -> functions traced; names are reported as <module>.<function>.
TRACED = {
    "cli": ("main", "load_config", "report_to_dict", "canonical_json", "_write_atomic"),
    "graphs": ("laplacian", "enumerate_single_link_variations"),
    "network": ("assemble_transition", "network_invariant_modes", "sync_manifold"),
    "discernibility": ("analyze", "indiscernible_subspace", "shared_modal_subspace",
                       "corrected_condition"),
    "linalg": ("kernel", "eig", "subspace_intersect", "expm"),
    "oracle": ("validate_subspace",),
}
MODULES = ("netdiscern",) + tuple(f"netdiscern.{m}" for m in TRACED)
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; spans and
    counters accumulate until ``reset()``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        on_result = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, self.spans[idx][3])
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for qualified in FUNCTIONS:
            mod_name, fn_name = qualified.split(".")
            original = getattr(importlib.import_module(f"netdiscern.{mod_name}"), fn_name)
            wrapper = self._wrap(qualified, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, float]:
        """Per function: calls, total seconds and self seconds (duration
        minus the time covered by its direct child spans); plus counters."""
        out: dict[str, float] = {}
        for qualified in FUNCTIONS:
            for key in ("calls", "s", "self_s"):
                out[f"{qualified}.{key}"] = 0
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[idx]
        out.update(dict.fromkeys(COUNTERS, 0))
        out.update(self.counters)
        return out


def _count_kernel(tracer: Tracer, args, result) -> None:
    # Bytes of the full-matrices U that kernel's SVD allocates (rows^2
    # elements): computed from the argument's shape, not measured.
    M = np.asarray(args[0])
    tracer.count("linalg.kernel.u_bytes", M.shape[0] ** 2 * M.itemsize)


def _count_samples(tracer: Tracer, args, result) -> None:
    tracer.count("oracle.samples", result.inside_total + result.outside_total)


_COUNTERS = {"linalg.kernel": _count_kernel, "oracle.validate_subspace": _count_samples}
COUNTERS = ("linalg.kernel.u_bytes", "oracle.samples")
