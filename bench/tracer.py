"""Traced run of one rumorsim CLI command, instrumented from outside the package.

Usage::

    PYTHONPATH=src python3 bench/tracer.py STATS_JSON COMMAND ARGS...

Before handing ``COMMAND ARGS...`` to ``rumorsim.cli.run_cli`` this wraps
every public function of the layer modules, and the public methods and
``__init__`` of the classes they define, then rebinds every module-level
name that refers to an original so that calls across layers go through the
wrapper.  Each wrapper counts calls and keeps inclusive and self time; the
first calls of each function also leave a span (name, parent span, start,
end).
Everything stays in memory until the command returns, then goes to
STATS_JSON in one write.  The process exits with the command's exit code.

The wrappers roughly double the cost of per-pair work, so end-to-end numbers
must come from untraced processes; this file only feeds the per-layer view.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("config", "graph", "similarity", "gated", "simulate", "diffusion", "rng", "evaluate", "cli")
# later calls of a function are only aggregated: per-pair calls number millions
SPANS_PER_FUNCTION = 2000
_ACTIVATION_LABELS = frozenset({"diffuser", "infected", "adopted"})


class Tracer:
    """Per-function call counts and times, the first spans of each function, extra counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        # one frame per active wrapped call: [time in wrapped children, nearest span id]
        self._stack = []

    def wrap(self, name: str, fn, post=None):
        """Return ``fn`` wrapped; ``post(args, result)`` may replace the result."""
        stack = self._stack
        spans = self.spans
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = -1
            if calls[name] < SPANS_PER_FUNCTION:
                sid = len(spans)
                spans.append([name, parent, 0.0, 0.0])
            # a call without a span of its own hands its parent to its children
            frame = [0.0, sid if sid >= 0 else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if sid >= 0:
                    spans[sid][2:] = (start, end)
            if post is not None:
                result = post(args, result)
            return result

        return traced

    # post hooks: counters measured where the work happens

    def _wrap_admit(self, args, admit):
        return self.wrap("gated.admit", admit, self._count_admit)

    def _count_admit(self, args, passed):
        if passed:
            self.counters["gated.admit_passes"] += 1
        return passed

    def _count_activations(self, args, result):
        traces, _ = result
        for trace in traces:
            # the classical models whose steps draw random numbers
            draws = trace.model.value in ("sir", "ic")
            for step, delta in trace.changes.items():
                if step == 0:
                    continue
                if draws:
                    self.counters["diffusion.changes"] += len(delta)
                self.counters["simulate.activations"] += sum(
                    1 for _, label in delta if label in _ACTIVATION_LABELS
                )
        return result

    def _count_trace_rows(self, args, result):
        traces, path = args[0], args[1]
        self.counters["simulate.trace_rows"] += sum(
            len(delta) for trace in traces for delta in trace.changes.values()
        )
        self.counters["simulate.trace_bytes"] += os.path.getsize(path)
        return result

    def install(self) -> None:
        """Wrap the public callables of every layer and rebind every reference."""
        modules = {name: importlib.import_module(f"rumorsim.{name}") for name in LAYERS}
        package = importlib.import_module("rumorsim")
        hooks = {
            "gated.admission_test": self._wrap_admit,
            "simulate.run_trials": self._count_activations,
            "simulate.write_trace_csv": self._count_trace_rows,
        }
        replaced = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{layer}.{attr}"
                    replaced[id(value)] = self.wrap(name, value, hooks.get(name))
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            setattr(value, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        # Calls from score into cosine, levenshtein and the rest stay inside
        # the similarity layer and happen once per gate check; rebinding them
        # would double the wrapper cost on the hottest path for no boundary.
        namespaces = [vars(m) for n, m in modules.items() if n != "similarity"]
        namespaces.append(vars(package))
        for namespace in namespaces:
            for attr, value in list(namespace.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    namespace[attr] = wrapper

    def report(self) -> dict:
        layer_self = defaultdict(float)
        for name, seconds in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        return {
            "functions": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
            "counters": dict(self.counters),
            "spans": self.spans,
        }


def main(argv) -> int:
    stats_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("rumorsim.cli")
    code = cli.run_cli(command)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
