"""Span recording around confkit's public functions, from outside the package.

`Recorder.install` rebinds every listed function in each `confkit.*` module
namespace that holds it (for example `confkit.typecheck.infer` and
`confkit.inference.validate_configuration`), so calls between modules are
recorded too.  A span is `[name, start_ns, end_ns, parent, op, size]`:
`parent` is the index of the enclosing span (-1 for none), `op` the
benchmark operation it belongs to, and `size` the number of components of
the configuration the call returned or received first (0 if neither).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = {
    "textfmt": ("parse_config", "parse_spec", "print_config", "parse_changeset", "parse_journal"),
    "model": ("validate_configuration", "validate_spec"),
    "inference": ("infer",),
    "typecheck": ("compliant", "direct_check", "compatible"),
    "lifecycle": ("extend", "update", "remove", "undo"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
# functions whose self time is fitted against the operation's component count
SIZE_EXP = ("textfmt.parse_config", "model.validate_configuration", "inference.infer",
            "typecheck.compliant", "typecheck.compatible")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._find_bindings()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _find_bindings(self) -> list[tuple]:
        """(module, name, original, wrapper) for every confkit namespace
        entry that holds one of the listed functions."""
        from confkit.model import Configuration

        wrappers = {}
        for module, fns in LAYERS.items():
            mod = importlib.import_module(f"confkit.{module}")
            for fn in fns:
                original = getattr(mod, fn)
                wrappers[original] = self._wrap(f"{module}.{fn}", original, Configuration)
        bindings = []
        for name, mod in list(sys.modules.items()):
            if name == "confkit" or name.startswith("confkit."):
                bindings += [(mod, attr, value, wrappers[value])
                             for attr, value in vars(mod).items()
                             if callable(value) and value in wrappers]
        return bindings

    def _wrap(self, name: str, fn, configuration_type):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if isinstance(result, configuration_type):
                span[5] = len(result)
            elif args and isinstance(args[0], configuration_type):
                span[5] = len(args[0])
            return result

        return traced

    def add(self, spans: list[list]) -> None:
        """Append spans recorded in another process for the current op."""
        base = len(self.spans)
        for name, start, end, parent, _, size in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op, size])

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(self time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(ns) for _, ns in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans: list[list], op_sizes: list[int]) -> dict[str, tuple[float, str]]:
    """Calls and self time per op for every function, parse throughput, and
    the size exponents.  Self time is a span's duration minus the durations
    of its direct children."""
    ops = len(op_sizes)
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    per_op: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    parsed = 0
    for (name, _, _, _, op, size), ns in zip(spans, own):
        calls[name] += 1
        self_ns[name] += ns
        per_op[name][op] += ns
        if name == "textfmt.parse_config":
            parsed += size

    out: dict[str, tuple[float, str]] = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = (calls[fn] / ops, "calls/op")
        out[f"{fn}.self_ms"] = (self_ns[fn] / ops / 1e6, "ms/op")
    parse_s = self_ns["textfmt.parse_config"] / 1e9
    out["textfmt.parse_config.components_per_s"] = (parsed / parse_s if parse_s else 0.0, "1/s")
    for fn in SIZE_EXP:
        points = [(op_sizes[op], ns) for op, ns in per_op[fn].items() if ns > 0]
        sizes = [size for size, _ in points]
        # fitted only where the op sizes span at least a factor of two
        fit = len(points) >= 8 and max(sizes) >= 2 * min(sizes)
        out[f"{fn}.size_exp"] = (_slope(points) if fit else 0.0, "exponent")
    return out
