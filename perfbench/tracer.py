"""Span tracer for one `groupcompress` CLI process.

Run as ``python perfbench/tracer.py SPANS.json <groupcompress args...>``
with ``src`` on ``PYTHONPATH``. It wraps every public function (and public
classmethod) of the layer modules in a span, rebinds each name wherever the
package imported it, then calls ``groupcompress.cli.main`` with the given
arguments, so the calls and their order are exactly those of the CLI. Spans
are kept in memory and written to SPANS.json once, at exit.

A span is ``[name, parent_index, start, end]``; ``name`` is
``<layer>.<function>`` and ``parent_index`` is -1 at the top.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "modelio", "schedule", "decompose", "reconstruct", "model", "linalg")
PACKAGE_MODULES = LAYERS + ("fixtures", "degeneracy")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def install(self) -> int:
        """Wrap the layer modules' public callables; returns how many."""
        modules = {m: importlib.import_module(f"groupcompress.{m}") for m in PACKAGE_MODULES}
        package = importlib.import_module("groupcompress")
        replaced = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for cattr, cobj in list(vars(obj).items()):
                        if isinstance(cobj, classmethod) and not cattr.startswith("_"):
                            setattr(obj, cattr, classmethod(
                                self.wrap(f"{layer}.{attr}.{cattr}", cobj.__func__)))
        for module in (*modules.values(), package):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
        return len(replaced)


def summarize(spans: list[list]) -> dict:
    """Self time (span minus its children) per function and per layer.

    Raises ValueError if the spans do not nest, i.e. a self time is negative.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(float)
    for i, (name, parent, start, end) in enumerate(spans):
        self_s = (end - start) - child_time[i]
        if self_s < -1e-9 or end < start:
            raise ValueError(f"span {i} ({name}) does not nest: self time {self_s}")
        row = by_name[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
        by_layer[name.split(".", 1)[0]] += self_s
    return {"functions": dict(by_name), "layer_self_s": dict(by_layer)}


def total(spans: list[list], name: str) -> float:
    return sum(end - start for n, _, start, end in spans if n == name)


def children_total(spans: list[list], parent_name: str) -> float:
    """Summed duration of the direct children of every span named ``parent_name``."""
    parents = {i for i, s in enumerate(spans) if s[0] == parent_name}
    return sum(end - start for _, parent, start, end in spans if parent in parents)


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Calls of ``name`` that run inside a span named ``ancestor``."""
    def inside(i):
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][1]
        return False
    return sum(1 for s in spans if s[0] == name and inside(s[1]))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from groupcompress import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
