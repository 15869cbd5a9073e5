"""Span tracer installed from outside the package, at its public functions.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every loaded ``uvbraid`` module that holds a reference to it, because
modules import one another's functions by name (``semidirect`` calls
its own ``normal_form`` and ``build_graph``, ``cli`` its own
``build_graph``).  A wrapper records one span per call: name, start,
end, parent span, the op it ran in, and counts read from the call's
arguments and result.  Spans stay in memory until ``dump``.

A target that the package no longer defines is skipped, so its metrics
read zero calls instead of failing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable

TARGETS = (
    ("words", "parse_word"),
    ("perms", "rho_word"),
    ("raag", "build_graph"),
    ("raag", "normal_form"),
    ("raag", "clique_number"),
    ("raag", "is_p3_free"),
    ("raag", "f2xf2_witness"),
    ("raag", "dominating_vertices"),
    ("semidirect", "to_normal_form"),
    ("semidirect", "expand_kword"),
    ("quotients", "quotient_order"),
    ("homs", "enumerate_homs"),
    ("homs", "verify_homspec"),
    ("oracle", "rewrite_rules"),
    ("oracle", "bfs_equal"),
    ("cli", "run"),
)

# Counts read at the call boundary: name -> (args, result) -> {count: value}.
COUNTERS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "raag.normal_form": lambda args, res: {"letters_in": len(args[0]), "letters_out": len(res)},
    "oracle.bfs_equal": lambda args, res: {"explored": res.explored, "proven": int(res.proven)},
    "quotients.quotient_order": lambda args, res: {"closure_size": res.closure_size or 0},
    "homs.enumerate_homs": lambda args, res: {"found": len(res)},
}

PACKAGE = "uvbraid"


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        # (name, start_ns, end_ns, parent index or -1, op index or -1, counts)
        self.spans: list[tuple] = []
        self.op = -1
        self.active = True  # False while the benchmark checks answers
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if counter is not None:
                spans[idx] = (name, start, end, parent, self.op, counter(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for modname, fname in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            original = getattr(home, fname, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per function over spans[first:last]: calls, total and self ns, summed counts.

        Self time is a span's duration minus that of its direct children.
        """
        child_ns: dict[int, int] = {}
        for k in range(first, last):
            _, start, end, parent, _, _ = self.spans[k]
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: dict[str, dict[str, float]] = {}
        for k in range(first, last):
            name, start, end, _, _, counts = self.spans[k]
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns.get(k, 0)
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
                 "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
