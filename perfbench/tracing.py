"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` wraps plain functions.  Each call of a wrapped function is
a span with a call id, a name, the id of the enclosing traced call (0 at top
level) and its start and end on ``time.perf_counter``.  Self time is the
span's duration minus the durations of the traced spans directly inside it;
single-threaded code never overlaps siblings, so that is the uncovered part
of its interval.  None of the wrapped functions recurse, so inclusive totals
never count an interval twice.

The first ``keep_limit`` spans of each name are kept one by one.  Later
calls of that name are folded into one aggregate per (name, parent call):
hot functions such as ``hyp_cdf`` run millions of times in a verify sweep,
and keeping each span would cost more memory than the run itself.
Everything stays in memory until :meth:`Tracer.write` at process end.
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable, Iterable
from types import ModuleType

KEEP_LIMIT = 10_000


class Tracer:
    def __init__(self, keep_limit: int = KEEP_LIMIT) -> None:
        self.keep_limit = keep_limit
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.folded: dict[tuple[str, int], list[float]] = {}
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._next_id = 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` with every call recorded as a span called ``name``."""
        clock = time.perf_counter
        stack = self._stack
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call_id = self._next_id
            self._next_id = call_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [call_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                record(name, call_id, parent, start, end, duration - frame[1])

        return traced

    def count_items(self, name: str, fn: Callable[..., Iterable]) -> Callable:
        """Return generator function ``fn`` with the items it yields counted as ``name``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[name] = self.counters.get(name, 0) + 1
                yield item

        return counted

    def _record(
        self, name: str, call_id: int, parent: int, start: float, end: float, self_s: float
    ) -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += end - start
        total[2] += self_s
        if total[0] <= self.keep_limit:
            self.spans.append((call_id, name, parent, start, end))
            return
        key = (name, parent)
        folded = self.folded.get(key)
        if folded is None:
            folded = self.folded[key] = [0, 0.0, 0.0]
        folded[0] += 1
        folded[1] += end - start
        folded[2] += self_s

    def summary(self) -> dict:
        return {
            "totals": {name: list(t) for name, t in self.totals.items()},
            "counters": dict(self.counters),
            "spans": sum(int(t[0]) for t in self.totals.values()),
        }

    def write(self, path: str, trace_id: str, extra: dict) -> None:
        """Write the summary, the kept spans and the folded aggregates as JSON."""
        document = {
            "trace_id": trace_id,
            **self.summary(),
            **extra,
            "span_fields": ["call_id", "name", "parent", "start", "end"],
            "kept_spans": self.spans,
            "folded_fields": ["name", "parent", "calls", "total_s", "self_s"],
            "folded_spans": [[n, p, *agg] for (n, p), agg in self.folded.items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def rebind(original: object, replacement: object, modules: Iterable[ModuleType]) -> list[tuple]:
    """Point every module attribute that is ``original`` at ``replacement``.

    Rebinding every attribute, not just the defining module's, also catches
    the copies that ``from .x import f`` leaves in other modules.  Returns
    the (module, attribute) pairs changed, for :func:`restore`.
    """
    changed = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr, original))
    return changed


def restore(changed: Iterable[tuple]) -> None:
    for module, attr, original in changed:
        setattr(module, attr, original)
