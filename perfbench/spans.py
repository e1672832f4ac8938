"""In-memory spans around calls into the package's public functions.

A ``Tracer`` replaces a function in the namespace of the module that calls
it (for example ``choquet_emv.rl.standardized_draw``) with a wrapper that
records one span per call: name, start, end, parent span and a group id
(one per episode, cell or report).  Wrappers exist only inside the
``with tracer:`` block; leaving it puts every original function back.
"""

from __future__ import annotations

import csv
import functools
from collections import defaultdict
from time import perf_counter

# span layout: [id, parent id (-1 at top level), name, group, start, end]
_ID, _PARENT, _NAME, _GROUP, _START, _END = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.group = ""
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()
        self._index_size = -1
        self._by_name: dict[str, list[list]] = {}
        self._children: dict[int, list[tuple[float, float]]] = {}

    def wrap_fn(self, fn, name: str, on_enter=None, on_exit=None):
        """Return ``fn`` wrapped so that every call records a span.

        ``on_enter(args)`` runs before the span opens (it may set the
        group); ``on_exit(result)`` runs after a call that returned.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            span = [len(spans), stack[-1][_ID] if stack else -1, name, self.group,
                    perf_counter(), 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(result)
            return result

        return wrapper

    def replace(self, module, attr: str, new) -> None:
        """Set ``module.attr`` to ``new`` until the ``with`` block ends."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def patch(self, module, attr: str, name: str, on_enter=None, on_exit=None):
        """Replace ``module.attr`` by a span-recording wrapper until exit."""
        self.replace(module, attr, self.wrap_fn(getattr(module, attr), name, on_enter, on_exit))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def _index(self) -> None:
        if self._index_size == len(self.spans):
            return
        self._by_name, self._children = defaultdict(list), defaultdict(list)
        for s in self.spans:
            self._by_name[s[_NAME]].append(s)
            if s[_PARENT] >= 0:
                self._children[s[_PARENT]].append((s[_START], s[_END]))
        self._index_size = len(self.spans)

    def named(self, name: str) -> list[list]:
        self._index()
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def durations(self, name: str) -> list[float]:
        return [s[_END] - s[_START] for s in self.named(name)]

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def self_s(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what their children cover."""
        total = 0.0
        for s in self.named(name):
            covered, reach = 0.0, s[_START]
            for start, end in sorted(self._children.get(s[_ID], ())):
                start, end = max(start, reach), min(end, s[_END])
                if end > start:
                    covered += end - start
                    reach = end
            total += (s[_END] - s[_START]) - covered
        return total

    def write(self, path) -> None:
        """Write every span as one CSV row, times relative to tracer creation."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "parent", "name", "group", "start_s", "end_s"])
            for s in self.spans:
                out.writerow([s[_ID], s[_PARENT], s[_NAME], s[_GROUP],
                              f"{s[_START] - self._t0:.9f}", f"{s[_END] - self._t0:.9f}"])
