"""In-memory span tracer that wraps the program's public calls from outside.

The tracer never edits the program: it replaces bound methods on the
instances the benchmark builds (and, where the program builds its own
instances, the module-level name it builds them through) with thin
wrappers that record one span per call. A span is ``(id, run, parent,
name, start, end)`` in seconds of the process's CPU time (the clock the
whole benchmark uses, see ``worker.py``); the parent is the
span open on the same stack when the call began, so self time falls out
as duration minus the children's durations.

Spans stay in memory while the workload runs and are written to a CSV
file only when the worker exits.
"""

from __future__ import annotations

import csv
import time
from array import array
from collections import defaultdict

_clock = time.process_time


class Tracer:
    """Collects spans and per-boundary counters for one worker process."""

    def __init__(self) -> None:
        # One row per closed span, in closing order, held in typed arrays
        # (about 40 bytes a span) so that a run with a million engine
        # steps does not distort the memory it is measuring.
        self._ids = array("q")
        self._runs = array("q")
        self._parents = array("q")
        self._names = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = 0  # id stamped on new spans: the simulation run they belong to
        self._stack: list[int] = []
        self._next_id = 0

    # ---- recording --------------------------------------------------------

    def begin(self, name: str) -> tuple[int, int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, self.run, _clock()

    def end(self, token: tuple[int, int, int, float], name: str) -> None:
        end = _clock()
        span_id, parent, run, start = token
        self._stack.pop()
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self._ids.append(span_id)
        self._runs.append(run)
        self._parents.append(parent)
        self._names.append(name_id)
        self._starts.append(start)
        self._ends.append(end)

    @property
    def spans(self):
        """Every closed span as ``(id, run, parent, name, start, end)``."""
        names = self.names
        for row in zip(
            self._ids, self._runs, self._parents, self._names, self._starts, self._ends
        ):
            yield row[0], row[1], row[2], names[row[3]], row[4], row[5]

    def __len__(self) -> int:
        return len(self._ids)

    def traced(self, fn, name: str, after=None):
        """``fn`` wrapped so each call records a span called ``name``.

        ``after(result)``, when given, runs outside the span and feeds
        the boundary counters from what the call returned.
        """
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            token = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(token, name)
            if after is not None:
                after(out)
            return out

        return wrapper

    def wrap(self, obj, attr: str, name: str, after=None) -> None:
        """Replace ``obj.attr`` (a bound method) by its traced form."""
        setattr(obj, attr, self.traced(getattr(obj, attr), name, after))

    # ---- analysis ---------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span name: call durations and summed self time.

        A span's self time is its duration minus the durations of the
        spans whose parent it is.
        """
        children = [0.0] * self._next_id
        for parent, start, end in zip(self._parents, self._starts, self._ends):
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, _, _, name, start, end in self.spans:
            entry = out.setdefault(name, {"durations": [], "self_s": 0.0})
            entry["durations"].append(end - start)
            entry["self_s"] += end - start - children[span_id]
        return out

    def write(self, path: str) -> None:
        """Dump every span, ordered by start time, as CSV."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "run", "parent", "name", "start_s", "end_s"])
            for row in sorted(self.spans, key=lambda s: s[4]):
                out.writerow(row)

