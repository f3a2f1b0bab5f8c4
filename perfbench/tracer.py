"""Span recorder installed from outside the package.

The tracer replaces module and class attributes of racemarket with wrappers
that record one span per call: name, parent span, start and end in
nanoseconds.  Spans are kept in compact arrays in memory and written out
once, after the traced run.  Optional callbacks add deterministic counts
(competitor-ticks, matches, bytes written) at the same boundaries.

Worker processes forked from a traced process call straight through: spans
from another process could not be joined to this one's anyway.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

_UNSET = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_call=None, on_result=None, errors=()):
        """A callable that runs fn inside a span called name.

        on_call(counts, args) runs before the call, on_result(counts, args,
        result) after it returns; a raised exception of a type in errors
        counts as name + ".raised" and propagates.
        """
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts = self._stack, self.counts
        clock = time.perf_counter_ns
        raised_key = name + ".raised"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            if on_call is not None:
                on_call(counts, args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[raised_key] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, fn=None, **hooks) -> None:
        """Replace owner.attr (a module or class attribute) with a traced wrapper.

        fn defaults to the current owner.attr; pass it to wrap a subclass's
        inherited method as it was before its base class was patched.
        """
        old = owner.__dict__.get(attr, _UNSET)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, self.wrap(name, fn or getattr(owner, attr), **hooks))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _UNSET:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- after the run ------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns (total minus direct children)."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child_ns = [0] * len(starts)
        for sid, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += ends[sid] - starts[sid]
        stats = {n: {"calls": 0, "total_ns": 0, "self_ns": 0} for n in self.names}
        for sid, nid in enumerate(self.span_name):
            s = stats[self.names[nid]]
            dur = ends[sid] - starts[sid]
            s["calls"] += 1
            s["total_ns"] += dur
            s["self_ns"] += dur - child_ns[sid]
        return stats

    def write(self, path: Path) -> None:
        """All spans as CSV: id, parent id (-1 for a root), name, start and end in ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for sid, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{sid},{parent},{names[nid]},{start},{end}\n")
