"""In-memory span recording, the span file format, and self-time analysis.

A span is one call into a traced function: a name, a start and an end
(``time.perf_counter_ns``), the index of the span that was open when it
began (-1 for none), and the operation id of the process that recorded it.
Spans are appended in call order, so a parent always precedes its children.
All spans of one process share its operation id, which is therefore stored
once in the file header and attached again on reading.

File layout: one JSON header line, then four native int64 arrays of equal
length (starts, ends, name indices, parents).
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import namedtuple
from time import perf_counter_ns

Span = namedtuple("Span", "name start end parent op")


class Recorder:
    """Collects spans and counters for one traced process (one thread)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.starts = array("q")
        self.ends = array("q")
        self.name_idx = array("q")
        self.parents = array("q")
        self.stack = [-1]
        self.counters = {}

    def name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, note=None, classify=None):
        """``fn`` recording one span per call.

        ``classify(args)`` picks the span's name id per call instead of
        ``name``; ``note(args, result)`` runs after the span has ended.
        """
        starts, ends, name_idx, parents, stack = (
            self.starts,
            self.ends,
            self.name_idx,
            self.parents,
            self.stack,
        )
        fixed = self.name_id(name)
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_idx.append(classify(args) if classify else fixed)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return functools.wraps(fn)(traced)

    def dump(self, path, op, extra=None):
        header = {
            "op": op,
            "names": self.names,
            "counters": self.counters,
            "spans": len(self.starts),
        }
        header.update(extra or {})
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for arr in (self.starts, self.ends, self.name_idx, self.parents):
                arr.tofile(fh)


def load(path):
    """(header, starts, ends, name indices, parents) from a span file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _ in range(4):
            arr = array("q")
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return (header, *arrays)


def read_spans(path):
    """The spans of one file as :class:`Span` tuples."""
    header, starts, ends, name_idx, parents = load(path)
    names = header["names"]
    return [
        Span(names[i], s, e, p, header["op"])
        for s, e, i, p in zip(starts, ends, name_idx, parents)
    ]


def self_times(starts, ends, parents):
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread records them), so the
    covered time is the sum of their durations.
    """
    self_ns = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            self_ns[p] -= ends[i] - starts[i]
    return self_ns


def summarize(path):
    """Per-name call counts and self time (ns), plus the file header."""
    header, starts, ends, name_idx, parents = load(path)
    calls = [0] * len(header["names"])
    self_ns = [0] * len(header["names"])
    total_ns = [0] * len(header["names"])
    for i, own in zip(name_idx, self_times(starts, ends, parents)):
        calls[i] += 1
        self_ns[i] += own
    for i, s, e in zip(name_idx, starts, ends):
        total_ns[i] += e - s
    names = header["names"]
    return header, {
        name: {"calls": calls[i], "self_ns": self_ns[i], "total_ns": total_ns[i]}
        for i, name in enumerate(names)
    }
