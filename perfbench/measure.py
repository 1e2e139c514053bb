"""Measurement primitives shared by the workloads.

* :func:`percentile` -- nearest-rank percentiles of a sample list;
* :func:`calibrate_ms` -- the machine's current speed at Python work;
* :class:`Spans` -- the benchmark's own in-memory span recorder, used
  around calls into the program's public functions in traced runs;
* :class:`GcMeter` -- garbage-collection pause time via ``gc.callbacks``;
* :func:`peak_rss_mb` -- peak resident set size of this process or of
  its waited-for children.
"""

from __future__ import annotations

import gc
import math
import resource
import sys
import threading
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager, nullcontext


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: What :func:`calibrate_ms` takes on the reference machine state, in ms.
#: Normalized times are expressed at that speed (see NOTES.md, "Machine speed").
CALIBRATION_REF_MS = 3.5

#: A fixed namespaced document of 150 small records for :func:`calibrate_ms`.
_CALIBRATION_XML = "<r xmlns='urn:calibration'>" + "".join(
    f'<e a="{index}" b="v{index}"><n>t{index}</n><c/></e>' for index in range(150)
) + "</r>"


def calibrate_ms() -> float:
    """Wall time in ms of a fixed piece of Python work.

    The two kinds of work the program's ops are made of, with none of the
    program's code: interpreter work (dicts, lists, tuples, strings and a
    sort) and parsing XML with the C parser, then walking the tree in
    Python.  So it measures how fast the machine runs such code right
    now; either kind alone tracked the ops less closely (NOTES.md).  The
    collector is off meanwhile: a collection that falls due runs in the
    next op, whose garbage it frees, and not inside the calibration.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[str, list] = {}
        for index in range(4000):
            key = f"k{index % 251}"
            table.setdefault(key, []).append((index, key))
        rows = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
        ",".join(key for key, _values in rows)
        size = 0
        for _ in range(3):
            for element in ET.fromstring(_CALIBRATION_XML).iter():
                size += len(element.attrib) + len(element.tag.rpartition("}")[2])
                size += len(element.text or "")
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS in MB (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    return peak / scale


_NULL = nullcontext()


def no_span(_name: str):
    """The untraced stand-in for :meth:`Spans.span`: records nothing."""
    return _NULL


class Spans:
    """Spans ``(name, start, end, parent, op)`` kept in memory.

    ``span(name)`` is a context manager; spans nest by call structure per
    thread.  ``op`` groups the spans of one operation (the index of its
    root span).  Untraced ops get :func:`no_span` instead, so they run the
    same code without recording.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), 0.0, parent, None]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        record[4] = self.records[parent][4] if parent is not None else index
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name, the self time of each op in ms.

        A span's self time is its duration minus the time its children
        cover; an op's value for a name sums that name's spans in the op.
        """
        child_ms = [0.0] * len(self.records)
        for name, start, end, parent, _op in self.records:
            if parent is not None:
                child_ms[parent] += (end - start) * 1000.0
        per_op: dict[str, dict[int, float]] = {}
        for index, (name, start, end, _parent, op) in enumerate(self.records):
            own = (end - start) * 1000.0 - child_ms[index]
            by_op = per_op.setdefault(name, {})
            by_op[op] = by_op.get(op, 0.0) + own
        return {name: list(by_op.values()) for name, by_op in per_op.items()}

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.records
        ]


class GcMeter:
    """Total collector pause time while installed, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)
