"""Span-tree profiling: deterministic call-tree profiles over finished spans.

The tracer answers "*what happened* during this run"; this module answers
"*where did the time go*".  :func:`build_profile` folds any number of
finished span trees into a :class:`Profile` -- one :class:`ProfileNode`
per unique root-to-span *name path* (the call-tree shape, so two
``xsdgen.library`` spans under different parents aggregate separately) --
recording per node:

* ``count`` -- how many spans landed on the path,
* ``wall_ms`` / ``self_wall_ms`` -- total wall time, and wall time not
  attributed to child spans,
* ``cpu_ms`` / ``self_cpu_ms`` -- the same split for thread CPU time
  (``Span.cpu_ms``, captured via :func:`time.thread_time_ns`), so
  ``wall - cpu`` exposes waiting (locks, I/O, the GIL) per node,
* ``min_ms`` / ``max_ms`` -- wall-time extremes across occurrences.

Three renderings, all deterministic (stable sort keys, rounded floats):

* :meth:`Profile.render_table` -- a top-N hot-path table for terminals,
* :meth:`Profile.to_dict` / :meth:`Profile.render_json` -- machine-readable,
* :meth:`Profile.to_collapsed` -- collapsed-stack lines
  (``a;b;c <self-wall-microseconds>``), the input format of Brendan
  Gregg's ``flamegraph.pl`` and every speedscope-style viewer.

For function-level drill-down below span granularity,
:func:`cprofile_session` wraps a code region in :mod:`cProfile` and
:func:`cprofile_stats_text` formats the result -- used by
``upcc profile --cprofile-out``.  Everything here is read-side only: the
module never touches the hot path, so profiling costs nothing unless a
report is actually built.
"""

from __future__ import annotations

import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.obs.trace import Span, Tracer

#: Separator used by the collapsed-stack ("flamegraph") output format.
_STACK_SEP = ";"


@dataclass
class ProfileNode:
    """Aggregate facts for one call-tree path (tuple of span names)."""

    path: tuple[str, ...]
    count: int = 0
    wall_ms: float = 0.0
    self_wall_ms: float = 0.0
    cpu_ms: float = 0.0
    self_cpu_ms: float = 0.0
    min_ms: float | None = None
    max_ms: float | None = None

    @property
    def name(self) -> str:
        """The leaf span name of the path."""
        return self.path[-1]

    @property
    def stack(self) -> str:
        """The path in collapsed-stack notation (``root;child;leaf``)."""
        return _STACK_SEP.join(self.path)

    @property
    def depth(self) -> int:
        """Nesting depth (0 for root paths)."""
        return len(self.path) - 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation with rounded, stable values."""
        return {
            "stack": self.stack,
            "depth": self.depth,
            "count": self.count,
            "wall_ms": round(self.wall_ms, 3),
            "self_wall_ms": round(self.self_wall_ms, 3),
            "cpu_ms": round(self.cpu_ms, 3),
            "self_cpu_ms": round(self.self_cpu_ms, 3),
            "min_ms": round(self.min_ms, 3) if self.min_ms is not None else 0.0,
            "max_ms": round(self.max_ms, 3) if self.max_ms is not None else 0.0,
        }


@dataclass
class Profile:
    """A folded call-tree profile over one or more finished span trees."""

    nodes: dict[tuple[str, ...], ProfileNode] = field(default_factory=dict)
    span_count: int = 0

    # -- building -----------------------------------------------------------------

    def add_span_tree(self, root: Span) -> None:
        """Fold one finished span tree into the profile."""
        self._add(root, ())

    def _add(self, span_: Span, prefix: tuple[str, ...]) -> None:
        path = prefix + (span_.name,)
        node = self.nodes.get(path)
        if node is None:
            node = self.nodes[path] = ProfileNode(path)
        wall = span_.duration_ms
        cpu = span_.cpu_ms
        child_wall = sum(child.duration_ms for child in span_.children)
        child_cpu = sum(child.cpu_ms for child in span_.children)
        node.count += 1
        node.wall_ms += wall
        # Self time can dip below zero from clock granularity (a child's
        # rounded duration exceeding the parent's); clamp so totals stay sane.
        node.self_wall_ms += max(0.0, wall - child_wall)
        node.cpu_ms += cpu
        node.self_cpu_ms += max(0.0, cpu - child_cpu)
        node.min_ms = wall if node.min_ms is None else min(node.min_ms, wall)
        node.max_ms = wall if node.max_ms is None else max(node.max_ms, wall)
        self.span_count += 1
        for child in span_.children:
            self._add(child, path)

    # -- views --------------------------------------------------------------------

    def sorted_nodes(self, by: str = "self_wall_ms") -> list[ProfileNode]:
        """Nodes hottest-first; ties break on the stack path (deterministic)."""
        if by not in ("self_wall_ms", "wall_ms", "cpu_ms", "self_cpu_ms", "count"):
            raise ValueError(f"cannot sort a profile by {by!r}")
        return sorted(
            self.nodes.values(), key=lambda n: (-getattr(n, by), n.path)
        )

    def tree_nodes(self) -> list[ProfileNode]:
        """Nodes in call-tree order (parents before children, paths sorted)."""
        return [self.nodes[path] for path in sorted(self.nodes)]

    def render_table(self, top: int = 20, by: str = "self_wall_ms") -> str:
        """A top-N hot-path table, hottest (by ``by``) first."""
        nodes = self.sorted_nodes(by)[: max(1, top)]
        if not nodes:
            return "(no spans profiled)"
        header = (
            f"{'count':>6}  {'wall ms':>10}  {'self ms':>10}  "
            f"{'cpu ms':>10}  {'self cpu':>10}  path"
        )
        lines = [header, "-" * len(header)]
        for node in nodes:
            lines.append(
                f"{node.count:>6}  {node.wall_ms:>10.3f}  {node.self_wall_ms:>10.3f}  "
                f"{node.cpu_ms:>10.3f}  {node.self_cpu_ms:>10.3f}  {node.stack}"
            )
        lines.append(
            f"({len(self.nodes)} path(s), {self.span_count} span(s), "
            f"sorted by {by})"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """The whole profile as one JSON-ready mapping (call-tree order)."""
        return {
            "span_count": self.span_count,
            "paths": len(self.nodes),
            "nodes": [node.to_dict() for node in self.tree_nodes()],
        }

    def render_json(self, indent: int | None = 2) -> str:
        """The profile as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_collapsed(self) -> str:
        """Collapsed-stack lines: ``root;child;leaf <self-wall-us>``.

        The value is the node's *self* wall time in integer microseconds
        (flamegraph viewers sum leaf values up the stack themselves, so
        emitting totals would double-count).  Zero-valued stacks are kept:
        they still carry call-count information for diff tooling.
        """
        lines = [
            f"{node.stack} {int(round(node.self_wall_ms * 1000.0))}"
            for node in self.tree_nodes()
        ]
        return "\n".join(lines)

    def render(self, format: str = "table", top: int = 20) -> str:
        """Render in one of the CLI formats: table, json or collapsed."""
        if format == "table":
            return self.render_table(top=top)
        if format == "json":
            return self.render_json()
        if format == "collapsed":
            return self.to_collapsed()
        raise ValueError(f"unknown profile format {format!r}")


def build_profile(roots: Iterable[Span]) -> Profile:
    """Fold finished span trees (e.g. ``Tracer.roots``) into a profile."""
    profile = Profile()
    for root in roots:
        profile.add_span_tree(root)
    return profile


def profile_from_tracer(tracer: Tracer) -> Profile:
    """The profile of everything in the tracer's ring (empty if none)."""
    return build_profile(tracer.roots or ())


# -- Chrome trace-event export ----------------------------------------------------


def to_trace_events(
    roots: Iterable[Span], *, pid: int = 1
) -> dict[str, Any]:
    """Finished span trees as a Chrome trace-event JSON document.

    The returned object -- ``{"traceEvents": [...], "displayTimeUnit":
    "ms"}`` -- loads directly into Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.  Each span becomes one complete (``ph: "X"``)
    event with microsecond ``ts``/``dur``; timestamps are rebased so the
    earliest span starts at 0 (``Span.started_at`` is ``perf_counter``
    time, whose epoch is arbitrary).  Every tree renders on its own
    ``tid`` track so concurrent requests don't visually interleave, and
    span ids, status and attributes ride along in ``args``.
    """
    root_list = [root for root in roots if root is not None]
    if not root_list:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(root.started_at for root in root_list)
    events: list[dict[str, Any]] = []
    for tid, root in enumerate(root_list, start=1):
        for span_, _depth in root.walk():
            if not span_.finished:
                continue
            args: dict[str, Any] = {"id": span_.span_id, "status": span_.status}
            if span_.parent is not None:
                args["parent_id"] = span_.parent.span_id
            if span_.attributes:
                args.update(
                    {str(key): value for key, value in span_.attributes.items()}
                )
            if span_.error is not None:
                args["error"] = span_.error
            events.append({
                "name": span_.name,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round((span_.started_at - origin) * 1e6, 3),
                "dur": round(span_.duration_ms * 1000.0, 3),
                "cat": "span",
                "args": args,
            })
    events.sort(key=lambda event: (event["tid"], event["ts"], event["name"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_trace_events(roots: Iterable[Span], *, pid: int = 1) -> str:
    """:func:`to_trace_events` as a JSON string (what the capture files hold)."""
    return json.dumps(to_trace_events(roots, pid=pid), sort_keys=True)


# -- function-level drill-down ---------------------------------------------------


@contextmanager
def cprofile_session() -> Iterator[Any]:
    """Run the enclosed block under :mod:`cProfile`; yields the profiler.

    Span profiles show *which pipeline stage* is hot; this shows *which
    function*.  Deliberately separate from tracing so the (heavy)
    profiler only runs when explicitly attached.
    """
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()


def cprofile_stats_text(profiler: Any, top: int = 25, sort: str = "cumulative") -> str:
    """Format a :func:`cprofile_session` profiler as a pstats text report."""
    import pstats

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    return stream.getvalue()
