"""Timing spans: structured JSONL trace events with parent links.

A span measures one named region of work::

    with obs.span("simulate.fleet", scenario="quick"):
        ...

On exit the span appends one event to the process-wide buffer:
``name``, ``span_id``, ``parent_id`` (the span open on the same thread
when this one started, or ``None``), ``start`` (seconds since the
tracer's monotonic epoch), ``duration``, ``pid``, and the span's
attributes.  Events are buffered in memory and written by
:meth:`Tracer.flush` as one atomic JSONL file (temp file +
``os.replace``), whose first line is a ``meta`` record mapping the
monotonic epoch back to wall-clock time.

Nesting is tracked per thread with :class:`threading.local`.  Worker
*processes* have their own tracer: the parent serializes a
:class:`TraceContext` into the pool payload, the worker adopts it
(:meth:`Tracer.adopt`) and flushes a per-process segment file
(``trace-seg-<pid>.jsonl``, :meth:`Tracer.flush_segment`), and the
parent folds every segment back into its own buffer with fresh span
ids, correct parent links, and wall-clock-aligned starts
(:meth:`Tracer.absorb_segments`) — so a sharded run exports one merged
trace (see docs/OBSERVABILITY.md, "The distributed trace model").

Profiling rides on spans: with ``REPRO_PROFILE=<prefix>`` every span
whose name starts with the prefix runs under :mod:`cProfile` and dumps
``profile-<name>-<span_id>.pstats`` next to the trace (or into
``$REPRO_PROFILE_DIR``), and the event records the dump path.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import envvars

#: Worker segment files match ``SEGMENT_PREFIX + <pid> + SEGMENT_SUFFIX``.
SEGMENT_PREFIX = "trace-seg-"
SEGMENT_SUFFIX = ".jsonl"


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The picklable capsule that carries a trace across processes.

    Built by :meth:`Tracer.context` in the parent, shipped inside the
    :class:`~repro.runtime.pool.WorkerPool` payload, and adopted by the
    worker's own tracer.  ``parent_span_id`` is the parent-process span
    open when the payload was submitted — worker root spans are
    re-parented onto it at merge time; ``epoch_wall`` lets the merge
    translate the worker's monotonic offsets onto the parent's clock.
    """

    trace_id: str
    parent_span_id: Optional[int]
    epoch_wall: float
    segment_dir: str
    profile_prefix: Optional[str] = None


class NullSpan:
    """The no-op span returned while tracing is disabled.

    A shared singleton: entering returns itself, exiting does nothing,
    so a disabled ``with obs.span(...):`` costs one attribute check
    plus an (empty) context-manager protocol round trip.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, **attrs: object) -> None:
        return None


NULL_SPAN = NullSpan()


class Span:
    """One live span; created by :meth:`Tracer.span`, used as a context
    manager."""

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "_start",
        "_profile",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self._start = 0.0
        self._profile: Optional[cProfile.Profile] = None

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.span_id = tracer.next_id()
        stack = tracer.stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        prefix = tracer.profile_prefix
        if prefix is not None and self.name.startswith(prefix):
            self._profile = cProfile.Profile()
            self._profile.enable()
        self._start = time.perf_counter()
        return self

    def annotate(self, **attrs: object) -> None:
        """Add attributes known only once the span's work has run."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        duration = time.perf_counter() - self._start
        if self._profile is not None:
            self._profile.disable()
            self.attrs["profile"] = self.tracer.dump_profile(
                self._profile, self.name, self.span_id
            )
        stack = self.tracer.stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        event: Dict[str, object] = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self._start - self.tracer.epoch_perf,
            "duration": duration,
            "pid": os.getpid(),
        }
        if exc_type is not None:
            event["error"] = getattr(exc_type, "__name__", str(exc_type))
        if self.attrs:
            event["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        self.tracer.record(event)


class Tracer:
    """Process-wide span collector (see module docstring).

    Args:
        enabled: collect spans; ``False`` is the no-op default.
        profile_prefix: span-name prefix that triggers per-span
            cProfile dumps (usually from ``$REPRO_PROFILE``).
        profile_dir: where profile dumps land (``$REPRO_PROFILE_DIR``
            or the working directory).
    """

    def __init__(
        self,
        enabled: bool = False,
        profile_prefix: Optional[str] = None,
        profile_dir: Optional[str] = None,
    ) -> None:
        self.enabled = enabled
        self.profile_prefix = profile_prefix
        self.profile_dir = profile_dir
        self.epoch_perf = time.perf_counter()
        self.epoch_wall = time.time()
        self.adopted: Optional[TraceContext] = None
        self.pid = os.getpid()
        self._trace_id: Optional[str] = None
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []
        self._next_id = 0
        self._local = threading.local()

    # -- span plumbing -------------------------------------------------------

    def span(self, name: str, attrs: Optional[Dict[str, object]] = None) -> Span:
        """A new span (context manager); no-op object when disabled."""
        return Span(self, name, dict(attrs or {}))

    def next_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def stack(self) -> List[int]:
        """This thread's stack of open span ids."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, event: Dict[str, object]) -> None:
        """Append one finished event to the buffer."""
        with self._lock:
            self._events.append(event)

    def current_span_id(self) -> Optional[int]:
        """The innermost open span id on this thread (None at top level)."""
        stack = self.stack()
        return stack[-1] if stack else None

    # -- buffer management ---------------------------------------------------

    def events(self) -> List[Dict[str, object]]:
        """A snapshot copy of the buffered events."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop all buffered events (tests, or after a flush)."""
        with self._lock:
            self._events = []

    def meta(self) -> Dict[str, object]:
        """The header record written as the first JSONL line."""
        meta: Dict[str, object] = {
            "type": "meta",
            "epoch_wall": self.epoch_wall,
            "pid": os.getpid(),
            "events": len(self._events),
            "trace_id": self.trace_id(),
        }
        if self.adopted is not None:
            meta["parent_span_id"] = self.adopted.parent_span_id
        return meta

    def flush(self, path: str) -> int:
        """Write the full buffer to ``path`` as JSONL, atomically.

        Returns the number of span events written.  The write goes to a
        temp file in the destination directory and is published with
        ``os.replace``, so a concurrent reader never sees a torn file.
        """
        events = self.events()
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(self.meta()) + "\n")
                for event in events:
                    handle.write(json.dumps(event) + "\n")
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise
        return len(events)

    # -- cross-process propagation -------------------------------------------

    def trace_id(self) -> str:
        """A stable id for this trace, shared by every segment of a run.

        Derived from the originating pid and wall-clock epoch (not from
        an RNG — tracing must never perturb seeded streams); adopted
        tracers inherit the parent's id instead of minting one.
        """
        if self._trace_id is None:
            seed = "%d:%.9f" % (os.getpid(), self.epoch_wall)
            self._trace_id = hashlib.sha256(seed.encode("ascii")).hexdigest()[:16]
        return self._trace_id

    def context(self, segment_dir: str) -> TraceContext:
        """The capsule a worker needs to continue this trace."""
        return TraceContext(
            trace_id=self.trace_id(),
            parent_span_id=self.current_span_id(),
            epoch_wall=self.epoch_wall,
            segment_dir=segment_dir,
            profile_prefix=self.profile_prefix,
        )

    def adopt(self, context: TraceContext) -> None:
        """Become a worker-side tracer for ``context``'s trace.

        Fork-started workers inherit the parent's enabled tracer *with
        the parent's buffered spans*; adopting drops that inherited
        state (fresh buffer, ids, epochs, per-thread stacks) so the
        segment this process flushes contains only its own spans.
        """
        with self._lock:
            self._events = []
            self._next_id = 0
        self._local = threading.local()
        self.epoch_perf = time.perf_counter()
        self.epoch_wall = time.time()
        self.enabled = True
        self.profile_prefix = context.profile_prefix
        self.adopted = context
        self.pid = os.getpid()
        self._trace_id = context.trace_id

    def segment_path(self) -> Optional[str]:
        """Where this process's segment file lands (None unless adopted)."""
        if self.adopted is None:
            return None
        return os.path.join(
            self.adopted.segment_dir,
            "%s%d%s" % (SEGMENT_PREFIX, os.getpid(), SEGMENT_SUFFIX),
        )

    def flush_segment(self) -> int:
        """Flush an adopted tracer's buffer to its per-pid segment file.

        Rewrites the whole buffer each call (the pool calls this after
        every task), so the final file always holds the process's
        complete span set.  Returns the events written (0 when this
        tracer never adopted a context).
        """
        path = self.segment_path()
        if path is None:
            return 0
        return self.flush(path)

    def absorb_segments(self, directory: Optional[str], remove: bool = True) -> int:
        """Fold worker segment files under ``directory`` into this buffer.

        For each segment whose meta ``trace_id`` matches this trace
        (foreign leftovers are skipped and left in place): worker span
        ids are remapped to fresh parent-side ids, worker *root* spans
        (``parent_id is None``) are linked to the segment's recorded
        ``parent_span_id``, and ``start`` offsets are shifted by the
        wall-clock delta between the two epochs so the merged waterfall
        is clock-aligned.  Absorbed files are deleted (unless
        ``remove=False``) so a second export cannot double-count.
        Returns the number of spans absorbed.
        """
        if not directory or not os.path.isdir(directory):
            return 0
        absorbed = 0
        for name in sorted(os.listdir(directory)):
            if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
                continue
            path = os.path.join(directory, name)
            meta, events = _read_segment(path)
            if meta is None or meta.get("trace_id") != self.trace_id():
                continue
            offset = float(meta.get("epoch_wall", self.epoch_wall)) - self.epoch_wall
            parent_link = meta.get("parent_span_id")
            remap: Dict[object, int] = {}
            with self._lock:
                for event in events:
                    self._next_id += 1
                    remap[event.get("span_id")] = self._next_id
                for event in events:
                    event["span_id"] = remap[event.get("span_id")]
                    parent = event.get("parent_id")
                    event["parent_id"] = remap[parent] if parent in remap else parent_link
                    event["start"] = float(event.get("start", 0.0)) + offset
                    self._events.append(event)
                absorbed += len(events)
            if remove:
                try:
                    os.remove(path)
                except OSError:
                    pass
        return absorbed

    # -- profiling -----------------------------------------------------------

    def dump_profile(
        self, profile: cProfile.Profile, name: str, span_id: Optional[int]
    ) -> str:
        """Persist one span's profile; returns the dump path."""
        directory = self.profile_dir or envvars.get("REPRO_PROFILE_DIR") or "."
        os.makedirs(directory, exist_ok=True)
        safe = name.replace("/", "_").replace(" ", "_")
        path = os.path.join(directory, "profile-%s-%s.pstats" % (safe, span_id))
        profile.dump_stats(path)
        return path


def _jsonable(value: object) -> object:
    """Coerce an attribute to something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _read_segment(
    path: str,
) -> Tuple[Optional[Dict[str, object]], List[Dict[str, object]]]:
    """One segment file → (meta record, span events); lenient on damage."""
    meta: Optional[Dict[str, object]] = None
    events: List[Dict[str, object]] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(record, dict):
                    continue
                kind = record.get("type", "span")
                if kind == "meta" and meta is None:
                    meta = record
                elif kind == "span":
                    events.append(record)
    except OSError:
        return None, []
    return meta, events


__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "SEGMENT_PREFIX",
    "SEGMENT_SUFFIX",
    "Span",
    "TraceContext",
    "Tracer",
]
