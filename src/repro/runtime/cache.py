"""Content-addressed result store: on-disk pickles plus a memory layer.

Layout is one pickle file per entry, named ``<key>.pkl`` directly under
the cache directory, where ``key`` is the job's canonical SHA-256 hex
digest (see :meth:`repro.runtime.jobs.Job.key`).  The key embeds the
package version, so upgrading ``repro`` naturally invalidates every
entry; after local code changes within one version, ``repro cache
clear`` forces re-execution.

Two independent switches control behavior: ``enabled=False`` turns the
cache off entirely (every ``get`` misses silently, ``put`` is a no-op),
while ``persist=False`` keeps the in-process memory layer but never
touches disk — that is what the CLI's ``--no-cache`` maps to, so one
``repro run all`` still shares simulations across experiments without
leaving state behind.

Writes are atomic (temp file + ``os.replace``) so a concurrent reader
never sees a torn pickle; unreadable entries are treated as misses and
deleted best-effort.

Pickling and unpickling run inside :func:`repro.heap.heap_guard`, so the
garbage collector does not rescan a result graph of millions of
objects while it is written or read, nor after it has been loaded.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import pickle
import tempfile
from typing import Dict, List, Optional

from repro import envvars, obs
from repro.heap import heap_guard

#: Soft cap on on-disk entries; the oldest (by mtime) are evicted first.
DEFAULT_MAX_ENTRIES = 512

#: Sentinel returned by :meth:`ResultCache.get` on a miss (results may
#: legitimately be ``None``, so ``None`` cannot signal absence).
MISSING = object()


def default_cache_dir() -> str:
    """The default cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = envvars.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache accounting.

    Attributes:
        directory: the on-disk location.
        entries / size_bytes: current disk contents.
        hits / misses / stores / evictions: this process's lifetime
            counters (not persisted across processes).
    """

    directory: str
    entries: int
    size_bytes: int
    hits: int
    misses: int
    stores: int
    evictions: int


class ResultCache:
    """Content-addressed result store (see module docstring).

    Args:
        directory: cache directory (default :func:`default_cache_dir`).
        enabled: master switch; ``False`` makes every operation a no-op.
        persist: keep the on-disk layer; ``False`` is memory-only.
        max_entries: on-disk entry cap enforced at ``put`` time.
        metrics: optional :class:`~repro.runtime.metrics.RuntimeMetrics`
            receiving ``cache.hit`` / ``cache.miss`` / ``cache.store`` /
            ``cache.evict`` counters.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        enabled: bool = True,
        persist: bool = True,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        metrics=None,
    ) -> None:
        self.directory = os.path.abspath(directory or default_cache_dir())
        self.enabled = enabled
        self.persist = persist
        self.max_entries = max_entries
        self._metrics = metrics
        self._memory: Dict[str, object] = {}
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0

    # -- wiring ---------------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Redirect counter emission to a (fresh) metrics registry."""
        self._metrics = metrics

    # -- lookup ---------------------------------------------------------------

    def get(self, key: str) -> object:
        """The stored value for ``key``, or :data:`MISSING`."""
        if not self.enabled:
            return MISSING
        if key in self._memory:
            self._count_hit()
            return self._memory[key]
        if self.persist:
            path = self._path(key)
            try:
                value = self._load(path)
            except Exception:
                # Absent is a plain miss.  A corrupted or truncated entry
                # can make the unpickler raise almost anything (ValueError
                # on a bad opcode argument, KeyError, ImportError, ...):
                # each is a miss too, and the entry is dropped so the
                # rerun rewrites it.
                self._remove_quietly(path)
            else:
                self._memory[key] = value
                self._count_hit()
                return value
        self._misses += 1
        self._emit("cache.miss")
        return MISSING

    def contains(self, key: str) -> bool:
        """Whether ``key`` is present, without touching hit/miss counters."""
        if not self.enabled:
            return False
        if key in self._memory:
            return True
        return self.persist and os.path.exists(self._path(key))

    # -- storage --------------------------------------------------------------

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` (memory, and disk when persistent)."""
        if not self.enabled:
            return
        self._memory[key] = value
        self._stores += 1
        self._emit("cache.store")
        if not self.persist:
            return
        # Disk persistence is an optimization: an unwritable directory
        # (read-only HOME, a file where a dir was expected) degrades to
        # memory-only instead of failing the run, and is surfaced via
        # the ``cache.disk_error`` counter in the metrics footer.
        temp_path = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                with obs.span("runtime.cache.put") as span, heap_guard():
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                    span.annotate(bytes=handle.tell())
            os.replace(temp_path, self._path(key))
        except OSError:
            if temp_path is not None:
                self._remove_quietly(temp_path)
            self._emit("cache.disk_error")
            return
        except BaseException:
            if temp_path is not None:
                self._remove_quietly(temp_path)
            raise
        self._evict()

    def adopt(self, key: str, value: object) -> None:
        """Memory-only store for a value already persisted elsewhere.

        Used by the scheduler when a worker process has written the disk
        entry itself: the parent keeps the deserialized object hot
        without rewriting the file or counting a store.
        """
        if self.enabled:
            self._memory[key] = value

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (memory + disk); returns the number removed."""
        removed = len(self._memory)
        self._memory.clear()
        disk = self._disk_entries()
        for path in disk:
            self._remove_quietly(path)
        return max(removed, len(disk))

    def stats(self) -> CacheStats:
        """Current disk contents plus this process's counters."""
        entries = self._disk_entries()
        size = 0
        for path in entries:
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        return CacheStats(
            directory=self.directory,
            entries=len(entries),
            size_bytes=size,
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            evictions=self._evictions,
        )

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _load(path: str) -> object:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            with obs.span("runtime.cache.get", bytes=size), heap_guard():
                return pickle.load(handle)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".pkl")

    def _disk_entries(self) -> List[str]:
        return glob.glob(os.path.join(self.directory, "*.pkl"))

    def _evict(self) -> None:
        entries = self._disk_entries()
        if len(entries) <= self.max_entries:
            return
        entries.sort(key=lambda path: (self._mtime(path), path))
        for path in entries[: len(entries) - self.max_entries]:
            self._remove_quietly(path)
            self._evictions += 1
            self._emit("cache.evict")

    @staticmethod
    def _mtime(path: str) -> float:
        try:
            return os.path.getmtime(path)
        except OSError:
            return 0.0

    @staticmethod
    def _remove_quietly(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _count_hit(self) -> None:
        self._hits += 1
        self._emit("cache.hit")

    def _emit(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.increment(name)
