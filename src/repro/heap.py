"""Heap policy: keep the cyclic garbage collector off the fleet graph.

A simulated fleet is a graph of millions of long-lived, GC-tracked
objects (systems, shelves, bays, disks, events).  While such a graph is
built, pickled or unpickled, CPython's generational collector fires
over and over and each full pass rescans the whole graph, although
nothing in it is garbage.  :func:`heap_guard` is the one place that
decides what the collector does around that work:

* on entry it disables the cyclic collector;
* on the normal exit of the *outermost* guard it calls
  :func:`gc.freeze`, which moves every object alive at that moment into
  the permanent generation, and then re-enables the collector.  Later
  collections never rescan the frozen graph;
* on an exception it re-enables the collector and freezes nothing, so a
  failed build leaves no half-built graph pinned.

Nesting is read from :func:`gc.isenabled`, not from module state: a
guard entered while the collector is already off (inside another guard,
or under a caller that disabled it) neither freezes nor re-enables.
The guard therefore holds nothing a forked worker could inherit.  The
collector switch is process-wide: if two threads overlap guards, the
first to leave freezes and re-enables while the other is still inside,
which costs that other block its pause but never changes a result.

The trade-off: frozen objects are still freed by reference counting
when the last reference goes, but *cyclic* garbage that is alive at
freeze time is never collected.  The results this package builds hold
no reference cycles, and ``tests/test_heap.py`` checks that the frozen
count returns to its baseline once a result is dropped.

Direct ``gc.disable``/``enable``/``freeze``/``unfreeze`` calls outside
this module are flagged by reprolint rule RPL007.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def heap_guard() -> Iterator[None]:
    """Pause the collector for a block and freeze what it built.

    See the module docstring for the nesting and exception rules.
    """
    outermost = gc.isenabled()
    gc.disable()
    try:
        yield
    except BaseException:
        if outermost:
            gc.enable()
        raise
    if outermost:
        gc.freeze()
        gc.enable()
