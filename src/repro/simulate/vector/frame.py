"""Columnar view of a fleet's topology: the vector engine's substrate.

The object-graph fleet (:class:`~repro.fleet.fleet.Fleet` ->
:class:`~repro.topology.system.StorageSystem` -> shelves -> slots) is
what the legacy injector walks unit by unit.  The vector engine instead
flattens the topology once into parallel arrays — one row per system,
per shelf, per slot — so cohort grouping and hazard sampling operate on
whole index ranges.  The frame is *read-only* with respect to the
fleet; disk mutations (removals, replacements) are applied back to the
object graph at the end of a run via :mod:`repro.simulate.vector.emit`.

Topology (systems, shelves, slots, deployment times) never changes
after :func:`~repro.fleet.builder.build_fleet`, so the frame is cached
on the fleet object and reused across injections over the same fleet.
The frame holds no reference back to the fleet: that cycle would pin
the whole fleet graph once :func:`repro.heap.heap_guard` freezes it.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import List

import numpy as np

from repro.fleet.fleet import Fleet
from repro.topology.components import DiskSlot, Shelf
from repro.topology.system import StorageSystem


@dataclasses.dataclass
class FleetFrame:
    """Structure-of-arrays snapshot of a fleet's topology.

    Attributes:
        sys_refs: systems in fleet order (row index = system index).
        sys_deploy: per-system deployment time, seconds.
        shelf_sys: per-shelf owning system index.
        shelf_n_slots: per-shelf populated bay count.
        shelf_slot_offset: per-shelf exclusive prefix sum of bay counts
            — the global index of the shelf's first slot.
        shelf_refs: shelf objects in global shelf order.
        slot_shelf: per-slot owning shelf index.
    """

    sys_refs: List[StorageSystem]
    sys_deploy: np.ndarray
    shelf_sys: np.ndarray
    shelf_n_slots: np.ndarray
    shelf_slot_offset: np.ndarray
    shelf_refs: List[Shelf]
    slot_shelf: np.ndarray

    _shelf_ids: np.ndarray = None  # lazy object arrays for bulk emission
    _system_ids: np.ndarray = None

    @property
    def n_systems(self) -> int:
        return len(self.sys_refs)

    @property
    def n_shelves(self) -> int:
        return len(self.shelf_refs)

    @property
    def n_slots(self) -> int:
        return int(self.slot_shelf.shape[0])

    # Slot *objects* are never enumerated fleet-wide — only the bays that
    # actually failed are touched, each resolved through its shelf.

    def slot_ref(self, slot_index: int) -> DiskSlot:
        """The DiskSlot object at a global slot index."""
        shelf = int(self.slot_shelf[slot_index])
        local = slot_index - int(self.shelf_slot_offset[shelf])
        return self.shelf_refs[shelf].slots[local]

    def slot_refs_for(self, slots: np.ndarray) -> List[DiskSlot]:
        """DiskSlot objects for an array of global slot indices."""
        shelves = self.slot_shelf[slots]
        locals_ = (slots - self.shelf_slot_offset[shelves]).tolist()
        shelf_refs = self.shelf_refs
        return [
            shelf_refs[shelf].slots[local]
            for shelf, local in zip(shelves.tolist(), locals_)
        ]

    def slot_keys_for(self, slots: np.ndarray) -> List[str]:
        """Stable bay keys for an array of global slot indices.

        Rendered from the shelf id and the bay's local index — no slot
        object is touched, matching ``DiskSlot.slot_key``.
        """
        shelves = self.slot_shelf[slots]
        locals_ = (slots - self.shelf_slot_offset[shelves]).tolist()
        shelf_refs = self.shelf_refs
        return [
            "%s/%02d" % (shelf_refs[shelf].shelf_id, local)
            for shelf, local in zip(shelves.tolist(), locals_)
        ]

    def shelf_id_array(self) -> np.ndarray:
        """Per-shelf id strings as an object array (cached)."""
        if self._shelf_ids is None:
            self._shelf_ids = np.array(
                [shelf.shelf_id for shelf in self.shelf_refs], dtype=object
            )
        return self._shelf_ids

    def system_id_array(self) -> np.ndarray:
        """Per-system id strings as an object array (cached)."""
        if self._system_ids is None:
            self._system_ids = np.array(
                [system.system_id for system in self.sys_refs], dtype=object
            )
        return self._system_ids


def build_frame(fleet: Fleet) -> FleetFrame:
    """Flatten (or fetch the cached flattening of) a fleet's topology."""
    cached = getattr(fleet, "_vector_frame", None)
    if (
        cached is not None
        and len(cached.sys_refs) == len(fleet.systems)
        and all(map(operator.is_, cached.sys_refs, fleet.systems))
    ):
        return cached

    sys_refs: List[StorageSystem] = list(fleet.systems)
    shelf_refs: List[Shelf] = [
        shelf for system in sys_refs for shelf in system.shelves
    ]
    shelf_sys = np.repeat(
        np.arange(len(sys_refs), dtype=np.int64),
        [len(system.shelves) for system in sys_refs],
    )
    n_slots = np.asarray(
        [len(shelf.slots) for shelf in shelf_refs], dtype=np.int64
    )
    offsets = np.concatenate(([0], np.cumsum(n_slots)[:-1])) if len(
        shelf_refs
    ) else np.zeros(0, dtype=np.int64)
    frame = FleetFrame(
        sys_refs=sys_refs,
        sys_deploy=np.asarray(
            [system.deploy_time for system in sys_refs], dtype=np.float64
        ),
        shelf_sys=shelf_sys,
        shelf_n_slots=n_slots,
        shelf_slot_offset=offsets,
        shelf_refs=shelf_refs,
        slot_shelf=np.repeat(
            np.arange(len(shelf_refs), dtype=np.int64), n_slots
        ),
    )
    fleet._vector_frame = frame
    return frame
