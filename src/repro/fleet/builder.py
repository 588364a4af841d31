"""Build a concrete :class:`~repro.fleet.fleet.Fleet` from a spec.

Construction is deterministic given a :class:`~repro.rng.RandomSource`:
each system draws its shelf model, primary disk model, path
configuration, deployment date, shelf count, and RAID type from keyed
random streams, then populates bays with the initial disk complement
(replacement disks are added later by the failure injector).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro import obs
from repro.fleet import catalog
from repro.fleet.fleet import Fleet
from repro.fleet.spec import ClassSpec, FleetSpec
from repro.heap import heap_guard
from repro.rng import RandomSource
from repro.topology.classes import SYSTEM_CLASS_ORDER, SystemClass
from repro.topology.components import Disk, Shelf
from repro.topology.layout import assign_raid_groups
from repro.topology.raidgroup import RaidType
from repro.topology.system import StorageSystem


def system_id_for(system_class: SystemClass, index: int) -> str:
    """The deterministic id of the ``index``-th system of a class.

    Ids are a pure function of (class, global index), which is what lets
    a sharded run name — and therefore partition — the systems of a
    fleet spec without building them.
    """
    return "%s-%05d" % (_CLASS_TAGS[system_class], index)


def build_fleet(
    spec: FleetSpec,
    random_source: RandomSource,
    selection: Optional[Mapping[SystemClass, Sequence[int]]] = None,
) -> Fleet:
    """Materialize the fleet a spec describes.

    Args:
        spec: population shapes per class, scale, and layout policy.
        random_source: root of the deterministic random streams.
        selection: optional subset to build — per class, the *global*
            system indices to include (``None`` builds everything).
            Because each system draws from a stream keyed by its global
            index, a selected system is byte-identical to the same
            system in the full build; this is how shards reproduce
            exactly their slice of the unsharded fleet.

    Returns:
        A fleet whose bays hold their initial disks (``install_time`` set
        to each system's deployment time) and whose RAID groups are laid
        out per the spec's policy.
    """
    systems: List[StorageSystem] = []
    with heap_guard(), obs.span("fleet.build", scale=spec.scale):
        for system_class in SYSTEM_CLASS_ORDER:
            if system_class not in spec.class_specs:
                continue
            class_spec = spec.class_specs[system_class]
            count = spec.scaled_systems(system_class)
            if selection is None:
                indices: Sequence[int] = range(count)
            else:
                indices = sorted(selection.get(system_class, ()))
                if indices and not (0 <= indices[0] <= indices[-1] < count):
                    raise ValueError(
                        "selection indices for %s out of range [0, %d)"
                        % (system_class.value, count)
                    )
            for index in indices:
                system_id = system_id_for(system_class, index)
                rng = random_source.stream("fleet", system_class.value, index)
                systems.append(
                    _build_system(system_id, system_class, class_spec, spec, rng)
                )
            obs.inc(
                "fleet.systems", len(indices), system_class=system_class.value
            )
        fleet = Fleet(systems=systems, duration_seconds=spec.duration_seconds)
    obs.set_gauge("fleet.disks", sum(s.slot_count for s in systems))
    return fleet


_CLASS_TAGS = {
    SystemClass.NEARLINE: "nl",
    SystemClass.LOW_END: "le",
    SystemClass.MID_RANGE: "mr",
    SystemClass.HIGH_END: "he",
}


def _choose_weighted(rng: np.random.Generator, pairs) -> str:
    """Pick a name from ``[(name, weight), ...]`` (weights sum to ~1)."""
    names = [name for name, _ in pairs]
    weights = np.array([weight for _, weight in pairs], dtype=float)
    weights = weights / weights.sum()
    return str(rng.choice(names, p=weights))


def _build_system(
    system_id: str,
    system_class: SystemClass,
    class_spec: ClassSpec,
    spec: FleetSpec,
    rng: np.random.Generator,
) -> StorageSystem:
    """Construct one system: shelves, initial disks, RAID groups."""
    shelf_mix = catalog.shelf_models_for_class(system_class)
    shelf_model = _choose_weighted(rng, list(shelf_mix.items()))
    disk_model = _choose_weighted(
        rng, catalog.disk_models_for(system_class, shelf_model)
    )
    dual_path = (
        system_class.supports_dual_path
        and rng.random() < class_spec.dual_path_fraction
    )
    deploy_time = float(rng.uniform(0.0, spec.deployment_spread_seconds))
    raid_type = (
        RaidType.RAID4 if rng.random() < class_spec.raid4_fraction else RaidType.RAID6
    )

    # Shelf count: Poisson around the mean, at least one shelf.
    n_shelves = max(1, int(rng.poisson(class_spec.shelves_mean)))

    system = StorageSystem(
        system_id=system_id,
        system_class=system_class,
        shelf_model=shelf_model,
        primary_disk_model=disk_model,
        dual_path=dual_path,
        deploy_time=deploy_time,
    )
    for shelf_index in range(n_shelves):
        shelf = Shelf(
            shelf_id="sh-%s-%02d" % (system_id, shelf_index),
            model=shelf_model,
            system_id=system_id,
        )
        shelf.add_slots(class_spec.slots_per_shelf)
        system.shelves.append(shelf)

    system.raid_groups = assign_raid_groups(
        system_id=system_id,
        shelves=system.shelves,
        group_size=class_spec.raid_group_size,
        raid_type=raid_type,
        policy=spec.layout_policy,
        span_width=spec.span_width,
    )

    # Populate every bay with its initial disk.
    serial_stream = rng.integers(0, 2**32, size=system.slot_count)
    for serial, slot in zip(serial_stream, system.iter_slots()):
        disk = Disk(
            disk_id="%s#0" % slot.slot_key,
            model=disk_model,
            system_id=system_id,
            shelf_id=slot.shelf_id,
            slot_index=slot.slot_index,
            raid_group_id=slot.raid_group_id,
            install_time=deploy_time,
            serial="S%08X" % int(serial),
        )
        slot.install(disk)
    return system
