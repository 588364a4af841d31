"""The heap guard: collector pause, freeze, nesting, and no frozen leaks."""

from __future__ import annotations

import contextlib
import gc

import pytest

from repro.fleet.builder import build_fleet
from repro.fleet.spec import FleetSpec
from repro.heap import heap_guard
from repro.rng import RandomSource
from repro.runtime.cache import ResultCache
from repro.simulate.scenario import run_scenario
from repro.simulate.vector.engine import VECTOR_ENGINE_ENV


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts, and leaves, with the collector on."""
    assert gc.isenabled()
    yield
    gc.enable()


@contextlib.contextmanager
def counting_collections():
    """The generations of every collection started inside the block."""
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(info["generation"])

    # A fresh start: pending young-generation allocations must not tip
    # a collection before the measured call enters its guard.
    gc.collect()
    gc.callbacks.append(callback)
    try:
        yield started
    finally:
        gc.callbacks.remove(callback)


def test_outermost_guard_pauses_then_freezes():
    before = gc.get_freeze_count()
    with heap_guard():
        assert not gc.isenabled()
        built = [[index] for index in range(1000)]
    assert gc.isenabled()
    assert gc.get_freeze_count() >= before + len(built)


def test_nested_guard_neither_enables_nor_freezes():
    with heap_guard():
        before = gc.get_freeze_count()
        with heap_guard():
            built = [[index] for index in range(1000)]
        assert not gc.isenabled()
        assert gc.get_freeze_count() == before
    assert gc.isenabled()
    assert gc.get_freeze_count() >= before + len(built)


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    try:
        before = gc.get_freeze_count()
        with heap_guard():
            [[index] for index in range(1000)]
        assert not gc.isenabled()
        assert gc.get_freeze_count() == before
    finally:
        gc.enable()


def test_exception_restores_state_and_freezes_nothing():
    before = gc.get_freeze_count()
    with pytest.raises(RuntimeError):
        with heap_guard():
            [[index] for index in range(1000)]
            raise RuntimeError("build failed")
    assert gc.isenabled()
    assert gc.get_freeze_count() == before


def test_exception_inside_nested_guard_keeps_outer_pause():
    with heap_guard():
        with pytest.raises(RuntimeError):
            with heap_guard():
                raise RuntimeError("inner failed")
        assert not gc.isenabled()
    assert gc.isenabled()


def test_build_fleet_runs_no_collection():
    spec = FleetSpec.paper_default(scale=0.005)
    with counting_collections() as started:
        fleet = build_fleet(spec, RandomSource(3))
    assert fleet.disk_count_ever > 1000
    assert started == []


def test_cache_load_runs_no_collection(small_sim, tmp_path):
    ResultCache(directory=str(tmp_path)).put("entry", small_sim)
    cache = ResultCache(directory=str(tmp_path))
    with counting_collections() as started:
        loaded = cache.get("entry")
    assert len(loaded.dataset.table) == len(small_sim.dataset.table)
    assert started == []


@pytest.mark.parametrize("vector", ["0", "1"], ids=["legacy", "vector"])
def test_dropped_results_leave_nothing_frozen(vector, monkeypatch, tmp_path):
    """Frozen results are freed by reference counting once dropped.

    A reference cycle anywhere in a result would pin it in the
    permanent generation, and the frozen count would grow every round.
    """
    monkeypatch.setenv(VECTOR_ENGINE_ENV, vector)
    counts = []
    for _ in range(3):
        result = run_scenario("paper-default", scale=0.002, seed=3)
        ResultCache(directory=str(tmp_path)).put("entry", result)
        del result
        loaded = ResultCache(directory=str(tmp_path)).get("entry")
        assert len(loaded.dataset.table) > 0
        del loaded
        counts.append(gc.get_freeze_count())
    assert counts[1:] == counts[:1] * 2
