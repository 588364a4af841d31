"""Columnar event core: EventTable mechanics plus the analysis goldens.

Every aggregation over the structure-of-arrays ``EventTable`` must keep
reproducing the reference numbers byte for byte — same counts, same
float AFRs, same pooled gap arrays (float summation is order-sensitive,
so even the *order* of pooling must match), same findings, same
rendered experiment text.  The reference is the ``analysis`` section of
tests/goldens/hazard_backend_goldens.json: digests recorded from the
list-walking implementation the columnar analyses replaced, at seeds
3, 5 and 7, directly simulated and via the AutoSupport log pipeline.
The tests here replay that capture (tools/capture_hazard_goldens.py)
and compare.
"""

from __future__ import annotations

import dataclasses as dc
import importlib.util
import json
import os
import pickle

import numpy as np
import pytest

from repro.core.columns import EventTable, StringTable, first_occurrence_ranks
from repro.core.dataset import FailureDataset
from repro.core.timebetween import gaps_by_scope
from repro.errors import AnalysisError
from repro.failures.types import FAILURE_TYPE_ORDER

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS_PATH = os.path.join(
    REPO_ROOT, "tests", "goldens", "hazard_backend_goldens.json"
)
CAPTURE_TOOL = os.path.join(REPO_ROOT, "tools", "capture_hazard_goldens.py")

#: The seeds the analysis goldens were captured at.
DIFF_SEEDS = (3, 5, 7)


def _capture_tool():
    """Load tools/capture_hazard_goldens.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "capture_hazard_goldens", CAPTURE_TOOL
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def committed():
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)["analysis"]


@pytest.fixture(scope="module")
def replayed():
    """One fresh analysis capture shared by every golden comparison."""
    return _capture_tool().capture_analysis()


class TestEventTable:
    def test_round_trip_preserves_events(self, small_dataset):
        table = EventTable.from_events(small_dataset.events, keep_view=False)
        rebuilt = [table.row(i) for i in range(len(table))]
        assert rebuilt == small_dataset.events

    def test_view_reuses_original_objects(self, small_dataset):
        table = EventTable.from_events(small_dataset.events)
        assert table.row(0) is small_dataset.events[0]
        picked = table.select(np.arange(3))
        assert picked.row(2) is small_dataset.events[2]

    def test_select_by_mask_and_indices(self, small_dataset):
        table = small_dataset.table
        mask = table.type_mask(FAILURE_TYPE_ORDER[0])
        subset = table.select(mask)
        assert len(subset) == int(np.count_nonzero(mask))
        assert np.all(subset.type_codes == 0)
        assert subset.is_sorted_by_detect

    def test_counts_match_event_loop(self, small_dataset):
        table = small_dataset.table
        counts = table.counts_by_type()
        for code, failure_type in enumerate(FAILURE_TYPE_ORDER):
            expected = sum(
                1
                for e in small_dataset.events
                if e.failure_type is failure_type
            )
            assert int(counts[code]) == expected

    def test_pickle_drops_dataclasses(self, small_dataset):
        blob = pickle.dumps(small_dataset.table)
        assert b"FailureEvent" not in blob
        restored = pickle.loads(blob)
        assert restored.events() == tuple(small_dataset.events)

    def test_scope_codes_rejects_bad_scope(self, small_dataset):
        with pytest.raises(AnalysisError):
            small_dataset.table.scope_codes("bay")

    def test_string_table_interning(self):
        table = StringTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert table.code("missing") == -1
        assert table.values == ["a", "b"]
        assert list(table.member_mask({"b"})) == [False, True]

    def test_first_occurrence_ranks(self):
        codes = np.array([7, 2, 7, 5, 2, 9])
        ranks = first_occurrence_ranks(codes)
        assert list(ranks) == [0, 1, 0, 2, 1, 3]


class TestDatasetColumnarEquivalence:
    """FailureDataset methods reproduce the recorded reference digests."""

    @staticmethod
    def _check(method, replayed, committed):
        for seed in committed["seeds"]:
            key = str(seed)
            assert (
                replayed["dataset"][key][method]
                == committed["dataset"][key][method]
            ), "seed=%s" % key

    def test_counts_by_type(self, replayed, committed):
        self._check("counts_by_type", replayed, committed)

    def test_events_of_type(self, replayed, committed):
        self._check("events_of_type", replayed, committed)

    def test_filter_systems(self, replayed, committed):
        self._check("filter_systems", replayed, committed)

    def test_excluding_disk_family(self, replayed, committed):
        self._check("excluding_disk_family", replayed, committed)

    def test_deduplicated(self, replayed, committed):
        self._check("deduplicated", replayed, committed)

    def test_dedup_synthetic_chain(self, small_dataset):
        """A chain of near-duplicates exercises the last-KEPT window rule."""
        base = small_dataset.events[0]
        other_type = next(
            ft for ft in FAILURE_TYPE_ORDER if ft is not base.failure_type
        )

        def at(offset, **changes):
            return dc.replace(
                base,
                occur_time=base.occur_time + offset,
                detect_time=base.detect_time + offset,
                **changes,
            )

        # 0.6 h apart: each report is within an hour of the previous
        # *report*, but only every other one is within an hour of the
        # last *kept* report — so offsets 0 and 4320 s survive.
        chain = [at(offset) for offset in (0.0, 2160.0, 4320.0, 6480.0)]
        other_disk = at(100.0, disk_id=base.disk_id + "-other")
        other_kind = at(1000.0, failure_type=other_type)
        dataset = FailureDataset(
            events=list(reversed(chain)) + [other_kind, other_disk],
            fleet=small_dataset.fleet,
        )
        kept = dataset.deduplicated().events
        assert [e.detect_time for e in kept] == [
            base.detect_time + offset for offset in (0.0, 100.0, 1000.0, 4320.0)
        ]
        assert [e.disk_id for e in kept] == [
            base.disk_id,
            base.disk_id + "-other",
            base.disk_id,
            base.disk_id,
        ]
        assert kept[2].failure_type is other_type

    def test_gap_pooling_follows_first_failure(self, small_dataset):
        """Gaps pool shelf by shelf in order of each shelf's first failure.

        The shelf failing later is listed first, so its id is interned
        first and also sorts first: pooling by string code (or by id)
        instead of first-occurrence rank puts its gaps first.
        """
        base = small_dataset.events[0]

        def at(offset, shelf_id):
            return dc.replace(
                base,
                occur_time=base.occur_time + offset,
                detect_time=base.detect_time + offset,
                shelf_id=shelf_id,
                disk_id="%s-disk-%d" % (shelf_id, offset),
            )

        late = [at(offset, "a-shelf") for offset in (1e5, 1.3e5, 1.7e5)]
        early = [at(offset, "z-shelf") for offset in (0.0, 5e4, 5.1e4)]
        dataset = FailureDataset(events=late + early, fleet=small_dataset.fleet)
        assert dataset.table.shelf_ids.values == ["a-shelf", "z-shelf"]
        assert gaps_by_scope(dataset, "shelf").tolist() == pytest.approx(
            [5e4, 1e3, 3e4, 4e4]
        )


class TestAnalysisEquivalence:
    """Aggregations reproduce the recorded reference digests."""

    def test_goldens_cover_analysis_seeds(self, committed):
        tool = _capture_tool()
        assert committed["seeds"] == list(tool.ANALYSIS_SEEDS) == [3, 5, 7]
        assert committed["scale"] == tool.ANALYSIS_SCALE
        assert committed["logs_scale"] == tool.LOGS_SCALE
        assert committed["experiment_scale"] == tool.SCALE

    @pytest.mark.parametrize("seed", DIFF_SEEDS)
    def test_direct_simulation(self, seed, replayed, committed):
        assert replayed["direct"][str(seed)] == committed["direct"][str(seed)]

    def test_via_logs_pipeline(self, replayed, committed):
        assert replayed["via_logs"] == committed["via_logs"]

    def test_findings_report(self, replayed, committed):
        assert replayed["findings"] == committed["findings"]

    @pytest.mark.parametrize("experiment_id", ["fig4a", "fig9a", "fig10a"])
    def test_figure_experiments(self, experiment_id, replayed, committed):
        for seed in committed["seeds"]:
            key = str(seed)
            assert (
                replayed["experiments"][key][experiment_id]
                == committed["experiments"][key][experiment_id]
            ), "seed=%s" % key


class TestSerialization:
    def test_dataset_pickle_is_columnar_and_lossless(self, small_dataset):
        blob = pickle.dumps(small_dataset)
        assert b"FailureEvent" not in blob
        restored = pickle.loads(blob)
        assert restored.events == small_dataset.events
        assert restored.counts_by_type() == small_dataset.counts_by_type()

    def test_injection_pickle_round_trip(self, small_sim):
        restored = pickle.loads(pickle.dumps(small_sim.injection))
        assert restored.events == small_sim.injection.events
        assert restored.counts_by_type() == small_sim.injection.counts_by_type()



class TestSortedness:
    def test_sorted_input_list_not_copied(self, small_dataset):
        events = list(small_dataset.events)
        dataset = FailureDataset(events=events, fleet=small_dataset.fleet)
        assert dataset.events == events
        assert all(a is b for a, b in zip(dataset.events, events))

    def test_unsorted_input_sorted_once(self, small_dataset):
        events = list(reversed(small_dataset.events))
        dataset = FailureDataset(events=events, fleet=small_dataset.fleet)
        detect = [e.detect_time for e in dataset.events]
        assert detect == sorted(detect)

    def test_filtered_table_stays_marked_sorted(self, small_dataset):
        table = small_dataset.table
        assert table.is_sorted_by_detect
        subset = table.select(table.type_mask(FAILURE_TYPE_ORDER[0]))
        # Sortedness is carried, not recomputed: the flag is already set.
        assert subset._sorted is True
