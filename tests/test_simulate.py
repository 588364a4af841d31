"""Tests for the simulation clock, engine, and scenarios."""

import datetime

import pytest

from repro.errors import LogFormatError, SpecificationError
from repro.fleet.spec import FleetSpec
from repro.simulate.clock import SimulationClock
from repro.simulate.engine import SimulationEngine
from repro.simulate.scenario import SCENARIOS, run_scenario


class TestClock:
    def test_epoch_is_january_2004(self):
        clock = SimulationClock()
        assert clock.to_datetime(0.0) == datetime.datetime(2004, 1, 1)

    def test_forward_and_back(self):
        clock = SimulationClock()
        when = clock.to_datetime(123_456.0)
        assert clock.to_sim_seconds(when) == pytest.approx(123_456.0)

    def test_format_parse_roundtrip(self):
        clock = SimulationClock()
        text = clock.format(86_400.0 * 400 + 3_723.0)
        assert clock.parse(text) == pytest.approx(86_400.0 * 400 + 3_723.0)

    def test_format_has_year(self):
        clock = SimulationClock()
        assert "2004" in clock.format(0.0)
        assert "2005" in clock.format(400 * 86_400.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(LogFormatError):
            SimulationClock().parse("yesterday at noon")

    def test_custom_epoch(self):
        clock = SimulationClock(epoch=datetime.datetime(2020, 6, 1))
        assert "2020" in clock.format(0.0)


class TestEngine:
    def test_run_produces_consistent_result(self):
        engine = SimulationEngine(FleetSpec.paper_default(scale=0.001))
        result = engine.run(seed=2)
        assert result.seed == 2
        assert result.dataset.fleet is result.fleet
        assert result.archive is None
        assert len(result.dataset.events) == len(result.injection.events)

    def test_run_deterministic(self):
        engine = SimulationEngine(FleetSpec.paper_default(scale=0.001))
        a = engine.run(seed=3)
        b = engine.run(seed=3)
        assert [e.detect_time for e in a.dataset.events] == [
            e.detect_time for e in b.dataset.events
        ]

    def test_via_logs_attaches_archive(self, logged_sim):
        assert logged_sim.archive is not None
        assert logged_sim.archive.logs

    def test_via_logs_dataset_counts_match_injection(self, logged_sim):
        assert (
            logged_sim.dataset.counts_by_type()
            == logged_sim.injection.counts_by_type()
        )


class TestScenarios:
    def test_known_scenarios(self):
        assert {
            "paper-default",
            "no-shocks",
            "single-shelf-raid",
            "no-multipath",
            "quick",
        } <= set(SCENARIOS)

    def test_unknown_scenario(self):
        with pytest.raises(SpecificationError):
            run_scenario("warp-drive")

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"scale": float("nan")}, "scale"),
            ({"scale": float("inf")}, "scale"),
            ({"scale": 0.0}, "scale"),
            ({"scale": -0.1}, "scale"),
            ({"scale": "0.1"}, "scale"),
            ({"seed": -5}, "seed"),
            ({"seed": 1.5}, "seed"),
        ],
        ids=["nan", "inf", "zero", "negative", "string", "neg-seed", "float-seed"],
    )
    def test_bad_scale_or_seed_is_a_specification_error(self, kwargs, fragment):
        with pytest.raises(SpecificationError, match=fragment):
            run_scenario("paper-default", **kwargs)

    def test_numpy_integer_seed_accepted(self):
        import numpy as np

        result = run_scenario("quick", scale=0.001, seed=np.int64(1))
        assert result.seed == 1

    def test_quick_caps_scale(self):
        result = run_scenario("quick", scale=0.5, seed=1)
        assert result.fleet.system_count < 200

    def test_single_shelf_scenario_layout(self):
        result = run_scenario("single-shelf-raid", scale=0.001, seed=1)
        for group in result.fleet.iter_raid_groups():
            assert group.span == 1

    def test_no_multipath_scenario_masks_nothing(self):
        default = run_scenario("paper-default", scale=0.005, seed=4)
        unmasked = run_scenario("no-multipath", scale=0.005, seed=4)
        from repro.failures.types import FailureType

        d = default.dataset.counts_by_type()[FailureType.PHYSICAL_INTERCONNECT]
        u = unmasked.dataset.counts_by_type()[FailureType.PHYSICAL_INTERCONNECT]
        assert u > d  # masking suppressed events in the default run
