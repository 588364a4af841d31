"""End-to-end runtime tests through the CLI: determinism and caching.

These drive ``repro run all`` exactly as a user would and assert the
runtime's two core guarantees: pooled execution is byte-identical to
serial, and a warm cache serves everything without new simulations.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS
from repro.runtime import Job, RuntimeConfig, RuntimeContext, Scheduler

#: Small but not degenerate: every experiment can run at this scale.
SCALE = "0.004"
SEED = "3"


class TestParserFlags:
    def test_runtime_flags_default(self):
        args = build_parser().parse_args(["run", "fig4b"])
        assert args.jobs == 1
        assert not args.no_cache
        assert args.cache_dir is None

    def test_runtime_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "all", "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 4
        assert args.no_cache
        assert args.cache_dir == "/tmp/x"

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert args.command == "cache"
        assert args.action == "stats"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])


class TestPoolDeterminism:
    def test_run_all_pool_output_identical_to_serial(self, capsys):
        base = ["run", "all", "--scale", SCALE, "--seed", SEED, "--no-cache"]
        serial_code = main(base)
        serial = capsys.readouterr()
        pooled_code = main(base + ["--jobs", "4"])
        pooled = capsys.readouterr()
        assert serial.out  # the experiments actually printed
        assert pooled.out == serial.out
        assert pooled_code == serial_code


class TestWarmCache:
    def test_second_run_all_is_served_from_cache(self, tmp_path, capsys):
        base = [
            "run", "all",
            "--scale", SCALE, "--seed", SEED,
            "--cache-dir", str(tmp_path),
        ]
        cold_code = main(base)
        cold = capsys.readouterr()
        warm_code = main(base)
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert warm_code == cold_code
        # The cold footer records simulations; the warm one records none.
        assert "sim.runs" in cold.err
        assert "sim.runs" not in warm.err
        assert "cache.hit" in warm.err

    @pytest.mark.parametrize("damage", ["bad_extension_code", "truncated"])
    def test_damaged_entries_rerun_cleanly(self, tmp_path, capsys, damage):
        base = [
            "run", "table1",
            "--scale", SCALE, "--seed", SEED,
            "--cache-dir", str(tmp_path),
        ]
        clean_code = main(base)
        clean = capsys.readouterr()
        entries = sorted(tmp_path.glob("*.pkl"))
        assert entries
        for path in entries:
            blob = bytearray(path.read_bytes())
            if damage == "bad_extension_code":
                blob[2:4] = b"\x82\xff"
            else:
                del blob[len(blob) // 2:]
            path.write_bytes(bytes(blob))
        rerun_code = main(base)
        rerun = capsys.readouterr()
        assert rerun_code == clean_code
        assert rerun.out == clean.out
        # Every damaged entry was a miss, so the rerun simulated again.
        assert "sim.runs" in rerun.err

    def test_warm_cache_performs_zero_simulations(self, tmp_path):
        jobs = [
            Job.experiment(experiment_id, scale=float(SCALE), seed=int(SEED))
            for experiment_id in sorted(EXPERIMENTS)
        ]
        cold = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        cold_results = Scheduler(cold).run(jobs)
        assert cold.metrics.count("sim.runs") > 0
        warm = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        warm_results = Scheduler(warm).run(jobs)
        assert warm.metrics.count("sim.runs") == 0
        assert warm.metrics.count("cache.hit") == len(jobs)
        assert [r.text for r in warm_results] == [r.text for r in cold_results]
        assert [r.checks for r in warm_results] == [r.checks for r in cold_results]

    def test_worker_failure_inside_pool_surfaces_as_error(self, capsys):
        # fig5-stability needs exposure in every model group; at a
        # degenerate scale it raises inside the worker, and the CLI
        # reports it instead of hanging or corrupting results.
        code = main(
            ["run", "fig5-stability", "--scale", "0.002", "--seed", "2",
             "--no-cache", "--jobs", "2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCacheSubcommand:
    def test_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:         0" in out
        assert main(
            ["run", "table1", "--scale", SCALE, "--seed", SEED,
             "--cache-dir", cache_dir]
        ) in (0, 1)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:         2" in out  # simulation + experiment
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:         0" in capsys.readouterr().out
