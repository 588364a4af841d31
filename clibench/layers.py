"""Per-layer probe: time calls into each layer's public functions.

``run.py --trace 1`` starts this file in fresh interpreters, with the
same isolated environment as the timed CLI runs.  Nothing inside
``src/repro`` is instrumented: every number here is a ``perf_counter``
pair around one public call made from, or patched in by, this file.

Usage::

    python3 clibench/layers.py cli --out FILE -- REPRO_ARGS...
        # runs ``repro.cli.main(REPRO_ARGS)`` in this process, with its
        # stdout, stderr and exit code; FILE gets the timed intervals

    python3 clibench/layers.py probe --scale 0.2 --seed 1 --work DIR \\
        GROUP [GROUP ...]
        # prints one JSON object: timings, counts and self-check data

``cli`` gives the coverage figure.  It wraps the layers' public
functions where the CLI looks them up, runs the command, and writes the
summed outermost intervals of those calls to FILE.  The caller times the
process from spawn to exit; what the wrapped calls and the probe's own
set-up do not cover is what the layer list misses.

A group of ``probe`` is the sequence of layer calls one CLI command makes:

- ``cold``: build the fleet, inject, make the dataset, write the result
  to the cache, run fig4a on it (``repro run fig4a``).
- ``warm``: read the entry a ``cold`` group wrote under ``--work``,
  evaluate the findings (``repro findings`` on a primed cache).
- ``sharded``: the four-shard run on two workers, fig4a over its vistas
  (``repro run fig4a --shards 4 --jobs 2 --no-cache``).
- ``serial``: the same four shards on one worker, then the merge of
  their spills timed on its own.

A probe first times its own ``import repro.cli``.  Between groups it
drops the previous group's objects and collects garbage, so a group is
not charged for another's teardown.
"""

import argparse
import gc
import json
import os
import sys
import time

MIB = 1024.0 * 1024.0
SCENARIO = "paper-default"
SHARDS = 4
GROUPS = ("sharded", "serial", "cold", "warm")


def _timed(out, name, fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    out[name] = time.perf_counter() - start
    return value


def time_import() -> float:
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return time.perf_counter() - start


class Coverage:
    """Summed intervals of the layer calls one in-process CLI run makes.

    ``covered_s`` adds only outermost intervals, so a call nested in
    another wrapped call (``build_fleet`` inside ``run_experiment``) is
    not counted twice.  ``calls`` sums every interval per layer call.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.covered_s = 0.0
        self.calls: dict = {}

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.depth -= 1
                self.calls[name] = self.calls.get(name, 0.0) + took
                if self.depth == 0:
                    self.covered_s += took

        return timed

    def install(self) -> None:
        """Patch each timed function where the CLI path looks it up."""
        import repro.cli
        import repro.experiments
        import repro.runtime.shard
        import repro.simulate.engine
        from repro.core.dataset import FailureDataset
        from repro.failures.injector import FailureInjector
        from repro.runtime.cache import ResultCache
        from repro.simulate.vector.engine import VectorFailureInjector

        for owner, attr, name in (
            (repro.simulate.engine, "build_fleet", "fleet.build"),
            (FailureInjector, "inject", "failures.inject"),
            (VectorFailureInjector, "inject", "failures.inject"),
            (ResultCache, "put", "runtime.cache.put"),
            (ResultCache, "get", "runtime.cache.get"),
            (repro.runtime.shard, "run_sharded_scenario", "runtime.shard"),
            (repro.experiments, "run_experiment", "experiments.run"),
            (repro.cli, "evaluate_findings", "core.findings"),
        ):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        # A classmethod: wrap the bound method, store it unbound.
        FailureDataset.from_injection = staticmethod(
            self.wrap("core.dataset", FailureDataset.from_injection)
        )


def run_cli(out_path: str, argv) -> int:
    """``repro.cli.main(argv)`` with its layer calls timed; returns its code."""
    start = time.perf_counter()
    imported = time_import()
    coverage = Coverage()
    coverage.install()
    setup = time.perf_counter() - start
    from repro.cli import main

    code = main(argv)
    sys.stdout.flush()
    with open(out_path, "w") as handle:
        json.dump({
            "probe.import_s": imported,
            "probe.setup_s": setup,
            "covered_s": coverage.covered_s,
            "calls": coverage.calls,
        }, handle)
    return code


class Probe:
    """The layer calls of one probe process; results accumulate in ``out``."""

    def __init__(self, scale: float, seed: int, work: str) -> None:
        from repro.runtime import Job
        from repro.simulate import SCENARIOS

        self.scale, self.seed, self.work = scale, seed, work
        self.cache_dir = os.path.join(work, "probe-cache")
        self.spec = SCENARIOS[SCENARIO].make_spec(scale)
        self.key = Job.scenario(SCENARIO, scale, seed).key()
        self.out: dict = {}

    def runtime(self, jobs: int = 1):
        from repro.runtime import RuntimeConfig, RuntimeContext

        return RuntimeContext(RuntimeConfig(
            jobs=jobs, cache_dir=os.path.join(self.work, "unused"),
            cache_persist=False,
        ))

    def sharded_run(self, jobs: int, name: str, rows: str):
        from repro.runtime.shard import run_sharded_scenario

        runtime = self.runtime(jobs)
        result = _timed(
            self.out, name, run_sharded_scenario, SCENARIO, scale=self.scale,
            seed=self.seed, runtime=runtime, n_shards=SHARDS,
        )
        self.out[rows] = len(result.dataset.table)
        return runtime, result

    def fig4a(self, context, name: str, check: str) -> None:
        from repro.experiments import run_experiment

        sims = context.runtime.metrics.count("sim.runs")
        result = _timed(self.out, name, run_experiment, "fig4a", context)
        self.out["check.%s_text" % check] = result.text
        self.out["check.%s_sim_runs" % check] = (
            context.runtime.metrics.count("sim.runs") - sims
        )

    def group_sharded(self) -> None:
        from repro.experiments import ExperimentContext
        from repro.runtime import Job

        runtime, result = self.sharded_run(
            2, "runtime.shard.parallel_s", "check.parallel_rows"
        )
        # Adopted into memory, so fig4a is not charged for a cache load.
        runtime.cache.adopt(
            Job.scenario(SCENARIO, self.scale, self.seed, shards=SHARDS).key(),
            result,
        )
        context = ExperimentContext(
            scale=self.scale, seed=self.seed, runtime=runtime, shards=SHARDS
        )
        self.fig4a(context, "experiments.fig4a_sharded_s", "fig4a_sharded")

    def group_serial(self) -> None:
        from repro.core.colstore import load_table, merge_tables
        from repro.runtime.shard import ShardPlan, shard_key, spill_directory

        runtime, _ = self.sharded_run(
            1, "runtime.shard.serial_s", "check.serial_rows"
        )
        spill_dir = spill_directory(runtime)
        spills = [
            os.path.join(
                spill_dir, shard_key(SCENARIO, self.scale, self.seed, shard) + ".npz"
            )
            for shard in ShardPlan.build(self.spec, SHARDS).non_empty()
        ]
        self.out["core.colstore.spill_mib"] = (
            sum(os.path.getsize(path) for path in spills) / MIB
        )
        merged = _timed(
            self.out, "core.colstore.merge_s",
            lambda: merge_tables(load_table(path) for path in spills),
        )
        self.out["check.merged_rows"] = len(merged)

    def group_cold(self) -> None:
        from repro.core.dataset import FailureDataset
        from repro.experiments import ExperimentContext
        from repro.fleet.builder import build_fleet
        from repro.rng import RandomSource
        from repro.runtime import ResultCache
        from repro.simulate import SCENARIOS, SimulationResult, make_engine

        out = self.out
        engine = make_engine(
            spec=self.spec, injector_config=SCENARIOS[SCENARIO].make_config()
        )
        # One source for both calls, as SimulationEngine.run does.
        source = RandomSource(self.seed)
        fleet = _timed(out, "fleet.build_s", build_fleet, self.spec, source)
        injection = _timed(
            out, "failures.inject_s", engine.injector.inject, fleet, source
        )
        out["fleet.systems"] = fleet.system_count
        out["fleet.disks"] = fleet.disk_count_ever
        out["failures.events"] = injection.n_events()
        dataset = _timed(
            out, "core.dataset_s", FailureDataset.from_injection, injection
        )
        result = SimulationResult(
            spec=self.spec, seed=self.seed, fleet=fleet, injection=injection,
            dataset=dataset,
        )
        _timed(
            out, "runtime.cache.put_s",
            ResultCache(directory=self.cache_dir).put, self.key, result,
        )
        out["runtime.cache.entry_mib"] = (
            os.path.getsize(os.path.join(self.cache_dir, self.key + ".pkl")) / MIB
        )
        runtime = self.runtime()
        runtime.cache.adopt(self.key, result)
        context = ExperimentContext(scale=self.scale, seed=self.seed, runtime=runtime)
        self.fig4a(context, "experiments.fig4a_s", "fig4a")

    def group_warm(self) -> None:
        from repro.core.findings import evaluate_findings
        from repro.core.report import format_findings
        from repro.runtime import ResultCache

        loaded = _timed(
            self.out, "runtime.cache.get_s",
            ResultCache(directory=self.cache_dir).get, self.key,
        )
        self.out["check.loaded_rows"] = len(loaded.dataset.table)
        findings = _timed(
            self.out, "core.findings_s", evaluate_findings, loaded.dataset
        )
        self.out["check.findings_text"] = format_findings(findings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    cli_cmd = sub.add_parser("cli", help="run a repro command, its layer calls timed")
    cli_cmd.add_argument("--out", required=True, help="JSON file of the intervals")
    cli_cmd.add_argument("repro_args", nargs=argparse.REMAINDER)
    probe_cmd = sub.add_parser("probe", help="time the layer calls of GROUPs")
    probe_cmd.add_argument("--scale", type=float, required=True)
    probe_cmd.add_argument("--seed", type=int, required=True)
    probe_cmd.add_argument("--work", required=True, help="scratch directory")
    probe_cmd.add_argument("groups", nargs="+", choices=GROUPS)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        repro_args = args.repro_args
        if repro_args[:1] == ["--"]:
            repro_args = repro_args[1:]
        return run_cli(args.out, repro_args)
    imported = time_import()
    probe = Probe(args.scale, args.seed, args.work)
    probe.out["probe.import_s"] = imported
    for group in args.groups:
        gc.collect()
        getattr(probe, "group_" + group)()
    print(json.dumps(probe.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
