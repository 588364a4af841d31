"""End-to-end benchmark of the ``repro`` command line.

Run from the root of a checkout::

    python3 clibench/run.py --workload cold-fig4a --seed 1 --seconds 15 --trace 0

One closed-loop client: every timed run is one ``python -m repro ...``
subprocess, started only after the previous one has exited.  With
``--trace 0`` it prints the end-to-end metrics of the workload, its times
scaled to a reference CPU speed by a speed probe on the child's CPU; with
``--trace 1`` it starts ``clibench/layers.py`` to run the command with its
layer calls timed, and then to time each layer's public calls from
outside.  Every run is gated for correctness.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``clibench/README.md`` for the workloads, the metrics and the
layer map.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import pickle
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.py")
WORK_ROOT = os.path.join(ROOT, ".clibench_work")
SCALE = "0.2"
MIB = 1024.0 * 1024.0
#: Every invocation must exit within 180 s; children are killed at this mark.
DEADLINE_S = 165.0
#: The speed probe: every PROBE_PERIOD_S, one burst unpickles PROBE_BLOB.
PROBE_BLOB = pickle.dumps(
    [(i, float(i), "s%d" % i) for i in range(8000)], protocol=5
)
PROBE_PERIOD_S = 0.05
#: What one probe burst takes at the reference speed: about its time on a
#: quiet 2.1 GHz Xeon vCPU under Python 3.11.  Times are reported as if
#: every burst of the run had taken this long.
REFERENCE_BURST_S = 0.0021

#: End-to-end times reported at the reference CPU speed.
SCALED = ("wall_s", "cpu_s")

COLD = ("run", "fig4a")
SHARDED = ("run", "fig4a", "--shards", "4", "--jobs", "2", "--no-cache")
FINDINGS = ("findings",)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One CLI command, timed, and the set-up run that gives its reference.

    Attributes:
        command: ``repro`` arguments of each timed run.
        reference: ``repro`` arguments of the untimed set-up run whose
            stdout every timed run must reproduce byte for byte.
        warm: timed runs start from a copy of the set-up run's cache and
            must hit it; otherwise they must simulate and not hit.
        calls: layer calls the traced CLI run must make; without them,
            its wrappers missed the command's work.
    """

    command: Tuple[str, ...]
    reference: Tuple[str, ...]
    warm: bool
    calls: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    "cold-fig4a": Workload(
        command=COLD,
        # The sharded run as reference makes every timed run check the
        # sharded == unsharded identity, and puts the worker pool, the
        # shard spills and their merge into setup_s.
        reference=SHARDED,
        warm=False,
        calls=("experiments.run", "fleet.build", "failures.inject",
               "runtime.cache.put"),
    ),
    "warm-findings": Workload(
        command=FINDINGS,
        reference=FINDINGS,
        warm=True,
        calls=("runtime.cache.get", "core.findings"),
    ),
}

VERDICT_LINE = re.compile(rb"^\s*\[(PASS|FAIL)\]", re.MULTILINE)
FOOTER_COUNTER = re.compile(rb"^\s+([a-z_.]+)\s+(\d+)\s*$", re.MULTILINE)


@dataclasses.dataclass
class Run:
    """One finished child process and what it left behind."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    disk_mib: float
    stdout: bytes
    stderr: bytes
    burst_s: float = 0.0
    problems: List[str] = dataclasses.field(default_factory=list)

    def scaled(self, seconds: float) -> float:
        """``seconds`` of this run at the reference CPU speed."""
        return seconds * REFERENCE_BURST_S / self.burst_s

    def counters(self) -> Dict[str, int]:
        """Integer counters of the stderr runtime-metrics footer."""
        return {
            name.decode(): int(value)
            for name, value in FOOTER_COUNTER.findall(self.stderr)
        }


class SpeedProbe:
    """Samples the speed of this CPU while a child runs on it.

    The CPU's speed drifts by up to 2x over seconds to minutes, and the
    two vCPUs drift apart, so the probe shares the child's CPU.  A thread
    at real-time priority runs a fixed burst every ``PROBE_PERIOD_S``: it
    unpickles a list of small tuples, object allocation and memory
    traffic.  Of the bursts tried (an interpreter loop, page faults,
    random memory reads, unpickling) it tracked both workloads' drift
    best.  The child cannot preempt a burst, so each burst times the CPU
    alone, host stalls included.  It takes about 4% of the CPU from the
    child.  The main thread waits in ``wait4`` meanwhile, so the GIL is
    free for it.
    """

    def __init__(self) -> None:
        self.bursts: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        try:
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        except OSError as error:
            print("warning: speed probe at normal priority: %s" % error,
                  file=sys.stderr)
        while not self._stop.is_set():
            start = time.perf_counter()
            pickle.loads(PROBE_BLOB)
            self.bursts.append(time.perf_counter() - start)
            self._stop.wait(PROBE_PERIOD_S)

    def mean(self) -> float:
        return statistics.fmean(self.bursts)


class Bench:
    """One invocation: its scratch space, deadline and attempt counts.

    With ``speed_probe`` set, every child is timed under a
    ``SpeedProbe``; the caller pins this process, and so its children, to
    one CPU.
    """

    def __init__(self, workload: str, seed: int, speed_probe: bool) -> None:
        self.name = workload
        self.speed_probe = speed_probe
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.started = time.perf_counter()
        self.work = os.path.join(WORK_ROOT, "%s-%d" % (workload, os.getpid()))
        self.attempted = 0
        self.failed = 0
        self._serial = 0

    # -- processes -------------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def fresh_dirs(self, keep_cache: Optional[str] = None) -> Tuple[str, str]:
        """A new (cache dir, TMPDIR) pair; the cache copied from ``keep_cache``."""
        self._serial += 1
        base = os.path.join(self.work, "run%02d" % self._serial)
        cache, tmp = os.path.join(base, "cache"), os.path.join(base, "tmp")
        if keep_cache is None:
            os.makedirs(cache)
        else:
            shutil.copytree(keep_cache, cache)
        os.makedirs(tmp)
        return cache, tmp

    def spawn(self, argv: List[str], tmp: str, dirs: Tuple[str, ...]) -> Run:
        """Run ``argv`` to completion; measure it from spawn to exit.

        ``wait4`` reports the child's CPU time and peak RSS together with
        those of the pool workers it reaped.  ``dirs`` are measured for
        the bytes the run left behind.
        """
        out_path = os.path.join(tmp, "..", "stdout")
        err_path = os.path.join(tmp, "..", "stderr")
        speed = SpeedProbe() if self.speed_probe else contextlib.nullcontext()
        with open(out_path, "wb") as out, open(err_path, "wb") as err, speed:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=child_env(tmp), cwd=ROOT, start_new_session=True,
            )
            watchdog = threading.Timer(
                max(self.remaining(), 1.0), _kill_group, (proc.pid,)
            )
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            stdout, stderr = out.read(), err.read()
        return Run(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0,
            disk_mib=sum(dir_bytes(d) for d in dirs) / MIB,
            stdout=stdout,
            stderr=stderr,
            burst_s=speed.mean() if self.speed_probe else 0.0,
        )

    def repro(self, args: Tuple[str, ...], cache: str, tmp: str,
              via: Tuple[str, ...] = ("-m", "repro")) -> Run:
        """One ``repro`` command; ``via`` names what runs it."""
        argv = [sys.executable, *via, *args, "--scale", SCALE,
                "--seed", str(self.seed), "--cache-dir", cache]
        return self.spawn(argv, tmp, (cache, tmp))

    # -- the correctness gate --------------------------------------------------

    def judge(self, run: Run, reference: Optional[bytes], warm: bool) -> None:
        """Gate one run; a run with any problem counts as failed."""
        problems = run.problems
        if run.exit_code != 0:
            problems.append("exit code %d" % run.exit_code)
        if b"Traceback" in run.stderr:
            problems.append("traceback on stderr")
        verdicts = VERDICT_LINE.findall(run.stdout)
        if not verdicts or any(v != b"PASS" for v in verdicts):
            problems.append("check lines %s" % [v.decode() for v in verdicts])
        if reference is not None and run.stdout != reference:
            problems.append("stdout differs from the reference")
        counters = run.counters()
        hits, sims = counters.get("cache.hit", 0), counters.get("sim.runs", 0)
        if warm and (hits < 1 or sims != 0):
            problems.append("not warm: cache.hit=%d sim.runs=%d" % (hits, sims))
        if not warm and (hits != 0 or sims < 1):
            problems.append("not cold: cache.hit=%d sim.runs=%d" % (hits, sims))
        self.count(problems)

    def count(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print("FAILED: %s" % "; ".join(problems), file=sys.stderr)

    # -- the workload ----------------------------------------------------------

    def setup(self) -> Tuple[Run, str]:
        """The untimed reference run; for a warm workload it primes the cache."""
        cache, tmp = self.fresh_dirs()
        run = self.repro(self.workload.reference, cache, tmp)
        # The set-up run of a warm workload is the cold run that fills it.
        self.judge(run, None, warm=False)
        return run, cache

    def timed(self, reference: Run, primed: str,
              via: Tuple[str, ...] = ("-m", "repro")) -> Run:
        """One gated run of the workload's command, in fresh directories."""
        cache, tmp = self.fresh_dirs(primed if self.workload.warm else None)
        run = self.repro(self.workload.command, cache, tmp, via)
        self.judge(run, reference.stdout, self.workload.warm)
        shutil.rmtree(os.path.dirname(cache))
        return run

    def measure(self, seconds: float) -> Tuple[Run, List[Run]]:
        """Set up, then run the command back to back for ``seconds``,
        and at least once."""
        reference, primed = self.setup()
        runs: List[Run] = []
        begin = time.perf_counter()
        while not runs or (
            time.perf_counter() - begin < seconds
            and self.remaining() > 1.5 * runs[-1].wall_s
        ):
            runs.append(self.timed(reference, primed))
            if runs[-1].exit_code < 0:
                break  # killed at the deadline
        return reference, runs

    def probe(self, groups: List[str], work: str, tmp: str) -> Tuple[Run, Dict]:
        """One ``layers.py probe`` process over ``groups``; its parsed output."""
        argv = [sys.executable, LAYERS, "probe",
                "--scale", SCALE, "--seed", str(self.seed), "--work", work]
        run = self.spawn(argv + groups, tmp, ())
        try:
            values = json.loads(run.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            values = {}
        if run.exit_code != 0 or not values:
            run.problems.append(
                "layer probe %s: exit code %d" % (" ".join(groups), run.exit_code)
            )
            sys.stderr.write(run.stderr.decode(errors="replace")[-2000:])
        return run, values

    def layers(self, reference: Run, primed: str) -> Dict[str, float]:
        """Per-layer metrics: one traced CLI run, two layer probes.

        The traced CLI run is the workload's command run in-process by
        ``layers.py cli``, gated like a timed run; its stderr footer gives
        the counts.  ``untimed_s`` is its spawn-to-exit time minus the
        probe's set-up and the outermost layer calls it timed: one process,
        one time window.  The probes then time each layer call on its own;
        the warm group reads the entry the cold group wrote, so the cold
        and warm object graphs never share a process.
        """
        calls_path = os.path.join(self.work, "calls.json")
        run = self.timed(
            reference, primed, (LAYERS, "cli", "--out", calls_path, "--")
        )
        calls = {}
        if os.path.isfile(calls_path):
            with open(calls_path) as handle:
                calls = json.load(handle)
        _, tmp = self.fresh_dirs()
        work = os.path.dirname(tmp)
        first, values = self.probe(["sharded", "serial", "cold"], work, tmp)
        second, more = self.probe(["warm"], work, tmp)
        problems = first.problems + second.problems
        missing = [c for c in self.workload.calls if c not in calls.get("calls", {})]
        if run.problems:
            problems.append("the traced CLI run failed its gate")
        if missing:
            problems.append("the traced CLI run made no call to %s" % ", ".join(missing))
        values.update(more)
        if not problems:
            problems = self_check(self.name, values, reference.stdout)
        self.count(problems)
        if problems:
            return {}
        values["cli.import_s"] = statistics.median(
            [calls["probe.import_s"], values["probe.import_s"], more["probe.import_s"]]
        )
        values["untimed_s"] = run.wall_s - calls["probe.setup_s"] - calls["covered_s"]
        values["runtime.pool.efficiency"] = values["runtime.shard.serial_s"] / (
            2.0 * values["runtime.shard.parallel_s"]
        )
        counters = run.counters()
        values["runtime.sim_runs"] = counters.get("sim.runs", 0)
        values["runtime.cache_hits"] = counters.get("cache.hit", 0)
        values["runtime.cache_misses"] = counters.get("cache.miss", 0)
        return values


def self_check(workload: str, values: Dict, reference: bytes) -> List[str]:
    """Reject layer numbers from a probe that computed something else."""
    problems = []
    events = values["failures.events"]
    for name in ("merged_rows", "serial_rows", "parallel_rows", "loaded_rows"):
        if values["check." + name] != events:
            problems.append(
                "%s=%s but failures.events=%s" % (name, values["check." + name], events)
            )
    for name in ("fig4a_sim_runs", "fig4a_sharded_sim_runs"):
        if values["check." + name] != 0:
            problems.append("%s=%s: analysis re-simulated" % (name, values["check." + name]))
    text = values["check.fig4a_text"]
    if values["check.fig4a_sharded_text"] != text:
        problems.append("sharded fig4a text differs from unsharded")
    if WORKLOADS[workload].warm:
        if values["check.findings_text"] + "\n" != reference.decode():
            problems.append("findings text differs from the CLI reference")
    elif text != reference.decode().split("\n[PASS] fig4a")[0]:
        problems.append("fig4a text differs from the CLI reference table")
    return problems


def child_env(tmp: str) -> Dict[str, str]:
    """The parent environment minus ``REPRO_*``, with BLAS pinned to one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=SRC,
        TMPDIR=tmp,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(path)
        for name in names
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    _kill_group(pgid)
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def report(name: str, unit: str, value: float, samples: Sequence[float] = (),
           measured: Sequence[float] = ()) -> None:
    line = "%-28s %14.4f %-5s" % (name, value, unit)
    if samples:
        line += " median of %d (min %.4f, max %.4f)" % (
            len(samples), min(samples), max(samples)
        )
    if measured:
        line += "; as measured %s" % ", ".join("%.4f" % m for m in measured)
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print("error: no program to measure: %s/repro is missing" % SRC,
              file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if not args.trace:
        # The speed probe must share the children's CPU.  The traced run
        # keeps both CPUs: it times the sharded run with two workers.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(args.workload, args.seed, speed_probe=not args.trace)
    metrics = {}
    try:
        if args.trace:
            reference, primed = bench.setup()
            values = bench.layers(reference, primed)
            if values:  # empty when the probes failed their self-checks
                for metric in spec["per_layer"]:
                    name, unit = metric["name"], metric["unit"]
                    report(name, unit, values[name])
                    metrics[name] = {"value": values[name], "unit": unit}
        else:
            reference, runs = bench.measure(args.seconds)
            for metric in spec["end_to_end"]:
                name, unit = metric["name"], metric["unit"]
                if name == "setup_s":
                    measured = [reference.wall_s]
                    samples = [reference.scaled(reference.wall_s)]
                elif name in SCALED:
                    measured = [getattr(run, name) for run in runs]
                    samples = [run.scaled(getattr(run, name)) for run in runs]
                else:
                    measured = []
                    samples = [getattr(run, name) for run in runs]
                value = statistics.median(samples)
                report(name, unit, value, samples, measured)
                metrics[name] = {"value": value, "unit": unit}
            report("probe.burst_ms", "ms", 1000 * statistics.median(
                [reference.burst_s] + [run.burst_s for run in runs]
            ), [1000 * r.burst_s for r in [reference] + runs])
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
