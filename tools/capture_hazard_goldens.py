"""Capture hazard-backend and analysis differential goldens.

Two sections land in one committed JSON file:

``engines``
    For each engine (legacy / vector) x seed, the content digest of the
    paper-default injection table plus text/data digests of the fig4a,
    fig9a, and fig10a experiments, all at a fixed small scale.  It pins
    the `analytic` hazard backend byte-identical to the
    pre-backend-refactor output on BOTH engines; tests/test_hazard_goldens.py
    replays the same runs and compares.

``analysis``
    Digests of every analysis the paper's figures reduce to — the
    FailureDataset methods, the per-type AFR stacks, gap pools, bursts,
    P(2) correlation, the findings report, and fig4a/fig9a/fig10a
    text/data/checks — at seeds 3, 5 and 7, on the default (per-unit)
    engine.  The digests were first recorded from the list-walking
    reference implementation the columnar EventTable analyses replaced,
    so they stand in for that second implementation;
    tests/test_core_columns.py replays them.

Regenerate (only when a deliberate behavior change lands):

    PYTHONPATH=src python tools/capture_hazard_goldens.py
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import os
import sys
from pathlib import Path

SEEDS = (101, 202, 303)
SCALE = 0.02
EXPERIMENTS = ("fig4a", "fig9a", "fig10a")
DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "tests/goldens/hazard_backend_goldens.json"
)

#: Analysis-section seeds and scales.  ``ANALYSIS_SCALE`` at seed 3 is
#: the test suite's shared ``small_sim`` fleet; findings and figures run
#: at the experiment ``SCALE``.
ANALYSIS_SEEDS = (3, 5, 7)
ANALYSIS_SCALE = 0.005
LOGS_SCALE = 0.002


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value):
    """A repr-stable, type-tagged tree of an analysis result.

    Floats are kept exact (``float.hex``), arrays by dtype, shape and
    raw bytes, dicts in insertion order (group-by order is part of the
    contract), and Python / NumPy integers compare equal by value.
    """
    import numpy as np

    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes().hex())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, _canonical(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return (
            "dict",
            tuple((_canonical(k), _canonical(v)) for k, v in value.items()),
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canonical(v) for v in value))
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__name__, value.name)
    if isinstance(value, (bool, np.bool_)):
        return ("bool", bool(value))
    if isinstance(value, (int, np.integer)):
        return ("int", int(value))
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex())
    if value is None or isinstance(value, str):
        return value
    raise TypeError("no canonical form for %r" % type(value).__name__)


def digest(value) -> str:
    """SHA-256 of an analysis result's canonical form."""
    return _sha(repr(_canonical(value)))


def _id_ends_in_0_or_1(system) -> bool:
    return system.system_id.endswith(("0", "1"))


def dataset_digests(dataset) -> dict:
    """Digests of the :class:`FailureDataset` method outputs."""
    from repro.failures.types import FAILURE_TYPE_ORDER

    return {
        "counts_by_type": digest(dataset.counts_by_type()),
        "events_of_type": digest(
            [dataset.events_of_type(ft) for ft in FAILURE_TYPE_ORDER]
        ),
        "filter_systems": digest(
            dataset.filter_systems(_id_ends_in_0_or_1).events
        ),
        "excluding_disk_family": digest(dataset.excluding_disk_family().events),
        "deduplicated": digest(dataset.deduplicated().events),
    }


def direct_digests(dataset) -> dict:
    """Digests of the aggregations over a directly simulated dataset."""
    from repro.core.afr import afr_stack
    from repro.core.breakdown import afr_by_class
    from repro.core.bursts import find_bursts, summarize_bursts
    from repro.core.correlation import correlation_by_type, count_distribution
    from repro.core.timebetween import gaps_by_scope

    return {
        "counts": digest(dataset.counts_by_type()),
        "afr": digest(afr_stack(dataset)),
        "by_class": digest(afr_by_class(dataset)),
        "by_class_no_h": digest(afr_by_class(dataset.excluding_disk_family())),
        "gaps_shelf": digest(gaps_by_scope(dataset, "shelf")),
        "gaps_rg": digest(gaps_by_scope(dataset, "raid_group")),
        "bursts": digest(find_bursts(dataset, "shelf")),
        "burst_summary": digest(summarize_bursts(dataset, "raid_group")),
        "correlation": digest(correlation_by_type(dataset, "shelf")),
        "count_dist": digest(count_distribution(dataset, None, "raid_group")),
    }


def via_logs_digests(dataset) -> dict:
    """Digests of the aggregations over a log-pipeline dataset."""
    from repro.core.afr import afr_stack
    from repro.core.correlation import correlation_by_type
    from repro.core.timebetween import gaps_by_scope

    return {
        "counts": digest(dataset.counts_by_type()),
        "afr": digest(afr_stack(dataset)),
        "gaps_shelf": digest(gaps_by_scope(dataset, "shelf")),
        "correlation": digest(correlation_by_type(dataset, "shelf")),
    }


def experiment_digests(result) -> dict:
    """Text, data and check digests of one experiment result."""
    return {
        "text": _sha(result.text),
        "data": _sha(json.dumps(result.data, sort_keys=True)),
        "checks": digest(result.checks),
    }


def capture() -> dict:
    from repro.experiments.base import ExperimentContext, run_experiment
    from repro.simulate.scenario import run_scenario

    goldens: dict = {
        "scale": SCALE,
        "seeds": list(SEEDS),
        "engines": {},
    }
    for engine_name in ("legacy", "vector"):
        os.environ["REPRO_VECTOR_ENGINE"] = (
            "1" if engine_name == "vector" else "0"
        )
        per_engine: dict = {"injection": {}, "experiments": {}}
        for seed in SEEDS:
            result = run_scenario("paper-default", scale=SCALE, seed=seed)
            table = result.injection.to_table()
            per_engine["injection"][str(seed)] = table.content_digest()
            per_seed: dict = {}
            context = ExperimentContext(scale=SCALE, seed=seed)
            for experiment_id in EXPERIMENTS:
                exp = run_experiment(experiment_id, context)
                per_seed[experiment_id] = {
                    "text": _sha(exp.text),
                    "data": _sha(json.dumps(exp.data, sort_keys=True)),
                }
            per_engine["experiments"][str(seed)] = per_seed
        goldens["engines"][engine_name] = per_engine
    return goldens


def capture_analysis() -> dict:
    """The ``analysis`` section (default engine, :data:`ANALYSIS_SEEDS`)."""
    from repro import envvars
    from repro.core.findings import evaluate_findings
    from repro.experiments.base import ExperimentContext, run_experiment
    from repro.simulate.scenario import run_scenario

    section: dict = {
        "seeds": list(ANALYSIS_SEEDS),
        "scale": ANALYSIS_SCALE,
        "logs_scale": LOGS_SCALE,
        "experiment_scale": SCALE,
        "dataset": {},
        "direct": {},
        "via_logs": {},
        "findings": {},
        "experiments": {},
    }
    with envvars.override("REPRO_VECTOR_ENGINE", "0"):
        for seed in ANALYSIS_SEEDS:
            key = str(seed)
            dataset = run_scenario(
                "paper-default", scale=ANALYSIS_SCALE, seed=seed
            ).dataset
            section["dataset"][key] = dataset_digests(dataset)
            section["direct"][key] = direct_digests(dataset)
            logged = run_scenario(
                "paper-default", scale=LOGS_SCALE, seed=seed, via_logs=True
            ).dataset
            section["via_logs"][key] = via_logs_digests(logged)
            context = ExperimentContext(scale=SCALE, seed=seed)
            section["findings"][key] = digest(
                evaluate_findings(context.dataset())
            )
            section["experiments"][key] = {
                experiment_id: experiment_digests(
                    run_experiment(experiment_id, context)
                )
                for experiment_id in EXPERIMENTS
            }
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    goldens = capture()
    goldens["analysis"] = capture_analysis()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
