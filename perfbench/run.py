"""The admission benchmark: one workload per run, metrics as JSON.

Run from the repository root::

    python3 perfbench/run.py --workload mesh12_fifo --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` makes the traced run that attributes each decision's time to the
layers in ``perfbench/layers.py``.  ``--no-incremental`` and
``--no-fastpath`` turn off the manager's distance-field engine and
admission gate (decisions are identical either way; only time moves).

Human-readable details (digests, blocking, simulated wait, problems) go
to standard error; the last line on standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # as a script: the package and src/ by path
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import (  # noqa: E402
    CLOSURE_FAILURE,
    PER_LAYER_METRICS,
    Tracer,
    calibrate,
    per_layer_metrics,
)
from perfbench.yardstick import Clock, Yardstick  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DETERMINISTIC,
    END_TO_END_UNITS,
    WORKLOADS,
    Harness,
    host_figures,
    load_reference,
    percentile,
    run_closed_workload,
    run_sim_workload,
    run_traced,
)

DEFAULT_SEED = 1


def _end_to_end(harness: Harness, outcomes: list) -> dict[str, float]:
    done = [outcome for outcome in outcomes if outcome is not None]
    decisions, wall, cpu, seconds = host_figures(harness)
    admitted = sum(outcome["admitted"] for outcome in done)
    resolved = admitted + sum(outcome["blocked"] for outcome in done)
    channels = sum(outcome["channels"] for outcome in done)
    latencies = [value * 1000.0 for value in seconds]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "decisions_per_s": share(decisions, wall),
        "cpu_ms_per_decision": share(cpu * 1000.0, decisions),
        "decide_ms.p50": percentile(latencies, 50) if latencies else 0.0,
        "decide_ms.p90": percentile(latencies, 90) if latencies else 0.0,
        "admit_ratio": share(admitted, resolved),
        "hops_per_channel": share(
            sum(outcome["hops"] for outcome in done), channels
        ),
        "setup_s": (
            statistics.median(harness.setup_seconds)
            if harness.setup_seconds else 0.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def deterministic_record(outcomes: list, metrics: dict) -> dict:
    """What must repeat exactly for one (workload, seed)."""
    keep = ("digest", "decisions", "offered", "admitted", "blocked",
            "wait_sim_p99", "hops", "channels")
    return {
        "episodes": [
            None if outcome is None
            else {key: outcome[key] for key in keep if key in outcome}
            for outcome in outcomes
        ],
        "admitted": sum(
            outcome["admitted"] for outcome in outcomes if outcome is not None
        ),
        **{name: metrics[name] for name in DETERMINISTIC},
    }


def _traced_run(harness: Harness, workload, seed: int, seconds: float,
                expected: dict | None, details: dict) -> dict[str, float]:
    cost = calibrate()
    tracer = Tracer()
    totals = run_traced(harness, workload, seed, seconds, tracer)
    details["totals"] = totals
    values = per_layer_metrics(tracer, cost, totals)
    harness.check(
        values["trace.closure_err"] <= CLOSURE_FAILURE,
        f"layer split misses the untraced total by "
        f"{values['trace.closure_err']:.3f}",
        totals["decisions"],
    )
    if expected is not None:
        recorded = [episode["digest"] for episode in expected["episodes"]]
        harness.check(
            all(
                k < len(recorded) and recorded[k] == digest
                for k, digest in totals["digests"].items()
            ),
            f"seed {seed}: traced decisions differ from perfbench/reference.json",
            totals["decisions"],
        )
    return values


def _end_to_end_run(harness: Harness, workload, seed: int, seconds: float,
                    expected: dict | None, details: dict) -> dict[str, float]:
    if workload.kind == "closed":
        outcomes = run_closed_workload(harness, workload, seed, seconds)
    else:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            outcomes = run_sim_workload(
                harness, workload, seed, seconds, Path(tmp)
            )
    values = _end_to_end(harness, outcomes)
    record = deterministic_record(outcomes, values)
    details["deterministic"] = record
    if expected is not None:
        harness.check(
            record == expected,
            f"seed {seed}: decisions differ from perfbench/reference.json",
            len(harness.decision_seconds),
        )
    return values


def measure(workload, seed: int, seconds: float, trace: bool,
            incremental: bool = True, fastpath: bool = True,
            reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; -> (the result object, details for stderr).

    ``reference`` maps seeds to recorded :func:`deterministic_record`
    values; a run on a recorded seed must reproduce its record.
    """
    # host times of the end-to-end run are read at reference host speed;
    # the traced run compares traced and untraced twins side by side and
    # keeps the plain clock, which the probe's interrupts would distort
    clock = Clock() if trace else Yardstick()
    harness = Harness(incremental=incremental, fastpath=fastpath, clock=clock)
    expected = (reference or {}).get(str(seed))
    details: dict = {"workload": workload.name, "seed": seed}
    run = _traced_run if trace else _end_to_end_run
    harness.install()
    clock.start()
    try:
        values = run(harness, workload, seed, seconds, expected, details)
    finally:
        clock.stop()
        harness.uninstall()
    if not trace:
        ticks = max(clock.ticks, 1)
        details["yardstick"] = {
            "ticks": clock.ticks,
            "mean_probe_us": clock.timed_seconds / ticks * 1e6,
            "mean_tick_us": clock.probe_seconds / ticks * 1e6,
        }
    if trace:
        units = {name: unit for name, (unit, _) in PER_LAYER_METRICS.items()}
    else:
        units = END_TO_END_UNITS
    attempted = max(len(harness.decision_seconds), 1)
    details["problems"] = harness.problems
    details["timed_wall_s"] = harness.timed_wall
    details["timed_host_s"] = harness.timed_host
    result = {
        "correct": not harness.problems,
        "attempted": attempted,
        "failed": min(harness.failed, attempted),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--no-incremental", action="store_true")
    parser.add_argument("--no-fastpath", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    result, details = measure(
        workload, args.seed, args.seconds, bool(args.trace),
        incremental=not args.no_incremental, fastpath=not args.no_fastpath,
        reference=load_reference().get("seeds", {}).get(workload.name),
    )
    print(json.dumps(details, sort_keys=True, default=str), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
