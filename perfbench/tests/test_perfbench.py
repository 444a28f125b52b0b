"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import time
from pathlib import Path

import pytest

from perfbench.layers import (
    CLOSURE_TOLERANCE,
    PER_LAYER_METRICS,
    Tracer,
    WrapperCost,
    calibrate,
    closure,
)
from perfbench.run import DEFAULT_SEED, measure
from perfbench.workloads import (
    DETERMINISTIC,
    END_TO_END_UNITS,
    WORKLOADS,
    Harness,
    host_figures,
    load_reference,
    run_traced,
)
from perfbench.yardstick import Yardstick, probe

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: each named workload shrunk to a second or two of host time
TINY = {
    "mesh12_fifo": dict(duration=10.0, episodes=1),
    "mesh48_fill": dict(duration=0.5),
    "crisp_beamformer": dict(decisions=2, episodes=1),
    "mesh48_shards4": dict(duration=3.0, downtime=0.5),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    } == END_TO_END_UNITS
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == PER_LAYER_METRICS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_runs_tiny_with_every_metric_and_unit(name):
    result, details = measure(tiny(name), seed=3, seconds=0, trace=False)
    assert details["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        metric: entry["unit"] for metric, entry in result["metrics"].items()
    } == END_TO_END_UNITS
    for metric, value in values(result).items():
        assert math.isfinite(value) and value > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_deterministic_metrics_repeat_exactly(name):
    first = measure(tiny(name), seed=5, seconds=0, trace=False)
    second = measure(tiny(name), seed=5, seconds=0, trace=False)
    assert first[1]["deterministic"] == second[1]["deterministic"]
    for metric in DETERMINISTIC:
        assert values(first[0])[metric] == values(second[0])[metric]
    # wait_sim_p99 is recorded per episode (it is 0 where nothing waits)
    episodes = first[1]["deterministic"]["episodes"]
    if WORKLOADS[name].kind != "closed":
        assert all("wait_sim_p99" in episode for episode in episodes)


def test_another_seed_gives_other_inputs():
    first = measure(tiny("mesh12_fifo"), seed=5, seconds=0, trace=False)[1]
    other = measure(tiny("mesh12_fifo"), seed=6, seconds=0, trace=False)[1]
    assert (first["deterministic"]["episodes"][0]["digest"]
            != other["deterministic"]["episodes"][0]["digest"])


def test_a_recorded_seed_must_reproduce_its_record():
    workload = tiny("mesh12_fifo")
    _, details = measure(workload, seed=5, seconds=0, trace=False)
    record = details["deterministic"]
    result, _ = measure(workload, seed=5, seconds=0, trace=False,
                        reference={"5": record})
    assert result["correct"]
    tampered = dict(record, admitted=record["admitted"] + 1)
    result, details = measure(workload, seed=5, seconds=0, trace=False,
                              reference={"5": tampered})
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_keeps_decisions(name):
    result, details = measure(tiny(name), seed=3, seconds=0, trace=True)
    assert {
        metric: entry["unit"] for metric, entry in result["metrics"].items()
    } == {metric: unit for metric, (unit, _) in PER_LAYER_METRICS.items()}
    # the traced pass replays the untraced pass's decisions exactly;
    # on tiny passes the closure may miss by noise, nothing else may fail
    assert [p for p in details["problems"] if "layer split" not in p] == []


def test_layer_self_times_add_up_to_the_traced_region():
    """Uncorrected, self times plus residue are the traced wall exactly."""
    harness = Harness()
    tracer = Tracer()
    harness.install()
    try:
        run_traced(harness, tiny("mesh12_fifo"), 3, 0, tracer)
    finally:
        harness.uninstall()
    attributed = sum(tracer.layer_seconds(WrapperCost(0.0, 0.0)).values())
    assert attributed == pytest.approx(tracer.root_seconds, rel=1e-9)
    assert tracer.stats["core.mapping"][0] > 0
    assert tracer.stats["core.cost.gap"][0] > 0
    assert tracer.stats["routing"][0] > 0
    # one span per anchor sweep, the cost evaluations inside it counted
    assert tracer.stats["core.cost.anchor"][0] > 0
    assert tracer.anchor_evaluations[0] > 0


def test_calibrated_wrapper_cost_is_positive_and_split():
    cost = calibrate(calls=20_000, repeats=3)
    assert cost.inside > 0 and cost.outside > 0
    assert cost.total < 50e-6


@pytest.mark.perf
def test_closure_within_tolerance():
    """Corrected layer split plus residue matches the untraced total."""
    errors = []
    for _ in range(3):  # shared hosts: one quiet attempt is enough
        harness = Harness()
        tracer = Tracer()
        harness.install()
        try:
            cost = calibrate(calls=50_000, repeats=3)
            totals = run_traced(
                harness, tiny("mesh12_fifo"), 3, 2.0, tracer
            )
        finally:
            harness.uninstall()
        errors.append(closure(tracer, cost, totals["untraced_wall"]))
        if errors[-1] <= CLOSURE_TOLERANCE:
            break
    assert min(errors) <= CLOSURE_TOLERANCE, errors


def test_reference_records_default_and_held_out_seed_per_workload():
    seeds = load_reference()["seeds"]
    assert set(seeds) == set(WORKLOADS)
    for name, records in seeds.items():
        assert str(DEFAULT_SEED) in records and len(records) == 2, name
        for record in records.values():
            assert all(e["digest"] for e in record["episodes"]), name


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        probe(20)


def test_yardstick_scales_host_time_by_the_probe():
    """A probe twice its reference time halves every reading."""
    clock = Yardstick()
    clock._time_probe = lambda: 2 * Yardstick.REFERENCE
    before = signal.getsignal(signal.SIGALRM)
    clock.start()
    try:
        wall, cpu = clock.wall(), clock.cpu()
        host, host_cpu = time.perf_counter(), time.process_time()
        _busy(0.3)
        wall, cpu = clock.wall() - wall, clock.cpu() - cpu
        host, host_cpu = time.perf_counter() - host, time.process_time() - host_cpu
    finally:
        clock.stop()
    assert clock.ticks >= 10
    assert wall / host == pytest.approx(0.5, rel=0.05)
    assert cpu / host_cpu == pytest.approx(0.5, rel=0.1)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_yardstick_leaves_its_probe_time_out():
    """A probe of 2 ms in every 10 ms period at reference speed: the
    clock reads the other 8 ms."""
    def probe_2ms():
        _busy(0.002)
        return Yardstick.REFERENCE

    clock = Yardstick()
    clock._time_probe = probe_2ms
    clock.start()
    try:
        wall, host = clock.wall(), time.perf_counter()
        _busy(0.3)
        wall, host = clock.wall() - wall, time.perf_counter() - host
    finally:
        clock.stop()
    assert clock.probe_seconds > 0
    assert wall / host == pytest.approx(0.8, abs=0.05)


def test_host_figures_weight_every_distinct_decision_once():
    harness = Harness()
    harness.decision_seconds = [1.0, 3.0, 2.0, 5.0, 10.0]
    harness.episode_passes = [
        (0, {"start": 0, "decisions": 2, "wall": 4.0, "cpu": 3.0}),
        (1, {"start": 2, "decisions": 1, "wall": 2.0, "cpu": 2.0}),
        (0, {"start": 3, "decisions": 2, "wall": 16.0, "cpu": 13.0}),
    ]
    decisions, wall, cpu, seconds = host_figures(harness)
    assert decisions == 3
    assert (wall, cpu) == (12.0, 10.0)  # episode means 10 + 2 and 8 + 2
    assert seconds == [3.0, 6.5, 2.0]  # per-decision medians over passes
