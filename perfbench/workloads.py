"""The benchmark's workloads and the harness that measures them.

A *decision* is one admission attempt timed at its public entry point:
``AdmissionService.try_admit`` (the cluster service's override when
sharded) in the service workloads, ``AdmissionController.admit`` in the
closed-loop case study.  Attempts the service short-circuits on an
unchanged capacity epoch are decisions too.

The service workloads are open loops in *simulated* time: arrivals come
from seeded generators, so the generator never runs late and admission
wait is a simulated-time quantity.  Host time is measured per decision
and over the event loop (``EventKernel.run``), which is the timed phase;
everything before the loop starts (platform build and freeze, traffic
generation, manager construction) is set-up, and the drain after it is
neither.

Each run derives its episodes' recipes from ``--seed``; the program only
receives the recipes.  The first pass of every episode records its
trace, and later passes replay the traces in turn through the program's
own ``replay_trace`` / ``replay_cluster_trace``, so every repeat is also
a determinism check.  The deterministic metrics come from the first
passes; the host-time metrics from every timed pass.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import repro.cluster.sim as cluster_sim
import repro.sim.service as service
from perfbench.layers import Tracer
from perfbench.yardstick import Clock
from repro.api import AdmissionController
from repro.apps.beamforming import beamforming_application
from repro.arch.builders import crisp
from repro.sim.events import EventKernel
from repro.sim.trace import trace_digest

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: end-to-end metrics: name -> unit (directions and bounds live in
#: BENCHMARK.json; the tests check the two agree)
END_TO_END_UNITS = {
    "decisions_per_s": "decisions/s",
    "cpu_ms_per_decision": "ms",
    "decide_ms.p50": "ms",
    "decide_ms.p90": "ms",
    "admit_ratio": "ratio",
    "hops_per_channel": "hops",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: metrics that are a pure function of (workload, seed)
DETERMINISTIC = ("admit_ratio", "hops_per_channel")

#: set-up is sampled at least this many times per run
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """One named configuration of the admission stack."""

    name: str
    #: "service" (repro.sim), "cluster" (repro.cluster) or "closed"
    kind: str
    platform: str = "12x12"
    rate_scale: float = 8.0
    #: simulated seconds per episode
    duration: float = 120.0
    #: episodes per run, each from its own seed derived from --seed
    episodes: int = 1
    shards: int = 0
    kills: int = 0
    downtime: float = 5.0
    #: closed loop: admissions per episode
    decisions: int = 25

    def recipe(self, seed: int, episode: int) -> dict:
        """The program input of one episode (service and cluster kinds)."""
        episode_seed = seed * 1000 + episode
        if self.kind == "cluster":
            return cluster_sim.build_cluster_recipe(
                platform=self.platform, shards=self.shards,
                duration=self.duration, seed=episode_seed, policy="fifo",
                rate_scale=self.rate_scale, kills=self.kills,
                downtime=self.downtime,
            )
        return service.build_recipe(
            platform=self.platform, duration=self.duration,
            seed=episode_seed, policy="fifo", rate_scale=self.rate_scale,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        # saturated: GAP, ring search and routing dominate, and about
        # half the routing calls fail and roll back
        Workload("mesh12_fifo", "service", platform="12x12", rate_scale=8.0,
                 duration=90.0, episodes=4),
        # low blocking at scale: nearly every attempt commits, so the
        # per-epoch availability scans and the anchor cost sweep dominate
        Workload("mesh48_fill", "service", platform="48x48", rate_scale=32.0,
                 duration=4.0, episodes=4),
        # the paper's Section IV-A case study: the only workload that
        # validates, and the one that bypasses any scale fix
        Workload("crisp_beamformer", "closed", platform="crisp", decisions=25,
                 episodes=4),
        # the only workload through repro.cluster (spill-over, split)
        # and repro.resilience recovery
        Workload("mesh48_shards4", "cluster", platform="48x48", shards=4,
                 rate_scale=32.0, duration=8.0, kills=2, downtime=2.5,
                 episodes=2),
    )
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_figures(harness: Harness) -> tuple[int, float, float, list[float]]:
    """-> (decisions, timed wall, timed CPU, per-decision seconds), with
    every distinct decision weighted once.

    A service run replays some episodes more often than others, so its
    figures would lean towards whichever episodes the turn replayed.
    Instead each episode counts the mean wall and CPU time of its
    passes, and each of its decisions the median of that decision's
    times over the passes (a replay makes the same decisions in the same
    order).  The closed loop repeats one decision throughout, so its
    figures are the plain totals.
    """
    if not harness.episode_passes:
        return (len(harness.decision_seconds), harness.timed_wall,
                harness.timed_cpu, harness.decision_seconds)
    by_episode: dict[int, list[dict]] = {}
    for episode, sim_pass in harness.episode_passes:
        by_episode.setdefault(episode, []).append(sim_pass)
    decisions, wall, cpu, seconds = 0, 0.0, 0.0, []
    for passes in by_episode.values():
        count = passes[0]["decisions"]
        decisions += count
        wall += statistics.fmean(p["wall"] for p in passes)
        cpu += statistics.fmean(p["cpu"] for p in passes)
        columns = [
            harness.decision_seconds[p["start"]:p["start"] + count]
            for p in passes
        ]
        seconds.extend(statistics.median(times) for times in zip(*columns))
    return decisions, wall, cpu, seconds


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def _layouts(manager, app_id: str) -> list:
    """The execution layouts an admitted application holds (per shard)."""
    shards = getattr(manager, "by_id", None)
    if shards is None:
        return [manager.admitted[app_id]]
    return [
        shards[shard_id].manager.admitted[part_id]
        for shard_id, part_id in manager.admitted[app_id]
    ]


def _managers(manager) -> list:
    shards = getattr(manager, "shards", None)
    return [shard.manager for shard in shards] if shards else [manager]


def _decision_digest(decision) -> str:
    """Canonical digest of one closed-loop decision's layout and verdict."""
    layout = decision.layout
    payload = {
        "admitted": decision.admitted,
        "code": None if decision.code is None else decision.code.value,
    }
    if layout is not None:
        payload["placement"] = sorted(layout.placement.items())
        payload["routes"] = sorted(
            (name, list(route.path)) for name, route in layout.routes.items()
        )
        report = layout.validation
        payload["achieved"] = (
            None if report is None
            else [check.achieved for check in report.checks]
        )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _collect() -> None:
    """Collect the garbage earlier passes left, before a set-up starts.

    Otherwise a full collection over that garbage (a 48x48 pass leaves
    millions of objects) lands in some later set-up or timed phase and
    not in others, which doubled some set-up samples.
    """
    gc.collect()


class Harness:
    """Hooks the program's entry points for one benchmark process.

    Installed once per run: ``EventKernel.run`` (the timed phase), the
    recipe runners
    (to stamp where set-up starts) and ``try_admit`` (one decision).
    """

    def __init__(self, incremental: bool = True, fastpath: bool = True,
                 clock: Clock | None = None):
        #: every host time the harness takes is read from this clock
        self.clock = clock or Clock()
        self.incremental = incremental
        self.fastpath = fastpath
        self.decision_seconds: list[float] = []
        #: the timed phase on the harness clock, and in plain host seconds
        #: (what ``--seconds`` bounds)
        self.timed_wall = 0.0
        self.timed_cpu = 0.0
        self.timed_host = 0.0
        #: service workloads: (episode, pass) for every completed pass
        self.episode_passes: list[tuple[int, dict]] = []
        self.setup_seconds: list[float] = []
        self.hops = 0
        self.channels = 0
        self.failed = 0
        self.problems: list[str] = []
        #: timed phase on/off (off for set-up probes)
        self.timing = True
        #: attached for a traced episode (see :class:`_Pair`)
        self.pair: _Pair | None = None
        #: the manager the last decision ran against (cluster or Kairos)
        self.manager = None
        self._entry: float | None = None
        self._depth = 0
        self._patched: list[tuple] = []

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        self._patch(EventKernel, "run", self._hook_loop)
        self._patch(service, "run_recipe", self._hook_entry)
        self._patch(cluster_sim, "run_cluster_recipe", self._hook_entry)
        self._patch(service.AdmissionService, "try_admit", self._hook_decision)
        self._patch(
            cluster_sim.ClusterAdmissionService, "try_admit",
            self._hook_decision,
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, hook) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, hook(original))
        self._patched.append((owner, attribute, original))

    def _hook_entry(self, run):
        harness = self

        def run_recipe(recipe, *args, **kwargs):
            _collect()
            harness._entry = harness.clock.wall()
            kwargs.setdefault("incremental", harness.incremental)
            kwargs.setdefault("fastpath", harness.fastpath)
            return run(recipe, *args, **kwargs)

        return run_recipe

    def _hook_loop(self, run):
        harness = self

        def loop(kernel, *args, **kwargs):
            started = harness.clock.wall()
            if harness._entry is not None:
                harness.setup_seconds.append(started - harness._entry)
                harness._entry = None
            if not harness.timing:
                return run(kernel, *args, **kwargs)
            if harness.pair is not None:
                return harness.pair.loop(run, kernel, *args, **kwargs)
            cpu = harness.clock.cpu()
            host = time.perf_counter()
            try:
                return run(kernel, *args, **kwargs)
            finally:
                harness.timed_host += time.perf_counter() - host
                harness.timed_cpu += harness.clock.cpu() - cpu
                harness.timed_wall += harness.clock.wall() - started

        return loop

    def _hook_decision(self, try_admit):
        harness = self
        perf = self.clock.wall

        def decision(service, request, now):
            if harness._depth:
                # the cluster service's override calling the base method
                return try_admit(service, request, now)
            harness._depth = 1
            started = perf()
            try:
                admitted = try_admit(service, request, now)
            finally:
                harness.decision_seconds.append(perf() - started)
                harness._depth = 0
            harness.manager = service.manager
            if admitted:
                for layout in _layouts(service.manager, request.app_id):
                    harness.hops += layout.total_hops()
                    harness.channels += (
                        len(layout.routes) + len(layout.local_channels)
                    )
            return admitted

        return decision

    # -- passes --------------------------------------------------------------

    def run_pass(self, fn) -> dict:
        """Run one pass; -> its result and what it added to the counters."""
        decisions = len(self.decision_seconds)
        hops, channels = self.hops, self.channels
        wall, cpu = self.timed_wall, self.timed_cpu
        try:
            result = fn()
        except Exception:  # a failed pass is reported, not fatal
            traceback.print_exc()
            result = None
        done = len(self.decision_seconds) - decisions
        if result is None:
            self.fail(f"pass raised after {done} decisions", max(done, 1))
        return {
            "result": result,
            "start": decisions,
            "decisions": done,
            "hops": self.hops - hops,
            "channels": self.channels - channels,
            "wall": self.timed_wall - wall,
            "cpu": self.timed_cpu - cpu,
        }

    def fail(self, problem: str, decisions: int) -> None:
        self.problems.append(problem)
        self.failed += decisions

    def check(self, ok: bool, problem: str, decisions: int) -> None:
        if not ok:
            self.fail(problem, max(decisions, 1))

    def check_drained(self, sim_pass: dict) -> None:
        result = sim_pass["result"]
        if result is None:
            return
        self.check(
            result.post_drain_utilization == 0.0,
            f"utilisation {result.post_drain_utilization} after drain",
            sim_pass["decisions"],
        )
        verify = getattr(self.manager, "verify_integrity", None)
        if verify is not None:
            violations = verify()
            self.check(not violations, f"cluster integrity: {violations}",
                       sim_pass["decisions"])

    def sample_setup(self, fn) -> None:
        """Run ``fn`` for its set-up only (the timed phase is off)."""
        self.timing = False
        try:
            fn()
        finally:
            self.timing = True


# -- the workload drivers -----------------------------------------------------


def _run_recipe(workload: Workload, recipe: dict, trace_path=None):
    # through the module attributes, which the harness has hooked
    if workload.kind == "cluster":
        return cluster_sim.run_cluster_recipe(recipe, trace_path=trace_path)
    return service.run_recipe(recipe, trace_path=trace_path)


def _replay(workload: Workload, path):
    if workload.kind == "cluster":
        return cluster_sim.replay_cluster_trace(path)
    return service.replay_trace(path)


def _setup_probe(workload: Workload, recipe: dict):
    """The episode's recipe shrunk to an empty loop: set-up work only."""
    probe = dict(recipe, duration=1e-6, sample_interval=1e-6)
    if workload.kind == "cluster":
        probe["kills"] = 0
    return _run_recipe(workload, probe)


def _sim_outcome(first_pass: dict) -> dict:
    """The deterministic record of an episode's first pass."""
    result = first_pass["result"]
    metrics = result.metrics
    wait_p99 = metrics.wait_percentiles()["p99"]
    return {
        "digest": trace_digest(result.trace),
        "offered": metrics.offered,
        "admitted": metrics.admitted,
        "blocked": metrics.dropped - metrics.drops.get("drained", 0),
        # simulated seconds; None when nothing was admitted
        "wait_sim_p99": None if math.isnan(wait_p99) else wait_p99,
        "hops": first_pass["hops"],
        "channels": first_pass["channels"],
        "decisions": first_pass["decisions"],
    }


def run_sim_workload(harness: Harness, workload: Workload, seed: int,
                     seconds: float, workdir: Path) -> list[dict | None]:
    """Every episode once, then replays in turn (at least one) until
    ``seconds`` of timed phase have elapsed.

    The turn starts at an episode picked by ``seed``, so a set of runs
    on consecutive seeds replays every episode although one run may
    replay only one.
    """
    recipes = [workload.recipe(seed, k) for k in range(workload.episodes)]
    paths = [workdir / f"episode{k}.jsonl" for k in range(len(recipes))]
    outcomes: list[dict | None] = []
    for recipe, path in zip(recipes, paths):
        first = harness.run_pass(lambda: _run_recipe(workload, recipe, path))
        harness.check_drained(first)
        outcomes.append(None if first["result"] is None else _sim_outcome(first))
        if first["result"] is not None:
            harness.episode_passes.append((len(outcomes) - 1, first))
    recorded = [k for k, outcome in enumerate(outcomes) if outcome is not None]
    replays = 0
    while recorded and not harness.problems and (
        replays < 1 or harness.timed_host < seconds
    ):
        k = recorded[(seed + replays) % len(recorded)]
        replays += 1
        differences: list[str] = []

        def replay():
            _, found, result = _replay(workload, paths[k])
            differences.extend(found)
            return result

        replayed = harness.run_pass(replay)
        if replayed["result"] is None:
            break
        harness.check_drained(replayed)
        harness.check(not differences, f"episode {k} replay: {differences[:3]}",
                      replayed["decisions"])
        harness.check(replayed["hops"] == outcomes[k]["hops"],
                      f"episode {k} replay allocated other hops",
                      replayed["decisions"])
        if replayed["decisions"] == outcomes[k]["decisions"]:
            harness.episode_passes.append((k, replayed))
    while len(harness.setup_seconds) < SETUP_SAMPLES:
        recipe = recipes[len(harness.setup_seconds) % len(recipes)]
        harness.sample_setup(lambda: _setup_probe(workload, recipe))
    return outcomes


def _closed_setup(harness: Harness):
    _collect()
    started = harness.clock.wall()
    controller = AdmissionController(
        crisp(), validation_mode="enforce", validation_method="simulation",
        incremental=harness.incremental, fastpath=harness.fastpath,
    )
    app = beamforming_application()
    harness.setup_seconds.append(harness.clock.wall() - started)
    return controller, app


def _closed_episode(harness: Harness, workload: Workload,
                    tracer: Tracer | None = None) -> dict:
    """One caller admitting and releasing the beamformer ``decisions`` times.

    With a ``tracer`` every decision is made twice in a row, untraced
    and then traced, so both sides run on the same machine state (the
    host's speed drifts by tens of percent over seconds).
    """
    controller, app = _closed_setup(harness)
    harness.manager = controller.manager
    perf = harness.clock.wall
    digests: list[str] = []
    traced_digests: list[str] = []
    outcome = {"admitted": 0, "blocked": 0, "hops": 0, "channels": 0,
               "unsatisfied": 0, "untraced_wall": 0.0, "traced_wall": 0.0}

    def decide(into: list[str]) -> None:
        started = perf()
        decision = controller.admit(app, "beamformer")
        harness.decision_seconds.append(perf() - started)
        into.append(_decision_digest(decision))
        if not decision.admitted:
            outcome["blocked"] += 1
            return
        layout = decision.layout
        if into is digests:
            outcome["admitted"] += 1
            outcome["hops"] += layout.total_hops()
            outcome["channels"] += (
                len(layout.routes) + len(layout.local_channels)
            )
        if layout.validation is None or not layout.validation.satisfied:
            outcome["unsatisfied"] += 1
        controller.release("beamformer")

    cpu = harness.clock.cpu()
    host = time.perf_counter()
    for _ in range(workload.decisions):
        started = perf()
        decide(digests)
        middle = perf()
        outcome["untraced_wall"] += middle - started
        if tracer is not None:
            tracer.region(decide, traced_digests)
            outcome["traced_wall"] += perf() - middle
    harness.timed_cpu += harness.clock.cpu() - cpu
    harness.timed_wall += outcome["untraced_wall"] + outcome["traced_wall"]
    harness.timed_host += time.perf_counter() - host
    outcome["digest"] = digests[0] if digests else None
    outcome["distinct_digests"] = len(set(digests) | set(traced_digests))
    outcome["decisions"] = len(digests)
    outcome["offered"] = len(digests)
    outcome["utilization"] = controller.manager.utilization()
    return outcome


def run_closed_workload(harness: Harness, workload: Workload, seed: int,
                        seconds: float) -> list[dict]:
    """The case study has no random input: ``seed`` selects nothing."""
    outcomes = []
    while len(outcomes) < workload.episodes or harness.timed_host < seconds:
        sim_pass = harness.run_pass(lambda: _closed_episode(harness, workload))
        outcome = sim_pass["result"]
        if outcome is None:
            break
        _check_closed(harness, outcome)
        if outcomes:
            harness.check(outcome["digest"] == outcomes[0]["digest"],
                          "closed-loop decisions differ between episodes",
                          outcome["decisions"])
        if len(outcomes) < workload.episodes:
            outcomes.append(outcome)
    while len(harness.setup_seconds) < SETUP_SAMPLES:
        _closed_setup(harness)
    return outcomes


def _check_closed(harness: Harness, outcome: dict) -> None:
    decisions = outcome["decisions"]
    harness.check(outcome["blocked"] == 0, "beamformer rejected", decisions)
    harness.check(outcome["unsatisfied"] == 0,
                  "admitted beamformer without a satisfied validation report",
                  decisions)
    harness.check(outcome["distinct_digests"] == 1,
                  "repeated admissions of one application differ", decisions)
    harness.check(outcome["utilization"] == 0.0,
                  f"utilisation {outcome['utilization']} after release",
                  decisions)


# -- traced runs ----------------------------------------------------------------


class _Pair:
    """One episode run twice at once, untraced and traced, in slices.

    The host's speed drifts by tens of percent over seconds, so two
    passes run one after the other are not comparable to 5%.  Instead
    the first copy's event loop starts the second copy from inside its
    hook, and the second copy's loop then advances both kernels through
    the same simulated-time slices in turn (alternating which goes
    first).  Both copies make the same decisions; each slice pair runs
    on the same machine state.  One thread throughout.

    The copy made second runs a few percent faster even with no
    wrapper installed (its heap is younger), so consecutive pairs swap
    which copy is traced (``traced_first``).  The set-up heap of both
    copies is frozen (``gc.freeze``) for the slices: otherwise a
    collection scans both heaps and lands on whichever copy trips the
    threshold, which made one copy up to 17% slower.
    """

    #: host seconds one slice of one copy aims at: short enough that both
    #: copies of a slice see the same host, long enough that swapping
    #: the wrappers in and out around it costs next to nothing
    SLICE_SECONDS = 0.02

    def __init__(self, harness: Harness, tracer: Tracer, start_twin,
                 traced_first: bool) -> None:
        self.harness = harness
        self.tracer = tracer
        self.start_twin = start_twin
        self.traced_first = traced_first
        self.first_kernel = None
        self.twin_result = None
        self.untraced_wall = 0.0
        self.traced_wall = 0.0

    def loop(self, run, kernel, until: float) -> None:
        # EventKernel.run's count of fired events is not used by the
        # simulation drivers, so this stand-in returns nothing
        if self.first_kernel is None:
            # the first copy: park it and start the second
            self.first_kernel = kernel
            self.twin_result = self.start_twin()
            return
        if self.traced_first:
            traced, untraced = self.first_kernel, kernel
        else:
            traced, untraced = kernel, self.first_kernel
        gc.collect()
        gc.freeze()
        try:
            self._slices(run, traced, untraced, until)
        finally:
            gc.unfreeze()
        self.harness.timed_wall += self.untraced_wall + self.traced_wall

    def _slices(self, run, traced, untraced, until: float) -> None:
        """Alternate the copies slice by slice; the traced side's time is
        the tracer's own region time, so installing and removing the
        wrappers around each slice is not counted against it.  Slices
        are cut in simulated time and resized towards
        :data:`SLICE_SECONDS` of host time; where they are cut does not
        change a decision."""
        step = until / 256
        now = 0.0
        index = 0
        while now < until:
            stop = min(until, now + step)
            index += 1
            if index % 2:
                spent = self._untraced_slice(run, untraced, stop)
            traced_before = self.tracer.root_seconds
            self.tracer.region(run, traced, until=stop)
            self.traced_wall += self.tracer.root_seconds - traced_before
            if not index % 2:
                spent = self._untraced_slice(run, untraced, stop)
            step *= min(2.0, max(0.5, self.SLICE_SECONDS / max(spent, 1e-4)))
            now = stop

    def _untraced_slice(self, run, kernel, stop: float) -> float:
        started = time.perf_counter()
        run(kernel, until=stop)
        spent = time.perf_counter() - started
        self.untraced_wall += spent
        return spent


def run_traced(harness: Harness, workload: Workload, seed: int,
               seconds: float, tracer: Tracer) -> dict:
    """Untraced and traced runs of the same work, interleaved finely.

    The traced side must make the same decisions as the untraced one
    (the wrappers only observe); the untraced side is the total the
    calibrated layer split must add up to.  Service episodes run as a
    :class:`_Pair`, at least two so that each copy is made first once;
    the closed loop alternates single decisions.
    """
    totals = {"untraced_wall": 0.0, "traced_wall": 0.0, "decisions": 0,
              "short_circuits": 0, "digests": {}}
    k = 0
    while k < 2 or totals["traced_wall"] < seconds:
        episode = k % workload.episodes
        k += 1
        if workload.kind == "closed":
            paired = harness.run_pass(
                lambda: _closed_episode(harness, workload, tracer)
            )
            outcome = paired["result"]
            if outcome is None:
                break
            _check_closed(harness, outcome)
            totals["untraced_wall"] += outcome["untraced_wall"]
            totals["traced_wall"] += outcome["traced_wall"]
            totals["decisions"] += outcome["decisions"]
            totals["digests"][episode] = outcome["digest"]
            continue
        recipe = workload.recipe(seed, episode)
        pair = _Pair(harness, tracer, lambda: _run_recipe(workload, recipe),
                     traced_first=k % 2 == 0)
        harness.pair = pair
        try:
            paired = harness.run_pass(lambda: _run_recipe(workload, recipe))
        finally:
            harness.pair = None
        untraced, traced = paired["result"], pair.twin_result
        if pair.traced_first:
            untraced, traced = traced, untraced
        if untraced is None or traced is None:
            break
        for result in (untraced, traced):
            harness.check_drained(dict(paired, result=result))
        digest = trace_digest(untraced.trace)
        harness.check(
            digest == trace_digest(traced.trace),
            f"episode {episode}: traced decisions differ from untraced",
            paired["decisions"],
        )
        totals["untraced_wall"] += pair.untraced_wall
        totals["traced_wall"] += pair.traced_wall
        totals["decisions"] += paired["decisions"] // 2
        totals["digests"][episode] = digest
        totals["short_circuits"] += traced.metrics.probes_short_circuited
    fetches = hits = 0
    for manager in _managers(harness.manager):
        stats = manager.distfield_stats
        fetches += stats["fetches"]
        hits += stats["hits"]
    totals["distfield_hit_rate"] = hits / fetches if fetches else 0.0
    return totals
