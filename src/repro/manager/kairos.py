"""Kairos: the run-time resource manager (paper Section III-E).

"A prototype resource manager named 'Kairos' has been developed,
containing the work-flow of Fig. 1."  An allocation attempt runs the
four phases in order — binding, mapping, routing, validation — each
timed separately (Fig. 7 plots exactly these per-phase times), and is
atomic: any phase failure rolls the allocation state back and raises
:class:`AllocationFailure` tagged with the failing phase (Table I's
unit of account).

Atomicity uses the state's transaction journal by default: rollback
cost scales with the mutations the failed attempt made, not with the
platform size.  The pre-journal strategy — a full ledger snapshot
before every attempt — remains available as ``rollback="snapshot"``
for comparison benchmarks (see ``benchmarks/run_admission_bench.py``).

The manager also provides release (applications leaving the system)
and fault recovery (re-allocating applications stranded by element or
link failures), the run-time capabilities motivating the paper.

On top of the atomic pipeline sits the **admission fast path**
(:class:`AdmissionGate`, enabled by default): a sound pre-pipeline
feasibility gate over the state's aggregate free counters plus a
negative-result memo keyed on ``(spec digest, capacity epoch)``, so
attempts destined to fail — and re-probes of identical specs against
unchanged state, the backfill pattern of :mod:`repro.sim.service` —
are rejected without touching the binder.  See the "Fast path"
section of ``docs/performance.md`` for the soundness argument.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field

from repro.apps.taskgraph import Application, TaskGraphError
from repro.arch.state import AllocationState
from repro.arch.topology import Platform
from repro.core.cost import BOTH, CostWeights, MappingCost
from repro.core.distfield import DistanceFieldEngine, FieldStats
from repro.core.mapping import MappingOptions
from repro.manager.layout import (
    AllocationFailure,
    ExecutionLayout,
    Phase,
    PhaseTimings,
)
from repro.obs import DISABLED, Observability
from repro.reasons import ReasonCode
from repro.routing.router import BaseRouter, BfsRouter
from repro.validation.builder import SdfModelOptions

# repro.api's package __init__ is lazy (PEP 562), so this pulls in only
# the pipeline module — no cycle back into the manager
from repro.api.pipeline import PhaseContext, PhasePipeline

#: validation policy names (see module docstring of validator)
VALIDATION_MODES = ("enforce", "report", "skip")

#: failed-attempt rollback strategies (see class docstring)
ROLLBACK_STRATEGIES = ("transaction", "snapshot")

#: negative-result memo size bound; on overflow the memo is cleared
#: wholesale (it is a cache keyed by spec digest — long-running
#: services cycle a bounded spec pool, so this is a safety net only)
_MEMO_LIMIT = 65536

#: relative slack of the aggregate-capacity rejection threshold — wide
#: enough to absorb float ULP drift of the incremental counters, far
#: below any integer-quantity difference
_AGG_SLACK = 1e-9


class AdmissionGate:
    """The admission fast path: feasibility gate + negative-result memo.

    Soundness contract: **every rejection raised here would also be
    raised by the full pipeline against the same state** — the gate
    only proves infeasibility, it never guesses.  Three layers, from
    cheapest to dearest:

    1. **Negative-result memo** — rejections are remembered keyed on
       ``(spec digest, state.epoch)``.  A re-probe of an identical
       specification against an unchanged epoch (the backfill loops of
       :mod:`repro.sim.service`) replays the recorded rejection in
       O(1).  Sound because equal epochs certify bit-identical
       allocation state (see :class:`~repro.arch.state.AllocationState`)
       and the pipeline is deterministic in (spec, state).
    2. **Aggregate-capacity checks** — per resource kind, the sum over
       tasks of the componentwise *minimum* requirement across each
       task's implementations is a lower bound on what any binding
       consumes; if it exceeds the platform-wide (or, for tasks whose
       implementations all target one element class, the per-class)
       aggregate free counter, the binder's provisional pool cannot
       possibly fit the application, so binding must fail.
    3. **Per-implementation feasible-element checks** — a task none of
       whose implementations has *any* element with sufficient free
       capacity right now fails the binder's very first regret round.
       Answered by the state's free-class index
       (:class:`~repro.arch.state.AvailabilityCache`), once per group of
       elements with equal free vectors, the same index the binder and
       the mapping phase's anchor detection read.

    Layers 2 and 3 reject exactly where the ungated pipeline would:
    in the **binding** phase.  Results that survive the gate run the
    pipeline unchanged, so gated and ungated managers produce
    bit-identical layouts and decisions (asserted by
    ``tests/test_fastpath.py``).
    """

    __slots__ = (
        "state", "platform", "c_memo_hits", "c_gate_rejections",
        "c_gate_passes", "_memo", "_demand",
    )

    def __init__(self, state: AllocationState, registry=None) -> None:
        self.state = state
        self.platform = state.platform
        #: digest -> (epoch, Phase, reason); entries self-invalidate
        #: when the epoch moves on and are pruned on mismatch
        self._memo: dict[str, tuple[int, Phase, str]] = {}
        #: digest -> (app, total demand, per-element-class demand);
        #: demands are platform-static per specification
        self._demand: dict[str, tuple] = {}
        # registry counter handles; the bare names (``gate.memo_hits``)
        # survive below as read-through properties for one release
        registry = DISABLED.registry if registry is None else registry
        self.c_memo_hits = registry.counter("gate.memo_hits")
        self.c_gate_rejections = registry.counter("gate.rejections")
        self.c_gate_passes = registry.counter("gate.passes")

    @property
    def memo_hits(self):
        return self.c_memo_hits.value

    @property
    def gate_rejections(self):
        return self.c_gate_rejections.value

    @property
    def gate_passes(self):
        return self.c_gate_passes.value

    # -- the memo -----------------------------------------------------------

    def check_memo(self, digest: str, app_id: str) -> None:
        """Replay a remembered rejection if the epoch still matches."""
        entry = self._memo.get(digest)
        if entry is None:
            return
        epoch, phase, reason, code = entry
        if epoch != self.state._epoch:
            # stale for the *current* observation — but inside an open
            # transaction (batch planning) the mismatch only reflects
            # uncommitted mutations that will be rolled back, and the
            # entry stays valid for the committed state it certifies,
            # so it is pruned only when the epoch is a committed one
            if not self.state.in_transaction():
                del self._memo[digest]
            return
        self.c_memo_hits.inc()
        # the recorded reason (and code) is replayed verbatim for this
        # (possibly different) app_id — reasons are diagnostics, and no
        # pipeline reason embeds the attempt id (they name
        # app/task/channel)
        failure = AllocationFailure(phase, app_id, reason, code=code)
        failure.memoized = True
        raise failure

    def remember(self, digest: str, failure: AllocationFailure) -> None:
        """Record a rejection against the current (restored) epoch.

        Inside an open transaction the epoch is *uncommitted*: a later
        committed history can re-reach the same counter value with a
        different ledger (the batch-planning pattern of
        :meth:`repro.api.AdmissionController.plan_batch`), so an entry
        recorded now could replay a rejection against a state it never
        observed.  Such rejections are therefore not memoized — the
        soundness contract beats the cache hit.
        """
        if self.state.in_transaction():
            return
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[digest] = (
            self.state._epoch, failure.phase, failure.reason, failure.code
        )

    # -- the feasibility gate ----------------------------------------------

    def check_feasible(self, app: Application, digest: str, app_id: str) -> None:
        """Raise (and memoize) iff the spec is provably inadmissible."""
        rejection = self._infeasible_reason(app, digest)
        if rejection is None:
            self.c_gate_passes.inc()
            return
        reason, code = rejection
        self.c_gate_rejections.inc()
        failure = AllocationFailure(Phase.BINDING, app_id, reason, code=code)
        failure.gated = True
        self.remember(digest, failure)
        raise failure

    def _infeasible_reason(
        self, app: Application, digest: str
    ) -> tuple[str, ReasonCode] | None:
        state = self.state
        total, by_class = self._demand_of(app, digest)
        agg = state._agg_free
        # the incremental aggregate counters can drift from the ledger
        # sum by float ULPs under churn with float quantities, so the
        # rejection threshold carries a tiny slack — integer workloads
        # (where differences are >= 1) are unaffected, and a slack-wide
        # miss merely defers the rejection to the binder
        for resource, needed in total.items():
            have = agg.get(resource, 0)
            if needed > have and needed - have > _AGG_SLACK * (1.0 + abs(have)):
                return (
                    f"aggregate demand exceeds free capacity: needs "
                    f"{needed:g} {resource}, platform has {have:g} free",
                    ReasonCode.AGGREGATE_CAPACITY,
                )
        agg_kind = state._agg_free_kind
        for kind, demand in by_class.items():
            bucket = agg_kind.get(kind)
            for resource, needed in demand.items():
                have = bucket.get(resource, 0) if bucket else 0
                if needed > have and (
                    needed - have > _AGG_SLACK * (1.0 + abs(have))
                ):
                    return (
                        f"aggregate demand exceeds free {kind.value} "
                        f"capacity: needs {needed:g} {resource}, "
                        f"{have:g} free",
                        ReasonCode.AGGREGATE_CAPACITY,
                    )
        availability = state.availability
        for name in sorted(app.tasks):
            task = app.tasks[name]
            for impl in task.implementations:
                if availability.summary(impl)[0]:
                    break
            else:
                # the binder's first regret round evaluates every task
                # against the raw free state, so it fails on exactly
                # this task, with exactly this message
                return (
                    f"task {name!r} of {app.name!r} has no feasible "
                    "implementation (insufficient platform resources)",
                    ReasonCode.NO_FEASIBLE_IMPLEMENTATION,
                )
        return None

    def _demand_of(self, app: Application, digest: str) -> tuple[dict, dict]:
        cached = self._demand.get(digest)
        if cached is not None:
            return cached[1], cached[2]
        if len(self._demand) >= _MEMO_LIMIT:
            self._demand.clear()  # cache, not state — like the memo
        total: dict = {}
        by_class: dict = {}
        for task in app.tasks.values():
            mins: dict = {}
            kinds = set()
            first = True
            for impl in task.implementations:
                kinds.add(self._impl_class(impl))
                data = impl.requirement._data
                if first:
                    mins.update(data)
                    first = False
                else:
                    # componentwise min; a kind absent from any
                    # implementation has minimum zero and drops out
                    for resource in list(mins):
                        quantity = data.get(resource)
                        if quantity is None:
                            del mins[resource]
                        elif quantity < mins[resource]:
                            mins[resource] = quantity
            for resource, quantity in mins.items():
                total[resource] = total.get(resource, 0) + quantity
            if len(kinds) == 1:
                kind = next(iter(kinds))
                if kind is not None:
                    bucket = by_class.setdefault(kind, {})
                    for resource, quantity in mins.items():
                        bucket[resource] = bucket.get(resource, 0) + quantity
        self._demand[digest] = (app, total, by_class)
        return total, by_class

    def _impl_class(self, impl):
        """Element class an implementation charges, or None if unknown."""
        if impl.target_kind is not None:
            return impl.target_kind
        node_id = self.platform._node_ids.get(impl.target_element)
        if node_id is None or not self.platform._is_element_mask[node_id]:
            return None
        return self.platform._nodes_by_id[node_id].kind


@dataclass
class RecoveryReport:
    """Outcome of a fault-recovery pass.

    ``lost`` keeps the human-readable reason strings (they are
    recorded verbatim in sim decision traces, so their format is
    frozen); ``lost_codes`` carries the machine-readable
    :class:`~repro.reasons.ReasonCode` per lost application.
    """

    stranded: tuple[str, ...] = ()
    recovered: dict[str, ExecutionLayout] = field(default_factory=dict)
    lost: dict[str, str] = field(default_factory=dict)  #: app_id -> reason
    lost_codes: dict[str, ReasonCode] = field(default_factory=dict)


class Kairos:
    """Four-phase run-time spatial resource manager.

    Parameters
    ----------
    platform:
        The frozen platform to manage.
    weights:
        Mapping cost weights, a ready :class:`MappingCost`, or any
        custom cost callable with the same signature (e.g. a
        :class:`~repro.core.objectives.CompositeCost`) — "any cost
        function that can be defined for a platform" (Section II).
    mapping_options, router, sdf_options:
        Phase tunables; defaults follow the paper (BFS routing, one
        extra search ring, time-sharing SDF model).
    validation_mode:
        ``"enforce"`` rejects constraint violations, ``"report"``
        computes throughput but never rejects (the Table I protocol),
        ``"skip"`` omits the phase entirely.
    validation_method:
        ``"simulation"`` (exact state-space exploration, the paper's
        approach) or ``"analytical"`` (maximum cycle ratio — the
        future-work scheme of Section V, much faster).
    rollback:
        ``"transaction"`` (default) undoes a failed attempt via the
        state's journal, O(mutations); ``"snapshot"`` restores a full
        pre-attempt ledger copy, O(platform) — kept for comparison.
    fastpath:
        ``True`` (default) enables the :class:`AdmissionGate`:
        epoch-keyed negative-result memoization plus a sound
        pre-pipeline feasibility gate, so attempts destined to fail
        are rejected in microseconds instead of after a full
        bind→map→route→validate run.  Decisions and layouts are
        bit-identical either way; disable it only for comparison
        runs, or when using a custom cost callable that reads mutable
        state outside the :class:`AllocationState` ledgers (the memo
        assumes the pipeline is a pure function of spec and state).
    incremental:
        ``True`` (default) attaches a
        :class:`~repro.core.distfield.DistanceFieldEngine` to the
        state: the mapping phase's ring searches replay persistent
        per-origin distance fields (invalidated by link-traversability
        deltas, repaired by bounded re-expansion) instead of running a
        fresh BFS per attempt, and the routing phase uses the same
        fields as admissible lower bounds for its unreachable
        fast-fail.  Layouts and decisions are bit-identical either
        way (asserted by ``tests/test_distfield.py``); disable only
        for comparison runs.
    health:
        An optional :class:`~repro.resilience.HealthRegistry`.  When
        attached, the mapping cost is wrapped in a
        :class:`~repro.resilience.HealthAwareCost` — suspect, degraded
        and freshly-repaired elements carry a soft avoidance penalty,
        so placement quality degrades gracefully around flaky silicon
        — and the registry rides in the :class:`PhaseContext` for
        custom strategies to query.  Decisions are bit-identical to an
        unattached manager until the first soft penalty exists; the
        *caller* driving the registry must
        :meth:`~repro.arch.state.AllocationState.touch` the state when
        penalties change without a ledger mutation (see the registry's
        class docstring).
    obs:
        An optional :class:`repro.obs.Observability` bundle (metric
        registry + span tracer).  The default is the shared
        :data:`repro.obs.DISABLED` bundle: the gate and distance-field
        counters still count (their read-through stats keep working)
        but nothing is retained for export and spans are no-ops.
        Attach :func:`repro.obs.enabled` to collect
        ``gate.*``/``distfield.*``/``phase.*`` metrics and
        gate-probe/pipeline-phase spans; observability never feeds
        back into decisions, so layouts and digests are bit-identical
        either way (see docs/observability.md).
    """

    def __init__(
        self,
        platform: Platform,
        weights: CostWeights | MappingCost = BOTH,
        mapping_options: MappingOptions = MappingOptions(),
        router: BaseRouter | None = None,
        sdf_options: SdfModelOptions = SdfModelOptions(),
        validation_mode: str = "report",
        validation_max_firings: int | None = None,
        validation_method: str = "simulation",
        rollback: str = "transaction",
        fastpath: bool = True,
        incremental: bool = True,
        pipeline: PhasePipeline | None = None,
        health=None,
        obs: Observability | None = None,
    ) -> None:
        if validation_mode not in VALIDATION_MODES:
            raise ValueError(
                f"validation_mode must be one of {VALIDATION_MODES}, "
                f"got {validation_mode!r}"
            )
        if rollback not in ROLLBACK_STRATEGIES:
            raise ValueError(
                f"rollback must be one of {ROLLBACK_STRATEGIES}, "
                f"got {rollback!r}"
            )
        self.platform = platform
        self.state = AllocationState(platform)
        if isinstance(weights, CostWeights):
            self.cost = MappingCost(weights)
        elif callable(weights):
            self.cost = weights  # MappingCost, CompositeCost, or custom
        else:
            raise TypeError(
                f"weights must be CostWeights or a cost callable, "
                f"got {type(weights).__name__}"
            )
        self.health = health
        if health is not None:
            # lazy import: repro.resilience.recovery imports this
            # module for the legacy RecoveryReport shape
            from repro.resilience.health import HealthAwareCost

            self.cost = HealthAwareCost(self.cost, health)
        self.mapping_options = mapping_options
        self.router = router or BfsRouter()
        self.sdf_options = sdf_options
        self.validation_mode = validation_mode
        self.validation_max_firings = validation_max_firings
        self.validation_method = validation_method
        self.rollback = rollback
        #: the observability bundle (see repro.obs) — DISABLED by
        #: default: counters still count, but nothing is retained and
        #: spans are no-ops, so decisions and perf are untouched
        self.obs = DISABLED if obs is None else obs
        self.fastpath = bool(fastpath)
        self._gate = (
            AdmissionGate(self.state, self.obs.registry)
            if self.fastpath else None
        )
        self.incremental = bool(incremental)
        self._distfield = (
            DistanceFieldEngine(
                self.state, self.obs.registry, self.obs.tracer
            )
            if self.incremental else None
        )
        #: the phase-strategy pipeline (see repro.api.pipeline); the
        #: default reproduces the paper's work-flow exactly — regret
        #: binding, MapApplication, the configured router instance and
        #: the configured validation method
        if pipeline is None:
            pipeline = PhasePipeline(
                binder="regret",
                mapper="kairos",
                router=self.router,
                validator=(
                    "skip" if validation_mode == "skip"
                    else validation_method
                ),
            )
        self.pipeline = pipeline
        self.admitted: dict[str, ExecutionLayout] = {}
        #: original specifications of admitted applications, kept so
        #: fault recovery can re-allocate without the caller having to
        #: supply them (layouts do not retain the full task graph)
        self.specifications: dict[str, Application] = {}
        self._counter = itertools.count()
        self._controller = None  # lazy AdmissionController (repro.api)

    # -- allocation --------------------------------------------------------

    def allocate(
        self, app: Application, app_id: str | None = None
    ) -> ExecutionLayout:
        """Deprecated admission entry point (compat shim since PR 5).

        New code should use :class:`repro.api.AdmissionController`:
        ``admit()`` for the one-shot decision, or ``plan()`` +
        ``commit()`` for the two-phase protocol.  This shim routes
        through plan+commit — behaviour, layouts and churn digests are
        bit-identical to the historical implementation (asserted
        against ``benchmarks/seed_reference`` by the test suite) — and
        re-raises the plan's :class:`AllocationFailure` on rejection.
        """
        warnings.warn(
            "Kairos.allocate is deprecated; use "
            "repro.api.AdmissionController.admit (or plan/commit)",
            DeprecationWarning,
            stacklevel=2,
        )
        controller = self.controller
        plan = controller.plan(app, app_id)
        decision = controller.commit(plan)
        if not decision.admitted:
            raise decision.failure
        return decision.layout

    @property
    def controller(self):
        """The :class:`repro.api.AdmissionController` façade over this
        manager (created on first use; one per manager)."""
        if self._controller is None:
            from repro.api.controller import AdmissionController

            self._controller = AdmissionController.wrap(self)
        return self._controller

    def _admit_direct(
        self, app: Application, app_id: str | None = None
    ) -> ExecutionLayout:
        """One atomic allocation attempt, committed and registered.

        The historical ``allocate`` hot path, used by the façade's
        ``admit()`` and by fault recovery.  Raises
        :class:`AllocationFailure` with the failing phase; the
        allocation state is untouched in that case.
        """
        layout = self._attempt(app, app_id, hold=True)
        self.admitted[layout.app_id] = layout
        self.specifications[layout.app_id] = app
        return layout

    def _attempt(
        self,
        app: Application,
        app_id: str | None = None,
        *,
        hold: bool = True,
    ) -> ExecutionLayout:
        """Gate + four phases; ``hold=False`` unwinds every mutation.

        With the fast path enabled, attempts the
        :class:`AdmissionGate` can prove inadmissible (or has already
        seen fail against this exact state) are rejected before the
        pipeline runs — same phase, same decision, none of the cost.

        ``hold=True`` keeps the successful attempt's mutations (the
        admission path); ``hold=False`` is the *planning* path — the
        pipeline runs to completion, then the journal (or snapshot)
        restores the pre-attempt state bit-exactly, so the returned
        layout describes resources that are **not** held.  Neither
        path registers the layout in :attr:`admitted` — callers do.
        """
        app_id = app_id or f"{app.name}#{next(self._counter)}"
        if app_id in self.admitted:
            raise ValueError(f"app_id {app_id!r} already admitted")
        gate = self._gate
        digest = None
        if gate is not None:
            gate_started = time.perf_counter()
            digest = app.digest()
            # a memo hit replays a failure whose phases ran on an
            # earlier attempt — no phase ran now, so no timings are
            # attached and the latency histograms stay honest
            gate.check_memo(digest, app_id)
        try:
            app.validate()
        except TaskGraphError as exc:
            failure = AllocationFailure(
                Phase.BINDING, app_id, str(exc),
                code=ReasonCode.INVALID_SPECIFICATION,
            )
            if gate is not None:
                gate.remember(digest, failure)
            raise failure from exc

        timings = PhaseTimings()
        if gate is not None:
            with self.obs.tracer.span("gate.probe"):
                try:
                    gate.check_feasible(app, digest, app_id)
                except AllocationFailure as failure:
                    elapsed = time.perf_counter() - gate_started
                    timings.record(Phase.BINDING, elapsed)
                    # the gate rejection is a binding-phase sample the
                    # pipeline never sees; observe it here so the
                    # registry histogram mirrors ServiceMetrics'
                    # phase_latencies exactly
                    self.obs.registry.histogram(
                        "phase.binding.seconds"
                    ).observe(elapsed)
                    failure.timings = timings
                    raise
        try:
            if self.rollback == "snapshot" and not self.state.in_transaction():
                # legacy strategy: full ledger copy up front, restore
                # on failure — or on success when only planning.
                # Inside an open transaction (batch planning) restore()
                # is illegal, so the journal strategy takes over there;
                # the two are equivalence-tested (tests/test_transactions)
                snapshot = self.state.snapshot()
                try:
                    layout = self._run_phases(app, app_id, timings)
                except AllocationFailure:
                    self.state.restore(snapshot)
                    raise
                if not hold:
                    self.state.restore(snapshot)
            else:
                # journal strategy: any exception (phase failure or
                # bug) rolls back exactly the mutations this attempt
                # made; a plan-only attempt rolls back its own success
                mark = self.state._tx_begin()
                try:
                    layout = self._run_phases(app, app_id, timings)
                except BaseException:
                    self.state._tx_rollback(mark)
                    raise
                if hold:
                    self.state._tx_commit()
                else:
                    self.state._tx_rollback(mark)
        except AllocationFailure as failure:
            failure.timings = timings
            if gate is not None:
                # the rollback already restored the pre-attempt epoch,
                # so the memo entry certifies this exact state
                gate.remember(digest, failure)
            raise
        return layout

    @property
    def fastpath_stats(self) -> dict:
        """Observability counters of the admission gate (zeros if off)."""
        gate = self._gate
        if gate is None:
            return {"memo_hits": 0, "gate_rejections": 0, "gate_passes": 0}
        return {
            "memo_hits": gate.memo_hits,
            "gate_rejections": gate.gate_rejections,
            "gate_passes": gate.gate_passes,
        }

    @property
    def distfield_stats(self) -> dict:
        """Counters of the distance-field engine (zeros when off)."""
        engine = self._distfield
        if engine is None:
            return FieldStats().as_dict()
        return engine.stats.as_dict()

    def _phase_context(self, app_id: str) -> PhaseContext:
        """The per-attempt dependency container the strategies receive."""
        return PhaseContext(
            app_id=app_id,
            cost=self.cost,
            mapping_options=self.mapping_options,
            sdf_options=self.sdf_options,
            validation_mode=self.validation_mode,
            validation_max_firings=self.validation_max_firings,
            engine=self._distfield,
            health=self.health,
            obs=self.obs,
        )

    def _run_phases(
        self, app: Application, app_id: str, timings: PhaseTimings
    ) -> ExecutionLayout:
        """Binding, mapping, routing, validation — the Fig. 1 work-flow.

        Delegates to the :class:`~repro.api.pipeline.PhasePipeline`
        (strategies are swappable; the default reproduces the paper).
        Mutates the allocation state; the caller provides atomicity.
        """
        binding, mapping, routing, report = self.pipeline.run(
            app, app_id, self.state, self._phase_context(app_id), timings
        )
        return ExecutionLayout(
            app_id=app_id,
            app_name=app.name,
            binding=binding,
            placement=mapping.placement,
            routes=routing.routes,
            local_channels=routing.local_channels,
            mapping=mapping,
            validation=report,
            timings=timings,
        )

    # -- release -----------------------------------------------------------

    def release(self, app_id: str) -> None:
        """Free every resource of an admitted application."""
        if app_id not in self.admitted:
            raise KeyError(f"unknown app_id {app_id!r}")
        self.state.release_application(app_id)
        del self.admitted[app_id]
        self.specifications.pop(app_id, None)

    def release_all(self) -> None:
        for app_id in list(self.admitted):
            self.release(app_id)

    # -- fault recovery -------------------------------------------------------

    def stranded_by_faults(self) -> tuple[str, ...]:
        """Admitted applications touching failed elements or links."""
        stranded = set()
        failed_elements = self.state.failed_elements
        failed_links = self.state.failed_links
        for app_id, layout in self.admitted.items():
            if layout.elements_used & failed_elements:
                stranded.add(app_id)
                continue
            for route in layout.routes.values():
                touches_fault = any(
                    node in failed_elements for node in route.path
                ) or any(
                    frozenset((a, b)) in failed_links
                    for a, b in zip(route.path, route.path[1:])
                )
                if touches_fault:
                    stranded.add(app_id)
                    break
        return tuple(sorted(stranded))

    def recover(
        self,
        applications: dict[str, Application] | None = None,
        order: str = "admission",
    ) -> RecoveryReport:
        """Re-allocate every stranded application on the degraded platform.

        ``applications`` optionally overrides the original
        specifications by ``app_id``; when omitted (the default) the
        manager's own :attr:`specifications` registry is used, so
        ``recover()`` with no arguments is always sufficient.  Each
        stranded application is released and re-allocated from
        scratch; irrecoverable ones are reported in ``lost``.

        ``order`` controls re-admission order (delegated to a
        :class:`~repro.resilience.RecoveryEngine` pass).  The default
        is ``"admission"`` — oldest admitted first, so a long-resident
        large application is re-placed before younger arrivals can
        fragment the degraded platform under it.  ``"name"`` restores
        the historical alphabetical order (the sim service pins it on
        the legacy path so pre-resilience traces replay byte-exactly);
        ``"priority"`` and ``"size"`` are available for policy studies.
        For a persistent engine with a requeue and retry budget, build
        a :class:`~repro.resilience.RecoveryEngine` directly.
        """
        from repro.resilience.recovery import RecoveryEngine, RecoveryPolicy

        engine = RecoveryEngine(
            self, RecoveryPolicy(order=order, requeue=False)
        )
        return engine.recovery_pass(applications=applications).report()

    # -- metrics ----------------------------------------------------------------

    def external_fragmentation(self) -> float:
        return self.state.external_fragmentation()

    def utilization(self) -> float:
        return self.state.utilization()

    def __repr__(self) -> str:
        return (
            f"<Kairos on {self.platform.name}: {len(self.admitted)} admitted, "
            f"frag {self.external_fragmentation():.1f}%>"
        )
