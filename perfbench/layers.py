"""Per-layer attribution, measured from outside the program.

The tracer replaces each layer's public entry points (a module function
or a class method) with a timing wrapper for the duration of one traced
region and restores the originals afterwards; nothing under ``src/``
knows it is being measured.  A layer's *self time* is the wall time
inside its calls minus the time covered by the wrapped calls made
beneath them, so a shared availability scan is charged to
``arch.state.availability`` and not to whichever caller happened to fill
the cache.

Spans are not stored one by one: every call folds into its layer's
aggregate (calls, self seconds, failed calls, wrapped child calls), so
memory stays bounded by the number of layers however many calls a pass
makes.

The wrapper itself costs time.  :func:`calibrate` measures that cost on
an empty function at start-up and :meth:`Tracer.layer_seconds` subtracts
``calls x cost`` from each layer: the part of the cost that falls inside
a span from the layer itself, the part outside it from the caller.  In
the middle of a real pass a wrapped call costs more than in isolation
(caches), so the hottest leaf is not wrapped per call: the anchor cost
sweep (``min(candidates, key=...)`` in ``map_application``, about 2,000
candidates per decision on a 48x48 mesh) is timed as one span, with
``MappingCost`` only counted inside it: a bare counter with no clock
reads, whose calibrated cost is subtracted too.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import statistics
import time
from dataclasses import dataclass

#: ``MappingCost`` outside the anchor sweep is only called by the GAP
#: solver's pair costs, so its wrapper times ``core.cost.gap``
COST_TARGET = ("repro.core.cost", "MappingCost.__call__")
#: the anchor sweep: the module-global ``min`` that ``map_application``
#: looks up (the builtin until the tracer shadows it)
SWEEP_TARGET = ("repro.core.mapping", "min")


@dataclass(frozen=True)
class Layer:
    """One layer boundary: the entry points timed.

    ``targets`` are ``(module, "Class.method")`` or ``(module,
    "function")`` pairs; a module function is patched in the module that
    *calls* it, because that is the name the caller looks up.  Which
    end-to-end metric a change to each layer should move is tabled in
    ``perfbench/README.md``.
    """

    name: str
    targets: tuple[tuple[str, str], ...]


LAYERS: tuple[Layer, ...] = (
    Layer("sim.service", (("repro.sim.service", "AdmissionService.try_admit"),)),
    Layer("sim.policy", (
        ("repro.sim.service", "QueuePolicy.on_capacity_freed"),
        ("repro.sim.service", "FifoPolicy.on_capacity_freed"),
        ("repro.sim.service", "PriorityPolicy.on_capacity_freed"),
    )),
    Layer("api.admit", (("repro.api.controller", "AdmissionController.admit"),)),
    Layer("manager.gate", (
        ("repro.manager.kairos", "AdmissionGate.check_memo"),
        ("repro.manager.kairos", "AdmissionGate.check_feasible"),
    )),
    Layer("binding", (("repro.api.pipeline", "bind"),)),
    Layer("core.mapping", (("repro.api.pipeline", "map_application"),)),
    Layer("core.gap", (("repro.core.gap", "GapSolver.solve"),)),
    Layer("core.cost.gap", (COST_TARGET,)),
    # after core.cost.gap: the sweep swaps the cost wrapper out
    Layer("core.cost.anchor", (SWEEP_TARGET,)),
    Layer("core.search", (("repro.core.search", "RingSearch.advance"),)),
    Layer("core.distfield", (("repro.core.distfield", "DistanceFieldEngine.acquire"),)),
    Layer("arch.state.availability", (
        ("repro.arch.state", "AvailabilityCache.summary"),
        ("repro.arch.state", "AvailabilityCache.best_fit"),
        ("repro.arch.state", "AvailabilityCache.available"),
    )),
    Layer("arch.state.mutate", tuple(
        ("repro.arch.state", f"AllocationState.{method}")
        for method in (
            "occupy", "vacate", "reserve_route_ids", "release_application",
            "fail_element", "heal_element", "fail_link", "heal_link",
        )
    )),
    Layer("arch.state.rollback", (("repro.arch.state", "AllocationState.rollback_to"),)),
    Layer("routing", (("repro.routing.router", "BaseRouter.route_application"),)),
    Layer("validation", (("repro.api.pipeline", "validate_layout"),)),
    Layer("validation.model", (("repro.validation.validator", "layout_to_sdf"),)),
    Layer("validation.throughput", (
        ("repro.validation.validator", "analyze_throughput"),
        ("repro.validation.validator", "analytical_throughput"),
        ("repro.validation.validator", "maximum_cycle_ratio"),
    )),
    Layer("cluster.admit", (("repro.cluster.service", "ClusterManager.admit"),)),
    Layer("cluster.split", (("repro.cluster.coordinator", "ClusterCoordinator.admit_split"),)),
    Layer("cluster.route", (("repro.cluster.router", "ShardRouter.candidates"),)),
    Layer("resilience.recovery", (
        ("repro.resilience.recovery", "RecoveryEngine.recovery_pass"),
        ("repro.resilience.recovery", "RecoveryEngine.drain"),
    )),
)

CALLS, SELF, FAILED, CHILD_CALLS = range(4)

_MISSING = object()


def _resolve(module_name: str, path: str):
    """-> ``(owner, attribute, current value)`` for one target.

    A module global that is absent resolves to the builtin of that
    name: shadowing it in the module reaches exactly that module's
    calls.
    """
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if owners and attribute not in vars(owner):
        # patching an inherited method would shadow it on the subclass
        raise AttributeError(f"{module_name}.{path} is not defined there")
    return owner, attribute, vars(owner).get(attribute, _MISSING)


def _counter(fn, cell: list):
    """``fn`` counting its calls into ``cell[0]``, with no clock reads."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted


class Tracer:
    """Aggregating span tracer over the :data:`LAYERS` boundaries.

    The wrappers allocate nothing per call.  Three cells describe the
    open spans: ``_covered`` is the time completed spans cover inside
    the innermost open span, ``_completed`` the number of wrapped calls
    completed inside it, ``_current`` its layer name.  A span saves the
    first two on entry, reads its children's share on exit, and then
    reports itself to its parent as one completed child of its full
    duration.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        #: [calls, self seconds, failed calls, wrapped child calls]
        self.stats: dict[str, list] = {
            layer.name: [0, 0.0, 0, 0] for layer in layers
        }
        #: ``MappingCost`` evaluations inside the anchor sweeps (the
        #: sweep's memo answers the rest of its candidates)
        self.anchor_evaluations = [0]
        self._covered = [0.0]
        self._completed = [0]
        self._current = ["root"]
        self._patched: list[tuple] = []
        #: the root (the traced regions) in total
        self.root_seconds = 0.0
        self.root_child_seconds = 0.0
        self.root_child_calls = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        """A timing wrapper of ``fn`` into the aggregate of layer ``name``.

        Literal indices 0..3 are CALLS, SELF, FAILED and CHILD_CALLS;
        the body is kept minimal because it runs millions of times.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0])
        covered, completed, current = (
            self._covered, self._completed, self._current,
        )
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current[0]
            current[0] = name
            covered_before = covered[0]
            completed_before = completed[0]
            started = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                elapsed = perf() - started
                stats[0] += 1
                stats[1] += elapsed - (covered[0] - covered_before)
                stats[3] += completed[0] - completed_before
                covered[0] = covered_before + elapsed
                completed[0] = completed_before + 1
                current[0] = parent

        return wrapper

    def _wrap_sweep(self, builtin_min, cost_owner, cost_attribute,
                    cost_original):
        """The anchor sweep as one span, with ``MappingCost`` only
        counted inside it."""
        timed = self._wrap(builtin_min, "core.cost.anchor")
        counted = _counter(cost_original, self.anchor_evaluations)

        def sweep(*args, **kwargs):
            if "key" not in kwargs:  # the module's other min() calls
                return builtin_min(*args, **kwargs)
            wrapped = vars(cost_owner)[cost_attribute]
            setattr(cost_owner, cost_attribute, counted)
            try:
                return timed(*args, **kwargs)
            finally:
                setattr(cost_owner, cost_attribute, wrapped)

        return sweep

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Patch every target; pair with :meth:`uninstall` in ``finally``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in self.layers:
            for target in layer.targets:
                owner, attribute, original = _resolve(*target)
                originals[target] = (owner, attribute, original)
                if target == SWEEP_TARGET:
                    wrapped = self._wrap_sweep(
                        getattr(builtins, attribute), *originals[COST_TARGET]
                    )
                else:
                    wrapped = self._wrap(original, layer.name)
                setattr(owner, attribute, wrapped)
                self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def region(self, fn, *args, **kwargs):
        """Run ``fn`` as one traced region under the root."""
        self._covered[0] = 0.0
        self._completed[0] = 0
        self._current[0] = "root"
        self.install()
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.root_seconds += time.perf_counter() - started
            self.uninstall()
            self.root_child_seconds += self._covered[0]
            self.root_child_calls += self._completed[0]

    # -- results -------------------------------------------------------------

    def layer_seconds(self, cost: "WrapperCost") -> dict[str, float]:
        """Self seconds per layer with the wrapper cost taken out.

        Each call's cost inside its span (``cost.inside``) is charged
        to its own layer and the rest (``cost.outside``) to its caller;
        both are subtracted.  ``residue`` is the root's self time: the
        traced region's time outside every layer span (event kernel,
        trace records, metrics), corrected the same way.  The anchor
        sweep also sheds its counted cost evaluations (``cost.count``).
        """
        seconds = {
            name: entry[SELF] - entry[CALLS] * cost.inside
            - entry[CHILD_CALLS] * cost.outside
            for name, entry in self.stats.items()
        }
        if "core.cost.anchor" in seconds:
            seconds["core.cost.anchor"] -= (
                self.anchor_evaluations[0] * cost.count
            )
        seconds["residue"] = (
            self.root_seconds - self.root_child_seconds
            - self.root_child_calls * cost.outside
        )
        return seconds


@dataclass(frozen=True)
class WrapperCost:
    """Seconds one wrapped call adds, split at the span's clock reads,
    and seconds one counted (unclocked) call adds."""

    inside: float
    outside: float
    count: float = 0.0

    @property
    def total(self) -> float:
        return self.inside + self.outside


def _empty(*args, **kwargs):
    return None


def calibrate(calls: int = 100_000, repeats: int = 5) -> WrapperCost:
    """Time an empty wrapped call against an empty plain call.

    ``inside`` is the recorded span of an empty callee minus what the
    plain call costs; ``outside`` is the rest of the added time;
    ``count`` is what the anchor sweep's call counter adds.  Each is the
    median over ``repeats`` rounds.  The call shape (three
    positional and two keyword arguments) is typical of the timed
    entry points.
    """
    perf = time.perf_counter
    inside, outside, count = [], [], []
    for _ in range(repeats):
        tracer = Tracer(layers=())
        wrapped = tracer._wrap(_empty, "calibration")
        counted = _counter(_empty, [0])
        started = perf()
        for _ in range(calls):
            pass
        loop = perf() - started
        started = perf()
        for _ in range(calls):
            _empty(1, 2, 3, a=4, b=5)
        plain = perf() - started
        started = perf()
        for _ in range(calls):
            wrapped(1, 2, 3, a=4, b=5)
        traced = perf() - started
        started = perf()
        for _ in range(calls):
            counted(1, 2, 3, a=4, b=5)
        count.append(max(0.0, (perf() - started - plain) / calls))
        callee = (plain - loop) / calls
        span = tracer.stats["calibration"][SELF] / calls
        inside.append(max(0.0, span - callee))
        outside.append(max(0.0, (traced - plain) / calls - inside[-1]))
    return WrapperCost(
        statistics.median(inside), statistics.median(outside),
        statistics.median(count),
    )


# -- reported per-layer metrics -------------------------------------------------

#: layer -> the fields reported for it; ``arch.state.mutate`` includes the
#: rollbacks, which are also counted on their own
REPORTED: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.service", ("self_ms",)),
    ("sim.policy", ("self_ms",)),
    ("api.admit", ("self_ms",)),
    ("manager.gate", ("calls", "self_ms", "reject_ratio")),
    ("binding", ("calls", "self_ms", "fail_ratio")),
    ("core.mapping", ("calls", "self_ms", "fail_ratio")),
    ("core.cost.anchor", ("calls", "self_ms")),
    ("core.gap", ("calls", "self_ms")),
    ("core.cost.gap", ("calls", "self_ms")),
    ("core.search", ("calls", "self_ms")),
    ("core.distfield", ("calls", "self_ms")),
    ("arch.state.availability", ("calls", "self_ms")),
    ("arch.state.mutate", ("calls", "self_ms")),
    ("arch.state.rollback", ("calls",)),
    ("routing", ("calls", "self_ms", "success_ratio")),
    ("validation", ("calls", "self_ms")),
    ("validation.model", ("self_ms",)),
    ("validation.throughput", ("self_ms",)),
    ("cluster.admit", ("self_ms",)),
    ("cluster.split", ("calls", "self_ms")),
    ("cluster.route", ("self_ms",)),
    ("resilience.recovery", ("calls", "self_ms")),
)

_FIELD_UNITS = {
    "calls": ("calls/decision", "lower"),
    "self_ms": ("ms/decision", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "reject_ratio": ("ratio", "higher"),
    "success_ratio": ("ratio", "higher"),
}

#: name -> (unit, better) of every per-layer metric, in report order
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    f"{layer}.{field}": _FIELD_UNITS[field]
    for layer, fields in REPORTED
    for field in fields
}
PER_LAYER_METRICS.update({
    "core.distfield.hit_rate": ("ratio", "higher"),
    "sim.short_circuits": ("calls/decision", "higher"),
    "residue.self_ms": ("ms/decision", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.closure_err": ("ratio", "lower"),
    "trace.wrapper_ns": ("ns", "lower"),
})

#: the calibrated split should add up to the untraced time within this
#: share; on call-dense workloads a wrapped call costs two to three times
#: what the start-up calibration measures, so a run's closure is reported as
#: ``trace.closure_err`` and only a gross miss fails the run
CLOSURE_TOLERANCE = 0.05
CLOSURE_FAILURE = 0.25


def closure(tracer: Tracer, cost: WrapperCost, untraced_seconds: float
            ) -> float:
    """Relative gap between the corrected layer split and the untraced run.

    The attributed self times plus the residue add up to the traced
    region minus the calibrated wrapper cost; that sum is compared with
    the untraced passes of the same episodes.
    """
    attributed = sum(tracer.layer_seconds(cost).values())
    return abs(attributed - untraced_seconds) / untraced_seconds


def per_layer_metrics(tracer: Tracer, cost: WrapperCost, totals: dict
                      ) -> dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value from one traced run."""
    decisions = max(totals["decisions"], 1)
    seconds = tracer.layer_seconds(cost)
    stats = {name: list(entry) for name, entry in tracer.stats.items()}
    mutate, rollback = stats["arch.state.mutate"], stats["arch.state.rollback"]
    merged = [a + b for a, b in zip(mutate, rollback)]
    seconds["arch.state.mutate"] += seconds["arch.state.rollback"]
    stats["arch.state.mutate"] = merged
    # the anchor sweep is one span; its calls are the cost evaluations
    # made inside it
    stats["core.cost.anchor"][CALLS] = tracer.anchor_evaluations[0]

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    values: dict[str, float] = {}
    for layer, fields in REPORTED:
        calls, _, failed, _ = stats[layer]
        for field in fields:
            if field == "calls":
                value = calls / decisions
            elif field == "self_ms":
                value = max(seconds[layer], 0.0) * 1000.0 / decisions
            elif field == "success_ratio":
                value = ratio(calls - failed, calls)
            else:  # fail_ratio / reject_ratio: raised over calls
                value = ratio(failed, calls)
            values[f"{layer}.{field}"] = value
    untraced = totals["untraced_wall"]
    values["core.distfield.hit_rate"] = totals["distfield_hit_rate"]
    values["sim.short_circuits"] = totals["short_circuits"] / decisions
    values["residue.self_ms"] = seconds["residue"] * 1000.0 / decisions
    values["trace.overhead_frac"] = totals["traced_wall"] / untraced - 1.0
    values["trace.closure_err"] = closure(tracer, cost, untraced)
    values["trace.wrapper_ns"] = cost.total * 1e9
    return values
