"""Binding: regret-ordered implementation selection (paper Section II).

"For the binding phase, we use the approach in [9], which selects for
each task an implementation, ordered by the difference between the
cheapest and second cheapest assignment, as in [10]."  The idea is the
classic *regret* (max-difference) heuristic from the knapsack
literature [10]: tasks whose best option is much better than their
runner-up are bound first, because postponing them risks losing a
uniquely good fit.

Binding checks that "the required resources must be available
*somewhere* in the platform" (Section I) — it does not pick locations
(that is the mapping phase) but it does maintain a provisional
capacity pool so that several tasks cannot all be bound against the
same last free element.  Computation-intensive applications therefore
fail predominantly here when the platform fills up, matching Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.implementations import Implementation
from repro.apps.taskgraph import Application
from repro.arch.elements import ProcessingElement
from repro.arch.resources import ResourceVector
from repro.arch.state import AllocationState, fit_slack
from repro.reasons import ReasonCode

#: regret assigned to tasks with a single feasible implementation —
#: they are bound first, before any flexible task eats their capacity.
SINGLE_OPTION_REGRET = float("inf")

#: bound of the per-application sorted-options cache kept on the
#: state's scratch; cleared wholesale on overflow (it is a cache — a
#: fresh Application per request must not accumulate forever)
_OPTIONS_CACHE_LIMIT = 4096


class BindingError(RuntimeError):
    """The binding phase found no feasible implementation for a task.

    ``code`` classifies the failure machine-readably; the manager
    copies it onto the :class:`~repro.manager.layout.AllocationFailure`
    it raises (or the :class:`~repro.api.Decision` it returns).
    """

    def __init__(
        self, message: str, code: ReasonCode = ReasonCode.BINDING_INFEASIBLE
    ):
        super().__init__(message)
        self.code = code


@dataclass
class BindingResult:
    """Chosen implementation per task, plus provisioning diagnostics."""

    choice: dict[str, Implementation]
    #: element provisionally charged for each task's requirement (a
    #: feasibility witness, *not* a placement — mapping decides that)
    provisional: dict[str, str] = field(default_factory=dict)
    #: binding order with the regret that drove it (diagnostics)
    order: list[tuple[str, float]] = field(default_factory=list)

    def __getitem__(self, task: str) -> Implementation:
        return self.choice[task]

    def __contains__(self, task: str) -> bool:
        return task in self.choice

    def total_cost(self) -> float:
        return sum(impl.cost for impl in self.choice.values())


class _CapacityPool:
    """Provisional free capacities during one binding run.

    An overlay on the allocation state: only the elements the run has
    provisionally reserved carry a vector of their own; every other
    element's provisional capacity is its free capacity in the state.
    So the best fit for an implementation is the state's free-class
    index answer with the reserved elements masked out, compared with
    the reserved elements re-scored on their provisional vectors —
    O(free classes + reservations), never O(platform).

    The regret loop asks for every unbound implementation's best fit on
    every round, so the answer per implementation is cached and kept
    up to date incrementally: a reserve invalidates only the
    implementations whose cached best is the touched element, and for
    all others the touched element is simply re-compared against the
    cached best (shrinking an element can make it a better best-fit or
    infeasible, never change other elements).
    """

    def __init__(self, state: AllocationState):
        self._state = state
        self.platform = state.platform
        self._availability = state.availability
        #: position in ``platform.elements`` -> provisional free vector
        #: of a reserved element
        self._free: dict[int, ResourceVector] = {}
        #: name-rank mask of the reserved elements
        self._reserved = 0
        #: id(impl) -> (impl, best element, best slack) or (impl, None, inf)
        self._best: dict[int, tuple[Implementation, ProcessingElement | None, float]] = {}

    def _score(self, impl: Implementation, position: int) -> float | None:
        """Best-fit slack of the reserved element at ``position``; None
        when the implementation cannot run on it or no longer fits."""
        classes, pin = impl.compatible_classes(self.platform)
        if self.platform._capacity_class_of[position] not in classes or (
            pin is not None and pin != position
        ):
            return None
        return fit_slack(
            tuple(impl.requirement._data.items()), self._free[position]._data
        )

    def feasible_element(self, impl: Implementation) -> ProcessingElement | None:
        """Best-fit element that can still host ``impl``, or None."""
        key = id(impl)
        cached = self._best.get(key)
        if cached is not None:
            return cached[1]
        best, best_slack = self._availability.best_fit(impl, self._reserved)
        elements = self.platform.elements
        for position in self._free:
            slack = self._score(impl, position)
            if slack is None:
                continue
            element = elements[position]
            if slack < best_slack or (
                slack == best_slack and element.name < best.name
            ):
                best = element
                best_slack = slack
        self._best[key] = (impl, best, best_slack)
        return best

    def reserve(self, element: ProcessingElement, impl: Implementation) -> None:
        platform = self.platform
        position = platform._element_position[id(element)]
        free = self._free.get(position)
        if free is None:
            free = self._state._free[platform._element_ids[position]]
            self._reserved |= 1 << platform._name_rank[position]
        self._free[position] = free - impl.requirement
        for key, (cached_impl, best, best_slack) in list(self._best.items()):
            if best is None:
                continue  # nothing fit before; a shrink changes nothing
            if best is element:
                # the cached winner shrank: recompute lazily on next ask
                del self._best[key]
                continue
            slack = self._score(cached_impl, position)
            if slack is not None and (
                slack < best_slack
                or (slack == best_slack and element.name < best.name)
            ):
                self._best[key] = (cached_impl, element, slack)


def bind(
    app: Application,
    state: AllocationState,
    quality_weight: float = 0.0,
) -> BindingResult:
    """Select one implementation per task, regret-first.

    ``quality_weight`` biases the per-implementation score by its
    execution time (0 = pure cost, as in the paper's setup; > 0 trades
    cost against speed, an extension hook used by the examples).

    Raises :class:`BindingError` naming the first task that has no
    feasible implementation left.
    """
    scratch_objects = state.scratch.objects
    pool = _CapacityPool(state)
    result = BindingResult(choice={})
    unbound = sorted(app.tasks)

    def score(impl: Implementation) -> float:
        return impl.cost + quality_weight * impl.execution_time

    # implementations pre-sorted by (score, name) once per application
    # (static given the quality weight): the regret of a round needs
    # only the two cheapest *feasible* options, which filtering a
    # sorted list yields without re-sorting per round
    options_key = ("binder.options", id(app), quality_weight)
    if len(scratch_objects) >= _OPTIONS_CACHE_LIMIT:
        # a cache, not state: callers minting a fresh Application per
        # request must not pin every one of them for the state's life
        scratch_objects.clear()
    # guarded by the identity of every Task object: in-place task
    # replacement (the documented mutation pattern of
    # Application.invalidate_graph_cache) swaps frozen Task instances,
    # so a stale options list can never be served
    task_signature = tuple(map(id, app.tasks.values()))
    cached_options = scratch_objects.get(options_key)
    if cached_options is not None and cached_options[0] is app and (
        cached_options[1] == task_signature
    ):
        task_options = cached_options[3]
    else:
        task_options = {
            task: sorted(
                ((score(impl), impl)
                 for impl in app.task(task).implementations),
                key=lambda item: (item[0], item[1].name),
            )
            for task in unbound
        }
        scratch_objects[options_key] = (
            # the Task tuple keeps the signature ids alive
            app, task_signature, tuple(app.tasks.values()), task_options,
        )

    while unbound:
        # evaluate regret for every unbound task against the current pool
        best_task: str | None = None
        best_regret = -1.0
        best_option: tuple[Implementation, ProcessingElement] | None = None
        infeasible_task: str | None = None
        for task in unbound:
            first: tuple | None = None
            second_score: float | None = None
            for impl_score, impl in task_options[task]:
                element = pool.feasible_element(impl)
                if element is None:
                    continue
                if first is None:
                    first = (impl_score, impl, element)
                else:
                    second_score = impl_score
                    break
            if first is None:
                infeasible_task = task
                break
            if second_score is None:
                regret = SINGLE_OPTION_REGRET
            else:
                regret = second_score - first[0]
            if regret > best_regret or (
                regret == best_regret and (best_task is None or task < best_task)
            ):
                best_task = task
                best_regret = regret
                best_option = (first[1], first[2])
        if infeasible_task is not None:
            raise BindingError(
                f"task {infeasible_task!r} of {app.name!r} has no feasible "
                "implementation (insufficient platform resources)",
                code=ReasonCode.NO_FEASIBLE_IMPLEMENTATION,
            )
        assert best_task is not None and best_option is not None
        impl, element = best_option
        pool.reserve(element, impl)
        result.choice[best_task] = impl
        result.provisional[best_task] = element.name
        result.order.append((best_task, best_regret))
        unbound.remove(best_task)

    return result
