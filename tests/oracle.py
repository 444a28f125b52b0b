"""Brute-force oracles for the allocation state's derived indexes.

The free-class index (``AvailabilityCache.summary/best_fit/available``),
the anchor index (``AvailabilityCache.anchor_candidates``) and the
binder's provisional overlay replaced per-element platform scans.  The
scans are kept here, verbatim in their arithmetic, as the reference the
indexes must reproduce bit for bit: :func:`audit_availability` compares
every answer after any sequence of mutations.
"""

from __future__ import annotations

from repro.arch.state import AllocationState
from repro.core.cost import MappingCost
from repro.core.search import SparseDistanceMatrix


def scan_availability(state: AllocationState, impl) -> tuple:
    """The per-element availability scan: ``(count, first, best,
    best_slack, available)`` over every statically compatible element
    in platform scan order, fits and bottleneck fused over the state's
    per-kind free arrays."""
    requirement_items = tuple(impl.requirement._data.items())
    failed = state._failed_elements
    count = 0
    first = None
    best = None
    best_slack = float("inf")
    available_elements: list = []
    free_arrays = state._free_arrays
    arity = len(requirement_items)
    array_a = array_b = None
    quantity_a = quantity_b = None
    if arity == 1:
        ((kind_a, quantity_a),) = requirement_items
        array_a = free_arrays.get(kind_a)
        if array_a is None:
            return (0, None, None, best_slack, ())
    elif arity == 2:
        (kind_a, quantity_a), (kind_b, quantity_b) = requirement_items
        array_a = free_arrays.get(kind_a)
        array_b = free_arrays.get(kind_b)
        if array_a is None or array_b is None:
            return (0, None, None, best_slack, ())
    platform = state.platform
    for element_id, element in zip(platform.element_ids, platform.elements):
        if not impl.runs_on(element):
            continue
        if failed and element_id in failed:
            continue
        if arity == 1:
            have = array_a[element_id]
            if quantity_a > have:
                continue
            worst = quantity_a / have
        elif arity == 2:
            have = array_a[element_id]
            if quantity_a > have:
                continue
            worst = quantity_a / have
            have = array_b[element_id]
            if quantity_b > have:
                continue
            ratio = quantity_b / have
            if ratio > worst:
                worst = ratio
        else:
            available = state._free[element_id]._data
            worst = 0.0
            for kind, quantity in requirement_items:
                have = available.get(kind)
                if have is None or quantity > have:
                    worst = -1.0
                    break
                ratio = quantity / have
                if ratio > worst:
                    worst = ratio
            if worst < 0.0:
                continue
        if count == 0:
            first = element
            count = 1
        elif count == 1:
            count = 2
        available_elements.append(element)
        slack = 1.0 - worst
        if slack < best_slack or (
            slack == best_slack
            and best is not None and element.name < best.name
        ):
            best = element
            best_slack = slack
    return (count, first, best, best_slack, tuple(available_elements))


def _cheapest(state: AllocationState, candidates, cost: MappingCost,
              app_id: str):
    """The candidate of minimal ``(cost with an empty placement, name)``."""
    if not candidates:
        return None
    empty = SparseDistanceMatrix(state.platform)
    return min(
        candidates,
        key=lambda e: (
            cost(None, app_id, "t", e, state, {}, empty,
                 _comm_peers=(), _frag_peers=frozenset()),
            e.name,
        ),
    )


def scan_anchor(state: AllocationState, impl, cost: MappingCost,
                app_id: str = "fresh"):
    """The anchor sweep over every available element, or None."""
    return _cheapest(state, scan_availability(state, impl)[4], cost, app_id)


def index_anchor(state: AllocationState, impl, cost: MappingCost,
                 app_id: str = "fresh"):
    """The anchor the mapping phase picks from the anchor index."""
    return _cheapest(
        state, state.availability.anchor_candidates(impl), cost, app_id
    )


def _names(elements) -> list:
    return [None if e is None else e.name for e in elements]


def audit_availability(state: AllocationState, impls, costs=()) -> None:
    """Assert every index answer equals its brute-force oracle."""
    availability = state.availability
    for impl in impls:
        count, first, best, best_slack, available = scan_availability(
            state, impl
        )
        got_count, got_first = availability.summary(impl)
        assert (got_count, got_first) == (count, first), (
            impl, got_count, _names([got_first]), count, _names([first])
        )
        assert got_first is first
        got_best, got_slack = availability.best_fit(impl)
        assert got_best is best and got_slack == best_slack, (
            impl, _names([got_best]), got_slack, _names([best]), best_slack
        )
        got_available = availability.available(impl)
        assert _names(got_available) == _names(available), impl
        assert all(a is b for a, b in zip(got_available, available))
        for cost in costs:
            expected = scan_anchor(state, impl, cost)
            assert index_anchor(state, impl, cost) is expected, (
                impl, cost.weights, _names([expected])
            )


def scan_pool(state: AllocationState, provisional: dict, impl) -> tuple:
    """The binder's best fit over its provisional view: the state's free
    vectors with ``provisional`` (position -> vector) overriding the
    reserved elements; ``(element, slack)`` or ``(None, inf)``."""
    best = None
    best_slack = float("inf")
    platform = state.platform
    requirement_items = tuple(impl.requirement._data.items())
    for position, element in enumerate(platform.elements):
        if not impl.runs_on(element):
            continue
        element_id = platform.element_ids[position]
        if element_id in state._failed_elements:
            continue
        free = provisional.get(position, state._free[element_id])
        data = free._data
        worst = 0.0
        for kind, quantity in requirement_items:
            have = data.get(kind)
            if have is None or quantity > have:
                worst = -1.0
                break
            ratio = quantity / have
            if ratio > worst:
                worst = ratio
        if worst < 0.0:
            continue
        slack = 1.0 - worst
        if slack < best_slack or (
            slack == best_slack and best is not None
            and element.name < best.name
        ):
            best = element
            best_slack = slack
    return best, best_slack
