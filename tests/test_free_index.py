"""Differential tests: the free-class and anchor indexes vs brute force.

The allocation state answers "which elements can host this
implementation now" (``AvailabilityCache.summary/best_fit/available``)
and "which elements can be the cheapest mapping anchor"
(``AvailabilityCache.anchor_candidates``) from indexes it keeps up to
date on every mutation, and the binder keeps a provisional overlay on
top.  Each
answer must equal the per-element scan it replaced (``tests/oracle.py``)
after any interleaving of occupy/vacate, fail/heal, nested transactions
with savepoints and ``rollback_to``, and snapshot/restore.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import Application, Implementation
from repro.arch import (
    AllocationState,
    ElementType,
    ResourceVector,
    crisp,
    heterogeneous_mesh,
    mesh,
)
from repro.arch.state import AllocationError
from repro.binding.binder import _CapacityPool
from repro.core.cost import (
    BOTH,
    BONUS_BORDER,
    COMMUNICATION,
    FRAGMENTATION,
    CostWeights,
    MappingCost,
)
from repro.core.search import SparseDistanceMatrix
from tests.conftest import simple_dsp_task
from tests.oracle import audit_availability, scan_pool

PLATFORMS = {
    "mesh5x5": lambda: mesh(5, 5),
    "hetmesh5x6": lambda: heterogeneous_mesh(5, 6),
    "crisp": crisp,
}

COSTS = (
    MappingCost(BOTH),
    MappingCost(COMMUNICATION),  # no fragmentation term: name order
    MappingCost(CostWeights(0.3, 7.1)),
)


def _implementations(platform) -> list[Implementation]:
    """Arity-1/2/3, float, pinned, oversized and unmatched requirements
    for every element kind on the platform."""
    impls = []
    for group in platform.capacity_classes:
        kind, capacity = group.kind, group.capacity
        items = list(capacity.items())
        label = kind.value
        shapes = {
            "a1": {items[0][0]: max(1, items[0][1] // 3)},
            "a1big": {items[0][0]: items[0][1]},
            "float": {k: v * 0.3 + 0.125 for k, v in items},
            "over": {items[0][0]: items[0][1] + 1},
            "alien": {"no_such_resource": 1},
        }
        if len(items) >= 2:
            shapes["a2"] = {k: max(1, v // 4) for k, v in items[:2]}
            shapes["a2rev"] = {
                k: max(1, v // 5) for k, v in reversed(items[:2])
            }
        if len(items) >= 3:
            shapes["a3"] = {k: max(1, v // 6) for k, v in items}
        for shape, requirement in shapes.items():
            impls.append(Implementation(
                name=f"{label}_{shape}",
                requirement=ResourceVector(requirement),
                target_kind=kind,
            ))
        impls.append(Implementation(
            name=f"{label}_empty", requirement=ResourceVector(),
            target_kind=kind,
        ))
        pinned = platform.elements[group.positions[-1]]
        impls.append(Implementation(
            name=f"{label}_pinned",
            requirement=ResourceVector({items[0][0]: 1}),
            target_element=pinned.name,
        ))
        impls.append(Implementation(
            name=f"{label}_pinned_over",
            requirement=ResourceVector({items[0][0]: items[0][1] + 1}),
            target_element=pinned.name,
        ))
    impls.append(Implementation(
        name="pinned_router", requirement=ResourceVector(cycles=1),
        target_element=platform.routers[0].name,
    ))
    impls.append(Implementation(
        name="absent_kind", requirement=ResourceVector(cycles=1),
        target_kind=ElementType.IO,
    ))
    return impls


def _requirement(rng: random.Random, free: ResourceVector) -> ResourceVector:
    """Part (or all) of a free vector; integral or float quantities."""
    if not free or rng.random() < 0.1:
        return ResourceVector(cycles=rng.randint(1, 30))  # may not fit
    if rng.random() < 0.15:
        return free  # fill the element up
    picked = {}
    for kind, quantity in free.items():
        if rng.random() < 0.7:
            if rng.random() < 0.3:
                picked[kind] = quantity * rng.uniform(0.05, 0.6)
            else:
                picked[kind] = max(1, int(quantity * rng.uniform(0.1, 0.7)))
    return ResourceVector(picked or {next(iter(free)): 1})


class _Churn:
    """Random mutations, transactions, savepoints and snapshots."""

    def __init__(self, state: AllocationState, seed: int) -> None:
        self.state = state
        self.rng = random.Random(seed)
        self.names = [e.name for e in state.platform.elements]
        self.scopes: list[tuple] = []  # (transaction, savepoints)
        self.snapshot = None
        self.serial = 0

    def step(self) -> str:
        state, rng = self.state, self.rng
        ops = ["occupy"] * 5 + ["vacate"] * 3 + ["fail", "heal"]
        if len(self.scopes) < 3:
            ops.append("begin")
        if self.scopes:
            ops += ["commit", "abort", "savepoint", "savepoint",
                    "rollback_to"]
        else:
            ops += ["snapshot", "restore"]
        op = rng.choice(ops)
        if op == "occupy":
            name = rng.choice(self.names)
            self.serial += 1
            try:
                state.occupy(
                    name, f"a{rng.randrange(4)}", f"t{self.serial}",
                    _requirement(rng, state.free(name)),
                )
            except AllocationError:
                pass
        elif op == "vacate":
            placed = sorted(state._placements)
            if placed:
                state.vacate(*rng.choice(placed))
        elif op == "fail":
            state.fail_element(rng.choice(self.names))
        elif op == "heal":
            failed = sorted(state.failed_elements)
            if failed:
                state.heal_element(rng.choice(failed))
        elif op == "begin":
            transaction = state.transaction()
            transaction.__enter__()
            self.scopes.append((transaction, []))
        elif op in ("commit", "abort"):
            transaction, _marks = self.scopes.pop()
            if op == "commit":
                transaction.__exit__(None, None, None)
            else:
                transaction.__exit__(RuntimeError, RuntimeError(), None)
        elif op == "savepoint":
            self.scopes[-1][1].append(state.savepoint())
        elif op == "rollback_to":
            marks = self.scopes[-1][1]
            if not marks:
                return "noop"
            mark = marks[rng.randrange(len(marks))]
            state.rollback_to(mark)
            marks[:] = [m for m in marks if m <= mark]
        elif op == "snapshot":
            self.snapshot = state.snapshot()
        elif op == "restore" and self.snapshot is not None:
            state.restore(self.snapshot)
        return op

    def close(self) -> None:
        while self.scopes:
            transaction, _marks = self.scopes.pop()
            transaction.__exit__(RuntimeError, RuntimeError(), None)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_indexes_match_brute_force_under_churn(platform_name, seed):
    platform = PLATFORMS[platform_name]()
    state = AllocationState(platform)
    impls = _implementations(platform)
    churn = _Churn(state, seed)
    audit_availability(state, impls, COSTS)
    seen = set()
    for _ in range(250):
        seen.add(churn.step())
        audit_availability(state, impls, COSTS)
    churn.close()
    audit_availability(state, impls, COSTS)
    # the schedule exercised every kind of mutation and undo
    assert {
        "occupy", "vacate", "fail", "rollback_to", "abort", "restore",
    } <= seen


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_binder_overlay_matches_provisional_scan(platform_name, seed):
    platform = PLATFORMS[platform_name]()
    state = AllocationState(platform)
    impls = _implementations(platform)
    churn = _Churn(state, seed)
    for _ in range(60):
        churn.step()
    churn.close()
    rng = random.Random(seed)
    pool = _CapacityPool(state)
    provisional: dict = {}
    positions = platform._element_position
    for _ in range(40):
        for impl in impls:
            best = pool.feasible_element(impl)
            assert best is scan_pool(state, provisional, impl)[0], impl
        feasible = [
            (impl, pool.feasible_element(impl)) for impl in impls
        ]
        feasible = [(i, e) for i, e in feasible if e is not None]
        if not feasible:
            break
        impl, element = rng.choice(feasible)
        position = positions[id(element)]
        free = provisional.get(
            position, state._free[platform.element_ids[position]]
        )
        provisional[position] = free - impl.requirement
        pool.reserve(element, impl)


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_compatible_classes_match_runs_on(platform_name):
    platform = PLATFORMS[platform_name]()
    covered = sorted(
        p for group in platform.capacity_classes for p in group.positions
    )
    assert covered == list(range(len(platform.elements)))
    for impl in _implementations(platform):
        classes, pin = impl.compatible_classes(platform)
        for position, element in enumerate(platform.elements):
            static = platform._capacity_class_of[position] in classes and (
                pin is None or pin == position
            )
            assert static == impl.runs_on(element), (impl, element)


class TestMaxConnectivity:
    """The border bonus reads each platform's own maximum connectivity."""

    def _bonus(self, cost, platform, name):
        state = AllocationState(platform)
        element = platform.element(name)
        return cost(
            None, "app", "t", element, state, {},
            SparseDistanceMatrix(platform),
            _comm_peers=(), _frag_peers=frozenset(),
        ), cost.fragmentation_bonus(
            _single_task_app(), "app", "t", element, state, {}
        )

    def test_one_cost_object_across_platforms_of_different_shape(self):
        cost = MappingCost(FRAGMENTATION)
        wide, line = mesh(3, 3), mesh(1, 3)
        assert wide.max_element_connectivity == 4
        assert line.max_element_connectivity == 2
        for _ in range(2):  # alternate: no platform's value sticks
            for platform, name, neighbours in (
                (wide, "dsp_0_0", 2), (line, "dsp_0_0", 1),
            ):
                expected = BONUS_BORDER * (
                    platform.max_element_connectivity - neighbours
                )
                via_call, via_bonus = self._bonus(cost, platform, name)
                assert via_bonus == expected
                assert via_call == 0.0 - expected


def _single_task_app():
    app = Application("single")
    app.add_task(simple_dsp_task("t"))
    return app
