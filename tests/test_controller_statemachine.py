"""Stateful property test: plan/commit interleavings never corrupt state.

A Hypothesis ``RuleBasedStateMachine`` drives one *unsharded*
:class:`~repro.api.AdmissionController` through arbitrary
interleavings of the two-phase protocol with concurrent epoch
movement — the schedule a real control plane produces when admissions,
releases, faults, repairs and recovery passes land *between* a plan
and its commit.  The contract under test (ROADMAP open item 4):

* a plan whose epoch still matches commits exactly as planned — a
  committable plan admits, a failed plan replays its recorded failure
  with the same reason code, and neither sets ``replanned``;
* any epoch movement between plan and commit makes commit *replan*
  (``Decision.replanned`` is set) instead of applying a stale layout —
  whatever moved the epoch: another admission, a release, a fault, a
  repair, or a recovery pass;
* planning itself is free — epoch and utilization are bit-identical
  before and after a plan, success or failure;
* a plan commits at most once (``ValueError`` on reuse), and the
  failed double-commit changes nothing;
* through every interleaving the state stays sane: utilization within
  [0, 1], the admitted registry consistent with the specifications
  registry, and the state's free-class and anchor indexes answer
  exactly what a brute-force platform scan answers.

Teardown repairs all outstanding faults, releases everything and
asserts the platform drains to zero utilization.

Example budgets come from the tiered profiles in ``conftest.py``
(``HYPOTHESIS_PROFILE=determinism`` sweeps ~500 schedules).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.api import AdmissionController
from repro.arch import mesh
from repro.arch.faults import Fault, apply_fault, apply_repair
from tests.conftest import chain_app, diamond_app
from tests.oracle import audit_availability


class ControllerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.controller = AdmissionController(
            mesh(4, 4), validation_mode="skip"
        )
        self.pending_plans = []
        self.active_faults: list[Fault] = []
        self.elements = sorted(
            e.name for e in self.controller.platform.elements
        )
        self.next_id = 0
        #: every implementation the rules can submit
        self.implementations = {
            impl
            for app in [self._app(size) for size in range(4)]
            for task in app.tasks.values()
            for impl in task.implementations
        }

    # -- helpers -------------------------------------------------------------

    def _fresh_id(self, prefix: str) -> str:
        self.next_id += 1
        return f"{prefix}{self.next_id}"

    def _app(self, size: int):
        return diamond_app() if size == 0 else chain_app(size)

    # -- rules: the two-phase protocol ---------------------------------------

    @rule(size=st.integers(min_value=0, max_value=3))
    def make_plan(self, size):
        controller = self.controller
        epoch = controller.state.epoch
        utilization = controller.manager.utilization()
        plan = controller.plan(self._app(size), self._fresh_id("plan"))
        # planning is a free probe: state bit-identical either way
        assert controller.state.epoch == epoch
        assert controller.manager.utilization() == utilization
        assert plan.epoch == epoch
        self.pending_plans.append(plan)

    @precondition(lambda self: self.pending_plans)
    @rule(pick=st.integers(min_value=0))
    def commit_plan(self, pick):
        plan = self.pending_plans.pop(pick % len(self.pending_plans))
        controller = self.controller
        epoch_moved = controller.state.epoch != plan.epoch
        decision = controller.commit(plan)
        if epoch_moved:
            # the capacity landscape changed under the plan: commit
            # must recompute, never apply the stale layout or replay
            # the stale failure
            assert decision.replanned
        elif plan.ok:
            assert decision.admitted
            assert not decision.replanned
        else:
            assert not decision.admitted
            assert not decision.replanned
            assert decision.code == plan.code
        # a plan burns on commit: reuse is a programming error and
        # must not change any state
        epoch_after = controller.state.epoch
        try:
            controller.commit(plan)
        except ValueError:
            pass
        else:
            raise AssertionError("double commit did not raise")
        assert controller.state.epoch == epoch_after

    # -- rules: concurrent epoch movement ------------------------------------

    @rule(size=st.integers(min_value=1, max_value=3))
    def admit_direct(self, size):
        self.controller.admit(self._app(size), self._fresh_id("app"))

    @precondition(lambda self: self.controller.admitted)
    @rule(pick=st.integers(min_value=0))
    def release(self, pick):
        admitted = sorted(self.controller.admitted)
        app_id = admitted[pick % len(admitted)]
        self.controller.release(app_id)
        assert app_id not in self.controller.admitted

    @rule(pick=st.integers(min_value=0))
    def inject_fault(self, pick):
        faulted = {f.target[0] for f in self.active_faults}
        candidates = [e for e in self.elements if e not in faulted]
        if not candidates:
            return
        fault = Fault("element", (candidates[pick % len(candidates)],))
        apply_fault(self.controller.state, fault)
        self.active_faults.append(fault)

    @precondition(lambda self: self.active_faults)
    @rule(pick=st.integers(min_value=0))
    def repair_fault(self, pick):
        fault = self.active_faults.pop(pick % len(self.active_faults))
        apply_repair(self.controller.state, fault)

    @precondition(lambda self: self.controller.admitted)
    @rule()
    def recover(self):
        report = self.controller.manager.recover()
        # a recovery pass resolves every stranded app: re-placed or
        # reported lost, never left half-released
        for app_id in report.lost:
            assert app_id not in self.controller.admitted

    # -- invariants ----------------------------------------------------------

    @invariant()
    def utilization_bounded(self):
        assert 0.0 <= self.controller.manager.utilization() <= 1.0

    @invariant()
    def registries_agree(self):
        manager = self.controller.manager
        # every admitted app still has its original specification on
        # file (the recovery engine's re-admission source)
        for app_id in manager.admitted:
            assert app_id in manager.specifications

    @invariant()
    def indexes_match_brute_force(self):
        audit_availability(
            self.controller.state, self.implementations,
            (self.controller.manager.cost,),
        )

    def teardown(self):
        for fault in self.active_faults:
            apply_repair(self.controller.state, fault)
        self.controller.release_all()
        assert self.controller.admitted == {}
        assert self.controller.manager.utilization() == 0.0


TestControllerMachine = ControllerMachine.TestCase
TestControllerMachine.settings = settings(
    deadline=None, stateful_step_count=30
)
