"""Run-time allocation state of a platform.

The :class:`Platform` is immutable; everything that changes while
applications come and go lives here:

* per-element free resource vectors,
* which tasks of which applications occupy each element,
* per-directed-link virtual-channel and bandwidth ledgers,
* failed (faulty) elements and links, and
* the external-resource-fragmentation metric of Section III-A:
  "the percentage of pairs of adjacent elements of which only one
  element is used, over all pairs of adjacent elements in the
  platform".

A whole allocation attempt (binding, mapping, routing, validation) must
be atomic — a failure in any phase must leave no residue.  Atomicity is
provided by a **transaction journal**: every mutation appends an undo
entry while a transaction is open, and rollback replays those entries
in reverse.  Rollback cost is therefore O(mutations performed), not
O(platform size), which is what keeps failed-admission recovery flat
as platforms grow.  Use::

    with state.transaction():
        state.occupy(...)
        state.reserve_route(...)
        # raising any exception rolls everything back

Within a transaction, :meth:`savepoint` / :meth:`rollback_to` provide
partial undo (used by the exhaustive baseline's branch-and-bound).

The state also maintains **capacity epochs** for the admission fast
path (see :mod:`repro.manager.kairos`): a monotonic mutation counter
(:attr:`epoch`) bumped by every committed mutation, plus per-resource-
kind aggregate free counters — platform-wide and per element class —
updated incrementally by occupy/vacate/fail/heal.  Both are journaled
like every other ledger, so a rolled-back attempt restores them
bit-exactly; equal epochs therefore certify identical allocation
state, which is what makes negative-result memoization sound.

Two **indexes** answer the admission path's platform-wide questions
in time proportional to what changed, not to the platform size:

* the **free-class index** groups the non-failed elements by capacity
  class (see :class:`~repro.arch.topology.CapacityClass`) and then by
  current free vector; each group holds a bitmask of element positions
  (scan order) and one of name ranks (tie-break order).
  :class:`AvailabilityCache` tests a requirement once per group.
* the **anchor index** keeps, per element, how many of its
  element-neighbours are occupied, and one name-rank mask per
  (occupied neighbours, connectivity) bucket — the only inputs of the
  mapping cost of a task with no mapped peers.

Both are updated where the ledgers they derive from change: the free
mirror (:meth:`_mirror_free`, which journal undo calls too), fail and
heal, and every empty <-> occupied transition of an element.  A
rollback therefore restores them with no journal entries of their own,
and :meth:`restore` rebuilds them.

For the incremental distance-field engine
(:mod:`repro.core.distfield`) the state additionally keeps a
**link-traversability flip log**: an append-only sequence of link ids,
one entry per committed *change* of a link's search-traversability —
"not failed, and at least one free virtual channel in some direction",
exactly the congestion wall the ring search and the routers test.
Mutations that flip a link append its id; journal *undo* appends the
reversing flip instead of erasing history, so the log position
(:meth:`link_flip_mark`) is monotone and a cached field is valid iff
every link has an *even* number of entries in the log suffix recorded
since the field was built (odd counts are the net-dirty links).
``restore()`` breaks the timeline wholesale and therefore advances the
log base past every outstanding mark.

The legacy :meth:`snapshot` / :meth:`restore` pair — a full O(platform)
copy of every ledger — is kept as a compatibility wrapper; new code
should prefer transactions.

Internally all ledgers are arrays indexed by the interned integer ids
the platform assigns at freeze time (see :mod:`repro.arch.topology`);
the name-based public methods translate at the boundary.

Package-internal contract: the ledger arrays ``_free``, ``_vc_used``,
``_bw_used``, ``_failed_elements`` and ``_failed_links`` are read
directly (never written) by the hot loops in
:mod:`repro.routing.router`, :mod:`repro.core.search`,
:mod:`repro.core.mapping` and :mod:`repro.core.distfield` — hoisting
them once per search avoids a method call per hop.  A representation
change here must update those modules (and nothing else; external
code uses the public API).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.arch.elements import Node, ProcessingElement
from repro.arch.resources import ResourceError, ResourceVector
from repro.arch.scratch import ScratchPool
from repro.arch.topology import Platform, TopologyError


class AllocationError(RuntimeError):
    """Raised when an occupy/reserve request cannot be satisfied."""


@dataclass(frozen=True)
class Occupant:
    """A task instance resident on an element."""

    app_id: str
    task_id: str
    requirement: ResourceVector


@dataclass(frozen=True)
class ChannelReservation:
    """A reserved route: one virtual channel + bandwidth per hop."""

    app_id: str
    channel_id: str
    path: tuple[str, ...]  # node names, source element ... target element
    bandwidth: float

    @property
    def hops(self) -> int:
        return len(self.path) - 1


#: journal op codes (first element of every undo entry)
_OP_OCCUPY = 0
_OP_VACATE = 1
_OP_RESERVE = 2
_OP_RELEASE = 3
_OP_FAIL_ELEMENT = 4
_OP_HEAL_ELEMENT = 5
_OP_FAIL_LINK = 6
_OP_HEAL_LINK = 7

#: below this magnitude a drained bandwidth ledger snaps back to zero,
#: so float accumulation drift cannot shadow a fully free link
_BW_EPSILON = 1e-9

#: safety cap on the link-traversability flip log for states without
#: an attached distance-field engine (the engine trims much earlier,
#: at its own limit); on overflow the oldest half is dropped and the
#: base raised, turning any still-outstanding reader marks into
#: "unverifiable" — a cache miss, never a wrong answer
_FLIP_LOG_CAP = 1 << 15


def fit_slack(requirement_items: tuple, free_data: dict) -> float | None:
    """Best-fit score of one free vector; None when the requirement
    does not fit.

    The slack is one minus the bottleneck ratio — the leftover share of
    the scarcest resource, smaller is tighter.  The comparisons and
    float divisions are those of ``ResourceVector.fits_in`` and
    ``.bottleneck``, in the same order (requirement components in
    insertion order), so every caller scores a free vector bit-for-bit
    alike.
    """
    worst = 0.0
    for kind, quantity in requirement_items:
        have = free_data.get(kind)
        if have is None or quantity > have:
            return None
        ratio = quantity / have
        if ratio > worst:
            worst = ratio
    return 1.0 - worst


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class AvailabilityCache:
    """Which elements can host an implementation *now*, from the index.

    Several callers ask this about the same specification pool many
    times per admission attempt: the admission gate needs "at least
    one", the mapping phase's anchor detection needs "exactly one, and
    which" or the cheapest anchor, the binder the best fit.  Every
    answer is read from the state's **free-class index** (see
    :class:`AllocationState`): the non-failed elements grouped by
    capacity class and then by current free vector, each group holding
    a bitmask of element positions and one of name ranks.  A query
    tests the requirement once per group — a few dozen groups on a
    48x48 mesh instead of 2,304 elements — with :func:`fit_slack`, the
    comparisons and divisions a per-element scan makes, and reads the
    elements off the masks of the groups that fit.

    ``summary(impl)`` returns ``(count, first)`` where ``count`` is
    0, 1 or 2 (2 meaning *two or more*) and ``first`` is the first
    available element in platform scan order (None when count is 0).
    ``best_fit(impl)`` returns ``(element, slack)`` with minimal
    leftover on the bottleneck resource, name-tie-broken, or
    ``(None, inf)``.  ``available(impl)`` lists every available element
    in scan order, and ``anchor_candidates`` narrows the mapping
    phase's anchor choice.
    """

    __slots__ = ("_state", "_memo", "_generation")

    def __init__(self, state: "AllocationState") -> None:
        self._state = state
        #: id(impl) -> (impl, fitting groups), valid while the index
        #: generation is unchanged (the gate, the binder and the mapping
        #: phase of one attempt ask about the same implementations)
        self._memo: dict[int, tuple] = {}
        self._generation = -1

    def summary(self, impl) -> tuple[int, ProcessingElement | None]:
        positions = 0
        for _slack, group_positions, _ranks in self._fitting(impl):
            positions |= group_positions
        if not positions:
            return 0, None
        first = self._state.platform.elements[_lowest_bit(positions)]
        return (1 if (positions & (positions - 1)) == 0 else 2), first

    def best_fit(
        self, impl, excluded: int = 0
    ) -> tuple[ProcessingElement | None, float]:
        """Best fit over the elements whose name-rank bit is not set in
        ``excluded`` (the binder's provisionally reserved elements)."""
        best_slack = float("inf")
        best_ranks = 0
        for slack, _positions, ranks in self._fitting(impl):
            if excluded:
                ranks &= ~excluded
                if not ranks:
                    continue
            if slack < best_slack:
                best_slack = slack
                best_ranks = ranks
            elif slack == best_slack:
                best_ranks |= ranks
        if not best_ranks:
            return None, float("inf")
        elements = self._state.platform._elements_by_rank
        return elements[_lowest_bit(best_ranks)], best_slack

    def available(self, impl) -> tuple:
        """All currently available elements, in platform scan order."""
        positions = 0
        for _slack, group_positions, _ranks in self._fitting(impl):
            positions |= group_positions
        elements = self._state.platform.elements
        # bit i of the mask is the i-th character from the right
        bits = bin(positions)[:1:-1]
        return tuple(
            elements[position]
            for position, bit in enumerate(bits) if bit == "1"
        )

    def anchor_candidates(self, impl) -> tuple:
        """The first-named available element of each anchor bucket.

        The state's **anchor index** buckets the elements by (occupied
        element-neighbours, connectivity).  A cost that depends on
        nothing else — the stock mapping cost of a task with no mapped
        peers — is equal within a bucket, so its ``(cost, name)``
        minimum over every available element is its minimum over these
        candidates: about ten instead of thousands.
        """
        available = 0
        for _slack, _positions, ranks in self._fitting(impl):
            available |= ranks
        elements = self._state.platform._elements_by_rank
        candidates = []
        for row in self._state._anchor_rows.values():
            for ranks in row:
                hit = ranks & available
                if hit:
                    candidates.append(elements[_lowest_bit(hit)])
        return tuple(candidates)

    def _fitting(self, impl) -> list[tuple[float, int, int]]:
        """``(slack, position mask, rank mask)`` of every free class the
        implementation fits, restricted to its static compatibility."""
        state = self._state
        if self._generation != state._index_generation:
            self._memo.clear()
            self._generation = state._index_generation
        cached = self._memo.get(id(impl))
        if cached is not None and cached[0] is impl:
            return cached[1]
        fitting = self._fit(impl)
        self._memo[id(impl)] = (impl, fitting)
        return fitting

    def _fit(self, impl) -> list[tuple[float, int, int]]:
        state = self._state
        platform = state.platform
        requirement_items = tuple(impl.requirement._data.items())
        classes, pin = impl.compatible_classes(platform)
        fitting = []
        if pin is not None:
            group = state._group_of[pin]
            if group is not None:
                slack = fit_slack(requirement_items, group[0])
                if slack is not None:
                    fitting.append(
                        (slack, 1 << pin, 1 << platform._name_rank[pin])
                    )
            return fitting
        free_classes = state._free_classes
        for class_id in classes:
            for data, positions, ranks, _key in (
                free_classes[class_id].values()
            ):
                # fit_slack, inlined: this loop is the whole query
                worst = 0.0
                for kind, quantity in requirement_items:
                    have = data.get(kind)
                    if have is None or quantity > have:
                        break
                    ratio = quantity / have
                    if ratio > worst:
                        worst = ratio
                else:
                    fitting.append((1.0 - worst, positions, ranks))
        return fitting


class _Transaction:
    """Context manager returned by :meth:`AllocationState.transaction`."""

    __slots__ = ("_state", "_mark")

    def __init__(self, state: "AllocationState") -> None:
        self._state = state
        self._mark = 0

    def __enter__(self) -> "AllocationState":
        self._mark = self._state._tx_begin()
        return self._state

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._state._tx_commit()
        else:
            self._state._tx_rollback(self._mark)
        return False


class AllocationState:
    """Mutable occupancy ledger over a frozen :class:`Platform`."""

    def __init__(self, platform: Platform):
        if not platform.frozen:
            raise TopologyError("AllocationState requires a frozen platform")
        self.platform = platform
        mask = platform._is_element_mask
        self._free: list[ResourceVector | None] = [
            node.capacity if mask[index] else None
            for index, node in enumerate(platform._nodes_by_id)
        ]
        self._occupants: list[list[Occupant] | None] = [
            [] if flag else None for flag in mask
        ]
        # directed link ledgers, indexed by slot (2 per undirected link)
        self._vc_used: list[int] = [0] * platform.slot_count
        self._bw_used: list[float] = [0.0] * platform.slot_count
        # virtual-channel saturation mask: _slot_saturated[slot] == 1
        # iff _vc_used[slot] >= platform._slot_vc[slot].  Maintained at
        # every vc mutation so the BFS inner loops (router, ring
        # search, distance fields) pay one byte read per hop instead of
        # two list reads and a compare.
        self._slot_saturated = bytearray(
            1 if vc <= 0 else 0 for vc in platform._slot_vc
        )
        self._reservations: dict[tuple[str, str], ChannelReservation] = {}
        #: directed slots of each reservation, parallel to _reservations
        self._res_slots: dict[tuple[str, str], tuple[int, ...]] = {}
        self._placements: dict[tuple[str, str], int] = {}  # (app, task) -> id
        # wear odometer: total occupations ever served per element
        # (releases do not decrement; see WearLevelingObjective)
        self._wear: list[int] = [0] * platform.node_count
        self._failed_elements: set[int] = set()
        self._failed_links: set[int] = set()  # undirected link ids
        # cached totals so utilization() is O(1) (it runs per admission)
        self._total_capacity = sum(
            e.capacity.total() for e in platform.elements
        )
        self._allocated_total: float = 0
        # capacity epochs: every committed mutation bumps the counter;
        # rollback restores it, so equal epochs mean identical state
        self._epoch = 0
        #: element kind per node id (None for routers), for the
        #: per-class aggregate updates on the occupy/vacate hot path
        self._kind_by_id = [
            node.kind if mask[index] else None
            for index, node in enumerate(platform._nodes_by_id)
        ]
        # aggregate free counters over NON-FAILED elements: platform
        # totals per resource kind, and the same split per element kind
        self._agg_free: dict = {}
        self._agg_free_kind: dict = {}
        self._recompute_aggregates()
        # per-kind mirror of the free vectors (node-id-indexed flat
        # arrays, zero for missing kinds): the mapping probes index
        # these instead of hashing into each element's component dict.
        # Maintained by occupy/vacate (and their undos) cell-exactly —
        # every write copies the value the vector ledger carries.
        self._free_arrays: dict = {}
        self._rebuild_free_arrays()
        # the free-class index (see the module docstring): per capacity
        # class, frozenset of the free vector's items -> [its
        # components, position mask, name-rank mask, the key];
        # _group_of[position] is the element's group (None while failed).
        # The generation counts group changes and never decreases —
        # undo and restore move it on too — so equal generations mean
        # an unchanged free-class index
        self._free_classes: list[dict] = []
        self._group_of: list[list | None] = []
        self._index_generation = 0
        # the anchor index: occupied element-neighbours per position, and
        # per connectivity the name-rank masks by occupied count;
        # _anchor_row_of[position] is the row of its connectivity
        self._occupied_neighbors: list[int] = []
        self._anchor_rows: dict[int, list[int]] = {}
        self._anchor_row_of: list[list[int]] = []
        self._rebuild_indexes()
        # link-traversability flip log (see module docstring): one link
        # id per committed traversability change, append-only — undo
        # appends the reversing flip rather than erasing history, so a
        # reader's mark stays meaningful across rollbacks.  _flip_base
        # counts entries trimmed off the front; marks below it are
        # unverifiable (readers must treat their caches as cold).
        self._link_flips: list[int] = []
        self._flip_base = 0
        # transaction journal: None when no transaction is open
        self._journal: list[tuple] | None = None
        self._tx_depth = 0
        self._scratch: ScratchPool | None = None
        self._availability: AvailabilityCache | None = None

    # -- transactions ------------------------------------------------------

    def transaction(self) -> _Transaction:
        """Open an atomic scope: any exception rolls every mutation back.

        Transactions nest; an inner rollback undoes only the inner
        scope.  Rollback cost is proportional to the mutations made
        inside the scope, never to the platform size.
        """
        return _Transaction(self)

    def in_transaction(self) -> bool:
        return self._journal is not None

    def savepoint(self) -> int:
        """A mark for partial rollback inside an open transaction."""
        if self._journal is None:
            raise AllocationError("savepoint() requires an open transaction")
        return len(self._journal)

    def rollback_to(self, mark: int) -> None:
        """Undo every mutation made since ``mark`` (newest first)."""
        journal = self._journal
        if journal is None:
            raise AllocationError("rollback_to() requires an open transaction")
        while len(journal) > mark:
            self._undo(journal.pop())

    def _tx_begin(self) -> int:
        if self._journal is None:
            self._journal = []
        self._tx_depth += 1
        return len(self._journal)

    def _tx_commit(self) -> None:
        self._tx_depth -= 1
        if self._tx_depth == 0:
            self._journal = None

    def _tx_rollback(self, mark: int) -> None:
        self.rollback_to(mark)
        self._tx_depth -= 1
        if self._tx_depth == 0:
            self._journal = None

    def _undo(self, entry: tuple) -> None:
        # Undo entries carry the exact pre-mutation values (old free
        # vector, old bandwidth per slot, old allocated total) and
        # restore them verbatim.  Inverting the arithmetic instead
        # ((x + b) - b) is not bit-exact for float quantities, and the
        # journal must leave the state indistinguishable from a
        # snapshot restore.
        op = entry[0]
        if op == _OP_OCCUPY:
            _op, element_id, key, old_free, old_allocated, agg = entry
            occupants = self._occupants[element_id]
            occupant = occupants.pop()
            if not occupants:
                self._occupancy_flip(element_id, -1)
            self._free[element_id] = old_free
            del self._placements[key]
            self._wear[element_id] -= 1
            self._allocated_total = old_allocated
            self._agg_restore(element_id, agg)
            self._mirror_free(element_id, occupant.requirement._data)
        elif op == _OP_VACATE:
            (_op, element_id, key, occupant, index,
             old_free, old_allocated, agg) = entry
            occupants = self._occupants[element_id]
            occupants.insert(index, occupant)
            if len(occupants) == 1:
                self._occupancy_flip(element_id, 1)
            self._free[element_id] = old_free
            self._placements[key] = element_id
            self._allocated_total = old_allocated
            self._agg_restore(element_id, agg)
            self._mirror_free(element_id, occupant.requirement._data)
        elif op == _OP_RESERVE:
            _op, key, old_bws = entry
            self._reservations.pop(key)
            slots = self._res_slots.pop(key)
            vc_used, bw_used = self._vc_used, self._bw_used
            slot_vc = self.platform._slot_vc
            saturated = self._slot_saturated
            failed_links, flips = self._failed_links, self._link_flips
            for position in range(len(slots) - 1, -1, -1):
                slot = slots[position]
                # flip log entries are *appended* on undo (the reverse
                # flip), never erased — history stays monotone, so a
                # reader's parity count over its log suffix is exact.
                # MUST mirror _unapply_slots exactly: parity soundness
                # rests on undo reversing apply flip-for-flip.
                used = vc_used[slot]
                if used == slot_vc[slot]:
                    if (
                        saturated[slot ^ 1]
                        and (slot >> 1) not in failed_links
                    ):
                        flips.append(slot >> 1)
                    saturated[slot] = 0
                vc_used[slot] = used - 1
                bw_used[slot] = old_bws[position]
        elif op == _OP_RELEASE:
            _op, key, reservation, slots, old_bws = entry
            self._reservations[key] = reservation
            self._res_slots[key] = slots
            vc_used, bw_used = self._vc_used, self._bw_used
            slot_vc = self.platform._slot_vc
            saturated = self._slot_saturated
            failed_links, flips = self._failed_links, self._link_flips
            for position in range(len(slots) - 1, -1, -1):
                slot = slots[position]
                # MUST mirror reserve_route_ids' apply loop exactly
                # (see above): undo of a release re-applies the
                # reservation, so it re-logs the same closing flip
                used = vc_used[slot] + 1
                vc_used[slot] = used
                if used >= slot_vc[slot]:
                    saturated[slot] = 1
                    if (
                        used == slot_vc[slot]
                        and saturated[slot ^ 1]
                        and (slot >> 1) not in failed_links
                    ):
                        flips.append(slot >> 1)
                bw_used[slot] = old_bws[position]
        elif op == _OP_FAIL_ELEMENT:
            _op, element_id, was_failed, agg = entry
            if not was_failed:
                self._failed_elements.discard(element_id)
                self._agg_restore(element_id, agg)
                self._group_add(
                    self.platform._node_position[element_id],
                    self._free[element_id]._data,
                )
        elif op == _OP_HEAL_ELEMENT:
            _op, element_id, was_failed, agg = entry
            if was_failed:
                self._failed_elements.add(element_id)
                self._agg_restore(element_id, agg)
                self._group_remove(self.platform._node_position[element_id])
        elif op == _OP_FAIL_LINK:
            _op, link_id, was_failed = entry
            if not was_failed:
                self._failed_links.discard(link_id)
                if self.link_traversable(link_id):
                    self._link_flips.append(link_id)
        elif op == _OP_HEAL_LINK:
            _op, link_id, was_failed = entry
            if was_failed:
                if self.link_traversable(link_id):
                    self._link_flips.append(link_id)
                self._failed_links.add(link_id)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown journal op {op}")
        # every journaled mutation bumped the epoch by exactly one, so
        # undoing one entry rewinds it by exactly one — after a full
        # rollback the epoch (an int) matches its pre-transaction value
        # bit-exactly, and the negative-result memo stays sound
        self._epoch -= 1

    # -- capacity epochs and aggregate free counters -----------------------

    @property
    def epoch(self) -> int:
        """Monotonic mutation counter (the fast path's cache key).

        Every committed mutation bumps it; rollback restores it along
        with the ledgers, so two observations with equal epochs are
        guaranteed to see identical allocation state.  It never
        decreases below a previously *committed* value — only a
        rollback can rewind it, and a rollback rewinds the state too.
        """
        return self._epoch

    def touch(self) -> None:
        """Bump the epoch without mutating any ledger.

        Epoch-keyed caches (the admission gate's negative-result memo,
        the sim service's per-request short-circuit) assume a decision
        is a pure function of (spec, state-at-epoch).  When something
        *outside* the ledgers that decisions depend on changes — the
        health registry shifting soft avoidance penalties is the one
        such input — the certificate must be revoked even though the
        ledgers are untouched.  Bumping the epoch does exactly that:
        "equal epochs certify identical state" stays true (the bump
        only makes identical states *look* distinct, costing cache
        hits, never soundness).

        Disallowed inside an open transaction: rollback accounting
        rewinds the epoch by exactly one per journal entry, and an
        unjournaled bump would break that bit-exact rewind.
        """
        if self._journal is not None:
            raise AllocationError("touch() is illegal inside a transaction")
        self._epoch += 1

    @property
    def scratch(self) -> ScratchPool:
        """Per-state scratch buffers shared by the allocation hot loops."""
        if self._scratch is None:
            self._scratch = ScratchPool()
        return self._scratch

    @property
    def availability(self) -> AvailabilityCache:
        """Implementation availability from the free-class index."""
        if self._availability is None:
            self._availability = AvailabilityCache(self)
        return self._availability

    # -- link-traversability flip log --------------------------------------

    def link_flip_mark(self) -> int:
        """Absolute position in the link-traversability flip log.

        A reader that records the mark can later ask "which links
        net-changed traversability since?" by examining the log suffix
        appended after it — links with an odd entry count flipped, even
        counts cancelled out (e.g. a saturating reservation that was
        rolled back).  Marks below :attr:`_flip_base` (log trimmed, or
        the timeline broken by :meth:`restore`) are unverifiable.
        """
        return self._flip_base + len(self._link_flips)

    def link_traversable(self, link_id: int) -> bool:
        """Can a congestion-respecting search cross this link *now*?

        True iff the link is not failed and offers a free virtual
        channel in at least one direction — the exact wall predicate of
        :class:`~repro.core.search.RingSearch` and the routers.
        """
        if link_id in self._failed_links:
            return False
        slot = link_id << 1
        saturated = self._slot_saturated
        return not (saturated[slot] and saturated[slot | 1])

    def trim_link_flips(self, floor_mark: int) -> None:
        """Drop log entries below ``floor_mark`` (a memory bound).

        Callers holding marks below the floor must treat their cached
        derivations as unverifiable afterwards — the distance-field
        engine drops such fields before trimming.
        """
        drop = floor_mark - self._flip_base
        if drop > 0:
            del self._link_flips[:drop]
            self._flip_base = floor_mark

    def _cap_link_flips(self) -> None:
        """Bound the flip log when no engine is around to trim it."""
        if len(self._link_flips) >= _FLIP_LOG_CAP:
            self.trim_link_flips(
                self._flip_base + len(self._link_flips) - _FLIP_LOG_CAP // 2
            )

    def aggregate_free(self) -> dict:
        """Total free per resource kind over non-failed elements (copy)."""
        return dict(self._agg_free)

    def aggregate_free_by_kind(self) -> dict:
        """Per-element-kind split of :meth:`aggregate_free` (copies)."""
        return {
            kind: dict(values)
            for kind, values in self._agg_free_kind.items()
        }

    def _agg_entries(self, element_id: int, vector: ResourceVector) -> tuple:
        """Pre-mutation aggregate values touched by ``vector`` (undo data)."""
        by_kind = self._agg_free_kind.setdefault(
            self._kind_by_id[element_id], {}
        )
        agg = self._agg_free
        return tuple(
            (resource, agg.get(resource, 0), by_kind.get(resource, 0))
            for resource in vector._data
        )

    def _agg_apply(
        self, element_id: int, vector: ResourceVector, sign: int
    ) -> None:
        by_kind = self._agg_free_kind.setdefault(
            self._kind_by_id[element_id], {}
        )
        agg = self._agg_free
        for resource, quantity in vector._data.items():
            delta = quantity if sign > 0 else -quantity
            agg[resource] = agg.get(resource, 0) + delta
            by_kind[resource] = by_kind.get(resource, 0) + delta

    def _agg_restore(self, element_id: int, entries: tuple) -> None:
        by_kind = self._agg_free_kind.setdefault(
            self._kind_by_id[element_id], {}
        )
        agg = self._agg_free
        for resource, total, per_kind in entries:
            agg[resource] = total
            by_kind[resource] = per_kind

    def _rebuild_free_arrays(self) -> None:
        arrays: dict = {}
        node_count = self.platform.node_count
        for element_id in self.platform.element_ids:
            for kind, quantity in self._free[element_id]._data.items():
                array = arrays.get(kind)
                if array is None:
                    array = arrays[kind] = [0] * node_count
                array[element_id] = quantity
        self._free_arrays = arrays

    def _mirror_free(self, element_id: int, kinds) -> None:
        """Copy the named components of ``_free[element_id]`` into the
        per-kind arrays and move the element to the free class of its
        new vector (called after every free-vector update, journal
        undo included)."""
        data = self._free[element_id]._data
        arrays = self._free_arrays
        for kind in kinds:
            array = arrays.get(kind)
            if array is None:
                array = arrays[kind] = [0] * self.platform.node_count
            array[element_id] = data.get(kind, 0)
        position = self.platform._node_position[element_id]
        group = self._group_of[position]
        if group is not None and group[0] != data:
            self._group_remove(position)
            self._group_add(position, data)

    # -- free-class and anchor indexes ---------------------------------------

    def _rebuild_indexes(self) -> None:
        """Rebuild the free-class and anchor indexes from the ledgers."""
        platform = self.platform
        element_ids = platform._element_ids
        self._free_classes = [{} for _ in platform._capacity_classes]
        self._group_of = [None] * len(element_ids)
        failed = self._failed_elements
        for position, element_id in enumerate(element_ids):
            if element_id not in failed:
                self._group_add(position, self._free[element_id]._data)
        neighbors = platform._element_neighbor_positions
        occupied = [0] * len(element_ids)
        for position, element_id in enumerate(element_ids):
            if self._occupants[element_id]:
                for neighbor in neighbors[position]:
                    occupied[neighbor] += 1
        rows: dict[int, list[int]] = {}
        row_of = []
        rank = platform._name_rank
        for position, count in enumerate(occupied):
            connectivity = len(neighbors[position])
            row = rows.get(connectivity)
            if row is None:
                row = rows[connectivity] = [0] * (connectivity + 1)
            row[count] |= 1 << rank[position]
            row_of.append(row)
        self._occupied_neighbors = occupied
        self._anchor_rows = rows
        self._anchor_row_of = row_of

    def _group_add(self, position: int, data: dict) -> None:
        platform = self.platform
        groups = self._free_classes[platform._capacity_class_of[position]]
        key = frozenset(data.items())
        group = groups.get(key)
        if group is None:
            group = groups[key] = [data, 0, 0, key]
        group[1] |= 1 << position
        group[2] |= 1 << platform._name_rank[position]
        self._group_of[position] = group
        self._index_generation += 1

    def _group_remove(self, position: int) -> None:
        platform = self.platform
        group = self._group_of[position]
        self._group_of[position] = None
        group[1] ^= 1 << position
        group[2] ^= 1 << platform._name_rank[position]
        self._index_generation += 1
        if not group[1]:
            del self._free_classes[
                platform._capacity_class_of[position]
            ][group[3]]

    def _occupancy_flip(self, element_id: int, delta: int) -> None:
        """``element_id`` turned occupied (+1) or empty (-1): move its
        element-neighbours to their new anchor buckets."""
        platform = self.platform
        rank = platform._name_rank
        occupied = self._occupied_neighbors
        row_of = self._anchor_row_of
        position = platform._node_position[element_id]
        for neighbor in platform._element_neighbor_positions[position]:
            bit = 1 << rank[neighbor]
            row = row_of[neighbor]
            count = occupied[neighbor]
            row[count] ^= bit
            count += delta
            occupied[neighbor] = count
            row[count] |= bit

    def _recompute_aggregates(self) -> None:
        agg: dict = {}
        agg_kind: dict = {}
        failed = self._failed_elements
        for element_id in self.platform.element_ids:
            if element_id in failed:
                continue
            kind = self._kind_by_id[element_id]
            by_kind = agg_kind.get(kind)
            if by_kind is None:
                by_kind = agg_kind[kind] = {}
            for resource, quantity in self._free[element_id]._data.items():
                agg[resource] = agg.get(resource, 0) + quantity
                by_kind[resource] = by_kind.get(resource, 0) + quantity
        self._agg_free = agg
        self._agg_free_kind = agg_kind

    def _unapply_slots(self, slots: tuple[int, ...], bandwidth: float) -> None:
        self._cap_link_flips()
        vc_used, bw_used = self._vc_used, self._bw_used
        slot_vc = self.platform._slot_vc
        saturated = self._slot_saturated
        failed_links = self._failed_links
        flips = self._link_flips
        for slot in slots:
            # the link regains its last free virtual channel: it flips
            # traversable again for the congestion-respecting searches
            # (exactly-at-capacity: see reserve_route_ids).  Mirrored
            # by the _OP_RESERVE undo in _undo — keep in lockstep.
            used = vc_used[slot]
            if used == slot_vc[slot]:
                if saturated[slot ^ 1] and (slot >> 1) not in failed_links:
                    flips.append(slot >> 1)
                saturated[slot] = 0
            vc_used[slot] = used - 1
            bw_used[slot] -= bandwidth
            if vc_used[slot] == 0 and abs(bw_used[slot]) < _BW_EPSILON:
                bw_used[slot] = 0.0

    # -- element occupancy ------------------------------------------------

    def free(self, element: ProcessingElement | str) -> ResourceVector:
        """Remaining capacity of ``element`` (zero if failed)."""
        element_id = self._element_id(element)
        if element_id in self._failed_elements:
            return ResourceVector()
        return self._free[element_id]

    def is_available(
        self, element: ProcessingElement | str, requirement: ResourceVector
    ) -> bool:
        """The paper's ``av(e, t)``: can ``element`` still host ``requirement``?"""
        return requirement.fits_in(self.free(element))

    def occupy(
        self,
        element: ProcessingElement | str,
        app_id: str,
        task_id: str,
        requirement: ResourceVector,
    ) -> None:
        """Allocate ``requirement`` of ``element`` to a task."""
        element_id = self._element_id(element)
        if element_id in self._failed_elements:
            raise AllocationError(
                f"element {self.platform._nodes_by_id[element_id].name} "
                "is marked failed"
            )
        key = (app_id, task_id)
        if key in self._placements:
            raise AllocationError(f"task {task_id!r} of {app_id!r} already placed")
        old_free = self._free[element_id]
        try:
            self._free[element_id] = old_free - requirement
        except ResourceError as exc:
            name = self.platform._nodes_by_id[element_id].name
            raise AllocationError(
                f"element {name} cannot host {task_id!r}: {exc}"
            ) from exc
        occupants = self._occupants[element_id]
        occupants.append(Occupant(app_id, task_id, requirement))
        if len(occupants) == 1:
            self._occupancy_flip(element_id, 1)
        self._placements[key] = element_id
        self._wear[element_id] += 1
        old_allocated = self._allocated_total
        self._allocated_total = old_allocated + requirement.total()
        if self._journal is not None:
            self._journal.append(
                (_OP_OCCUPY, element_id, key, old_free, old_allocated,
                 self._agg_entries(element_id, requirement))
            )
        self._agg_apply(element_id, requirement, -1)
        self._mirror_free(element_id, requirement._data)
        self._epoch += 1

    def vacate(self, app_id: str, task_id: str) -> None:
        """Release the resources a task held."""
        key = (app_id, task_id)
        try:
            element_id = self._placements.pop(key)
        except KeyError:
            raise AllocationError(
                f"task {task_id!r} of {app_id!r} is not placed"
            ) from None
        occupants = self._occupants[element_id]
        for index, occupant in enumerate(occupants):
            if occupant.app_id == app_id and occupant.task_id == task_id:
                del occupants[index]
                if not occupants:
                    self._occupancy_flip(element_id, -1)
                old_free = self._free[element_id]
                self._free[element_id] = old_free + occupant.requirement
                old_allocated = self._allocated_total
                self._allocated_total = (
                    old_allocated - occupant.requirement.total()
                )
                # a failed element's free capacity is excluded from the
                # aggregates, so vacating a task stranded on one must
                # not add its share back
                failed = element_id in self._failed_elements
                if self._journal is not None:
                    self._journal.append(
                        (_OP_VACATE, element_id, key, occupant, index,
                         old_free, old_allocated,
                         () if failed else self._agg_entries(
                             element_id, occupant.requirement))
                    )
                if not failed:
                    self._agg_apply(element_id, occupant.requirement, 1)
                self._mirror_free(element_id, occupant.requirement._data)
                self._epoch += 1
                return
        raise AssertionError("placement table and occupant list disagree")

    def occupants(self, element: ProcessingElement | str) -> tuple[Occupant, ...]:
        return tuple(self._occupants[self._element_id(element)])

    def occupants_id(self, element_id: int) -> list[Occupant]:
        """Id-based occupant list (hot path; treat as read-only)."""
        return self._occupants[element_id]

    def element_of(self, app_id: str, task_id: str) -> str | None:
        """Element name hosting a task, or None when unplaced."""
        element_id = self._placements.get((app_id, task_id))
        if element_id is None:
            return None
        return self.platform._nodes_by_id[element_id].name

    def placements_of(self, app_id: str) -> dict[str, str]:
        """task_id -> element name for one application."""
        nodes = self.platform._nodes_by_id
        return {
            task: nodes[element_id].name
            for (app, task), element_id in self._placements.items()
            if app == app_id
        }

    def wear(self, element: ProcessingElement | str) -> int:
        """Total occupations this element ever served (never decreases)."""
        return self._wear[self._element_id(element)]

    def is_used(self, element: ProcessingElement | str) -> bool:
        """True when the element hosts at least one task."""
        return bool(self._occupants[self._element_id(element)])

    def used_elements(self) -> tuple[str, ...]:
        nodes = self.platform._nodes_by_id
        occupants = self._occupants
        return tuple(
            nodes[element_id].name
            for element_id in self.platform.element_ids
            if occupants[element_id]
        )

    def applications(self) -> tuple[str, ...]:
        """Identifiers of all applications with at least one placement."""
        return tuple(sorted({app for app, _task in self._placements}))

    # -- link ledger --------------------------------------------------------

    def vc_free(self, a: Node | str, b: Node | str) -> int:
        """Free virtual channels on the directed link a -> b."""
        slot = self.platform.directed_slot(self._node_id(a), self._node_id(b))
        if (slot >> 1) in self._failed_links:
            return 0
        return self.platform._slot_vc[slot] - self._vc_used[slot]

    def bandwidth_free(self, a: Node | str, b: Node | str) -> float:
        slot = self.platform.directed_slot(self._node_id(a), self._node_id(b))
        if (slot >> 1) in self._failed_links:
            return 0.0
        return self.platform._slot_bw[slot] - self._bw_used[slot]

    def can_traverse(self, a: Node | str, b: Node | str, bandwidth: float) -> bool:
        """Can one more channel with ``bandwidth`` cross link a -> b?"""
        slot = self.platform.directed_slot(self._node_id(a), self._node_id(b))
        return self.can_traverse_slot(slot, bandwidth)

    def can_traverse_slot(self, slot: int, bandwidth: float) -> bool:
        """Id-based :meth:`can_traverse` over a directed slot (hot path)."""
        platform = self.platform
        return (
            self._vc_used[slot] < platform._slot_vc[slot]
            and platform._slot_bw[slot] - self._bw_used[slot] >= bandwidth
            and (slot >> 1) not in self._failed_links
        )

    def reserve_route(
        self,
        app_id: str,
        channel_id: str,
        path: Iterable[Node | str],
        bandwidth: float,
    ) -> ChannelReservation:
        """Reserve one virtual channel + bandwidth along ``path``.

        ``path`` is a node sequence from the source element to the
        target element.  All-or-nothing: verified first, then applied.
        """
        ids = [self._node_id(node) for node in path]
        return self.reserve_route_ids(app_id, channel_id, ids, bandwidth)

    def reserve_route_ids(
        self,
        app_id: str,
        channel_id: str,
        id_path: list[int],
        bandwidth: float,
    ) -> ChannelReservation:
        """Id-based :meth:`reserve_route` (hot path for the routers)."""
        if len(id_path) < 2:
            names = [self.platform._nodes_by_id[i].name for i in id_path]
            raise AllocationError(f"route for {channel_id!r} has no hops: {names}")
        key = (app_id, channel_id)
        if key in self._reservations:
            raise AllocationError(f"channel {channel_id!r} already routed")
        directed = self.platform._directed_slots
        try:
            slots = tuple(
                directed[(a, b)] for a, b in zip(id_path, id_path[1:])
            )
        except KeyError:
            # re-resolve through the validating accessor for the
            # canonical TopologyError on a non-adjacent pair
            slots = tuple(
                self.platform.directed_slot(a, b)
                for a, b in zip(id_path, id_path[1:])
            )
        for slot in slots:
            if not self.can_traverse_slot(slot, bandwidth):
                link = self.platform.link_by_id(slot >> 1)
                a, b = (link.a, link.b) if slot % 2 == 0 else (link.b, link.a)
                raise AllocationError(
                    f"link {a.name}->{b.name} lacks capacity for "
                    f"channel {channel_id!r}"
                )
        self._cap_link_flips()
        vc_used, bw_used = self._vc_used, self._bw_used
        slot_vc = self.platform._slot_vc
        saturated = self._slot_saturated
        failed_links = self._failed_links
        flips = self._link_flips
        journal = self._journal
        old_bws = [] if journal is not None else None
        for slot in slots:
            used = vc_used[slot] + 1
            vc_used[slot] = used
            if used >= slot_vc[slot]:
                saturated[slot] = 1
                # the link loses its last free virtual channel (in
                # either direction) with this hop: it flips
                # non-traversable for the congestion-respecting
                # searches.  Exactly-at-capacity guards a degenerate
                # walk crossing the same directed link twice from
                # double-logging one traversability change.  Mirrored
                # (apply side) by the _OP_RELEASE undo in _undo; the
                # reverse transition lives in _unapply_slots and the
                # _OP_RESERVE undo — all four must stay in lockstep.
                if (
                    used == slot_vc[slot]
                    and saturated[slot ^ 1]
                    and (slot >> 1) not in failed_links
                ):
                    flips.append(slot >> 1)
            if old_bws is not None:
                old_bws.append(bw_used[slot])
            bw_used[slot] += bandwidth
        nodes = self.platform._nodes_by_id
        reservation = ChannelReservation(
            app_id, channel_id,
            tuple(nodes[i].name for i in id_path), bandwidth,
        )
        self._reservations[key] = reservation
        self._res_slots[key] = slots
        if journal is not None:
            journal.append((_OP_RESERVE, key, tuple(old_bws)))
        self._epoch += 1
        return reservation

    def release_route(self, app_id: str, channel_id: str) -> None:
        key = (app_id, channel_id)
        try:
            reservation = self._reservations.pop(key)
        except KeyError:
            raise AllocationError(f"channel {channel_id!r} is not routed") from None
        slots = self._res_slots.pop(key)
        journal = self._journal
        old_bws = (
            tuple(self._bw_used[slot] for slot in slots)
            if journal is not None else None
        )
        self._unapply_slots(slots, reservation.bandwidth)
        if journal is not None:
            journal.append((_OP_RELEASE, key, reservation, slots, old_bws))
        self._epoch += 1

    def reservation(self, app_id: str, channel_id: str) -> ChannelReservation | None:
        return self._reservations.get((app_id, channel_id))

    def reservations_of(self, app_id: str) -> tuple[ChannelReservation, ...]:
        return tuple(
            res for (app, _ch), res in self._reservations.items() if app == app_id
        )

    # -- whole-application release -----------------------------------------

    def release_application(self, app_id: str) -> None:
        """Vacate every task and route of ``app_id`` (idempotent)."""
        for task_id in list(self.placements_of(app_id)):
            self.vacate(app_id, task_id)
        for reservation in self.reservations_of(app_id):
            self.release_route(app_id, reservation.channel_id)

    # -- fault injection -----------------------------------------------------

    def fail_element(self, element: ProcessingElement | str) -> None:
        """Mark an element faulty: it stops offering resources.

        Resident tasks are *not* evicted automatically — re-allocation
        policy belongs to the manager layer (see
        :mod:`repro.arch.faults`).
        """
        element_id = self._element_id(element)
        was_failed = element_id in self._failed_elements
        agg = () if was_failed else self._agg_entries(
            element_id, self._free[element_id]
        )
        if self._journal is not None:
            self._journal.append(
                (_OP_FAIL_ELEMENT, element_id, was_failed, agg)
            )
        if not was_failed:
            self._agg_apply(element_id, self._free[element_id], -1)
            self._group_remove(self.platform._node_position[element_id])
        self._failed_elements.add(element_id)
        self._epoch += 1

    def heal_element(self, element: ProcessingElement | str) -> None:
        element_id = self._element_id(element)
        was_failed = element_id in self._failed_elements
        agg = self._agg_entries(
            element_id, self._free[element_id]
        ) if was_failed else ()
        if self._journal is not None:
            self._journal.append(
                (_OP_HEAL_ELEMENT, element_id, was_failed, agg)
            )
        if was_failed:
            self._agg_apply(element_id, self._free[element_id], 1)
            self._group_add(
                self.platform._node_position[element_id],
                self._free[element_id]._data,
            )
        self._failed_elements.discard(element_id)
        self._epoch += 1

    def fail_link(self, a: Node | str, b: Node | str) -> None:
        slot = self.platform.directed_slot(  # validates link existence
            self._node_id(a), self._node_id(b)
        )
        link_id = slot >> 1
        if self._journal is not None:
            self._journal.append(
                (_OP_FAIL_LINK, link_id, link_id in self._failed_links)
            )
        if self.link_traversable(link_id):
            self._cap_link_flips()
            self._link_flips.append(link_id)
        self._failed_links.add(link_id)
        self._epoch += 1

    def heal_link(self, a: Node | str, b: Node | str) -> None:
        pair = (self._node_id(a), self._node_id(b))
        slot = self.platform._directed_slots.get(pair)
        if slot is None:
            return  # unknown links were never failed; healing is a no-op
        link_id = slot >> 1
        if self._journal is not None:
            self._journal.append(
                (_OP_HEAL_LINK, link_id, link_id in self._failed_links)
            )
        if link_id in self._failed_links:
            self._failed_links.discard(link_id)
            if self.link_traversable(link_id):
                self._cap_link_flips()
                self._link_flips.append(link_id)
        self._epoch += 1

    def is_failed(self, element: ProcessingElement | str) -> bool:
        return self._element_id(element) in self._failed_elements

    @property
    def failed_elements(self) -> frozenset[str]:
        nodes = self.platform._nodes_by_id
        return frozenset(
            nodes[element_id].name for element_id in self._failed_elements
        )

    @property
    def failed_links(self) -> frozenset[frozenset[str]]:
        """Endpoint-name pairs of links currently marked failed."""
        links = self.platform._links_by_id
        return frozenset(links[link_id].key() for link_id in self._failed_links)

    # -- metrics ---------------------------------------------------------------

    def external_fragmentation(self) -> float:
        """Paper Section III-A's external resource fragmentation, in percent.

        The percentage of adjacent element pairs of which exactly one
        element is used, over all adjacent element pairs.
        """
        pairs = self.platform.element_pair_ids
        if not pairs:
            return 0.0
        occupants = self._occupants
        mixed = sum(
            1 for a, b in pairs if bool(occupants[a]) != bool(occupants[b])
        )
        return 100.0 * mixed / len(pairs)

    def utilization(self) -> float:
        """Fraction of total platform capacity currently allocated.

        O(1): the totals are maintained incrementally by occupy/vacate
        rather than re-summed over every element per call.
        """
        if not self._total_capacity:
            return 0.0
        return self._allocated_total / self._total_capacity

    # -- snapshots (legacy compatibility wrappers) ---------------------------

    def snapshot(self) -> dict:
        """An opaque, restorable copy of the mutable ledgers.

        O(platform size) — prefer :meth:`transaction` for rollback; the
        snapshot remains for whole-state capture and comparisons.
        """
        platform = self.platform
        nodes = platform._nodes_by_id
        links = platform._links_by_id
        vc_used: dict[tuple[str, str], int] = {}
        bw_used: dict[tuple[str, str], float] = {}
        for slot, used in enumerate(self._vc_used):
            bw = self._bw_used[slot]
            if not used and abs(bw) < _BW_EPSILON:
                continue
            link = links[slot >> 1]
            pair = (
                (link.a.name, link.b.name) if slot % 2 == 0
                else (link.b.name, link.a.name)
            )
            if used:
                vc_used[pair] = used
            if abs(bw) >= _BW_EPSILON:
                bw_used[pair] = bw
        return {
            "free": {
                nodes[element_id].name: self._free[element_id]
                for element_id in platform.element_ids
            },
            "occupants": {
                nodes[element_id].name: list(self._occupants[element_id])
                for element_id in platform.element_ids
            },
            "vc_used": vc_used,
            "bw_used": bw_used,
            "reservations": dict(self._reservations),
            "placements": {
                key: nodes[element_id].name
                for key, element_id in self._placements.items()
            },
            "wear": {
                nodes[element_id].name: self._wear[element_id]
                for element_id in platform.element_ids
            },
            "failed_elements": set(self.failed_elements),
            "failed_links": set(self.failed_links),
            # the exact incremental total, so a restore leaves the same
            # float the journal path carries (recomputing could differ
            # in the last bit and desynchronize the two strategies)
            "allocated_total": self._allocated_total,
            # epoch and aggregates are captured verbatim for the same
            # reason: a restore must be indistinguishable from rollback
            "epoch": self._epoch,
            "agg_free": dict(self._agg_free),
            "agg_free_kind": {
                kind: dict(values)
                for kind, values in self._agg_free_kind.items()
            },
        }

    def restore(self, snapshot: dict) -> None:
        if self._journal is not None:
            raise AllocationError(
                "cannot restore() inside an open transaction"
            )
        platform = self.platform
        node_ids = platform._node_ids
        for name, vector in snapshot["free"].items():
            self._free[node_ids[name]] = vector
        for name, occupants in snapshot["occupants"].items():
            self._occupants[node_ids[name]] = list(occupants)
        self._vc_used = [0] * platform.slot_count
        self._bw_used = [0.0] * platform.slot_count
        directed = platform._directed_slots
        for (a, b), used in snapshot["vc_used"].items():
            self._vc_used[directed[(node_ids[a], node_ids[b])]] = used
        for (a, b), used in snapshot["bw_used"].items():
            self._bw_used[directed[(node_ids[a], node_ids[b])]] = used
        slot_vc = platform._slot_vc
        self._slot_saturated = bytearray(
            1 if used >= slot_vc[slot] else 0
            for slot, used in enumerate(self._vc_used)
        )
        self._reservations = dict(snapshot["reservations"])
        self._res_slots = {
            key: tuple(
                directed[(node_ids[a], node_ids[b])]
                for a, b in zip(res.path, res.path[1:])
            )
            for key, res in self._reservations.items()
        }
        self._placements = {
            key: node_ids[name]
            for key, name in snapshot["placements"].items()
        }
        for name, count in snapshot["wear"].items():
            self._wear[node_ids[name]] = count
        self._failed_elements = {
            node_ids[name] for name in snapshot["failed_elements"]
        }
        self._failed_links = {
            platform.directed_slot(*(node_ids[name] for name in pair)) >> 1
            for pair in snapshot["failed_links"]
        }
        self._allocated_total = snapshot["allocated_total"]
        agg = snapshot.get("agg_free")
        if agg is None:  # pre-epoch snapshot dict: rebuild from ledgers
            self._recompute_aggregates()
        else:
            self._agg_free = dict(agg)
            self._agg_free_kind = {
                kind: dict(values)
                for kind, values in snapshot["agg_free_kind"].items()
            }
        epoch = snapshot.get("epoch")
        # an epoch-less snapshot cannot prove the state unchanged, so
        # conservatively advance (stale memo entries self-invalidate)
        self._epoch = self._epoch + 1 if epoch is None else epoch
        self._rebuild_free_arrays()
        self._rebuild_indexes()
        # the flip log cannot describe a timeline jump: advance the
        # base past every outstanding mark so cached distance fields
        # read as unverifiable (the engine recomputes from live state)
        self._flip_base += len(self._link_flips) + 1
        self._link_flips.clear()

    # -- helpers ------------------------------------------------------------

    def _element_id(self, element: ProcessingElement | str) -> int:
        name = element if isinstance(element, str) else element.name
        element_id = self.platform._node_ids.get(name)
        if element_id is None or not self.platform._is_element_mask[element_id]:
            raise TopologyError(f"unknown element {name!r}")
        return element_id

    def _node_id(self, node: Node | str) -> int:
        name = node if isinstance(node, str) else node.name
        node_id = self.platform._node_ids.get(name)
        if node_id is None:
            raise TopologyError(f"unknown node {name!r}")
        return node_id

    def __repr__(self) -> str:
        return (
            f"<AllocationState on {self.platform.name}: "
            f"{len(self.used_elements())}/{len(self.platform.elements)} "
            f"elements used, {len(self._reservations)} routes>"
        )
