"""The mapping cost function (paper Section III-D).

"To evaluate the cost of mapping a task t to an element e, we first
look at the total communication distance involved with candidate
element e ... If a required distance lookup fails, a relative high
penalty is given to e ... For yet unmapped tasks the distance is
inherently unknown, and therefore left out of the equation.

The other mapping objective we consider is external resource
fragmentation.  An element e receives decreasing bonuses for neighbor
elements that retain communication peers of t, tasks from the same
application A, or tasks from other applications.  Additionally, the
connectivity of an element e is taken into account as well; elements
on the borders of chips are thus more favorable to use.  The ratio
between these two objectives is given by weight parameters."

The total cost is ``w_comm * distance_term - w_frag * bonus_term``;
lower is better.  :data:`NONE`, :data:`COMMUNICATION`,
:data:`FRAGMENTATION` and :data:`BOTH` are the four configurations of
Figs. 8-10.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.elements import ProcessingElement
from repro.arch.state import AllocationState
from repro.apps.taskgraph import Application
from repro.core.search import SparseDistanceMatrix

#: graded neighbour bonuses (Section III-D: "decreasing bonuses")
BONUS_PEER = 3.0          #: neighbour hosts a communication peer of t
BONUS_SAME_APP = 2.0      #: neighbour hosts another task of the same app
BONUS_OTHER_APP = 1.0     #: neighbour hosts tasks of other applications
#: weight of the border/connectivity bonus per missing neighbour
BONUS_BORDER = 0.5
#: hop penalty used when the sparse distance matrix has no entry
DEFAULT_DISTANCE_PENALTY = 32


@dataclass(frozen=True)
class CostWeights:
    """The two objective weights of the paper's experiments.

    Fig. 10 samples ``communication`` in [0..25] and ``fragmentation``
    in [0..1000]; (0, 0) disables the cost function entirely (the
    "None" configuration, reducing mapping to first-fit in platform
    search order).
    """

    communication: float = 1.0
    fragmentation: float = 1.0

    def __post_init__(self) -> None:
        if self.communication < 0 or self.fragmentation < 0:
            raise ValueError("cost weights must be non-negative")

    @property
    def disabled(self) -> bool:
        return self.communication == 0 and self.fragmentation == 0


#: The four named configurations of Figs. 8 and 9.
NONE = CostWeights(0.0, 0.0)
COMMUNICATION = CostWeights(1.0, 0.0)
FRAGMENTATION = CostWeights(0.0, 1.0)
BOTH = CostWeights(1.0, 1.0)

NAMED_WEIGHTS: dict[str, CostWeights] = {
    "None": NONE,
    "Communication": COMMUNICATION,
    "Fragmentation": FRAGMENTATION,
    "Both": BOTH,
}


class MappingCost:
    """Evaluates the cost of placing a task onto a candidate element.

    The cost depends on the *committed* placement (anchors and earlier
    layers) and the global allocation state, but not on the tentative
    assignments inside the current GAP layer — so one evaluation per
    (task, element) pair per layer suffices (see the complexity remark
    below paper Fig. 5).
    """

    def __init__(
        self,
        weights: CostWeights = BOTH,
        distance_penalty: int = DEFAULT_DISTANCE_PENALTY,
    ) -> None:
        self.weights = weights
        self.distance_penalty = distance_penalty

    def __call__(
        self,
        app: Application,
        app_id: str,
        task: str,
        element: ProcessingElement,
        state: AllocationState,
        placement: dict[str, str],
        distances: SparseDistanceMatrix,
        _comm_peers: tuple | None = None,
        _frag_peers: frozenset | None = None,
        _frag_status: dict | None = None,
    ) -> float:
        """Cost of mapping ``task`` onto ``element``; lower is better.

        ``placement`` maps already-mapped task names of this
        application to element names; ``distances`` is the sparse
        matrix accumulated by the platform search.  ``_comm_peers`` /
        ``_frag_peers`` optionally carry the mapped peers pre-resolved
        to interned node ids, and ``_frag_status`` a per-layer
        neighbour-status memo (the mapping layer hoists them — the
        placement cannot change while one layer's GAP runs).
        """
        if self.weights.disabled:
            return 0.0
        cost = 0.0
        if _comm_peers is not None and _frag_peers is not None:
            if self.weights.communication and _comm_peers:
                cost += self.weights.communication * self._communication_ids(
                    element, distances, _comm_peers
                )
            if self.weights.fragmentation:
                cost -= self.weights.fragmentation * self._fragmentation_ids(
                    app_id, element, state, _frag_peers, _frag_status
                )
            return cost
        # one incidence lookup feeds both terms (they are evaluated for
        # every (task, element) pair of every layer)
        entry = app._incidence().get(task)
        channels, neighbors = entry if entry is not None else ((), ())
        if self.weights.communication:
            cost += self.weights.communication * self.communication_term(
                app, task, element, placement, distances,
                _channels=channels,
            )
        if self.weights.fragmentation:
            cost -= self.weights.fragmentation * self.fragmentation_bonus(
                app, app_id, task, element, state, placement,
                _neighbors=neighbors,
            )
        return cost

    def _communication_ids(
        self,
        element: ProcessingElement,
        distances: SparseDistanceMatrix,
        peer_ids: tuple,
    ) -> float:
        """Id-resolved :meth:`communication_term` (one row fetch per
        evaluation; identical arithmetic)."""
        # only ever called with the mapping layer's own search matrix:
        # platform-bound (node_ids present) and fallback-free, because
        # RingSearch populates rows directly and never records names
        node_ids = distances._node_ids
        element_id = node_ids.get(element.name)
        penalty = self.distance_penalty
        if element_id is None:  # pragma: no cover - defensive
            return penalty * float(len(peer_ids))
        rows = distances._rows
        # cells of engine-served rows are visible only up to the
        # search's current ring — a capped miss must stay a miss (the
        # live search would not have filled the cell yet)
        cap = distances._cap
        total = 0.0
        row_e = rows.get(element_id)
        for peer_id in peer_ids:
            if peer_id == element_id:
                continue  # same element: distance 0
            if peer_id < 0:
                total += penalty
                continue
            best = -1
            if row_e is not None:
                known = row_e[peer_id]
                if known >= 0 and (cap is None or known <= cap):
                    best = known
            row_p = rows.get(peer_id)
            if row_p is not None:
                known = row_p[element_id]
                if (
                    0 <= known
                    and (cap is None or known <= cap)
                    and (best < 0 or known < best)
                ):
                    best = known
            total += penalty if best < 0 else best
        return total

    def _fragmentation_ids(
        self,
        app_id: str,
        element: ProcessingElement,
        state: AllocationState,
        peer_element_ids: frozenset,
        status: dict | None = None,
    ) -> float:
        """Id-resolved :meth:`fragmentation_bonus` body.

        ``status`` optionally carries a per-layer neighbour-status
        memo (neighbour id -> occupant bonus): the bonus is a pure
        function of (neighbour, app_id, allocation state), and one GAP
        layer evaluates the same neighbourhoods for every (task,
        element) pair while the epoch is frozen, so the mapping layer
        hoists one dict per layer instead of re-walking occupant lists
        per evaluation.
        """
        platform = state.platform
        bonus = 0.0
        all_occupants = state._occupants
        neighbor_ids = platform.element_neighbor_ids(element)
        if status is None:
            for neighbor_id in neighbor_ids:
                if neighbor_id in peer_element_ids:
                    bonus += BONUS_PEER
                    continue
                occupants = all_occupants[neighbor_id]
                if not occupants:
                    continue
                for occupant in occupants:
                    if occupant.app_id == app_id:
                        bonus += BONUS_SAME_APP
                        break
                else:
                    bonus += BONUS_OTHER_APP
        else:
            for neighbor_id in neighbor_ids:
                if neighbor_id in peer_element_ids:
                    bonus += BONUS_PEER
                    continue
                cached = status.get(neighbor_id)
                if cached is None:
                    occupants = all_occupants[neighbor_id]
                    if not occupants:
                        cached = 0.0
                    else:
                        for occupant in occupants:
                            if occupant.app_id == app_id:
                                cached = BONUS_SAME_APP
                                break
                        else:
                            cached = BONUS_OTHER_APP
                    status[neighbor_id] = cached
                bonus += cached
        bonus += BONUS_BORDER * (
            platform.max_element_connectivity - len(neighbor_ids)
        )
        return bonus

    # -- objective terms ---------------------------------------------------

    def communication_term(
        self,
        app: Application,
        task: str,
        element: ProcessingElement,
        placement: dict[str, str],
        distances: SparseDistanceMatrix,
        _channels: tuple | None = None,
    ) -> float:
        """Total estimated route length to already-mapped peers.

        Each channel between ``task`` and a mapped peer contributes the
        sparse-matrix distance between ``element`` and the peer's
        element, or :attr:`distance_penalty` when the lookup fails
        (the search never reached one from the other — "we assume a
        large communication distance").  Channels to unmapped tasks
        are left out.
        """
        total = 0.0
        channels = (
            app.incident_channels(task) if _channels is None else _channels
        )
        if not channels:
            return total
        # symmetric distance lookup inlined over interned ids (one
        # element-id resolution per call instead of two name hashes
        # per channel); the name path serves platform-less matrices
        node_ids = distances._node_ids
        rows = distances._rows
        cap = distances._cap
        element_id = (
            node_ids.get(element.name) if node_ids is not None else None
        )
        fallback = distances._fallback
        penalty = self.distance_penalty
        for channel in channels:
            peer = channel.target if channel.source == task else channel.source
            peer_element = placement.get(peer)
            if peer_element is None:
                continue
            if element_id is None or fallback:
                distance = distances.get(element.name, peer_element)
                total += penalty if distance is None else distance
                continue
            peer_id = node_ids.get(peer_element)
            if peer_id is None:
                total += penalty
                continue
            if peer_id == element_id:
                continue  # distance 0
            best = -1
            row = rows.get(element_id)
            if row is not None:
                known = row[peer_id]
                if known >= 0 and (cap is None or known <= cap):
                    best = known
            row = rows.get(peer_id)
            if row is not None:
                known = row[element_id]
                if (
                    0 <= known
                    and (cap is None or known <= cap)
                    and (best < 0 or known < best)
                ):
                    best = known
            total += penalty if best < 0 else best
        return total

    def fragmentation_bonus(
        self,
        app: Application,
        app_id: str,
        task: str,
        element: ProcessingElement,
        state: AllocationState,
        placement: dict[str, str],
        _neighbors: tuple[str, ...] | None = None,
    ) -> float:
        """Graded neighbourhood bonuses plus the border bonus.

        A neighbour element contributes the *highest* single bonus it
        qualifies for (peer > same app > other app); an element whose
        neighbourhood is already busy is attractive because using it
        does not strand fresh resources.  The border term favours
        low-connectivity elements: filling the chip from its edges
        inward keeps the contiguous free area compact.
        """
        platform = state.platform
        node_ids = platform._node_ids
        # peer elements as interned ids: the neighbourhood loop then
        # compares ints instead of hashing node names per neighbour
        peer_element_ids = set()
        task_peers = app.neighbors(task) if _neighbors is None else _neighbors
        for peer in task_peers:
            placed = placement.get(peer)
            if placed is not None:
                peer_id = node_ids.get(placed)
                if peer_id is not None:
                    peer_element_ids.add(peer_id)
        bonus = 0.0
        all_occupants = state._occupants
        neighbor_ids = platform.element_neighbor_ids(element)
        for neighbor_id in neighbor_ids:
            if neighbor_id in peer_element_ids:
                bonus += BONUS_PEER
                continue
            occupants = all_occupants[neighbor_id]
            if not occupants:
                continue
            for occupant in occupants:
                if occupant.app_id == app_id:
                    bonus += BONUS_SAME_APP
                    break
            else:
                bonus += BONUS_OTHER_APP
        # element_connectivity(element) is by definition the length of
        # the adjacency list already in hand
        bonus += BONUS_BORDER * (
            platform.max_element_connectivity - len(neighbor_ids)
        )
        return bonus
