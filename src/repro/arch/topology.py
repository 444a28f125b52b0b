"""The platform graph: elements, routers and links.

A platform ``P = <E, L>`` "provides resources through the processing
elements E, which are connected with the links L" (paper Section III).
We model the interconnect explicitly as a graph whose nodes are
processing elements and NoC routers, and whose edges are physical
links.  Every link carries a virtual-channel count and a bandwidth
capacity; their run-time occupancy is tracked by
:class:`repro.arch.state.AllocationState`, not here — the topology is
immutable once frozen.

Two derived views are central to the algorithms:

* **hop distances** over the full node graph (used by the mapping cost
  function and the routers), and
* the **element adjacency graph** — two elements are adjacent when they
  share a router or sit on directly-linked routers — which defines the
  "pairs of adjacent elements" in the paper's external-fragmentation
  metric and the neighbour bonuses of the mapping cost function.

Freezing also *interns* every node and link to a dense integer id and
precomputes id-based adjacency and link tables.  The run-time hot
paths (allocation state ledgers, ring search, routing) operate on
these ids — array indexing instead of string hashing — and translate
back to names only at public API boundaries:

* ``node_id`` / ``node_by_id`` — name ↔ dense node id,
* ``neighbor_ids(i)`` with the parallel ``neighbor_slots(i)`` — the
  adjacency of node ``i`` together with the *directed link slot* of
  each edge,
* directed link slots: link ``l`` (id ``k``) owns slots ``2k`` and
  ``2k + 1`` for its two directions, so ``slot ^ 1`` is always the
  reverse direction; ``slot >> 1`` recovers the undirected link id,
* ``slot_vc`` / ``slot_bw`` — per-slot capacity arrays mirroring the
  :class:`Link` attributes.

Freezing also groups the elements into **capacity classes** — equal
(kind, capacity) — so static compatibility is decided once per class
instead of once per element, and ranks every element by name, the
tie-break order of every allocation phase.  The free-class and anchor
indexes of :class:`~repro.arch.state.AllocationState` are bitmasks over
element positions and name ranks.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from repro.arch.elements import (
    ElementType,
    Node,
    ProcessingElement,
    Router,
    is_element,
)
from repro.arch.resources import ResourceVector


class TopologyError(ValueError):
    """Raised for malformed platform construction."""


@dataclass(frozen=True)
class Link:
    """An undirected physical link between two platform nodes.

    ``virtual_channels`` is the number of time-shared logical channels
    the link supports per direction [11]; ``bandwidth`` is the
    capacity (abstract units/s) shared by the virtual channels of one
    direction.
    """

    a: Node
    b: Node
    virtual_channels: int = 4
    bandwidth: float = 100.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-link on {self.a}")
        if self.virtual_channels < 1:
            raise TopologyError("a link needs at least one virtual channel")
        if self.bandwidth <= 0:
            raise TopologyError("link bandwidth must be positive")

    def endpoints(self) -> tuple[Node, Node]:
        return (self.a, self.b)

    def other(self, node: Node) -> Node:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node} is not an endpoint of {self}")

    def key(self) -> frozenset[str]:
        return frozenset((self.a.name, self.b.name))


class CapacityClass(NamedTuple):
    """Elements of one kind and one capacity (static compatibility is
    the same for all of them), by position in ``Platform.elements``."""

    kind: ElementType
    capacity: ResourceVector
    positions: tuple[int, ...]


class Platform:
    """An immutable-after-freeze heterogeneous MPSoC model.

    Build by adding nodes and links, then call :meth:`freeze` (the
    builders in :mod:`repro.arch.builders` do this for you).  After
    freezing, the derived adjacency and element-neighbour structures
    are computed once and shared by all allocation state objects.
    """

    def __init__(self, name: str = "platform"):
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._links: dict[frozenset[str], Link] = {}
        self._adjacency: dict[str, list[Node]] = {}
        self._frozen = False
        self._element_neighbors: dict[str, tuple[ProcessingElement, ...]] = {}
        self._element_pairs: tuple[tuple[ProcessingElement, ProcessingElement], ...] = ()
        # id interning tables, populated by freeze() (see module docstring)
        self._node_ids: dict[str, int] = {}
        self._nodes_by_id: tuple[Node, ...] = ()
        self._neighbor_ids: tuple[tuple[int, ...], ...] = ()
        self._neighbor_slots: tuple[tuple[int, ...], ...] = ()
        self._links_by_id: tuple[Link, ...] = ()
        self._directed_slots: dict[tuple[int, int], int] = {}
        self._slot_vc: tuple[int, ...] = ()
        self._slot_bw: tuple[float, ...] = ()
        self._is_element_mask: tuple[bool, ...] = ()
        self._element_ids: tuple[int, ...] = ()
        self._element_position: dict[int, int] = {}
        self._elements_tuple: tuple[ProcessingElement, ...] = ()
        self._routers_tuple: tuple[Router, ...] = ()
        self._element_neighbor_ids: dict[str, tuple[int, ...]] = {}
        self._element_pair_ids: tuple[tuple[int, int], ...] = ()
        # element positions / name ranks, populated by freeze()
        self._node_position: tuple[int, ...] = ()
        self._name_rank: tuple[int, ...] = ()
        self._elements_by_rank: tuple[ProcessingElement, ...] = ()
        self._capacity_classes: tuple[CapacityClass, ...] = ()
        self._capacity_class_of: tuple[int, ...] = ()
        self._element_neighbor_positions: tuple[tuple[int, ...], ...] = ()
        self._max_element_connectivity = 0

    # -- construction -------------------------------------------------

    def add_node(self, node: Node) -> Node:
        self._require_mutable()
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adjacency[node.name] = []
        return node

    def add_element(self, element: ProcessingElement) -> ProcessingElement:
        if not isinstance(element, ProcessingElement):
            raise TopologyError(f"{element!r} is not a ProcessingElement")
        return self.add_node(element)

    def add_router(self, router: Router) -> Router:
        if not isinstance(router, Router):
            raise TopologyError(f"{router!r} is not a Router")
        return self.add_node(router)

    def add_link(
        self,
        a: Node | str,
        b: Node | str,
        virtual_channels: int = 4,
        bandwidth: float = 100.0,
    ) -> Link:
        self._require_mutable()
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        link = Link(node_a, node_b, virtual_channels, bandwidth)
        if link.key() in self._links:
            raise TopologyError(f"duplicate link {node_a}—{node_b}")
        self._links[link.key()] = link
        self._adjacency[node_a.name].append(node_b)
        self._adjacency[node_b.name].append(node_a)
        return link

    def freeze(self) -> "Platform":
        """Finalize the topology and precompute derived structures."""
        if self._frozen:
            return self
        self._frozen = True
        self._intern()
        self._compute_element_adjacency()
        self._classify_elements()
        return self

    def _intern(self) -> None:
        """Assign dense integer ids to nodes and links (see docstring)."""
        names = list(self._nodes)
        self._node_ids = {name: index for index, name in enumerate(names)}
        self._nodes_by_id = tuple(self._nodes[name] for name in names)
        self._is_element_mask = tuple(
            is_element(node) for node in self._nodes_by_id
        )
        self._element_ids = tuple(
            index for index, flag in enumerate(self._is_element_mask) if flag
        )
        self._elements_tuple = tuple(
            node for node in self._nodes_by_id if is_element(node)
        )
        self._routers_tuple = tuple(
            node for node in self._nodes_by_id if not is_element(node)
        )
        # position of each element object in ``elements`` (identity-
        # keyed: the tuple holds the references, so ids stay valid) —
        # lets hot loops map an element back to its scan position
        # without hashing its name
        self._element_position = {
            id(element): position
            for position, element in enumerate(self._elements_tuple)
        }
        self._links_by_id = tuple(self._links.values())
        slot_vc: list[int] = []
        slot_bw: list[float] = []
        directed: dict[tuple[int, int], int] = {}
        for link_id, link in enumerate(self._links_by_id):
            id_a = self._node_ids[link.a.name]
            id_b = self._node_ids[link.b.name]
            directed[(id_a, id_b)] = 2 * link_id
            directed[(id_b, id_a)] = 2 * link_id + 1
            slot_vc += [link.virtual_channels, link.virtual_channels]
            slot_bw += [link.bandwidth, link.bandwidth]
        self._directed_slots = directed
        self._slot_vc = tuple(slot_vc)
        self._slot_bw = tuple(slot_bw)
        neighbor_ids = []
        neighbor_slots = []
        for index, node in enumerate(self._nodes_by_id):
            ids = tuple(
                self._node_ids[other.name] for other in self._adjacency[node.name]
            )
            neighbor_ids.append(ids)
            neighbor_slots.append(
                tuple(directed[(index, other)] for other in ids)
            )
        self._neighbor_ids = tuple(neighbor_ids)
        self._neighbor_slots = tuple(neighbor_slots)

    def _require_mutable(self) -> None:
        if self._frozen:
            raise TopologyError("platform is frozen; cannot modify topology")

    def _resolve(self, node: Node | str) -> Node:
        if isinstance(node, str):
            try:
                return self._nodes[node]
            except KeyError:
                raise TopologyError(f"unknown node {node!r}") from None
        if node.name not in self._nodes or self._nodes[node.name] is not node:
            raise TopologyError(f"node {node!r} does not belong to this platform")
        return node

    # -- basic queries -------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __contains__(self, node: Node | str) -> bool:
        name = node if isinstance(node, str) else node.name
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def element(self, name: str) -> ProcessingElement:
        node = self.node(name)
        if not is_element(node):
            raise TopologyError(f"{name!r} is a router, not an element")
        return node

    @property
    def nodes(self) -> tuple[Node, ...]:
        if self._frozen:
            return self._nodes_by_id
        return tuple(self._nodes.values())

    @property
    def elements(self) -> tuple[ProcessingElement, ...]:
        if self._frozen:
            return self._elements_tuple
        return tuple(n for n in self._nodes.values() if is_element(n))

    @property
    def routers(self) -> tuple[Router, ...]:
        if self._frozen:
            return self._routers_tuple
        return tuple(n for n in self._nodes.values() if not is_element(n))

    @property
    def links(self) -> tuple[Link, ...]:
        if self._frozen:
            return self._links_by_id
        return tuple(self._links.values())

    def link_between(self, a: Node | str, b: Node | str) -> Link:
        name_a = a if isinstance(a, str) else a.name
        name_b = b if isinstance(b, str) else b.name
        try:
            return self._links[frozenset((name_a, name_b))]
        except KeyError:
            raise TopologyError(f"no link between {name_a} and {name_b}") from None

    def neighbors(self, node: Node | str) -> tuple[Node, ...]:
        name = node if isinstance(node, str) else node.name
        try:
            return tuple(self._adjacency[name])
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def degree(self, node: Node | str) -> int:
        return len(self.neighbors(node))

    # -- interned-id queries (frozen platforms only) ---------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def slot_count(self) -> int:
        """Number of directed link slots (two per undirected link)."""
        return 2 * len(self._links)

    def node_id(self, node: Node | str) -> int:
        """Dense integer id of a node (frozen platforms only)."""
        self._require_frozen()
        name = node if isinstance(node, str) else node.name
        try:
            return self._node_ids[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def node_by_id(self, node_id: int) -> Node:
        return self._nodes_by_id[node_id]

    def neighbor_ids(self, node_id: int) -> tuple[int, ...]:
        """Neighbor node ids of ``node_id``, in link insertion order."""
        self._require_frozen()
        return self._neighbor_ids[node_id]

    def neighbor_slots(self, node_id: int) -> tuple[int, ...]:
        """Directed link slot of each edge, parallel to neighbor_ids."""
        self._require_frozen()
        return self._neighbor_slots[node_id]

    @property
    def element_ids(self) -> tuple[int, ...]:
        """Node ids of processing elements, in declaration order."""
        self._require_frozen()
        return self._element_ids

    def is_element_id(self, node_id: int) -> bool:
        return self._is_element_mask[node_id]

    def directed_slot(self, a_id: int, b_id: int) -> int:
        """The directed slot of link ``a -> b``; raises if not linked.

        The reverse direction is always ``slot ^ 1``, the undirected
        link id ``slot >> 1``.
        """
        try:
            return self._directed_slots[(a_id, b_id)]
        except KeyError:
            name_a = self._nodes_by_id[a_id].name
            name_b = self._nodes_by_id[b_id].name
            raise TopologyError(
                f"no link between {name_a} and {name_b}"
            ) from None

    def link_by_id(self, link_id: int) -> Link:
        return self._links_by_id[link_id]

    @property
    def slot_vc(self) -> tuple[int, ...]:
        """Per-slot virtual-channel capacities."""
        return self._slot_vc

    @property
    def slot_bw(self) -> tuple[float, ...]:
        """Per-slot bandwidth capacities."""
        return self._slot_bw

    # -- distances and neighbourhoods -----------------------------------

    def bfs_distances(
        self, origins: Iterable[Node], limit: int | None = None
    ) -> dict[Node, int]:
        """Hop distances from a set of origins over the full node graph.

        The mapping phase "keeps track of the distance between a newly
        discovered element and the origins of the BFS, to estimate the
        cost of the communication routes" (Section III-B); this is that
        primitive.  ``limit`` bounds the search radius.
        """
        distances: dict[Node, int] = {}
        queue: deque[Node] = deque()
        for origin in origins:
            node = self._resolve_frozen(origin)
            if node not in distances:
                distances[node] = 0
                queue.append(node)
        while queue:
            node = queue.popleft()
            depth = distances[node]
            if limit is not None and depth >= limit:
                continue
            for neighbor in self._adjacency[node.name]:
                if neighbor not in distances:
                    distances[neighbor] = depth + 1
                    queue.append(neighbor)
        return distances

    def hop_distance(self, a: Node | str, b: Node | str) -> int:
        """Shortest hop count between two nodes (``-1`` if disconnected)."""
        node_a = self._resolve_frozen(a)
        node_b = self._resolve_frozen(b)
        if node_a == node_b:
            return 0
        distances = self.bfs_distances([node_a])
        return distances.get(node_b, -1)

    def neighborhood(self, nodes: Iterable[Node], ring: int) -> set[Node]:
        """The set of nodes at hop distance exactly ``ring`` from ``nodes``."""
        if ring < 0:
            raise ValueError("ring must be non-negative")
        distances = self.bfs_distances(nodes, limit=ring)
        return {node for node, depth in distances.items() if depth == ring}

    def is_connected(self) -> bool:
        if not self._nodes:
            return True
        first = next(iter(self._nodes.values()))
        return len(self.bfs_distances([first])) == len(self._nodes)

    def _resolve_frozen(self, node: Node | str) -> Node:
        if isinstance(node, str):
            return self.node(node)
        if node.name not in self._nodes:
            raise TopologyError(f"node {node!r} does not belong to this platform")
        return node

    # -- element adjacency (fragmentation substrate) --------------------

    def _compute_element_adjacency(self) -> None:
        """Two elements are adjacent when they share a router, sit on
        directly-linked routers, or are directly linked to each other.

        This matches the intuitive "neighbouring tiles" notion of a
        NoC: in a mesh with one element per router, the elements of
        neighbouring routers are adjacent.
        """
        neighbors: dict[str, set[ProcessingElement]] = {
            e.name: set() for e in self.elements
        }
        for element in self.elements:
            reachable: set[ProcessingElement] = set()
            for first in self._adjacency[element.name]:
                if is_element(first):
                    reachable.add(first)
                    continue
                # first is a router: elements on it, and on adjacent routers
                for second in self._adjacency[first.name]:
                    if is_element(second):
                        reachable.add(second)
                    else:
                        for third in self._adjacency[second.name]:
                            if is_element(third):
                                reachable.add(third)
            reachable.discard(element)
            neighbors[element.name] = reachable
        self._element_neighbors = {
            name: tuple(sorted(found, key=lambda e: e.name))
            for name, found in neighbors.items()
        }
        pairs = set()
        for name, found in self._element_neighbors.items():
            for other in found:
                pairs.add(frozenset((name, other.name)))
        self._element_pairs = tuple(
            tuple(sorted((self.element(x) for x in pair), key=lambda e: e.name))
            for pair in sorted(pairs, key=sorted)
        )
        self._element_neighbor_ids = {
            name: tuple(self._node_ids[e.name] for e in found)
            for name, found in self._element_neighbors.items()
        }
        self._element_pair_ids = tuple(
            (self._node_ids[a.name], self._node_ids[b.name])
            for a, b in self._element_pairs
        )

    def _classify_elements(self) -> None:
        """Positions, name ranks, capacity classes and per-position
        element adjacency (see the module docstring)."""
        elements = self._elements_tuple
        node_position = [-1] * len(self._nodes_by_id)
        for position, node_id in enumerate(self._element_ids):
            node_position[node_id] = position
        self._node_position = tuple(node_position)
        by_name = sorted(range(len(elements)), key=lambda p: elements[p].name)
        rank = [0] * len(elements)
        for position_rank, position in enumerate(by_name):
            rank[position] = position_rank
        self._name_rank = tuple(rank)
        self._elements_by_rank = tuple(elements[p] for p in by_name)
        class_ids: dict[tuple, int] = {}
        members: list[list[int]] = []
        class_of = []
        for position, element in enumerate(elements):
            key = (element.kind, element.capacity)
            class_id = class_ids.get(key)
            if class_id is None:
                class_id = class_ids[key] = len(members)
                members.append([])
            members[class_id].append(position)
            class_of.append(class_id)
        self._capacity_classes = tuple(
            CapacityClass(kind, capacity, tuple(members[class_id]))
            for (kind, capacity), class_id in class_ids.items()
        )
        self._capacity_class_of = tuple(class_of)
        self._element_neighbor_positions = tuple(
            tuple(
                node_position[node_id]
                for node_id in self._element_neighbor_ids[element.name]
            )
            for element in elements
        )
        self._max_element_connectivity = max(
            map(len, self._element_neighbor_positions), default=0
        )

    @property
    def capacity_classes(self) -> tuple[CapacityClass, ...]:
        """Elements grouped by equal (kind, capacity), in first-seen order."""
        self._require_frozen()
        return self._capacity_classes

    @property
    def max_element_connectivity(self) -> int:
        """The largest :meth:`element_connectivity` on the platform."""
        self._require_frozen()
        return self._max_element_connectivity

    def element_neighbors(self, element: ProcessingElement | str) -> tuple[ProcessingElement, ...]:
        """Adjacent elements of ``element`` (see class docstring)."""
        self._require_frozen()
        name = element if isinstance(element, str) else element.name
        try:
            return self._element_neighbors[name]
        except KeyError:
            raise TopologyError(f"unknown element {name!r}") from None

    @property
    def element_pairs(self) -> tuple[tuple[ProcessingElement, ProcessingElement], ...]:
        """All unordered pairs of adjacent elements.

        The denominator of the paper's external resource fragmentation:
        "the percentage of pairs of adjacent elements of which only one
        element is used, over all pairs of adjacent elements".
        """
        self._require_frozen()
        return self._element_pairs

    def element_connectivity(self, element: ProcessingElement | str) -> int:
        """Number of adjacent elements — low values mean border tiles."""
        return len(self.element_neighbors(element))

    def element_neighbor_ids(self, element: ProcessingElement | str) -> tuple[int, ...]:
        """Node ids of the adjacent elements of ``element``."""
        self._require_frozen()
        name = element if isinstance(element, str) else element.name
        try:
            return self._element_neighbor_ids[name]
        except KeyError:
            raise TopologyError(f"unknown element {name!r}") from None

    @property
    def element_pair_ids(self) -> tuple[tuple[int, int], ...]:
        """:attr:`element_pairs` as node-id pairs (fragmentation hot path)."""
        self._require_frozen()
        return self._element_pair_ids

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise TopologyError("platform must be frozen first (call freeze())")

    # -- misc ------------------------------------------------------------

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"<Platform {self.name!r}: {len(self.elements)} elements, "
            f"{len(self.routers)} routers, {len(self._links)} links>"
        )
