"""Task implementations: the binding phase's alternatives.

"For each task, multiple implementations may be provided by different
IP manufacturers, using multiple QoS levels, or targeting different
memory types and I/O interfaces" (paper Section I).  An implementation
states *where* it can run (an element type, or one specific element
for fixed I/O interfaces), *what* it consumes (a resource vector),
*how fast* it runs (execution time per firing, feeding the SDF
validation model) and *how much it costs* to prefer it (an abstract
scalar: energy, licensing, QoS penalty...).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.elements import ElementType, ProcessingElement
from repro.arch.resources import ResourceVector


class ImplementationError(ValueError):
    """Raised for malformed implementation specifications."""


#: bounds of the per-implementation compatibility memos; on overflow
#: the memo is cleared (it is a cache, not state)
_COMPAT_CACHE_LIMIT = 4096
_PLATFORM_CACHE_LIMIT = 8


@dataclass(frozen=True)
class Implementation:
    """One executable variant of a task.

    Exactly one of the two targeting modes applies:

    * ``target_kind`` set, ``target_element`` None — the implementation
      runs on any element of that type (the common case);
    * ``target_element`` set — the implementation is pinned to one
      named element ("locations may be fixed in the binding phase",
      Section III-A), which makes its task a mapping anchor in ``T0``.
    """

    name: str
    requirement: ResourceVector
    execution_time: float = 1.0
    cost: float = 1.0
    target_kind: ElementType | None = None
    target_element: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ImplementationError("implementation needs a non-empty name")
        if (self.target_kind is None) == (self.target_element is None):
            raise ImplementationError(
                f"implementation {self.name!r} must target either an element "
                "type or a specific element (exactly one)"
            )
        if self.execution_time <= 0:
            raise ImplementationError(
                f"implementation {self.name!r} needs positive execution time"
            )
        if self.cost < 0:
            raise ImplementationError(
                f"implementation {self.name!r} has negative cost"
            )
        # memos for runs_on / compatible_classes: the answers are
        # static per element (resp. platform), but the binder and mapper
        # ask them on every admission.  Keyed by object identity; the
        # references in the values keep ids stable.  Both caches are
        # bounded (cleared on overflow) so an implementation reused
        # across many platforms cannot pin retired platforms forever.
        object.__setattr__(self, "_compat", {})
        object.__setattr__(self, "_platform_classes", {})

    def runs_on(self, element: ProcessingElement) -> bool:
        """Static compatibility: type/pin match and capacity is sufficient.

        Run-time availability (enough *free* resources) is the
        allocation state's ``av(e, t)``; this check ignores occupancy.
        """
        cached = self._compat.get(id(element))
        if cached is not None and cached[0] is element:
            return cached[1]
        if self.target_element is not None:
            result = (
                element.name == self.target_element
                and self.requirement.fits_in(element.capacity)
            )
        else:
            result = (
                element.kind == self.target_kind
                and self.requirement.fits_in(element.capacity)
            )
        if len(self._compat) >= _COMPAT_CACHE_LIMIT:
            self._compat.clear()
        self._compat[id(element)] = (element, result)
        return result

    def compatible_classes(self, platform) -> tuple[frozenset[int], int | None]:
        """Static compatibility with a frozen platform, per capacity class.

        Returns ``(classes, pin)``: the indexes into
        ``platform.capacity_classes`` this implementation can run on —
        the element kind matches and the requirement fits the class
        capacity, tested once per class instead of once per element —
        and, for a pinned implementation, the position of its element
        in ``platform.elements`` (None when not pinned).  Together they
        are exactly the elements :meth:`runs_on` accepts.
        """
        cached = self._platform_classes.get(id(platform))
        if cached is not None and cached[0] is platform:
            return cached[1]
        if not platform.frozen:
            raise ImplementationError(
                "compatible_classes requires a frozen platform"
            )
        fits_in = self.requirement.fits_in
        pin = None
        if self.target_element is None:
            classes = frozenset(
                class_id
                for class_id, group in enumerate(platform.capacity_classes)
                if group.kind == self.target_kind and fits_in(group.capacity)
            )
        else:
            node_id = platform._node_ids.get(self.target_element)
            position = (
                -1 if node_id is None else platform._node_position[node_id]
            )
            classes = frozenset()
            if position >= 0 and fits_in(platform.elements[position].capacity):
                classes = frozenset((platform._capacity_class_of[position],))
                pin = position
        if len(self._platform_classes) >= _PLATFORM_CACHE_LIMIT:
            self._platform_classes.clear()
        self._platform_classes[id(platform)] = (platform, (classes, pin))
        return classes, pin

    @property
    def pinned(self) -> bool:
        """True when this implementation is fixed to one element."""
        return self.target_element is not None

    def __repr__(self) -> str:
        where = self.target_element or str(self.target_kind)
        return f"<Impl {self.name} on {where}, cost={self.cost}>"


def dsp_implementation(
    name: str,
    cycles: int,
    memory: int = 0,
    execution_time: float = 1.0,
    cost: float = 1.0,
) -> Implementation:
    """Shorthand for the ubiquitous DSP-targeted implementation."""
    return Implementation(
        name=name,
        requirement=ResourceVector(cycles=cycles, memory=memory),
        execution_time=execution_time,
        cost=cost,
        target_kind=ElementType.DSP,
    )


def pinned_implementation(
    name: str,
    element: str,
    requirement: ResourceVector,
    execution_time: float = 1.0,
    cost: float = 1.0,
) -> Implementation:
    """Shorthand for a fixed-location (I/O interface) implementation."""
    return Implementation(
        name=name,
        requirement=requirement,
        execution_time=execution_time,
        cost=cost,
        target_element=element,
    )
