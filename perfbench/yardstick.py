"""Host-time clocks: the plain one, and one normalised to host speed.

The benchmark runs on a few cores of a shared host whose speed moves by
tens of percent from one moment to the next (another tenant on the
sibling hardware thread, a migration to the other core): the same
closed-loop admission took 180 ms and 290 ms a second apart, and a fixed
pure-Python probe flips between two speeds 75% apart.  Averaging over a
longer run does not remove that, because the host's state persists for
minutes.

:class:`Yardstick` measures the host's speed *while the program runs*:
an interval timer interrupts the benchmark every :data:`PERIOD` seconds
and times a fixed pure-Python probe (a shortest-path search over a
prebuilt graph: dict, set, heap and attribute work like the program's
own).  The probe runs twice, and its time is the geometric mean of the
two runs: the first starts from the caches as the program left them,
the second from caches the first has warmed.  Each interval of program
time is then scaled by how long the probe took against its nominal
:data:`REFERENCE` time, and the probe's own time is left out.  The
clock therefore reads *seconds at reference host speed*: a change that
makes the program do half the work halves the reading, and the host
slowing down does not move it.  On the 2-vCPU host described in ``perfbench/README.md``, 17 or 18 runs of one
episode each, spread over 14 minutes, varied in total decision time by
14% (case study), 18% (48x48) and 13% (12x12) in plain seconds, and by
1.6%, 3.5% and 2.6% in reference seconds (standard deviation over the
mean).  Either run of the probe alone did about as well on two of the
three workloads and worse on the third; a probe over tens of megabytes
tracked the 48x48 workload better and the case study far worse.

The probe runs in the signal handler, between two bytecodes of the
program, with the garbage collector off so that a collection of the
program's heap is never charged to the probe.  It reads nothing the
program owns, so no decision can depend on it.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
import time
from collections import deque


class Clock:
    """Plain host time: wall and process CPU seconds."""

    def wall(self) -> float:
        return time.perf_counter()

    def cpu(self) -> float:
        return time.process_time()

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


class _Node:
    __slots__ = ("key", "cost", "links")

    def __init__(self, key: int, cost: float) -> None:
        self.key = key
        self.cost = cost
        self.links: list[_Node] = []


def _graph(size: int = 1000) -> dict[int, _Node]:
    nodes = {k: _Node(k, (k * 7919) % 101 / 10.0) for k in range(size)}
    for k, node in nodes.items():
        node.links = [nodes[(k + step) % size] for step in (1, 7, 31)]
    return nodes


_GRAPH = _graph()


def probe(settle: int = 150) -> int:
    """The fixed work whose time measures the host: settle ``settle``
    nodes of a Dijkstra search over :data:`_GRAPH`."""
    nodes = _GRAPH
    dist = {0: 0.0}
    seen: set[int] = set()
    heap = [(0.0, 0)]
    while heap and len(seen) < settle:
        d, key = heapq.heappop(heap)
        if key in seen:
            continue
        seen.add(key)
        for other in nodes[key].links:
            reach = d + other.cost + 1.0
            if reach < dist.get(other.key, 1e18):
                dist[other.key] = reach
                heapq.heappush(heap, (reach, other.key))
    return len(seen)


class Yardstick(Clock):
    """Wall and CPU clocks in seconds at reference host speed.

    Between :meth:`start` and :meth:`stop` a ``SIGALRM`` interval timer
    fires every :data:`PERIOD` seconds of wall time.  The handler times
    :func:`probe`, takes the median of the last :data:`WINDOW` probe
    times as the host's current speed, and banks the program time since
    the previous tick at that speed.  Readings in between extrapolate
    from the last tick at the last speed.
    """

    #: seconds of wall time between probes (the probes cost ~6% of it)
    PERIOD = 0.01
    #: the probe's nominal time: readings are seconds on a host where
    #: the probe takes this long (about what it takes on the host above
    #: when its neighbours are quiet; 280 us when they are not)
    REFERENCE = 170e-6
    #: probe times the speed estimate is the median of
    WINDOW = 3

    def __init__(self) -> None:
        self._samples: deque[float] = deque(maxlen=self.WINDOW)
        self._scale = 1.0
        self._wall = 0.0
        self._cpu = 0.0
        self._mark_wall = time.perf_counter()
        self._mark_cpu = time.process_time()
        #: ticks taken, the seconds the handler took, and the seconds
        #: the timed probes took
        self.ticks = 0
        self.probe_seconds = 0.0
        self.timed_seconds = 0.0
        self._previous = None

    def start(self) -> None:
        for _ in range(20):  # warm the probe, then seed the estimate
            self._samples.append(self._time_probe())
        self._scale = self.REFERENCE / statistics.median(self._samples)
        self._mark_wall = time.perf_counter()
        self._mark_cpu = time.process_time()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @staticmethod
    def _time_probe() -> float:
        """The geometric mean of a cold and a warm run of the probe."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            probe()
            middle = time.perf_counter()
            probe()
            return math.sqrt((middle - started) * (time.perf_counter() - middle))
        finally:
            if enabled:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        seconds = self._time_probe()
        self._samples.append(seconds)
        scale = self.REFERENCE / statistics.median(self._samples)
        self._wall += (wall - self._mark_wall) * scale
        self._cpu += (cpu - self._mark_cpu) * scale
        self._scale = scale
        self._mark_wall = time.perf_counter()
        self._mark_cpu = time.process_time()
        self.probe_seconds += self._mark_wall - wall
        self.timed_seconds += seconds
        self.ticks += 1

    # The handler runs whole between two bytecodes of the caller, so a
    # reading is consistent if no tick landed while it was taken.

    def wall(self) -> float:
        while True:
            ticks = self.ticks
            value = self._wall + (time.perf_counter() - self._mark_wall) * self._scale
            if ticks == self.ticks:
                return value

    def cpu(self) -> float:
        while True:
            ticks = self.ticks
            value = self._cpu + (time.process_time() - self._mark_cpu) * self._scale
            if ticks == self.ticks:
                return value
