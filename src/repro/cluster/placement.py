"""Placement policies: which host serves the next invocation.

A policy sees a read-only sequence of per-host views and picks a
*position into that sequence*. Callers usually pass every host, in
which case the position equals the host's global index — but wrappers
like :class:`HealthFiltered` pass filtered subsequences and map the
position back, which is why policies must not assume
``hosts[i].index == i``. The views expose exactly what production
placers use:

* ``load`` — invocations currently running or queued on the host;
* ``has_idle_warm(function)`` — an idle warm VM of the function is
  parked there (reuse avoids any restore at all);
* ``has_snapshot_for(function)`` — the function's snapshot files are
  reachable from the host (always true on the shared-storage tier
  once any host has run the function).

Policies must be deterministic: ties break on the lowest host index,
and the only state a policy may keep is its own (e.g. the round-robin
cursor), so a fresh policy instance per run reproduces the same
placements.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Sequence


class HostView(abc.ABC):
    """What a placement policy may observe about one host.

    Besides the methods below, a view carries its global ``index`` and
    the health plane's ``healthy`` and ``crashed`` flags (read by
    :class:`HealthFiltered` and :func:`pick_failover`)."""

    index: int
    healthy: bool
    crashed: bool

    @property
    @abc.abstractmethod
    def load(self) -> int:
        """Invocations running or waiting for admission."""

    @abc.abstractmethod
    def has_idle_warm(self, function: str) -> bool: ...

    @abc.abstractmethod
    def has_snapshot_for(self, function: str) -> bool: ...


@dataclass
class StaticHostView(HostView):
    """A :class:`HostView` over a *snapshot* of host state.

    Sharded cluster execution's router places arrivals without live
    access to host objects (they live in worker processes), so it
    builds one of these per host from the state each host published at
    the last window barrier. ``base_load`` is the load at the barrier;
    ``projected`` counts dispatches the router has since routed there
    within the current window, so same-window arrivals see each
    other's load exactly like same-instant arrivals do on the
    single-heap path. The ``healthy`` and ``crashed`` fields feed
    :class:`HealthFiltered` and :func:`pick_failover`.
    """

    index: int
    base_load: int = 0
    projected: int = 0
    idle_warm: FrozenSet[str] = field(default_factory=frozenset)
    snapshots: FrozenSet[str] = field(default_factory=frozenset)
    healthy: bool = True
    crashed: bool = False

    @property
    def load(self) -> int:
        return self.base_load + self.projected

    def has_idle_warm(self, function: str) -> bool:
        return function in self.idle_warm

    def has_snapshot_for(self, function: str) -> bool:
        return function in self.snapshots


class PlacementPolicy(abc.ABC):
    """Chooses the host for one arriving invocation."""

    name: str = "abstract"

    @abc.abstractmethod
    def choose(self, hosts: Sequence[HostView], function: str) -> int:
        """Position in ``hosts`` of the host that should serve
        ``function``. ``hosts`` is non-empty but may be a filtered
        subsequence of the cluster (so ``hosts[i].index`` need not
        equal ``i``)."""


class RoundRobin(PlacementPolicy):
    """Rotate through hosts regardless of state — the baseline that
    spreads load but scatters each function's snapshots everywhere."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, hosts: Sequence[HostView], function: str) -> int:
        index = self._next % len(hosts)
        self._next += 1
        return index


class LeastLoaded(PlacementPolicy):
    """Send each invocation to the host with the fewest running or
    queued invocations (ties to the lowest index)."""

    name = "least-loaded"

    def choose(self, hosts: Sequence[HostView], function: str) -> int:
        return _best(hosts, range(len(hosts)))


class SnapshotLocality(PlacementPolicy):
    """Pack a function onto hosts that already hold its state.

    Prefer a host with an idle warm VM of the function, then a host
    whose storage already has the function's snapshot (its restore
    may also hit warm page-cache pages); fall back to least-loaded.
    Within each preference tier ties again break on (load, index).
    """

    name = "locality"

    def choose(self, hosts: Sequence[HostView], function: str) -> int:
        warm = [
            i for i, h in enumerate(hosts) if h.has_idle_warm(function)
        ]
        if warm:
            return _best(hosts, warm)
        local = [
            i for i, h in enumerate(hosts) if h.has_snapshot_for(function)
        ]
        if local:
            return _best(hosts, local)
        return _best(hosts, range(len(hosts)))


def _best(hosts: Sequence[HostView], positions) -> int:
    """Position (from ``positions``) of the least-loaded candidate,
    ties broken by global host index — identical placements to the
    old return-the-``.index`` form whenever the full host list is
    passed, but correct on filtered subsequences too."""
    return min(positions, key=lambda i: (hosts[i].load, hosts[i].index))


class HealthFiltered(PlacementPolicy):
    """Decorator that hides unhealthy hosts from an inner policy.

    Views carrying a falsy ``healthy`` attribute (drained or crashed
    hosts, as maintained by
    :class:`~repro.faults.health.HealthMonitor`) are dropped before
    the inner policy chooses; the chosen position is then mapped back
    into the caller's sequence. When *every* host is unhealthy the
    full list is used unfiltered — routing somewhere and letting the
    robust serve path fail fast beats dropping the arrival with no
    defined outcome. Views without a ``healthy`` attribute are
    treated as healthy, so the wrapper is inert on schedulers that
    predate health tracking."""

    def __init__(self, inner: PlacementPolicy):
        self.inner = inner
        self.name = inner.name
        #: Placements that had to route around >= 1 unhealthy host.
        self.filtered_choices = 0

    def choose(self, hosts: Sequence[HostView], function: str) -> int:
        healthy = [
            i
            for i, h in enumerate(hosts)
            if getattr(h, "healthy", True)
        ]
        if not healthy or len(healthy) == len(hosts):
            return self.inner.choose(hosts, function)
        self.filtered_choices += 1
        views = [hosts[i] for i in healthy]
        return healthy[self.inner.choose(views, function)]


def pick_failover(
    hosts: Sequence[HostView],
    exclude: int,
    function: str,
    policy: PlacementPolicy,
) -> Optional[HostView]:
    """The host for a retry or hedge attempt: ``policy`` chooses among
    the healthy hosts other than index ``exclude``, falling back to
    any non-crashed one. ``None`` when the cluster has no
    alternative."""
    others = [h for h in hosts if h.index != exclude and not h.crashed]
    candidates = [h for h in others if h.healthy] or others
    if not candidates:
        return None
    return candidates[policy.choose(candidates, function)]


class HotSwappablePlacement(PlacementPolicy):
    """Decorator whose inner policy can be replaced mid-run.

    The live service's ``swap_placement`` command re-points the
    cluster's placement at a *fresh* instance of another registered
    policy while invocations are in flight. A fresh instance (rather
    than a paused old one) keeps the hand-off deterministic: the new
    policy starts from its initial state (e.g. a round-robin cursor at
    0) regardless of what ran before, so a journaled command stream
    replays to identical placements. Delegation is a plain method
    call with no state of its own, so wrapping a batch run in this
    decorator changes nothing."""

    def __init__(self, inner: PlacementPolicy):
        self.inner = inner
        self.name = inner.name
        #: Completed ``swap`` calls (telemetry for the service layer).
        self.swaps = 0

    def choose(self, hosts: Sequence[HostView], function: str) -> int:
        return self.inner.choose(hosts, function)

    def swap(self, name: str) -> PlacementPolicy:
        """Install a fresh instance of policy ``name`` and return it."""
        self.inner = make_placement(name)
        self.name = self.inner.name
        self.swaps += 1
        return self.inner


class CountingPlacement(PlacementPolicy):
    """Decorator that mirrors an inner policy's decisions into a
    telemetry registry: a total ``cluster.placement.decisions``
    counter plus one ``cluster.placement.to.<host_id>`` counter per
    destination. Delegates ``choose`` verbatim, so placements are
    unchanged."""

    def __init__(self, inner: PlacementPolicy, registry, host_ids):
        self.inner = inner
        self.name = inner.name
        self._registry = registry
        self._decisions = registry.counter("cluster.placement.decisions")
        self._per_host = [
            registry.counter(f"cluster.placement.to.{host_id}")
            for host_id in host_ids
        ]

    def choose(self, hosts: Sequence[HostView], function: str) -> int:
        index = self.inner.choose(hosts, function)
        self._decisions.value += 1
        self._per_host[index].value += 1
        return index

    def add_host(self, host_id: str) -> None:
        """Extend the per-destination counters for a host added to the
        cluster mid-run (positions are appended in host-index order,
        matching the scheduler's host list)."""
        self._per_host.append(
            self._registry.counter(f"cluster.placement.to.{host_id}")
        )


_POLICIES: Dict[str, Callable[[], PlacementPolicy]] = {
    RoundRobin.name: RoundRobin,
    LeastLoaded.name: LeastLoaded,
    SnapshotLocality.name: SnapshotLocality,
}

PLACEMENT_NAMES = tuple(sorted(_POLICIES))


def make_placement(name: str) -> PlacementPolicy:
    """A fresh policy instance by registry name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; "
            f"known: {', '.join(PLACEMENT_NAMES)}"
        ) from None
    return factory()
