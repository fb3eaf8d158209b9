"""The vCPU: replays a guest access trace through the fault handler.

A trace is a list of :class:`GuestAccess` items, each "compute for
``think_us``, then touch ``page``". Traces contain only *first
touches* plus the compute time between them — repeated accesses to an
already-mapped page cost nothing at the host, so folding them into
think time loses no fidelity while keeping the simulation fast.

When a host CPU :class:`~repro.sim.Resource` is supplied, think time
runs while holding a CPU slot; fault waits release it. With more
runnable vCPUs than slots, invocations slow down and their variance
grows — the paper's observation at 64-way parallelism (§6.6).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.host.fault import (
    HORIZON_BLOCKED,
    FaultHandler,
    FaultKind,
    FaultRecord,
)
from repro.host.vma import ANONYMOUS
from repro.sim import Environment, Event, Resource, SimulationError

INFINITY = float("inf")
NONE = FaultKind.NONE
PRESENT = FaultKind.PRESENT
ANON = FaultKind.ANON
MINOR = FaultKind.MINOR


class ObservationHorizon:
    """The next simulated instant at which a concurrent observer (the
    mincore recorder) will read state the fault fast path mutates
    eagerly (the installed-PTE count). The batching vCPU never lets an
    install whose per-event completion would land at or past this
    instant happen early — it flushes, lets the observer catch up, and
    retries — so observers see bit-identical state either way."""

    __slots__ = ("next_at",)

    def __init__(self, next_at: float = float("inf")):
        self.next_at = next_at


@dataclass(frozen=True, slots=True)
class GuestAccess:
    """One step of guest execution: compute, then touch a page."""

    page: int
    write: bool = False
    #: Content token stored when ``write`` (ignored for reads).
    value: Optional[int] = None
    #: Compute time preceding the access, microseconds.
    think_us: float = 0.0


@dataclass
class VCpuResult:
    """Outcome of running one trace."""

    started_us: float
    finished_us: float
    records: List[FaultRecord]

    @property
    def elapsed_us(self) -> float:
        return self.finished_us - self.started_us

    @property
    def fault_count(self) -> int:
        return sum(1 for r in self.records if r.kind is not FaultKind.NONE)


class VCpu:
    """Executes guest access traces against a host fault handler.

    With ``batch_faults`` (the default) runs of accesses that cannot
    block — EPT hits, anonymous and present faults, minor faults on an
    unbounded page cache — are serviced synchronously on a virtual
    clock and the whole run sleeps once via
    :meth:`~repro.sim.Environment.wake_at`, instead of dispatching one
    heap event per page. Service costs are deterministic (paper §3),
    so every :class:`FaultRecord` and the final clock are bit-identical
    to the per-event path; only major faults, in-flight-read waits and
    userfaultfd delegations drop back to the event-driven slow path.
    """

    def __init__(
        self,
        env: Environment,
        handler: FaultHandler,
        cpu: Optional[Resource] = None,
        batch_faults: bool = True,
    ):
        self.env = env
        self.handler = handler
        self.cpu = cpu
        self.batch_faults = batch_faults
        #: Set when a concurrent observer (mincore recorder) watches
        #: this VM's resident-set size; bounds how far ahead of the
        #: real clock the fast path may install PTEs.
        self.observer_horizon: Optional[ObservationHorizon] = None

    def run_trace(
        self, trace: List[GuestAccess], tail_think_us: float = 0.0
    ) -> Generator[Event, Any, VCpuResult]:
        """Process helper: execute ``trace`` then ``tail_think_us`` of
        final compute (e.g. serialising the response)."""
        if self.batch_faults:
            return (yield from self._run_trace_batched(trace, tail_think_us))
        started = self.env.now
        records: List[FaultRecord] = []
        for access in trace:
            if access.think_us > 0:
                yield from self._compute(access.think_us)
            record = yield from self.handler.access(
                access.page, write=access.write, value=access.value
            )
            records.append(record)
        if tail_think_us > 0:
            yield from self._compute(tail_think_us)
        self._count_paths(len(records), slow=len(records))
        return VCpuResult(started, self.env.now, records)

    def _count_paths(self, total: int, slow: int) -> None:
        """Attribute this run's accesses to the fast vs event path in
        the host's telemetry bundle (one batched update at trace end;
        the access loop itself stays instrument-free)."""
        telemetry = getattr(self.handler.cache, "telemetry", None)
        if telemetry is None or total == 0:
            return
        fast = total - slow
        telemetry.vcpu_fast.value += fast
        telemetry.vcpu_slow.value += slow
        if fast:
            telemetry.profiler.add("vcpu.fast_path", 0.0, fast)
        if slow:
            telemetry.profiler.add("vcpu.event_path", 0.0, slow)

    def _run_trace_batched(
        self, trace: List[GuestAccess], tail_think_us: float = 0.0
    ) -> Generator[Event, Any, VCpuResult]:
        """Batched twin of :meth:`run_trace`.

        ``vnow`` is the vCPU's virtual clock: it runs ahead of
        ``env.now`` while accesses are serviced synchronously, and a
        single ``wake_at(vnow)`` flush realises the accumulated time
        whenever the trace hits a slow-path access (or ends). Think
        time folds into the batch when no host CPU slot is modelled;
        with a CPU resource it must contend, so it flushes first.

        The kinds that never block are serviced right here, one loop
        iteration per access: EPT read hits, PRESENT fixups, ANON
        zero-fills, and MINOR faults on sparse holes or pages resident
        in an unbounded cache. Everything else goes to
        :meth:`~repro.host.fault.FaultHandler.fast_access`, and from
        there, when it cannot be serviced synchronously, to the
        event-driven :meth:`~repro.host.fault.FaultHandler.access`.
        An access whose install would land at or past the observer
        horizon flushes, lets the observer catch up, and is classified
        again in the same iteration.
        """
        env = self.env
        handler = self.handler
        space = handler.space
        ept = space.ept
        pte = space.pte
        anon_contents = space.anon_contents
        params = handler.params
        cost = handler._cost
        cache = handler.cache
        uffd = handler.uffd
        stats_append = handler.stats.records.append
        fast_access = handler.fast_access
        started = env.now
        records: List[FaultRecord] = []
        append = records.append
        vnow = started
        horizon = self.observer_horizon
        no_cpu = self.cpu is None
        slow = 0
        # One-entry VMA cache, valid while the mapping version holds:
        # consecutive accesses overwhelmingly hit the same region.
        vma = None
        vma_version = -1
        vma_start = vma_end = 0
        for access in trace:
            if access.think_us > 0:
                if no_cpu:
                    vnow += access.think_us
                else:
                    if vnow > env.now:
                        yield env.wake_at(vnow)
                    yield from self._compute(access.think_us)
                    vnow = env.now
            page = access.page
            write = access.write
            while True:
                if page in ept:
                    if not write:
                        # The overwhelmingly common case: a read of an
                        # already-mapped page costs nothing.
                        record = FaultRecord(NONE, page, vnow, 0.0)
                        break
                    kind = None
                elif page in pte:
                    kind = PRESENT
                    end = vnow + cost(params.present_fault_us, page, 1)
                elif uffd is not None and uffd.lookup(page) is not None:
                    kind = None
                else:
                    if (
                        vma_version != space.version
                        or not vma_start <= page < vma_end
                    ):
                        vma = space.resolve(page)
                        if vma is None:
                            raise SimulationError(
                                f"{handler.label}: access to unmapped "
                                f"page {page} (SIGSEGV)"
                            )
                        vma_version = space.version
                        vma_start = vma.start
                        vma_end = vma_start + vma.npages
                    backing = vma.backing
                    if backing is ANONYMOUS:
                        kind = ANON
                        end = vnow + cost(params.anon_fault_us, page, 2)
                        content = anon_contents.get(page, 0)
                    else:
                        file = backing.file
                        file_page = backing.file_start_page + (page - vma_start)
                        content = file.pages.get(file_page, 0)
                        # MINOR without I/O: a sparse hole, or a page
                        # resident in an unbounded cache.
                        if file.sparse and content == 0:
                            minor = True
                        elif cache.capacity_pages is None:
                            runs = cache._runs.get(file.name)
                            if runs is None:
                                minor = False
                            else:
                                index = bisect_right(runs.starts, file_page) - 1
                                minor = (
                                    index >= 0 and file_page < runs.ends[index]
                                )
                        else:
                            minor = False
                        if minor:
                            kind = MINOR
                            end = vnow + cost(params.minor_fault_us, page, 3)
                            if write:
                                end = end + params.cow_copy_us
                        else:
                            kind = None
                if kind is None:
                    fast = fast_access(
                        page,
                        write,
                        access.value,
                        vnow,
                        horizon.next_at if horizon is not None else INFINITY,
                    )
                    if fast is not None and fast is not HORIZON_BLOCKED:
                        record, vnow = fast
                        break
                elif horizon is None or end < horizon.next_at:
                    if kind is not PRESENT:
                        pte[page] = content
                    ept.add(page)
                    if write:
                        handler._apply_write(page, True, access.value)
                    record = FaultRecord(kind, page, vnow, end - vnow)
                    stats_append(record)
                    vnow = end
                    break
                else:
                    fast = HORIZON_BLOCKED
                if fast is HORIZON_BLOCKED and vnow > env.now:
                    # An eager install would land at or past the next
                    # observer read. Flush so the observer catches up
                    # (moving its horizon forward), then classify again.
                    yield env.wake_at(vnow)
                    continue
                if vnow > env.now:
                    yield env.wake_at(vnow)
                record = yield from handler.access(
                    page, write=write, value=access.value
                )
                vnow = env.now
                slow += 1
                break
            append(record)
        if tail_think_us > 0:
            if no_cpu:
                vnow += tail_think_us
            else:
                if vnow > env.now:
                    yield env.wake_at(vnow)
                yield from self._compute(tail_think_us)
                vnow = env.now
        if vnow > env.now:
            yield env.wake_at(vnow)
        self._count_paths(len(records), slow)
        return VCpuResult(started, env.now, records)

    def _compute(self, think_us: float) -> Generator[Event, Any, None]:
        """Burn CPU time, holding a host CPU slot if one is modelled."""
        if self.cpu is None:
            yield self.env.timeout(think_us)
            return
        # Yield inside the try: an interrupt while queueing for the
        # slot must withdraw the request (release handles both the
        # granted and still-waiting cases).
        request = self.cpu.request()
        try:
            yield request
            yield self.env.timeout(think_us)
        finally:
            self.cpu.release(request)
