"""Property-based tests for the fault fast-path batching.

The batched vCPU must be observationally equivalent to the per-event
path for *arbitrary* traces, not just the paper's workloads: same
fault records (bit-identical floats), same finish time, same final
address-space, page-cache and device state. Hypothesis drives random
mixes of file-backed reads/writes, anonymous touches, repeats and
think time through both paths and compares everything.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reap import make_reap_fault_handler
from repro.host import HostParams, PageCache
from repro.host.fault import FaultHandler
from repro.host.uffd import UserfaultfdManager
from repro.host.vma import AddressSpace
from repro.sim import Environment, Resource
from repro.storage import BlockDevice, DeviceSpec, FileStore
from repro.vm import create_snapshot
from repro.vm.vcpu import GuestAccess, ObservationHorizon, VCpu

HOST = HostParams()

#: File-backed pages [0, FILE_PAGES) then anonymous pages up to TOTAL.
FILE_PAGES = 48
TOTAL_PAGES = 96


def _device(env):
    return BlockDevice(
        env, DeviceSpec("d", 100.0, 10.0, 1589.0, 285_000, queue_depth=16)
    )


def _build_file_backed(file_pages, sparse, capacity_pages=None):
    env = Environment()
    store = FileStore(env, _device(env))
    cache = PageCache(env, capacity_pages=capacity_pages)
    file = store.create("mem", FILE_PAGES, pages=file_pages, sparse=sparse)
    space = AddressSpace(TOTAL_PAGES)
    space.mmap_file(0, FILE_PAGES, file, 0)
    space.mmap_anonymous(FILE_PAGES, TOTAL_PAGES - FILE_PAGES)
    handler = FaultHandler(env, HOST, cache, space)
    return env, handler, file.device


def _build_uffd(file_pages):
    env = Environment()
    store = FileStore(env, _device(env))
    cache = PageCache(env)
    snapshot = create_snapshot(store, "fn", FILE_PAGES, file_pages)
    space = AddressSpace(TOTAL_PAGES)
    uffd = UserfaultfdManager(env, HOST)
    uffd.register(
        0, FILE_PAGES, make_reap_fault_handler(env, HOST, cache, snapshot)
    )
    handler = FaultHandler(env, HOST, cache, space, uffd=uffd)
    handler.io_device = snapshot.memory_file.device
    return env, handler, snapshot.memory_file.device


def _observe(env, handler, device, result):
    """Everything the two paths must agree on."""
    space = handler.space
    return (
        result.started_us,
        result.finished_us,
        env.now,
        tuple(
            (
                r.kind,
                r.page,
                r.start_us,
                r.duration_us,
                r.block_requests,
                r.bytes_read,
            )
            for r in result.records
        ),
        sorted(space.pte.items()),
        sorted(space.anon_contents.items()),
        sorted(space.ept),
        sorted(handler.cache.resident_set()),
        device.stats.requests,
        device.stats.sequential_requests,
        device.stats.bytes_read,
        device.stats.busy_time_us,
        tuple(device.stats.per_request_sizes),
    )


def _trace(raw, page_limit):
    return [
        GuestAccess(
            page=page % page_limit,
            write=write,
            value=(page % page_limit) + 7 if write else None,
            think_us=think,
        )
        for page, write, think in raw
    ]


accesses = st.lists(
    st.tuples(
        st.integers(0, TOTAL_PAGES - 1),
        st.booleans(),
        st.sampled_from([0.0, 0.5, 3.25]),
    ),
    max_size=50,
)

file_contents = st.dictionaries(
    st.integers(0, FILE_PAGES - 1), st.integers(1, 9), max_size=FILE_PAGES
)


@settings(max_examples=60, deadline=None)
@given(file_contents, st.booleans(), accesses)
def test_batched_trace_matches_event_path(file_pages, sparse, raw):
    trace = _trace(raw, TOTAL_PAGES)
    seen = []
    for batch in (False, True):
        env, handler, device = _build_file_backed(file_pages, sparse)
        vcpu = VCpu(env, handler, batch_faults=batch)
        result = env.run(
            until=env.process(vcpu.run_trace(trace, tail_think_us=1.0))
        )
        seen.append(_observe(env, handler, device, result))
    assert seen[0] == seen[1]


@settings(max_examples=40, deadline=None)
@given(file_contents, accesses)
def test_batched_uffd_faults_match_event_path(file_pages, raw):
    # Every page is userfaultfd-registered (REAP's out-of-working-set
    # situation), exercising the synchronous delegation twin.
    trace = _trace(raw, FILE_PAGES)
    seen = []
    delegated = []
    for batch in (False, True):
        env, handler, device = _build_uffd(file_pages)
        vcpu = VCpu(env, handler, batch_faults=batch)
        result = env.run(
            until=env.process(vcpu.run_trace(trace, tail_think_us=1.0))
        )
        seen.append(_observe(env, handler, device, result))
        delegated.append(handler.uffd.delegated_faults)
    assert seen[0] == seen[1]
    assert delegated[0] == delegated[1]


def _observer(env, handler, horizon, readings, interval_us, count):
    """A mincore-recorder stand-in: publishes its next read instant on
    ``horizon`` before each sleep, then reads the state the fast path
    mutates eagerly (the installed-PTE and EPT counts, cache
    residency)."""
    space = handler.space
    for _ in range(count):
        horizon.next_at = env.now + interval_us
        yield env.timeout(interval_us)
        readings.append(
            (env.now, len(space.pte), len(space.ept), len(handler.cache))
        )
    horizon.next_at = float("inf")


@settings(max_examples=40, deadline=None)
@given(
    file_contents,
    st.booleans(),
    accesses,
    st.sampled_from([0.7071, 4.1231, 97.3313]),
)
def test_batched_trace_matches_event_path_under_an_observer(
    file_pages, sparse, raw, interval_us
):
    # The record-phase case: a concurrent observer moves the horizon
    # forward while the vCPU runs, so the batched path must flush
    # and classify again whenever an install would reach it.
    trace = _trace(raw, TOTAL_PAGES)
    seen = []
    for batch in (False, True):
        env, handler, device = _build_file_backed(file_pages, sparse)
        vcpu = VCpu(env, handler, batch_faults=batch)
        horizon = ObservationHorizon()
        vcpu.observer_horizon = horizon
        readings = []
        env.process(
            _observer(env, handler, horizon, readings, interval_us, 60)
        )
        proc = env.process(vcpu.run_trace(trace, tail_think_us=1.0))
        env.run()
        seen.append(
            (_observe(env, handler, device, proc.value), tuple(readings))
        )
    assert seen[0] == seen[1]


def _cpu_noise(env, cpu, period_us, hold_us, count):
    """Another tenant of the host CPU: grabs the slot every
    ``period_us`` for ``hold_us``."""
    yield env.timeout(0.3137)
    for _ in range(count):
        request = cpu.request()
        yield request
        yield env.timeout(hold_us)
        cpu.release(request)
        yield env.timeout(period_us)


@settings(max_examples=40, deadline=None)
@given(
    file_contents,
    st.booleans(),
    accesses,
    st.sampled_from([None, 2, 8]),
    st.booleans(),
)
def test_batched_trace_matches_event_path_with_bounded_cache_and_cpu(
    file_pages, sparse, raw, capacity, contended
):
    # A capacity-bounded cache (order-sensitive LRU: file pages go to
    # the event path) and a modelled host CPU (think time contends
    # for a slot, so the batch flushes before it).
    trace = _trace(raw, TOTAL_PAGES)
    seen = []
    for batch in (False, True):
        env, handler, device = _build_file_backed(
            file_pages, sparse, capacity_pages=capacity
        )
        cpu = Resource(env, capacity=1)
        if contended:
            env.process(_cpu_noise(env, cpu, 4.7113, 1.9319, 30))
        vcpu = VCpu(env, handler, cpu=cpu, batch_faults=batch)
        proc = env.process(vcpu.run_trace(trace, tail_think_us=1.0))
        env.run()
        seen.append(_observe(env, handler, device, proc.value))
    assert seen[0] == seen[1]
