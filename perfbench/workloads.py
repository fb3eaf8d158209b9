"""The benchmark's four workloads.

Each workload runs *trials* (:meth:`trial`): a complete set-up, which
generates the inputs from the seed and builds every simulator object,
followed by the timed operations, driven closed-loop (the next call is
issued only after the previous one returns). Two trials with the same
seed must give identical simulated results; the runner checks that
they do.

Why these four (``BENCHMARK.json`` gives each a one-line reason):

* ``restore-cold`` pays the whole page-level restore path on every
  invocation and runs no cluster, fault or service code.
* ``fleet-warm`` is the unarmed cluster serving mostly warm starts:
  scheduler, keep-alive pool, placement, vCPU fast path and the sim
  kernel do the work, restores are rare.
* ``chaos-armed`` is the armed cluster: every start is a verified
  snapshot restore on the robust serve path under a seeded fault plan.
* ``sharded-chaos`` is the armed fleet on 8 hosts through the sharded
  window router and its worker processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.cluster import ClusterConfig, ClusterSimulator, ShardedClusterSimulator
from repro.cluster.scheduler import TIER_SHARED_EBS
from repro.core.policies import MAIN_POLICIES, Policy
from repro.experiments.common import fresh_platform
from repro.faults import DurabilityPolicy, FaultPlan, RecoveryPolicy
from repro.faults.plan import SCOPE_ALL, DeviceFault, HostCrash, SnapshotCorruption
from repro.fleet.scheduler import SERVED_OK, StartKind
from repro.fleet.workload import (
    ArrivalTrace,
    TraceArrivalSource,
    generate_arrivals,
    synthesize_fleet,
)
from repro.service.commands import AdvanceCommand, DrainCommand
from repro.service.core import ClusterService
from repro.workloads.base import INPUT_A, InputSpec
from repro.workloads.registry import VARIABLE_INPUT_FUNCTIONS, get_profile

US_PER_S = 1_000_000.0

#: Figure 8's input-size ratio range; seeded restore-cold inputs stay
#: inside it.
FIG8_RATIO_RANGE = (0.25, 4.0)


@dataclass
class Trial:
    """What one trial measured. Host times are seconds of host time;
    everything else is simulated and repeats exactly for one seed."""

    setup_s: float
    #: Host seconds of each timed operation.
    step_s: List[float]
    #: Host seconds of the whole timed part (steps plus any drain).
    timed_s: float
    #: Simulated invocations that reached an end state.
    invocations: int
    outcomes: Dict[str, int]
    #: Simulated end-to-end latency of each successfully served
    #: invocation, ms.
    latencies_ms: List[float]
    #: Digest of every simulated output of the trial.
    checksum: str
    #: Sum of simulated latencies, µs (the repo's usual checksum).
    latency_sum_us: float
    #: Deterministic work counters of the timed part, host prefixes
    #: folded together.
    counts: Dict[str, float]
    #: Counters at the end of the set-up (record phases, prep epoch).
    setup_counts: Dict[str, float]
    #: Output-check misses, one string each.
    misses: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def missed(self) -> int:
        """Arrivals that were shed or failed."""
        return self.invocations - len(self.latencies_ms)


_HOST_PREFIX = re.compile(r"^host\d+\.")


def fold_counters(pairs) -> Dict[str, float]:
    """Sum ``hostN.*`` counters over hosts and file the shared snapshot
    volume's device under ``device.*`` with the per-host devices."""
    out: Dict[str, float] = {}
    for name, value in pairs:
        if not isinstance(value, (int, float)):
            continue
        key = _HOST_PREFIX.sub("", name)
        if key.startswith("cluster.shared_device."):
            key = "device." + key[len("cluster.shared_device.") :]
        out[key] = out.get(key, 0) + value
    return out


def registry_counts(registry) -> Dict[str, float]:
    return fold_counters((name, inst.read()) for name, inst in registry.counters())


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def digest(doc: Any) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def accounting_misses(outcomes: Dict[str, int], arrivals: int) -> List[str]:
    """Every arrival must end in exactly one outcome."""
    if sum(outcomes.values()) != arrivals:
        return [
            f"accounting: outcomes {outcomes} sum to "
            f"{sum(outcomes.values())}, not the {arrivals} arrivals"
        ]
    return []


# -- restore-cold -------------------------------------------------------


class RestoreCold:
    """Every Figure 6 function under every main policy on one platform,
    page cache dropped before each invocation."""

    name = "restore-cold"
    #: Set-ups per untraced run at the least (``setup_s`` is their
    #: median). Two here: one trial already times about ten seconds.
    min_trials = 2
    #: Seeded passes after the Figure 6 A→B pass.
    seeded_passes = 1
    #: Seeded size ratios are the function's input-B ratio scaled by a
    #: log-uniform factor in this band (and clamped to Figure 8's
    #: range): every seed runs a similar amount of work, and the median
    #: and tail latencies move by a few percent between seeds.
    ratio_band = (0.95, 1.05)

    def __init__(self, functions=None):
        self.functions = tuple(functions or VARIABLE_INPUT_FUNCTIONS)

    def calls(self, seed: int) -> List[Tuple[str, Policy, InputSpec, bool]]:
        """(function, policy, test input, is a Figure 6 A→B cell)."""
        rng = random.Random(f"perfbench|{self.name}|{seed}")
        calls = []
        for fn in self.functions:
            spec = get_profile(fn).input_b()
            calls += [(fn, policy, spec, True) for policy in MAIN_POLICIES]
        lo, hi = (math.log(x) for x in self.ratio_band)
        for _ in range(self.seeded_passes):
            for fn in self.functions:
                base = get_profile(fn).input_b_ratio
                ratio = base * math.exp(rng.uniform(lo, hi))
                ratio = round(min(max(ratio, FIG8_RATIO_RANGE[0]), FIG8_RATIO_RANGE[1]), 4)
                # Content 1 is the record input's; anything else differs.
                spec = InputSpec(content_id=rng.randrange(2, 10_000), size_ratio=ratio)
                calls += [(fn, policy, spec, False) for policy in MAIN_POLICIES]
        return calls

    def trial(self, seed: int, tracer=None) -> Trial:
        started = perf_counter()
        calls = self.calls(seed)
        platform, handles = fresh_platform(functions=self.functions)
        for fn in self.functions:
            for policy in MAIN_POLICIES:
                platform.ensure_record(handles[fn], INPUT_A, policy)
        setup_s = perf_counter() - started
        if tracer is not None:
            tracer.close_phase(setup_s, "timed")
        before = registry_counts(platform.metrics)
        steps: List[float] = []
        results = []
        # ``drop_caches`` zeroes the device counters before every
        # invocation, so they are summed invocation by invocation.
        device: Dict[str, float] = {}
        timed_start = perf_counter()
        for fn, policy, spec, _ab in calls:
            t0 = perf_counter()
            result = platform.invoke(
                handles[fn], spec, policy, record_input=INPUT_A, drop_caches=True
            )
            steps.append(perf_counter() - t0)
            results.append(result)
            for key, value in registry_counts(platform.metrics).items():
                if key.startswith("device."):
                    device[key] = device.get(key, 0) + value
        timed_s = perf_counter() - timed_start
        if tracer is not None:
            tracer.close_phase(timed_s, "done")
        counts = delta(registry_counts(platform.metrics), before)
        counts.update(device)
        counts["loader.fetch_bytes"] = sum(r.fetch_bytes for r in results)
        counts["loader.fetch_time_us"] = sum(r.fetch_time_us for r in results)

        cells: Dict[Tuple[str, str], float] = {}
        rows = []
        for (fn, policy, spec, ab), r in zip(calls, results):
            rows.append([fn, policy.value, spec.content_id, spec.size_ratio, r.setup_us, r.invoke_us])
            if ab:
                cells[(fn, policy.value)] = r.total_ms
        misses = [
            f"fig6: FaaSnap {cells[(fn, 'faasnap')]:.2f} ms does not beat "
            f"Firecracker {cells[(fn, 'firecracker')]:.2f} ms on {fn} A->B"
            for fn in self.functions
            if not cells[(fn, "faasnap")] < cells[(fn, "firecracker")]
        ]
        latencies = [r.total_ms for r in results]
        n = len(results)
        return Trial(
            setup_s=setup_s,
            step_s=steps,
            timed_s=timed_s,
            invocations=n,
            outcomes={"ok": n},
            latencies_ms=latencies,
            checksum=digest(rows),
            latency_sum_us=sum(r.total_us for r in results),
            counts=counts,
            setup_counts=before,
            misses=misses,
            extra={
                "speedup_vs_firecracker": geomean_speedup(cells, self.functions, "firecracker"),
                "speedup_vs_reap": geomean_speedup(cells, self.functions, "reap"),
            },
        )


def geomean_speedup(cells, functions, baseline: str) -> float:
    logs = [math.log(cells[(fn, baseline)] / cells[(fn, "faasnap")]) for fn in functions]
    return math.exp(sum(logs) / len(logs))


# -- the cluster workloads ----------------------------------------------


def cluster_trial(report, trace, plan, setup_s, steps, timed_s, counts, setup_counts) -> Trial:
    """A cluster run's :class:`Trial`, with its output checks: every
    arrival accounted for once and, under a fault plan, no corrupted
    snapshot served silently."""
    counts.update({f"starts.{kind.value}": report.count(kind) for kind in StartKind})
    outcomes = report.outcome_counts()
    misses = accounting_misses(outcomes, len(trace.arrivals))
    silent = report.fault_summary.get("silent_corrupt_serves", 0)
    if plan is not None and silent:
        misses.append(f"durability: {silent} silent corrupt serve(s)")
    return Trial(
        setup_s=setup_s,
        step_s=steps,
        timed_s=timed_s,
        invocations=report.count(),
        outcomes=outcomes,
        latencies_ms=[s.latency_us / 1000.0 for s in report.served if s.outcome in SERVED_OK],
        checksum=digest([s.to_dict() for s in report.served]),
        latency_sum_us=sum(s.latency_us for s in report.served),
        counts=counts,
        setup_counts=setup_counts,
        misses=misses,
    )


class FleetWarm:
    """4 hosts, one heap, unarmed; keep-alive outlasts the trace."""

    name = "fleet-warm"
    min_trials = 3
    #: Picked so json functions draw most arrivals (85-87%): the median
    #: latency then sits well inside the json population for every
    #: arrival seed, instead of jumping between json and pyaes.
    fleet_seed = 2
    profiles = ("json", "json", "pyaes")
    hosts = 4
    functions = 4
    #: Arrivals per trial. A fixed count, rather than a fixed horizon,
    #: keeps the work of a trial nearly the same for every seed.
    arrivals = 450
    hot_interarrival_s = 1.0
    cold_interarrival_s = 3.0
    #: Virtual span of one timed ``advance`` command.
    step_ms = 1000.0
    #: The serving input's size ratio is drawn log-uniformly from this
    #: narrow band, so the simulated latencies move a little with the
    #: seed without changing the workload's character.
    input_ratio_band = (0.97, 1.03)

    def __init__(self, arrivals=None, functions=None):
        if arrivals is not None:
            self.arrivals = arrivals
        if functions is not None:
            self.functions = functions

    def _fleet(self, seed: int):
        # The fleet (functions, profiles, rates) is fixed; the seed
        # draws the arrival times and the test input, so each seed is
        # new traffic against the same fleet.
        fleet = synthesize_fleet(
            self.functions,
            seed=self.fleet_seed,
            profile_names=self.profiles,
            hot_interarrival_us=self.hot_interarrival_s * US_PER_S,
            cold_interarrival_us=self.cold_interarrival_s * US_PER_S,
        )
        # Draw Poisson arrivals over a horizon long enough to hold the
        # wanted count, then keep the first ``arrivals`` of them.
        rate = sum(1.0 / f.mean_interarrival_us for f in fleet)
        drawn = generate_arrivals(fleet, 3.0 * self.arrivals / rate, seed=seed)
        if len(drawn.arrivals) < self.arrivals:
            raise RuntimeError(f"only {len(drawn.arrivals)} arrivals drawn")
        kept = drawn.arrivals[: self.arrivals]
        return fleet, ArrivalTrace(arrivals=kept, duration_us=kept[-1].time_us)

    def _test_input(self, seed: int) -> InputSpec:
        rng = random.Random(f"perfbench|{self.name}|input|{seed}")
        return InputSpec(
            content_id=rng.randrange(2, 10_000),
            size_ratio=round(
                math.exp(rng.uniform(*(math.log(x) for x in self.input_ratio_band))), 4
            ),
        )

    def build(self, seed: int):
        """(fleet, trace, config, fault plan) for one seed."""
        fleet, trace = self._fleet(seed)
        config = ClusterConfig(
            num_hosts=self.hosts,
            placement="least-loaded",
            keep_alive_ttl_us=2 * trace.duration_us,
            test_input=self._test_input(seed),
            seed=seed,
        )
        return fleet, trace, config, None

    def trial(self, seed: int, tracer=None) -> Trial:
        started = perf_counter()
        fleet, trace, config, plan = self.build(seed)
        simulator = ClusterSimulator(fleet, config)
        service = ClusterService(
            simulator,
            arrival_source=TraceArrivalSource(trace),
            fault_plan=plan,
        )
        # A zero-length advance runs the lazy prep epoch (every record
        # phase) and pulls nothing: the prep counts as set-up.
        service.execute(AdvanceCommand(ms=0.0))
        setup_s = perf_counter() - started
        if tracer is not None:
            tracer.close_phase(setup_s, "timed")
        before = registry_counts(simulator.registry)
        steps: List[float] = []
        timed_start = perf_counter()
        for _ in range(math.ceil(trace.duration_us / (self.step_ms * 1000.0))):
            t0 = perf_counter()
            service.execute(AdvanceCommand(ms=self.step_ms))
            steps.append(perf_counter() - t0)
        service.execute(DrainCommand())
        timed_s = perf_counter() - timed_start
        if tracer is not None:
            tracer.close_phase(timed_s, "done")
        counts = delta(registry_counts(simulator.registry), before)
        return cluster_trial(service.report, trace, plan, setup_s, steps, timed_s, counts, before)


def chaos_plan(seed: int, hosts: int, fleet, duration_us: float) -> FaultPlan:
    """A device brownout, one host crash with reboot, and snapshot
    corruptions, placed from the seed. The brownout lasts a sixteenth
    of the trace: long enough to slow a few percent of the arrivals,
    short enough that ``sim_ms_tail`` ("at least 10 beyond") stays
    in the normal restores and does not jump between the brownout and
    normal populations from seed to seed."""
    rng = random.Random(f"perfbench|chaos-plan|{seed}")
    brownout_start = rng.uniform(0.2, 0.35) * duration_us
    crash_host = rng.randrange(hosts)
    corruptions = [
        SnapshotCorruption(
            host=f"host{rng.randrange(hosts)}",
            function=fleet[rng.randrange(len(fleet))].name,
            at_us=rng.uniform(0.05, 0.8) * duration_us,
        )
        for _ in range(3)
    ]
    return FaultPlan(
        device_faults=[
            DeviceFault(
                scope=SCOPE_ALL,
                start_us=brownout_start,
                duration_us=duration_us / 16,
                latency_factor=rng.uniform(6.0, 10.0),
                bandwidth_factor=rng.uniform(0.1, 0.25),
                iops_factor=0.25,
            )
        ],
        host_crashes=[
            HostCrash(
                host=f"host{crash_host}",
                at_us=rng.uniform(0.4, 0.6) * duration_us,
                reboot_after_us=rng.uniform(0.1, 0.2) * duration_us,
            )
        ],
        corruptions=corruptions,
    )


class ChaosArmed(FleetWarm):
    """The armed cluster: every start is a verified snapshot restore."""

    name = "chaos-armed"
    #: pyaes draws about 28% of arrivals: the median stays inside the
    #: normal json restores and the tail point inside the normal pyaes
    #: restores, clear of the brownout and crash outliers.
    fleet_seed = 4
    hosts = 4
    functions = 4
    #: With 240 arrivals the json/pyaes mix, a binomial draw per seed,
    #: moves a trial's host work much less between seeds than with
    #: 120; two trials then fill a run.
    arrivals = 240
    min_trials = 2
    hot_interarrival_s = 0.5
    cold_interarrival_s = 2.0
    step_ms = 250.0

    def build(self, seed: int):
        fleet, trace = self._fleet(seed)
        config = ClusterConfig(
            num_hosts=self.hosts,
            placement="least-loaded",
            keep_alive_ttl_us=0.0,
            snapshot_tier=TIER_SHARED_EBS,
            assume_snapshots_exist=True,
            recovery=RecoveryPolicy.full(),
            durability=DurabilityPolicy(
                enabled=True,
                replicas=2,
                scrub_interval_us=trace.duration_us / 8,
            ),
            test_input=self._test_input(seed),
            seed=seed,
        )
        plan = chaos_plan(seed, self.hosts, fleet, trace.duration_us)
        return fleet, trace, config, plan


class ShardedChaos(ChaosArmed):
    """The chaos-armed fleet and plan on 8 hosts through the sharded
    window router, as one ``run`` call."""

    name = "sharded-chaos"
    #: Its prep epoch (every host records) runs inside the timed run
    #: call, so fewer arrivals already fill a run.
    arrivals = 60
    hosts = 8
    shards = 2

    #: The set-up here (inputs and the simulator object; prep runs
    #: inside ``run``) takes about half a millisecond, so each trial
    #: does it this many times and reports the median.
    setup_repeats = 25

    def trial(self, seed: int, tracer=None, shards=None) -> Trial:
        started = perf_counter()
        setups = []
        for _ in range(self.setup_repeats):
            t0 = perf_counter()
            fleet, trace, config, plan = self.build(seed)
            simulator = ShardedClusterSimulator(
                fleet, config, shards=shards or self.shards
            )
            setups.append(perf_counter() - t0)
        setup_s = statistics.median(setups)
        if tracer is not None:
            tracer.close_phase(perf_counter() - started, "timed")
        t0 = perf_counter()
        report = simulator.run(trace, fault_plan=plan)
        timed_s = perf_counter() - t0
        if tracer is not None:
            tracer.close_phase(timed_s, "done")
        # Prep runs inside ``run`` on the sharded path: the merged
        # counters cover prep and serving together.
        counts = fold_counters(simulator.merged_metrics["counters"].items())
        return cluster_trial(report, trace, plan, setup_s, [timed_s], timed_s, counts, {})


WORKLOADS = {w.name: w for w in (RestoreCold, FleetWarm, ChaosArmed, ShardedChaos)}
