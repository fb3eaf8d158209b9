"""Canned chaos scenarios and the ``repro chaos`` report.

Each scenario is a deterministic :class:`~repro.faults.FaultPlan`
builder plus the cluster-config overrides that make the failure mode
observable (device scenarios disable keep-alive so every start
actually touches the device; the EBS spike forces the shared tier).
``run_chaos`` runs the same dense trace twice — once fault-free and
unarmed, once under the plan with recovery — and the
:class:`ChaosReport` compares them: availability, goodput, retry
amplification, and the p50/p99/p99.9 tail against the no-fault run.

Everything is reproducible from ``(scenario, seed)`` alone: scenario
builders draw from their own ``random.Random(f"chaos|{name}|{seed}")``
stream, the simulation draws only from the environment seed, and the
report contains no wall-clock timestamps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.scheduler import (
    TIER_SHARED_EBS,
    ClusterConfig,
    ClusterSimulator,
)
from repro.faults.durability import DurabilityPolicy
from repro.faults.plan import (
    SCOPE_ALL,
    SCOPE_SHARED,
    DeviceFault,
    FaultPlan,
    HostCrash,
    SnapshotCorruption,
)
from repro.faults.recovery import DISABLED_RECOVERY, RecoveryPolicy
from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction

US_PER_SECOND = 1_000_000.0

#: Functions used by every scenario trace (distinct working sets).
SCENARIO_PROFILES = ("json", "pyaes")


@dataclass(frozen=True)
class ChaosScenario:
    """One named failure drill."""

    name: str
    description: str
    build_plan: Callable[[int, int, float], FaultPlan]
    #: ``ClusterConfig`` field overrides the scenario needs.
    config_overrides: Dict[str, Any] = field(default_factory=dict)


def _storm_plan(num_hosts: int, seed: int, duration_us: float) -> FaultPlan:
    """Crash a third of the fleet (at least one host) at staggered
    instants in the first half of the run; every host reboots."""
    rng = random.Random(f"chaos|host-crash-storm|{seed}")
    victims = max(1, num_hosts // 3)
    hosts = rng.sample(range(num_hosts), victims)
    crashes = []
    for host in sorted(hosts):
        at = rng.uniform(0.1, 0.5) * duration_us
        crashes.append(
            HostCrash(
                host=f"host{host}",
                at_us=at,
                reboot_after_us=rng.uniform(0.15, 0.3) * duration_us,
            )
        )
    return FaultPlan(host_crashes=crashes)


def _brownout_plan(
    num_hosts: int, seed: int, duration_us: float
) -> FaultPlan:
    """Every device collapses to a fraction of its throughput for the
    middle third of the run, with a small injected error rate."""
    rng = random.Random(f"chaos|slow-device-brownout|{seed}")
    start = rng.uniform(0.2, 0.35) * duration_us
    return FaultPlan(
        device_faults=[
            DeviceFault(
                scope=SCOPE_ALL,
                start_us=start,
                duration_us=duration_us / 3,
                latency_factor=rng.uniform(6.0, 10.0),
                bandwidth_factor=rng.uniform(0.1, 0.25),
                iops_factor=0.25,
                error_rate=0.002,
            )
        ]
    )


def _epidemic_plan(
    num_hosts: int, seed: int, duration_us: float
) -> FaultPlan:
    """Most hosts silently lose one function's snapshot artefact;
    detection happens at the next restore, which must re-record or
    fail over."""
    rng = random.Random(f"chaos|corrupted-snapshot-epidemic|{seed}")
    corruptions = []
    for host in range(num_hosts):
        if rng.random() < 0.75:
            corruptions.append(
                SnapshotCorruption(
                    host=f"host{host}",
                    function=f"f{rng.randrange(len(SCENARIO_PROFILES))}",
                    at_us=rng.uniform(0.05, 0.6) * duration_us,
                )
            )
    return FaultPlan(corruptions=corruptions)


def _ebs_spike_plan(
    num_hosts: int, seed: int, duration_us: float
) -> FaultPlan:
    """The shared snapshot volume's network path degrades: a latency
    spike plus transient request errors, hitting every host at once."""
    rng = random.Random(f"chaos|ebs-latency-spike|{seed}")
    start = rng.uniform(0.15, 0.3) * duration_us
    return FaultPlan(
        device_faults=[
            DeviceFault(
                scope=SCOPE_SHARED,
                start_us=start,
                duration_us=duration_us / 4,
                latency_factor=rng.uniform(10.0, 20.0),
                bandwidth_factor=0.5,
                error_rate=0.001,
            )
        ]
    )


def _bitrot_plan(
    num_hosts: int, seed: int, duration_us: float
) -> FaultPlan:
    """Sustained bit-rot on the shared snapshot volume: corruption
    waves keep landing on random (host, function) artefacts for the
    whole run, so detection has to work under load, not just once."""
    rng = random.Random(f"chaos|bitrot-storm|{seed}")
    waves = 6
    corruptions = []
    for wave in range(waves):
        at_frac = (wave + rng.uniform(0.1, 0.9)) / waves
        for host in range(num_hosts):
            if rng.random() < 0.6:
                corruptions.append(
                    SnapshotCorruption(
                        host=f"host{host}",
                        function=(
                            f"f{rng.randrange(len(SCENARIO_PROFILES))}"
                        ),
                        at_us=at_frac * duration_us,
                    )
                )
    return FaultPlan(corruptions=corruptions)


SCENARIOS: Dict[str, ChaosScenario] = {
    s.name: s
    for s in (
        ChaosScenario(
            name="host-crash-storm",
            description="a third of the fleet power-fails mid-run, "
            "then reboots cold",
            build_plan=_storm_plan,
        ),
        ChaosScenario(
            name="slow-device-brownout",
            description="every snapshot device collapses to a fraction "
            "of its throughput for a third of the run",
            build_plan=_brownout_plan,
            config_overrides={
                "assume_snapshots_exist": True,
                "keep_alive_ttl_us": 0.0,
            },
        ),
        ChaosScenario(
            name="corrupted-snapshot-epidemic",
            description="snapshot artefacts silently rot on most hosts; "
            "corruption is detected at restore time",
            build_plan=_epidemic_plan,
            config_overrides={
                "assume_snapshots_exist": True,
                "keep_alive_ttl_us": 0.0,
            },
        ),
        ChaosScenario(
            name="bitrot-storm",
            description="sustained bit-rot on the shared snapshot "
            "volume under load; every corrupted restore must be "
            "caught by verified restore or the scrubber",
            build_plan=_bitrot_plan,
            config_overrides={
                "snapshot_tier": TIER_SHARED_EBS,
                "assume_snapshots_exist": True,
                "keep_alive_ttl_us": 0.0,
                "durability": DurabilityPolicy(
                    enabled=True,
                    replicas=2,
                    scrub_interval_us=2_000_000.0,
                ),
            },
        ),
        ChaosScenario(
            name="ebs-latency-spike",
            description="the shared EBS snapshot volume's network path "
            "spikes in latency and error rate",
            build_plan=_ebs_spike_plan,
            config_overrides={
                "snapshot_tier": TIER_SHARED_EBS,
                "assume_snapshots_exist": True,
                "keep_alive_ttl_us": 0.0,
            },
        ),
    )
}

SCENARIO_NAMES = tuple(SCENARIOS)


def scenario_trace(
    arrivals: int, interarrival_us: float
) -> ArrivalTrace:
    """A dense deterministic trace: ``arrivals`` invocations spaced
    ``interarrival_us`` apart, round-robin over the scenario
    functions — dense enough that crashes abort in-flight work."""
    items = [
        Arrival(
            time_us=i * interarrival_us,
            function=f"f{i % len(SCENARIO_PROFILES)}",
        )
        for i in range(arrivals)
    ]
    return ArrivalTrace(
        arrivals=items, duration_us=arrivals * interarrival_us
    )


def scenario_fleet() -> List[FleetFunction]:
    return [
        FleetFunction(
            name=f"f{i}",
            profile_name=profile,
            mean_interarrival_us=US_PER_SECOND,
        )
        for i, profile in enumerate(SCENARIO_PROFILES)
    ]


@dataclass
class ChaosReport:
    """Outcome of one chaos drill, comparable across runs."""

    scenario: str
    seed: int
    num_hosts: int
    recovery_enabled: bool
    arrivals: int
    plan: FaultPlan
    availability: float
    goodput_per_s: float
    retry_amplification: float
    outcome_counts: Dict[str, int]
    #: Latency percentiles over successfully served invocations, us.
    p50_us: float
    p99_us: float
    p999_us: float
    #: The same percentiles from the fault-free baseline run.
    baseline_p50_us: float
    baseline_p99_us: float
    baseline_p999_us: float
    fault_summary: Dict[str, int]
    host_failures: Dict[str, int]
    #: Fraction of corruption encounters that were detected (verified
    #: restore or scrubber) rather than served silently; 1.0 when the
    #: drill produced no encounters at all.
    detection_rate: float = 1.0
    corruptions_detected: int = 0
    silent_corrupt_serves: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; deterministic for a given (seed, plan) —
        no wall-clock anywhere."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "num_hosts": self.num_hosts,
            "recovery_enabled": self.recovery_enabled,
            "arrivals": self.arrivals,
            "plan": self.plan.as_dict(),
            "availability": self.availability,
            "goodput_per_s": self.goodput_per_s,
            "retry_amplification": self.retry_amplification,
            "outcome_counts": dict(sorted(self.outcome_counts.items())),
            "latency_us": {
                "p50": self.p50_us,
                "p99": self.p99_us,
                "p99.9": self.p999_us,
            },
            "baseline_latency_us": {
                "p50": self.baseline_p50_us,
                "p99": self.baseline_p99_us,
                "p99.9": self.baseline_p999_us,
            },
            "fault_summary": dict(sorted(self.fault_summary.items())),
            "host_failures": dict(sorted(self.host_failures.items())),
            "detection_rate": self.detection_rate,
            "corruptions_detected": self.corruptions_detected,
            "silent_corrupt_serves": self.silent_corrupt_serves,
        }

    def render(self) -> str:
        from repro.metrics import render_table

        rows = [
            ["availability", f"{self.availability:.4f}"],
            ["goodput (inv/s)", f"{self.goodput_per_s:.3f}"],
            ["retry amplification", f"{self.retry_amplification:.3f}"],
        ]
        for outcome, count in sorted(self.outcome_counts.items()):
            rows.append([f"outcome: {outcome}", count])
        rows += [
            ["p50 (ms)", f"{self.p50_us / 1000:.2f}"],
            ["p99 (ms)", f"{self.p99_us / 1000:.2f}"],
            ["p99.9 (ms)", f"{self.p999_us / 1000:.2f}"],
            ["p99.9 no-fault (ms)", f"{self.baseline_p999_us / 1000:.2f}"],
        ]
        for name, value in sorted(self.fault_summary.items()):
            if value:
                rows.append([f"fault: {name}", value])
        if self.corruptions_detected or self.silent_corrupt_serves:
            rows.append(
                ["detection rate", f"{self.detection_rate:.4f}"]
            )
        return render_table(
            ["metric", "value"],
            rows,
            title=f"Chaos drill: {self.scenario} "
            f"({self.num_hosts} hosts, seed {self.seed}, recovery "
            f"{'on' if self.recovery_enabled else 'off'})",
        )


def run_chaos(
    scenario: str,
    num_hosts: int = 4,
    seed: int = 1,
    arrivals: int = 60,
    interarrival_us: float = 250_000.0,
    recovery: Optional[RecoveryPolicy] = None,
    causal=None,
    slo=None,
    flight=None,
) -> ChaosReport:
    """Run one chaos drill and its fault-free baseline.

    ``recovery=None`` uses the full self-healing policy; pass
    :data:`~repro.faults.DISABLED_RECOVERY` to measure how the
    cluster fares with every recovery feature off.

    ``causal`` / ``slo`` / ``flight`` attach the observability plane
    (causal tracer, SLO monitor, flight recorder) to the *faulted*
    run only — the baseline stays pristine so the comparison is
    fault-vs-no-fault, not instrumented-vs-not (instrumentation is
    zero-perturbation anyway; the harness gates that separately).
    """
    spec = SCENARIOS.get(scenario)
    if spec is None:
        raise ValueError(
            f"unknown chaos scenario {scenario!r}; "
            f"known: {', '.join(SCENARIO_NAMES)}"
        )
    if recovery is None:
        recovery = RecoveryPolicy.full()
    fleet = scenario_fleet()
    trace = scenario_trace(arrivals, interarrival_us)
    duration_us = trace.duration_us
    plan = spec.build_plan(num_hosts, seed, duration_us)

    base_config = ClusterConfig(
        num_hosts=num_hosts,
        seed=seed,
        **spec.config_overrides,
    )
    baseline = ClusterSimulator(fleet, base_config).run(trace)

    chaos_config = ClusterConfig(
        num_hosts=num_hosts,
        seed=seed,
        recovery=recovery,
        **spec.config_overrides,
    )
    simulator = ClusterSimulator(fleet, chaos_config)
    report = simulator.run(
        trace, fault_plan=plan, causal=causal, slo=slo, flight=flight
    )

    ok = len(report.ok_invocations())
    summary = simulator.injector.summary()
    detected = summary.get(
        "corruptions_detected_restore", 0
    ) + summary.get("corruptions_detected_scrub", 0)
    silent = summary.get("silent_corrupt_serves", 0)
    encounters = detected + silent
    return ChaosReport(
        scenario=scenario,
        seed=seed,
        num_hosts=num_hosts,
        recovery_enabled=recovery is not DISABLED_RECOVERY
        and bool(recovery.armed_features),
        arrivals=arrivals,
        plan=plan,
        availability=report.availability(),
        goodput_per_s=ok / (duration_us / US_PER_SECOND),
        retry_amplification=report.retry_amplification(),
        outcome_counts=report.outcome_counts(),
        p50_us=report.latency_percentile(50),
        p99_us=report.latency_percentile(99),
        p999_us=report.latency_percentile(99.9),
        baseline_p50_us=baseline.latency_percentile(50),
        baseline_p99_us=baseline.latency_percentile(99),
        baseline_p999_us=baseline.latency_percentile(99.9),
        fault_summary=summary,
        host_failures={
            host: stats.failures
            for host, stats in report.host_stats.items()
        },
        detection_rate=(
            detected / encounters if encounters else 1.0
        ),
        corruptions_detected=detected,
        silent_corrupt_serves=silent,
    )
