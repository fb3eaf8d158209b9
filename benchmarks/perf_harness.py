#!/usr/bin/env python3
"""Performance regression harness for the simulation kernel.

Runs a fixed, deterministic workload — a slice of the paper's Figure 1
and Figure 8 grids covering every restore policy and both the batching
fast path and the event-driven machinery — and reports:

* **events/sec** — heap events dispatched per wall-clock second, the
  kernel's raw throughput;
* **cells/sec** — measured invocations per wall-clock second, the
  end-to-end number an experiment run feels;
* **events** — total heap events dispatched, which is deterministic:
  a change here means simulated behaviour changed, not just speed.

Usage:

    python benchmarks/perf_harness.py              # full workload
    python benchmarks/perf_harness.py --smoke      # CI gate (~10 s)
    python benchmarks/perf_harness.py --smoke --update   # rebaseline
    python benchmarks/perf_harness.py --figures fig6 fig8   # time figures

``--smoke`` compares events/sec against the committed baseline
(``BENCH_core.json`` next to this file) and exits non-zero on a
regression beyond ``--threshold`` (default 30%, generous because CI
runners vary). The event *count* is checked exactly.

``--figures`` regenerates whole experiments and reports wall-clock per
experiment; with ``--update`` the timings are recorded in the
baseline's ``experiments`` section as an informational perf
trajectory (not gated — full figures are too slow for CI).

Sharded-cluster entries (PR 6):

* ``--sharded-smoke`` — CI-sized determinism gate: the same fleet
  trace at ``shards=1`` and ``shards=2`` must produce bit-identical
  invocation counts, latency checksums, and merged telemetry, and
  match the committed ``cluster_sharded.smoke`` baseline exactly.
  ``--report-out`` writes the fleet-report JSON artifact.
* ``--sharded-scale`` — the gated 64-host / 100k-invocation entry
  (minutes-to-hours; never run in CI). Exact-gates invocations and
  the latency checksum against ``cluster_sharded.scale`` (valid for
  any shard count — the checksum is shard-count-invariant), floors
  invocations/sec, and asserts the >= 3x shards=4 speedup when the
  box has >= 4 cores.
* ``--check`` — the full regression gate: ``--smoke`` plus the
  sharded parity smoke plus the observability smoke.

Observability entry (PR 9):

* ``--obs-smoke`` — byte-level gates for the observability plane:
  the cluster workload with causal tracing + SLO monitoring + the
  flight recorder all enabled must match the all-off run's
  invocation count and latency checksum exactly (zero
  perturbation), and an armed 4-host drill traced at ``shards=1``
  and ``shards=2`` must serialize to byte-identical causal trace
  documents (shard invariance).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.policies import MAIN_POLICIES, Policy  # noqa: E402
from repro.experiments.common import fresh_platform, measure  # noqa: E402
from repro.workloads.base import INPUT_A, InputSpec  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_core.json"

#: (function, size ratio) cells; every MAIN policy runs on each.
SMOKE_CELLS = [
    ("json", 1.0),
    ("json", 4.0),
    ("image", 0.5),
    ("chameleon", 2.0),
]

FULL_CELLS = SMOKE_CELLS + [
    ("pyaes", 1.0),
    ("compression", 2.0),
    ("matmul", 0.25),
    ("pagerank", 4.0),
]


def run_workload(cells) -> dict:
    """Run the workload on one fresh platform; return the metrics."""
    functions = tuple(dict.fromkeys(name for name, _ in cells))
    platform, handles = fresh_platform(functions=functions)
    started = time.perf_counter()
    measured = 0
    for name, ratio in cells:
        spec = InputSpec(content_id=9, size_ratio=ratio)
        for policy in MAIN_POLICIES:
            measure(platform, handles[name], policy, spec, INPUT_A)
            measured += 1
        measure(
            platform, handles[name], Policy.WARM, InputSpec(9, ratio), INPUT_A
        )
        measured += 1
    elapsed = time.perf_counter() - started
    events = platform.env.events_processed
    return {
        "events": events,
        "cells": measured,
        "wall_seconds": round(elapsed, 3),
        "events_per_sec": round(events / elapsed, 1),
        "cells_per_sec": round(measured / elapsed, 2),
    }


#: Cluster-throughput entry: a hot 8-function fleet served on 4
#: page-level hosts. ``invocations`` and the latency checksum are
#: deterministic (exact-gated); invocations/sec is the throughput.
CLUSTER_HOSTS = 4


def run_cluster_workload(
    sampler_interval_us=None,
    fault_plan=None,
    observability=False,
    durability=None,
) -> dict:
    """Serve a dense fleet trace on the multi-host cluster scheduler.

    ``sampler_interval_us`` turns on the telemetry gauge sampler; the
    smoke gate runs the workload with and without it and requires
    identical invocation counts and latency checksums (the
    zero-perturbation guard). ``fault_plan`` arms the fault injector;
    the smoke gate passes an *empty* plan and requires the same
    bit-identical results — an injector with nothing to inject is
    inert.
    ``observability`` attaches the full PR-9 plane — causal tracer,
    SLO monitor, flight recorder — and extends the same contract:
    everything on must still be bit-identical to everything off.
    ``durability`` passes a :class:`DurabilityPolicy`; the durability
    smoke gate requires a disabled policy to be bit-identical to the
    default (no policy at all).
    """
    from repro.cluster import ClusterConfig, ClusterSimulator
    from repro.fleet.workload import generate_arrivals, synthesize_fleet

    fleet = synthesize_fleet(
        8,
        seed=7,
        profile_names=("json", "pyaes"),
        hot_interarrival_us=5_000_000.0,
        cold_interarrival_us=60_000_000.0,
    )
    trace = generate_arrivals(fleet, duration_us=120_000_000.0, seed=7)
    config = ClusterConfig(
        num_hosts=CLUSTER_HOSTS,
        placement="least-loaded",
        keep_alive_ttl_us=30_000_000.0,
        **({"durability": durability} if durability is not None else {}),
    )
    causal = slo = flight = None
    if observability:
        from repro.metrics.causal import CausalTracer
        from repro.metrics.flight import FlightRecorder
        from repro.metrics.slo import SloMonitor

        causal = CausalTracer()
        slo = SloMonitor.default()
        flight = FlightRecorder()
    started = time.perf_counter()
    report = ClusterSimulator(fleet, config).run(
        trace,
        sampler_interval_us=sampler_interval_us,
        fault_plan=fault_plan,
        causal=causal,
        slo=slo,
        flight=flight,
    )
    elapsed = time.perf_counter() - started
    out = {
        "hosts": CLUSTER_HOSTS,
        "invocations": report.count(),
        "latency_checksum_us": round(
            sum(s.latency_us for s in report.served), 3
        ),
        "wall_seconds": round(elapsed, 3),
        "invocations_per_sec": round(report.count() / elapsed, 2),
    }
    if observability:
        out["causal_events"] = len(causal.all_events())
        out["slo_alerts"] = len(slo.alerts)
        out["flight_recorded"] = flight.recorded
    return out


#: Restore-bookkeeping hot-path microbench (the ROADMAP's
#: ~40 ms/invocation flag): one host, one FAASNAP function, page
#: cache dropped before every invocation so each one pays the full
#: page-level restore path — mapping-plan construction, loader
#: chunking, pending-read tracking, fault-record absorption.
HOTPATH_FUNCTION = "json"
HOTPATH_INVOCATIONS = 30


def run_hotpath_workload(invocations: int = HOTPATH_INVOCATIONS) -> dict:
    """Measure the cold FAASNAP restore path in wall-clock ms/invocation."""
    from repro.core.host import Host
    from repro.sim import Environment
    from repro.workloads import get_profile

    env = Environment(seed=7)
    host = Host(env)
    profile = get_profile(HOTPATH_FUNCTION)
    box = {}

    def record():
        box["artifacts"] = yield from host.record_process(
            profile, INPUT_A, Policy.FAASNAP
        )

    env.run(until=env.process(record()))
    artifacts = box["artifacts"]
    test_input = InputSpec(content_id=3, size_ratio=1.0)
    started = time.perf_counter()
    for _ in range(invocations):
        host.drop_function_caches(artifacts)
        env.run(
            until=env.process(
                host.invocation(artifacts, test_input, Policy.FAASNAP)
            )
        )
    elapsed = time.perf_counter() - started
    return {
        "function": HOTPATH_FUNCTION,
        "policy": Policy.FAASNAP.value,
        "invocations": invocations,
        "ms_per_invocation": round(elapsed * 1000.0 / invocations, 2),
    }


#: The sharded-cluster entries. ``smoke`` is CI-sized: the
#: ``cluster-shard-smoke`` job runs it at shards=1 and shards=2 and
#: requires bit-identical invocation counts and latency checksums
#: (the cross-shard determinism contract), plus exact agreement with
#: the committed baseline. ``scale`` is the ISSUE's 64-host /
#: 100k-invocation target — far too slow for CI, gated behind
#: ``--sharded-scale``. Its latency checksum is shard-count-invariant
#: by the determinism contract, so one baseline gates every shard
#: count.
SHARDED_SMOKE = {
    "hosts": 8,
    "functions": 8,
    "shards": 2,
    "seed": 7,
    "duration_us": 60_000_000.0,
    "hot_interarrival_us": 2_000_000.0,
    "cold_interarrival_us": 60_000_000.0,
}

SHARDED_SCALE = {
    "hosts": 64,
    "functions": 16,
    "shards": 4,
    "seed": 42,
    "duration_us": 540_000_000.0,  # ~100k arrivals at this density
    "hot_interarrival_us": 20_000.0,
    "cold_interarrival_us": 1_000_000.0,
}

#: shards=4 must beat shards=1 by this factor — only meaningful (and
#: only asserted) when the box actually has >= 4 cores to run the
#: shard workers on.
SHARDED_SPEEDUP_FLOOR = 3.0


def run_sharded_cluster_workload(entry: dict, shards: int) -> dict:
    """Serve one sharded-cluster entry and return its metrics.

    The workload is fully determined by ``entry`` — ``shards`` only
    picks the execution topology, so invocations and the latency
    checksum must not depend on it.
    """
    from repro.cluster import ClusterConfig, ShardedClusterSimulator
    from repro.fleet.workload import generate_arrivals, synthesize_fleet

    fleet = synthesize_fleet(
        entry["functions"],
        seed=entry["seed"],
        profile_names=("json", "pyaes"),
        hot_interarrival_us=entry["hot_interarrival_us"],
        cold_interarrival_us=entry["cold_interarrival_us"],
    )
    trace = generate_arrivals(
        fleet, duration_us=entry["duration_us"], seed=entry["seed"]
    )
    config = ClusterConfig(
        num_hosts=entry["hosts"],
        placement="least-loaded",
        keep_alive_ttl_us=30_000_000.0,
    )
    started = time.perf_counter()
    simulator = ShardedClusterSimulator(fleet, config, shards=shards)
    report = simulator.run(trace)
    elapsed = time.perf_counter() - started
    return {
        "hosts": entry["hosts"],
        "shards": simulator.shards,
        "windows": simulator.windows_run,
        "invocations": report.count(),
        "latency_checksum_us": round(
            sum(s.latency_us for s in report.served), 3
        ),
        "wall_seconds": round(elapsed, 3),
        "invocations_per_sec": round(report.count() / elapsed, 2),
        "merged_metrics": simulator.merged_metrics,
    }


def _strip(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k != "merged_metrics"}


def check_sharded_smoke(report_out=None, baseline=None) -> int:
    """CI gate: shards=1 vs shards=2 parity on the smoke entry."""
    status = 0
    single = run_sharded_cluster_workload(SHARDED_SMOKE, shards=1)
    sharded = run_sharded_cluster_workload(
        SHARDED_SMOKE, shards=SHARDED_SMOKE["shards"]
    )
    for key, value in _strip(sharded).items():
        print(f"{'sharded.' + key:>26}: {value}")
    for exact_key in ("invocations", "latency_checksum_us"):
        if single[exact_key] != sharded[exact_key]:
            print(
                f"FAIL: sharded {exact_key} {sharded[exact_key]} != "
                f"single-shard {single[exact_key]} — the cross-shard "
                "merge is not deterministic",
                file=sys.stderr,
            )
            status = 1
    if single["merged_metrics"] != sharded["merged_metrics"]:
        print(
            "FAIL: merged telemetry differs between shards=1 and "
            f"shards={sharded['shards']}",
            file=sys.stderr,
        )
        status = 1
    smoke_baseline = (baseline or {}).get("smoke")
    if smoke_baseline is not None:
        for exact_key in ("invocations", "latency_checksum_us"):
            if sharded[exact_key] != smoke_baseline[exact_key]:
                print(
                    f"FAIL: sharded smoke {exact_key} "
                    f"{sharded[exact_key]} != baseline "
                    f"{smoke_baseline[exact_key]} — sharded cluster "
                    "behaviour changed",
                    file=sys.stderr,
                )
                status = 1
    if report_out is not None:
        artifact = {
            "entry": SHARDED_SMOKE,
            "single": _strip(single),
            "sharded": _strip(sharded),
            "parity": status == 0,
            "merged_metrics": sharded["merged_metrics"],
        }
        Path(report_out).write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"fleet report written to {report_out}")
    if status == 0:
        print(
            f"OK: sharded smoke parity — shards=1 and "
            f"shards={sharded['shards']} agree on "
            f"{sharded['invocations']} invocations, checksum "
            f"{sharded['latency_checksum_us']}, merged telemetry equal"
        )
    return status


def check_sharded_scale(shards, threshold, baseline=None) -> tuple:
    """The gated 64-host / 100k-invocation entry."""
    import os

    status = 0
    metrics = run_sharded_cluster_workload(SHARDED_SCALE, shards=shards)
    for key, value in _strip(metrics).items():
        print(f"{'sharded_scale.' + key:>30}: {value}")
    scale_baseline = (baseline or {}).get("scale")
    if scale_baseline is not None:
        # The checksum is shard-count-invariant, so these gates hold
        # for whatever --shards was requested.
        for exact_key in ("invocations", "latency_checksum_us"):
            if metrics[exact_key] != scale_baseline[exact_key]:
                print(
                    f"FAIL: sharded scale {exact_key} "
                    f"{metrics[exact_key]} != baseline "
                    f"{scale_baseline[exact_key]}",
                    file=sys.stderr,
                )
                status = 1
        floor = scale_baseline["invocations_per_sec"] * (1.0 - threshold)
        if metrics["invocations_per_sec"] < floor:
            print(
                f"FAIL: {metrics['invocations_per_sec']:.2f} sharded "
                f"invocations/sec is below {floor:.2f} (baseline "
                f"{scale_baseline['invocations_per_sec']:.2f} "
                f"- {threshold:.0%})",
                file=sys.stderr,
            )
            status = 1
    cores = os.cpu_count() or 1
    if shards > 1 and cores >= shards:
        single = run_sharded_cluster_workload(SHARDED_SCALE, shards=1)
        speedup = (
            metrics["invocations_per_sec"]
            / single["invocations_per_sec"]
        )
        print(f"{'sharded_scale.speedup':>30}: {speedup:.2f}x")
        if speedup < SHARDED_SPEEDUP_FLOOR:
            print(
                f"FAIL: shards={shards} is only {speedup:.2f}x the "
                f"single-shard run (floor {SHARDED_SPEEDUP_FLOOR}x)",
                file=sys.stderr,
            )
            status = 1
    elif shards > 1:
        print(
            f"note: {cores} core(s) < {shards} shards — skipping the "
            f"{SHARDED_SPEEDUP_FLOOR}x speedup assertion (it measures "
            "parallel hardware, which this box lacks)"
        )
    return status, metrics


#: The observability smoke: an armed 4-host fleet slice dense enough
#: to exercise crash, retry, and corruption events in the causal
#: trace. Small — it gates byte-identity, not throughput.
OBS_SMOKE_ARRIVALS = 60
OBS_SMOKE_SHARDS = 2


def _obs_smoke_inputs():
    from repro.cluster import ClusterConfig
    from repro.faults import FaultPlan, RecoveryPolicy
    from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction

    fleet = [
        FleetFunction(
            name=f"f{i}", profile_name="json", mean_interarrival_us=1e6
        )
        for i in range(3)
    ]
    arrivals = [
        Arrival(time_us=i * 120_000.0, function=f"f{i % 3}")
        for i in range(OBS_SMOKE_ARRIVALS)
    ]
    trace = ArrivalTrace(
        arrivals=arrivals, duration_us=OBS_SMOKE_ARRIVALS * 120_000.0
    )
    plan = FaultPlan.from_dict(
        {
            "device_faults": [
                {
                    "scope": "*",
                    "start_us": 500_000.0,
                    "duration_us": 3_000_000.0,
                    "latency_factor": 40.0,
                    "error_rate": 0.6,
                }
            ],
            "host_crashes": [
                {
                    "host": "host1",
                    "at_us": 1_000_000.0,
                    "reboot_after_us": 2_000_000.0,
                }
            ],
            "corruptions": [
                {"host": "host2", "function": "f0", "at_us": 200_000.0}
            ],
        }
    )
    config = ClusterConfig(
        num_hosts=4, seed=7, recovery=RecoveryPolicy.full()
    )
    return fleet, trace, plan, config


def check_obs_smoke() -> int:
    """CI gate for the PR-9 observability plane.

    Two byte-level contracts:

    1. **Zero perturbation** — the cluster smoke workload with causal
       tracing + SLO monitoring + flight recording all on must match
       the all-off run's invocation count and latency checksum
       exactly.
    2. **Shard invariance** — an armed 4-host run (device brownout,
       host crash + reboot, latent corruption) traced at ``shards=1``
       and ``shards=2`` must serialize to byte-identical causal trace
       documents.
    """
    from repro.cluster import ShardedClusterSimulator
    from repro.metrics.causal import CausalTracer

    status = 0

    plain = run_cluster_workload()
    instrumented = run_cluster_workload(observability=True)
    for exact_key in ("invocations", "latency_checksum_us"):
        if instrumented[exact_key] != plain[exact_key]:
            print(
                f"FAIL: observability-on cluster {exact_key} "
                f"{instrumented[exact_key]} != observability-off "
                f"{plain[exact_key]} — the observability plane "
                "perturbed the simulation",
                file=sys.stderr,
            )
            status = 1
    print(
        f"{'obs.zero_perturbation':>26}: "
        f"{'FAIL' if status else 'ok'} "
        f"(checksum {plain['latency_checksum_us']}, "
        f"{instrumented['causal_events']} causal events, "
        f"{instrumented['slo_alerts']} alerts, "
        f"{instrumented['flight_recorded']} flight records)"
    )

    docs = {}
    for shards in (1, OBS_SMOKE_SHARDS):
        fleet, trace, plan, config = _obs_smoke_inputs()
        causal = CausalTracer()
        simulator = ShardedClusterSimulator(fleet, config, shards=shards)
        report = simulator.run(trace, fault_plan=plan, causal=causal)
        docs[shards] = causal.to_json()
        print(
            f"{'obs.sharded[%d].served' % shards:>26}: {report.count()} "
            f"({len(causal.all_events())} events)"
        )
    if docs[1] != docs[OBS_SMOKE_SHARDS]:
        print(
            f"FAIL: causal trace document differs between shards=1 and "
            f"shards={OBS_SMOKE_SHARDS} — the cross-shard causal merge "
            "is not deterministic",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(
            "OK: observability smoke — all-on run bit-identical to "
            f"all-off, causal document byte-identical across "
            f"shards=1/{OBS_SMOKE_SHARDS} "
            f"({len(docs[1])} bytes)"
        )
    return status


def _durability_smoke_inputs():
    from repro.cluster import ClusterConfig
    from repro.faults import (
        DurabilityPolicy,
        FaultPlan,
        RecoveryPolicy,
    )
    from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction

    fleet = [
        FleetFunction(
            name=f"f{i}", profile_name="json", mean_interarrival_us=1e6
        )
        for i in range(3)
    ]
    arrivals = [
        Arrival(time_us=i * 120_000.0, function=f"f{i % 3}")
        for i in range(OBS_SMOKE_ARRIVALS)
    ]
    trace = ArrivalTrace(
        arrivals=arrivals, duration_us=OBS_SMOKE_ARRIVALS * 120_000.0
    )
    plan = FaultPlan.from_dict(
        {
            "corruptions": [
                {"host": f"host{h}", "function": f"f{f}", "at_us": at}
                for h, f, at in (
                    (0, 0, 200_000.0),
                    (1, 1, 900_000.0),
                    (2, 2, 1_600_000.0),
                    (3, 0, 2_400_000.0),
                    (0, 1, 3_800_000.0),
                    (2, 0, 5_200_000.0),
                )
            ]
        }
    )
    config = ClusterConfig(
        num_hosts=4,
        seed=7,
        recovery=RecoveryPolicy.full(),
        durability=DurabilityPolicy(
            enabled=True,
            replicas=2,
            scrub_interval_us=1_500_000.0,
        ),
    )
    return fleet, trace, plan, config


def check_durability_smoke() -> int:
    """CI gate for the PR-10 durability subsystem.

    Two byte-level contracts:

    1. **Disabled means gone** — the cluster smoke workload with an
       explicit disabled :class:`DurabilityPolicy` must match the
       no-policy run's invocation count and latency checksum exactly
       (a disabled plane adds nothing to the run).
    2. **Shard invariance** — a corruption-heavy 4-host run with
       durability (verified restores, 2 replicas, background scrub)
       at ``shards=1`` and ``shards=2`` must produce byte-identical
       detection/repair event streams and identical detection
       counters.
    """
    from repro.cluster import ShardedClusterSimulator
    from repro.faults import DurabilityPolicy

    status = 0

    plain = run_cluster_workload()
    disabled = run_cluster_workload(durability=DurabilityPolicy())
    for exact_key in ("invocations", "latency_checksum_us"):
        if disabled[exact_key] != plain[exact_key]:
            print(
                f"FAIL: disabled-durability cluster {exact_key} "
                f"{disabled[exact_key]} != no-policy "
                f"{plain[exact_key]} — verification-off is not "
                "bit-identical to the no-policy run",
                file=sys.stderr,
            )
            status = 1
    print(
        f"{'durability.disabled_parity':>30}: "
        f"{'FAIL' if status else 'ok'} "
        f"(checksum {plain['latency_checksum_us']})"
    )

    streams = {}
    summaries = {}
    for shards in (1, OBS_SMOKE_SHARDS):
        fleet, trace, plan, config = _durability_smoke_inputs()
        simulator = ShardedClusterSimulator(fleet, config, shards=shards)
        report = simulator.run(trace, fault_plan=plan)
        streams[shards] = json.dumps(
            simulator.durability_events, sort_keys=True
        )
        summaries[shards] = {
            "invocations": report.count(),
            "latency_checksum_us": round(
                sum(s.latency_us for s in report.served), 3
            ),
            "detected": report.fault_summary.get(
                "corruptions_detected", 0
            ),
            "silent": report.fault_summary.get(
                "silent_corrupt_serves", 0
            ),
        }
        print(
            f"{'durability.sharded[%d]' % shards:>30}: "
            f"{report.count()} served, "
            f"{summaries[shards]['detected']} detected, "
            f"{len(simulator.durability_events)} durability events"
        )
    if streams[1] != streams[OBS_SMOKE_SHARDS]:
        print(
            f"FAIL: durability event stream differs between shards=1 "
            f"and shards={OBS_SMOKE_SHARDS} — the detection/repair "
            "plane is not shard-invariant",
            file=sys.stderr,
        )
        status = 1
    if summaries[1] != summaries[OBS_SMOKE_SHARDS]:
        print(
            f"FAIL: durability summaries differ between shards=1 and "
            f"shards={OBS_SMOKE_SHARDS}: {summaries[1]} != "
            f"{summaries[OBS_SMOKE_SHARDS]}",
            file=sys.stderr,
        )
        status = 1
    if summaries[1]["silent"]:
        print(
            f"FAIL: {summaries[1]['silent']} corrupted restore(s) "
            "served silently with verification on",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(
            "OK: durability smoke — disabled policy bit-identical to "
            "no policy, detection/repair stream byte-identical across "
            f"shards=1/{OBS_SMOKE_SHARDS} "
            f"({len(streams[1])} bytes, "
            f"{summaries[1]['detected']} detected, 0 silent)"
        )
    return status


def time_figures(names) -> dict:
    """Regenerate whole experiments; wall-clock seconds per id."""
    from repro.experiments import ALL_EXPERIMENTS

    timings = {}
    for name in names:
        module = ALL_EXPERIMENTS[name]
        started = time.perf_counter()
        module.run()
        timings[name] = round(time.perf_counter() - started, 2)
        print(f"{name:>16}: {timings[name]}s")
    return timings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed workload, gated against BENCH_core.json",
    )
    parser.add_argument(
        "--figures",
        nargs="*",
        metavar="ID",
        help="also regenerate these experiments (default fig6 fig8) "
        "and report wall-clock per experiment",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the measured numbers to BENCH_core.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed events/sec regression fraction (default 0.30)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="full regression gate: --smoke plus the sharded-cluster "
        "parity smoke against the cluster_sharded baseline",
    )
    parser.add_argument(
        "--sharded-smoke",
        action="store_true",
        help="only the sharded-cluster parity smoke (shards=1 vs 2, "
        "bit-identical checksums and merged telemetry)",
    )
    parser.add_argument(
        "--obs-smoke",
        action="store_true",
        help="observability gate: all-on (causal+slo+flight) run must "
        "be bit-identical to all-off, and the causal trace document "
        "byte-identical across shard counts",
    )
    parser.add_argument(
        "--durability-smoke",
        action="store_true",
        help="durability gate: a disabled DurabilityPolicy must be "
        "bit-identical to no policy, and the detection/repair event "
        "stream byte-identical across shard counts",
    )
    parser.add_argument(
        "--sharded-scale",
        action="store_true",
        help="the gated 64-host / 100k-invocation cluster_sharded "
        "entry (slow; gated against BENCH_core.json)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=SHARDED_SCALE["shards"],
        help="shard count for --sharded-scale (default "
        f"{SHARDED_SCALE['shards']})",
    )
    parser.add_argument(
        "--report-out",
        metavar="PATH",
        help="with --sharded-smoke/--check: write the fleet-report "
        "JSON artifact here",
    )
    parser.add_argument(
        "--hotpath",
        action="store_true",
        help="restore-bookkeeping hot-path microbench (cold FAASNAP "
        "restores, ms/invocation); with --update records the number "
        "in the cluster_hotpath baseline entry",
    )
    args = parser.parse_args()

    if args.hotpath:
        metrics = run_hotpath_workload()
        for key, value in metrics.items():
            print(f"{'hotpath.' + key:>28}: {value}")
        full = (
            json.loads(BASELINE_PATH.read_text())
            if BASELINE_PATH.exists()
            else {}
        )
        entry = full.get("cluster_hotpath")
        if args.update:
            recorded = dict(metrics)
            if entry is not None and "before_ms_per_invocation" in entry:
                recorded["before_ms_per_invocation"] = entry[
                    "before_ms_per_invocation"
                ]
            full["cluster_hotpath"] = recorded
            BASELINE_PATH.write_text(json.dumps(full, indent=2) + "\n")
            print(f"cluster_hotpath baseline written to {BASELINE_PATH}")
            return 0
        if entry is not None:
            ceiling = entry["ms_per_invocation"] * (1.0 + args.threshold)
            if metrics["ms_per_invocation"] > ceiling:
                print(
                    f"FAIL: {metrics['ms_per_invocation']:.2f} ms/invocation "
                    f"is above {ceiling:.2f} (baseline "
                    f"{entry['ms_per_invocation']:.2f} + "
                    f"{args.threshold:.0%})",
                    file=sys.stderr,
                )
                return 1
            print(
                f"OK: hot path at {metrics['ms_per_invocation']:.2f} "
                f"ms/invocation (baseline "
                f"{entry['ms_per_invocation']:.2f})"
            )
        return 0

    sharded_baseline = None
    if BASELINE_PATH.exists():
        sharded_baseline = json.loads(BASELINE_PATH.read_text()).get(
            "cluster_sharded"
        )

    if args.sharded_smoke:
        return check_sharded_smoke(
            report_out=args.report_out, baseline=sharded_baseline
        )

    if args.obs_smoke:
        return check_obs_smoke()

    if args.durability_smoke:
        return check_durability_smoke()

    if args.sharded_scale:
        status, metrics = check_sharded_scale(
            args.shards, args.threshold, baseline=sharded_baseline
        )
        if args.update:
            full = (
                json.loads(BASELINE_PATH.read_text())
                if BASELINE_PATH.exists()
                else {}
            )
            section = full.setdefault("cluster_sharded", {})
            section["scale"] = _strip(metrics)
            section["scale"]["workload"] = SHARDED_SCALE
            section["speedup_floor"] = SHARDED_SPEEDUP_FLOOR
            BASELINE_PATH.write_text(json.dumps(full, indent=2) + "\n")
            print(f"cluster_sharded scale baseline written to {BASELINE_PATH}")
            return 0
        return status

    if args.check:
        args.smoke = True

    cells = SMOKE_CELLS if args.smoke else FULL_CELLS
    metrics = run_workload(cells)
    for key, value in metrics.items():
        print(f"{key:>16}: {value}")
    cluster_metrics = run_cluster_workload()
    for key, value in cluster_metrics.items():
        print(f"{'cluster.' + key:>26}: {value}")

    figure_timings = None
    if args.figures is not None:
        figure_timings = time_figures(args.figures or ["fig6", "fig8"])

    if args.update:
        baseline = {
            "smoke": metrics if args.smoke else run_workload(SMOKE_CELLS),
            "cluster": cluster_metrics,
        }
        if figure_timings is not None:
            baseline["experiments"] = {
                "wall_seconds": figure_timings,
                "note": "informational trajectory, not CI-gated",
            }
        elif BASELINE_PATH.exists():
            previous = json.loads(BASELINE_PATH.read_text())
            if "experiments" in previous:
                baseline["experiments"] = previous["experiments"]
        if BASELINE_PATH.exists():
            previous = json.loads(BASELINE_PATH.read_text())
            if "cluster_sharded" in previous:
                baseline["cluster_sharded"] = previous["cluster_sharded"]
        sharded_smoke = run_sharded_cluster_workload(
            SHARDED_SMOKE, shards=SHARDED_SMOKE["shards"]
        )
        baseline.setdefault("cluster_sharded", {})["smoke"] = _strip(
            sharded_smoke
        )
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not args.smoke:
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update", file=sys.stderr)
        return 2
    full_baseline = json.loads(BASELINE_PATH.read_text())
    baseline = full_baseline["smoke"]

    status = 0
    if metrics["events"] != baseline["events"]:
        print(
            f"FAIL: dispatched {metrics['events']} heap events, baseline "
            f"{baseline['events']} — simulated behaviour changed",
            file=sys.stderr,
        )
        status = 1
    floor = baseline["events_per_sec"] * (1.0 - args.threshold)
    if metrics["events_per_sec"] < floor:
        print(
            f"FAIL: {metrics['events_per_sec']:.0f} events/sec is below "
            f"{floor:.0f} (baseline {baseline['events_per_sec']:.0f} "
            f"- {args.threshold:.0%})",
            file=sys.stderr,
        )
        status = 1
    cluster_baseline = full_baseline.get("cluster")
    if cluster_baseline is None:
        print(
            "no cluster baseline in BENCH_core.json; run with --update",
            file=sys.stderr,
        )
        status = 1
    else:
        for exact_key in ("invocations", "latency_checksum_us"):
            if cluster_metrics[exact_key] != cluster_baseline[exact_key]:
                print(
                    f"FAIL: cluster {exact_key} {cluster_metrics[exact_key]} "
                    f"!= baseline {cluster_baseline[exact_key]} — cluster "
                    "behaviour changed",
                    file=sys.stderr,
                )
                status = 1
        cluster_floor = cluster_baseline["invocations_per_sec"] * (
            1.0 - args.threshold
        )
        if cluster_metrics["invocations_per_sec"] < cluster_floor:
            print(
                f"FAIL: {cluster_metrics['invocations_per_sec']:.2f} cluster "
                f"invocations/sec is below {cluster_floor:.2f} (baseline "
                f"{cluster_baseline['invocations_per_sec']:.2f} "
                f"- {args.threshold:.0%})",
                file=sys.stderr,
            )
            status = 1

    # Perturbation guard: the same cluster workload with the telemetry
    # gauge sampler enabled must produce bit-identical results —
    # instruments are pull-based, and the sampler's heap events only
    # flip fault services between the (bit-identical) fast and event
    # paths.
    telemetry_metrics = run_cluster_workload(sampler_interval_us=100_000.0)
    for exact_key in ("invocations", "latency_checksum_us"):
        if telemetry_metrics[exact_key] != cluster_metrics[exact_key]:
            print(
                f"FAIL: telemetry-enabled cluster {exact_key} "
                f"{telemetry_metrics[exact_key]} != telemetry-disabled "
                f"{cluster_metrics[exact_key]} — telemetry perturbed the "
                "simulation",
                file=sys.stderr,
            )
            status = 1

    # Fault-plane perturbation guard: the same workload with an armed
    # (but empty) fault plan adds only the fault injector — every run
    # serves through the same attempt path — and must produce
    # bit-identical invocation counts and latency checksums.
    from repro.faults import FaultPlan

    armed_metrics = run_cluster_workload(fault_plan=FaultPlan.empty())
    for exact_key in ("invocations", "latency_checksum_us"):
        if armed_metrics[exact_key] != cluster_metrics[exact_key]:
            print(
                f"FAIL: fault-armed cluster {exact_key} "
                f"{armed_metrics[exact_key]} != unarmed "
                f"{cluster_metrics[exact_key]} — an injector with an "
                "empty plan is not inert",
                file=sys.stderr,
            )
            status = 1

    if args.check:
        status = (
            check_sharded_smoke(
                report_out=args.report_out, baseline=sharded_baseline
            )
            or status
        )
        status = check_obs_smoke() or status
        status = check_durability_smoke() or status

    if status == 0:
        print(
            f"OK: events/sec within {args.threshold:.0%} of baseline "
            f"({metrics['events_per_sec']:.0f} vs "
            f"{baseline['events_per_sec']:.0f}), event count exact; "
            f"cluster {cluster_metrics['invocations_per_sec']:.2f} inv/sec "
            f"({CLUSTER_HOSTS} hosts), checksums exact; telemetry and "
            "fault-plane perturbation guards passed"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
