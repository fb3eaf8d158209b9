"""Tests for the live service core (repro.service).

The two load-bearing properties:

* batch-through-service bit-parity — ``ClusterSimulator.run`` now
  replays a canned command stream through :class:`ClusterService` and
  must produce exactly the report the historical inline driver did;
* journal determinism — replaying a journal reproduces every digest
  bit-for-bit, twice.
"""

import json

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.fleet import generate_arrivals, synthesize_fleet
from repro.fleet.workload import (
    Arrival,
    JsonLinesArrivalSource,
    PoissonArrivalSource,
    TraceArrivalSource,
)
from repro.service import (
    AddHostCommand,
    AdvanceCommand,
    ArmCommand,
    CommandError,
    DisarmCommand,
    DrainCommand,
    DrainHostCommand,
    InjectCommand,
    JournalWriter,
    ServiceError,
    SetKeepaliveCommand,
    SnapshotTelemetryCommand,
    StatusCommand,
    SwapPlacementCommand,
    UndrainHostCommand,
    build_service,
    command_from_dict,
    parse_command,
    replay_journal,
)
from repro.service.core import ClusterService

HOUR_US = 3_600_000_000.0


def _small_fleet(seed=5, functions=4):
    return synthesize_fleet(
        functions, seed=seed, profile_names=("json", "pyaes")
    )


def _checksum(report):
    return round(sum(s.latency_us for s in report.served), 2)


# -- batch parity ------------------------------------------------------


def test_run_batch_matches_repeated_runs_bit_for_bit():
    fleet = _small_fleet()
    trace = generate_arrivals(fleet, 0.25 * HOUR_US, seed=5)
    config = ClusterConfig(num_hosts=2, seed=3)
    first = ClusterSimulator(fleet, config).run(trace)
    second = ClusterSimulator(fleet, config).run(trace)
    assert len(first.served) == len(second.served)
    assert _checksum(first) == _checksum(second)
    assert [s.latency_us for s in first.served] == [
        s.latency_us for s in second.served
    ]


def test_incremental_advance_equals_batch():
    """Serving a trace through many small advance windows produces the
    same invocations and latencies as one batch drain."""
    fleet = _small_fleet()
    trace = generate_arrivals(fleet, 0.25 * HOUR_US, seed=5)
    config = ClusterConfig(num_hosts=2, seed=3)

    batch = ClusterSimulator(fleet, config).run(trace)

    service = ClusterService(
        ClusterSimulator(fleet, config),
        arrival_source=TraceArrivalSource(trace),
    )
    for _ in range(40):
        service.execute(AdvanceCommand(ms=30_000.0))
    report = service.execute(DrainCommand()) and service.report
    assert len(report.served) == len(batch.served)
    assert _checksum(report) == _checksum(batch)


def test_poisson_source_matches_generate_arrivals_chunking():
    fleet = _small_fleet(seed=9, functions=6)
    horizon = 0.5 * HOUR_US
    batch = generate_arrivals(fleet, horizon, seed=4).arrivals
    source = PoissonArrivalSource(fleet, seed=4)
    streamed = []
    # Uneven chunk boundaries must not change the stream.
    for rel in (1e6, 1e6, 3e8, 9e8, horizon / 2, horizon - 1e-9):
        streamed.extend(source.take_until(rel))
    streamed = [a for a in streamed if a.time_us < horizon]
    assert [(a.time_us, a.function) for a in streamed] == [
        (a.time_us, a.function) for a in batch
    ]


def test_jsonlines_source_streams_and_rejects_unsorted():
    lines = [
        "# comment",
        "",
        json.dumps({"time_us": 10.0, "function": "a"}),
        json.dumps({"time_us": 20.5, "function": "b"}),
    ]
    source = JsonLinesArrivalSource(iter(lines))
    assert [a.function for a in source.take_until(15.0)] == ["a"]
    assert [a.function for a in source.take_until(30.0)] == ["b"]
    assert source.take_until(1e9) == []

    bad = JsonLinesArrivalSource(
        iter(
            [
                json.dumps({"time_us": 10.0, "function": "a"}),
                json.dumps({"time_us": 5.0, "function": "b"}),
            ]
        )
    )
    # The regression is detected as soon as the reader's one-record
    # lookahead reaches the out-of-order record.
    with pytest.raises(ValueError):
        bad.take_until(12.0)


# -- commands ----------------------------------------------------------


def _service(**spec_overrides):
    spec = {
        "functions": 4,
        "fleet_seed": 5,
        "hosts": 2,
        "seed": 3,
        "source": {"kind": "trace", "duration_us": 0.25 * HOUR_US, "seed": 5},
    }
    spec.update(spec_overrides)
    return build_service(spec)


def test_swap_placement_takes_effect_live():
    service = _service()
    service.execute(AdvanceCommand(ms=60_000.0))
    result = service.execute(SwapPlacementCommand(policy="round-robin"))
    assert result["placement"] == "round-robin"
    assert service.simulator.config.placement == "round-robin"
    assert service.simulator._hot_placement.name == "round-robin"
    service.execute(AdvanceCommand(ms=60_000.0))
    service.execute(DrainCommand())
    assert service.report.placement == "round-robin"


def test_add_host_enters_rotation_and_status_reports_it():
    service = _service()
    service.execute(AdvanceCommand(ms=30_000.0))
    result = service.execute(AddHostCommand())
    assert result["host"] == "host2"
    assert result["hosts"] == 3
    status = service.execute(StatusCommand())
    assert [h["host"] for h in status["hosts"]] == [
        "host0",
        "host1",
        "host2",
    ]
    # Local tier: the new host preps in the background before joining.
    assert result["drained"] is True
    service.execute(AdvanceCommand(ms=600_000.0))
    status = service.execute(StatusCommand())
    assert status["hosts"][2]["drained"] is False
    service.execute(DrainCommand())


def test_drain_and_undrain_host():
    service = _service()
    service.execute(AdvanceCommand(ms=120_000.0))
    result = service.execute(DrainHostCommand(host="host1"))
    assert result["host"] == "host1"
    status = service.execute(StatusCommand())
    host1 = status["hosts"][1]
    assert host1["drained"] is True and host1["healthy"] is False
    assert host1["idle_vms"] == 0
    service.execute(UndrainHostCommand(host="host1"))
    status = service.execute(StatusCommand())
    assert status["hosts"][1]["drained"] is False
    assert status["hosts"][1]["healthy"] is True
    service.execute(DrainCommand())


def test_arm_and_disarm_mid_run():
    service = _service()
    service.execute(AdvanceCommand(ms=60_000.0))
    assert service.simulator._armed is False
    plan = {
        "device_faults": [
            {
                "scope": "host0",
                "start_us": 1_000_000.0,
                "duration_us": 600_000_000.0,
                "latency_factor": 50.0,
            }
        ]
    }
    result = service.execute(ArmCommand(plan=plan))
    assert result["faults"] == 1
    assert service.simulator._armed is True
    # Let the window open, then disarm: the degradation must heal.
    service.execute(AdvanceCommand(ms=30_000.0))
    host0 = service.simulator._hosts[0].host
    assert host0.device.degradation is not None
    service.execute(DisarmCommand())
    assert host0.device.degradation is None
    service.execute(AdvanceCommand(ms=60_000.0))
    service.execute(DrainCommand())


def test_set_keepalive_live():
    service = _service()
    service.execute(SetKeepaliveCommand(ttl_ms=1_000.0))
    assert service.simulator.config.keep_alive_ttl_us == 1_000_000.0
    service.execute(AdvanceCommand(ms=60_000.0))
    service.execute(DrainCommand())


def test_commands_after_drain_are_rejected():
    service = _service()
    service.execute(DrainCommand())
    with pytest.raises(ServiceError):
        service.execute(AdvanceCommand(ms=1.0))
    # Read-only probes stay available.
    assert service.execute(StatusCommand())["finished"] is True
    service.execute(SnapshotTelemetryCommand())


def test_inject_wakes_sleeping_pump_for_earlier_arrival():
    service = _service(source={"kind": "none"})
    service.execute(InjectCommand(arrivals=((5_000_000.0, "fn0001"),)))
    service.execute(AdvanceCommand(ms=1_000.0))
    # The pump now sleeps on the 5 s arrival; a 2 s arrival must
    # preempt that sleep and serve first.
    service.execute(InjectCommand(arrivals=((2_000_000.0, "fn0002"),)))
    service.execute(AdvanceCommand(ms=10_000.0))
    service.execute(DrainCommand())
    served = [(s.time_us, s.function) for s in service.report.served]
    assert served == [
        (2_000_000.0, "fn0002"),
        (5_000_000.0, "fn0001"),
    ]


# -- wire forms --------------------------------------------------------


def test_command_text_and_dict_round_trip():
    lines = [
        "advance 500",
        "inject 1000:fn0001 2500.5:fn0002",
        "add-host",
        "drain-host host3",
        "undrain-host host3",
        "swap-placement locality",
        'arm {"host_crashes": [{"host": "host0", "at_us": 9.0}]}',
        "disarm",
        "set-keepalive 30000",
        "snapshot-telemetry",
        "status",
        "drain",
    ]
    for line in lines:
        command = parse_command(line)
        assert command_from_dict(command.to_dict()) == command


def test_parse_command_rejects_garbage():
    for line in ["", "frobnicate", "advance", "inject", "inject nope",
                 "arm not-json", "set-keepalive -5"]:
        with pytest.raises(CommandError):
            parse_command(line)


# -- journal replay ----------------------------------------------------


def test_journal_replay_is_bit_identical_twice(tmp_path):
    path = tmp_path / "svc.journal"
    spec = {
        "functions": 4,
        "fleet_seed": 5,
        "hosts": 2,
        "seed": 3,
        "source": {"kind": "trace", "duration_us": 0.25 * HOUR_US, "seed": 5},
        "sampler_interval_us": 60_000_000.0,
    }
    journal = JournalWriter(str(path))
    service = build_service(spec, journal=journal)
    for line in [
        "advance 120000",
        "swap-placement round-robin",
        "advance 120000",
        "add-host",
        "snapshot-telemetry",
        "advance 240000",
        "drain-host host1",
        "advance 120000",
        "inject 700000000:fn0001",
        "advance 120000",
        "snapshot-telemetry",
        "drain",
    ]:
        service.execute(parse_command(line))
    journal.close()
    live_checksum = _checksum(service.report)

    first = replay_journal(str(path))
    assert first.ok, first.mismatches
    assert first.entries == 12
    assert _checksum(first.service.report) == live_checksum

    second = replay_journal(str(path))
    assert second.ok, second.mismatches
    assert _checksum(second.service.report) == live_checksum


def test_journal_replay_detects_divergence(tmp_path):
    path = tmp_path / "svc.journal"
    journal = JournalWriter(str(path))
    service = build_service(
        {
            "functions": 4,
            "fleet_seed": 5,
            "hosts": 2,
            "seed": 3,
            "source": {
                "kind": "trace",
                "duration_us": 0.25 * HOUR_US,
                "seed": 5,
            },
        },
        journal=journal,
    )
    service.execute(AdvanceCommand(ms=300_000.0))
    service.execute(DrainCommand())
    journal.close()

    lines = path.read_text().splitlines()
    entry = json.loads(lines[1])
    assert entry["digest"]["served"] > 0
    entry["digest"]["served"] += 1
    lines[1] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")

    outcome = replay_journal(str(path))
    assert not outcome.ok
    assert outcome.mismatches[0]["field"] == "served"


# -- fail-closed boundaries --------------------------------------------


@pytest.mark.parametrize(
    "bad",
    ["inject 2000000:nosuchfn", "drain-host host9", "undrain-host host9"],
)
def test_unknown_names_are_rejected_and_the_journal_replays(tmp_path, bad):
    path = tmp_path / "svc.journal"
    journal = JournalWriter(str(path))
    service = build_service(
        {
            "functions": 4,
            "fleet_seed": 5,
            "hosts": 2,
            "seed": 3,
            "source": {"kind": "none"},
        },
        journal=journal,
    )
    # Rejected before the run starts (prep must not run) ...
    with pytest.raises(ServiceError):
        service.execute(parse_command(bad))
    assert service.execute(StatusCommand())["started"] is False
    service.execute(parse_command("inject 1000000:fn0001"))
    service.execute(parse_command("advance 2000"))
    # ... and mid-run, with no state change and nothing journaled.
    before = service.digest()
    with pytest.raises(ServiceError):
        service.execute(parse_command(bad))
    assert service.digest() == before
    service.execute(parse_command("inject 3000000:fn0002 3000000:fn0001"))
    service.execute(parse_command("advance 5000"))
    service.execute(DrainCommand())
    journal.close()
    assert len(service.report.served) == 3

    outcome = replay_journal(str(path))
    assert outcome.ok, outcome.mismatches
    assert outcome.entries == 5
    assert _checksum(outcome.service.report) == _checksum(service.report)
