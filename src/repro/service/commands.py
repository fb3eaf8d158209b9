"""Typed, serialisable commands for the cluster service.

Each command is a frozen dataclass with a stable wire form
(``to_dict`` / :func:`command_from_dict`) used by the journal, and a
one-line text form (:func:`parse_command`) used by ``repro serve``
scripts and the REPL. The two forms are interconvertible; the journal
always stores the dict form.

Text grammar (one command per line; blank lines and ``#`` comments
are skipped by the CLI)::

    advance MS                     # advance virtual time by MS milliseconds
    inject T_US:FN [T_US:FN ...]   # enqueue arrivals at epoch-relative T_US
    add-host                       # grow the cluster by one host
    drain-host HOST                # take HOST out of rotation, evict idle VMs
    undrain-host HOST              # return HOST to rotation
    swap-placement NAME            # hot-swap the placement policy
    arm JSON                       # arm a fault plan (FaultPlan.as_dict JSON)
    disarm                         # cancel armed faults, heal degradations
    set-keepalive MS               # retune the keep-alive TTL
    snapshot-telemetry             # emit a telemetry delta, pin its digest
    set-slo JSON                   # install SLO objectives + burn-rate rules
    slo-status                     # evaluate the SLO monitor, pin its digest
    scrub                          # force a full durability scrub pass now
    durability-status              # replica/corruption state, pin its digest
    status                         # read-only state probe (not journaled)
    drain                          # stop intake, serve out, finish the run
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, Type


class CommandError(ValueError):
    """A command line or document that cannot be parsed."""


@dataclass(frozen=True)
class Command:
    """Base class; subclasses set ``name`` and override ``args_dict``."""

    name = "abstract"

    def args_dict(self) -> Dict[str, Any]:
        return {}

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"cmd": self.name}
        args = self.args_dict()
        if args:
            doc["args"] = args
        return doc


@dataclass(frozen=True)
class AdvanceCommand(Command):
    """Advance virtual time by ``ms`` milliseconds, pulling arrivals
    from the service's source up to the new horizon."""

    ms: float = 0.0
    name = "advance"

    def __post_init__(self):
        if not (math.isfinite(self.ms) and self.ms >= 0):
            raise CommandError("advance duration must be finite and >= 0")

    def args_dict(self) -> Dict[str, Any]:
        return {"ms": self.ms}


@dataclass(frozen=True)
class InjectCommand(Command):
    """Enqueue explicit arrivals, each ``(epoch-relative time_us,
    function name)``. Times may be in the past (served immediately,
    queue delay counted into latency) or the future."""

    arrivals: Tuple[Tuple[float, str], ...] = ()
    name = "inject"

    def __post_init__(self):
        for t, fn in self.arrivals:
            if not math.isfinite(t):
                raise CommandError(
                    f"inject time must be finite, got {t!r} for {fn!r}"
                )

    @classmethod
    def from_arrivals(cls, arrivals) -> "InjectCommand":
        return cls(
            arrivals=tuple((a.time_us, a.function) for a in arrivals)
        )

    def args_dict(self) -> Dict[str, Any]:
        return {"arrivals": [[t, fn] for t, fn in self.arrivals]}


@dataclass(frozen=True)
class AddHostCommand(Command):
    name = "add-host"


@dataclass(frozen=True)
class DrainHostCommand(Command):
    host: str = ""
    name = "drain-host"

    def args_dict(self) -> Dict[str, Any]:
        return {"host": self.host}


@dataclass(frozen=True)
class UndrainHostCommand(Command):
    host: str = ""
    name = "undrain-host"

    def args_dict(self) -> Dict[str, Any]:
        return {"host": self.host}


@dataclass(frozen=True)
class SwapPlacementCommand(Command):
    policy: str = ""
    name = "swap-placement"

    def args_dict(self) -> Dict[str, Any]:
        return {"policy": self.policy}


@dataclass(frozen=True)
class ArmCommand(Command):
    """Arm a fault plan mid-run. ``plan`` is the
    :meth:`~repro.faults.plan.FaultPlan.as_dict` document; fault times
    are relative to the arming instant."""

    plan: Dict[str, Any] = field(default_factory=dict)
    name = "arm"

    # ``plan`` is a dict, so frozen-dataclass hashing is off the table;
    # commands are values, never dict keys.
    __hash__ = None  # type: ignore[assignment]

    def args_dict(self) -> Dict[str, Any]:
        return {"plan": self.plan}


@dataclass(frozen=True)
class DisarmCommand(Command):
    name = "disarm"


@dataclass(frozen=True)
class SetKeepaliveCommand(Command):
    ttl_ms: float = 0.0
    name = "set-keepalive"

    def __post_init__(self):
        if not (math.isfinite(self.ttl_ms) and self.ttl_ms >= 0):
            raise CommandError("keep-alive TTL must be finite and >= 0")

    def args_dict(self) -> Dict[str, Any]:
        return {"ttl_ms": self.ttl_ms}


@dataclass(frozen=True)
class SnapshotTelemetryCommand(Command):
    name = "snapshot-telemetry"


@dataclass(frozen=True)
class SetSloCommand(Command):
    """Install (or replace) the run's SLO monitor. ``config`` is the
    :meth:`~repro.metrics.slo.SloMonitor.config_dict` wire form; an
    empty dict installs the default objectives and rules. Replacing
    the monitor resets its rolling windows — retuning mid-run starts
    the burn-rate evaluation fresh from the current instant."""

    config: Dict[str, Any] = field(default_factory=dict)
    name = "set-slo"

    # ``config`` is a dict, so frozen-dataclass hashing is off the
    # table; commands are values, never dict keys.
    __hash__ = None  # type: ignore[assignment]

    def args_dict(self) -> Dict[str, Any]:
        return {"config": self.config}


@dataclass(frozen=True)
class SloStatusCommand(Command):
    """Evaluate the SLO monitor at the current virtual time and pin
    the resulting document's digest in the journal (replay must agree
    on every burn rate and alert)."""

    name = "slo-status"


@dataclass(frozen=True)
class ScrubCommand(Command):
    """Force a full scrub pass over every host's replica sets at the
    current virtual time — detection happens now, repair proceeds in
    virtual time afterwards. No-op when durability is disabled."""

    name = "scrub"


@dataclass(frozen=True)
class DurabilityStatusCommand(Command):
    """Report replica/corruption state and pin the resulting
    document's digest in the journal (replay must agree on every
    counter and quarantined replica)."""

    name = "durability-status"


@dataclass(frozen=True)
class StatusCommand(Command):
    name = "status"


@dataclass(frozen=True)
class DrainCommand(Command):
    name = "drain"


COMMAND_TYPES: Dict[str, Type[Command]] = {
    cls.name: cls
    for cls in (
        AdvanceCommand,
        InjectCommand,
        AddHostCommand,
        DrainHostCommand,
        UndrainHostCommand,
        SwapPlacementCommand,
        ArmCommand,
        DisarmCommand,
        SetKeepaliveCommand,
        SnapshotTelemetryCommand,
        SetSloCommand,
        SloStatusCommand,
        ScrubCommand,
        DurabilityStatusCommand,
        StatusCommand,
        DrainCommand,
    )
}


def command_from_dict(doc: Dict[str, Any]) -> Command:
    """Rebuild a command from its ``to_dict`` wire form."""
    name = doc.get("cmd")
    cls = COMMAND_TYPES.get(name)
    if cls is None:
        raise CommandError(f"unknown command {name!r}")
    args = doc.get("args") or {}
    try:
        if cls is AdvanceCommand:
            return AdvanceCommand(ms=float(args["ms"]))
        if cls is InjectCommand:
            return InjectCommand(
                arrivals=tuple(
                    (float(t), str(fn)) for t, fn in args.get("arrivals", [])
                )
            )
        if cls is DrainHostCommand:
            return DrainHostCommand(host=str(args["host"]))
        if cls is UndrainHostCommand:
            return UndrainHostCommand(host=str(args["host"]))
        if cls is SwapPlacementCommand:
            return SwapPlacementCommand(policy=str(args["policy"]))
        if cls is ArmCommand:
            return ArmCommand(plan=dict(args.get("plan") or {}))
        if cls is SetKeepaliveCommand:
            return SetKeepaliveCommand(ttl_ms=float(args["ttl_ms"]))
        if cls is SetSloCommand:
            return SetSloCommand(config=dict(args.get("config") or {}))
    except KeyError as exc:
        raise CommandError(
            f"command {name!r} missing argument {exc.args[0]!r}"
        ) from None
    return cls()


def parse_command(line: str) -> Command:
    """Parse one text line into a command (grammar in the module
    docstring)."""
    line = line.strip()
    if not line:
        raise CommandError("empty command line")
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    try:
        if head == "advance":
            return AdvanceCommand(ms=float(rest))
        if head == "inject":
            arrivals: List[Tuple[float, str]] = []
            for token in rest.split():
                time_text, sep, fn = token.partition(":")
                if not sep or not fn:
                    raise CommandError(
                        f"inject wants T_US:FN tokens, got {token!r}"
                    )
                arrivals.append((float(time_text), fn))
            if not arrivals:
                raise CommandError("inject needs at least one T_US:FN token")
            return InjectCommand(arrivals=tuple(arrivals))
        if head == "add-host":
            return AddHostCommand()
        if head == "drain-host":
            if not rest:
                raise CommandError("drain-host needs a host id")
            return DrainHostCommand(host=rest)
        if head == "undrain-host":
            if not rest:
                raise CommandError("undrain-host needs a host id")
            return UndrainHostCommand(host=rest)
        if head == "swap-placement":
            if not rest:
                raise CommandError("swap-placement needs a policy name")
            return SwapPlacementCommand(policy=rest)
        if head == "arm":
            if not rest:
                raise CommandError("arm needs a FaultPlan JSON document")
            return ArmCommand(plan=json.loads(rest))
        if head == "disarm":
            return DisarmCommand()
        if head == "set-keepalive":
            return SetKeepaliveCommand(ttl_ms=float(rest))
        if head == "snapshot-telemetry":
            return SnapshotTelemetryCommand()
        if head == "set-slo":
            return SetSloCommand(config=json.loads(rest) if rest else {})
        if head == "slo-status":
            return SloStatusCommand()
        if head == "scrub":
            return ScrubCommand()
        if head == "durability-status":
            return DurabilityStatusCommand()
        if head == "status":
            return StatusCommand()
        if head == "drain":
            return DrainCommand()
    except CommandError:
        raise
    except (ValueError, json.JSONDecodeError) as exc:
        raise CommandError(f"bad arguments for {head!r}: {exc}") from None
    raise CommandError(f"unknown command {head!r}")
