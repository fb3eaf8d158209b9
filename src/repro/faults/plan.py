"""Declarative fault schedules.

A :class:`FaultPlan` is data, not behaviour: an immutable description
of *what goes wrong and when*, expressed in virtual microseconds
relative to the epoch at which the injector is armed (the start of the
serving phase, so plans are independent of how long snapshot prep
took). :class:`~repro.faults.injector.FaultInjector` turns the plan
into simulation processes.

Keeping the plan declarative buys three things:

* **Determinism** — the same plan and seed replays the same failure
  timeline, so chaos reports are bit-reproducible and diffable.
* **Serialisability** — ``as_dict`` / ``from_dict`` round-trip through
  JSON, so a scenario can be stored next to the report it produced.
* **Composability** — scenario builders in :mod:`repro.faults.chaos`
  are just functions returning plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

#: Device-fault scope selecting every host's primary device.
SCOPE_ALL = "*"
#: Device-fault scope selecting the shared storage tier (the cluster's
#: shared-EBS device, when one exists) — used to model network-tier
#: latency/error spikes between hosts and remote storage.
SCOPE_SHARED = "shared"


@dataclass(frozen=True)
class DeviceFault:
    """A degradation window on one or more block devices.

    ``scope`` is a host id (degrade that host's primary device),
    :data:`SCOPE_ALL` (every host's primary device) or
    :data:`SCOPE_SHARED` (the shared storage device). The window
    opens ``start_us`` after the injector's epoch and closes after
    ``duration_us`` (``None`` = never recovers). The factors have the
    semantics of :class:`~repro.storage.device.Degradation`:
    ``latency_factor`` scales access latency, ``bandwidth_factor``
    scales throughput (0.1 = collapse to a tenth), ``iops_factor``
    scales the IOPS cap, ``error_rate`` injects per-request I/O
    errors.
    """

    scope: str
    start_us: float
    duration_us: Optional[float] = None
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    iops_factor: float = 1.0
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError("start_us must be >= 0")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValueError("duration_us must be positive (or None)")
        if self.latency_factor <= 0 or self.bandwidth_factor <= 0:
            raise ValueError("degradation factors must be positive")
        if self.iops_factor <= 0:
            raise ValueError("iops_factor must be positive")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")


@dataclass(frozen=True)
class HostCrash:
    """A host power-fails ``at_us`` after the epoch.

    In-flight invocations on the host abort, its page cache and
    keep-alive VM pool are lost, and placement must route around it.
    With ``reboot_after_us`` set the crash is transient: the host
    comes back cold (empty page cache, empty pool) after that long.
    ``None`` means the host never returns.
    """

    host: str
    at_us: float
    reboot_after_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("at_us must be >= 0")
        if self.reboot_after_us is not None and self.reboot_after_us <= 0:
            raise ValueError("reboot_after_us must be positive (or None)")


@dataclass(frozen=True)
class SnapshotCorruption:
    """One function's snapshot artefacts on one host go bad at
    ``at_us``. The corruption is *latent*: nothing happens until a
    restore validates the artefacts, fails, and falls back — at which
    point the artefacts are re-fetched/rebuilt (the corruption mark
    clears). This mirrors checksum-on-load designs where corruption
    is only observable at use."""

    host: str
    function: str
    at_us: float

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("at_us must be >= 0")


@dataclass(frozen=True)
class FailSlow:
    """A host serves correctly but at ``slowdown``× latency, with no
    error signal — the gray-failure mode health checks built on error
    counts cannot see. Starting ``start_us`` after the epoch the
    host's primary device runs ``slowdown`` times slower for
    ``duration_us`` (``None`` = never recovers). Detection is the
    restore-latency outlier score in
    :class:`~repro.faults.health.HealthMonitor` (enable it with
    ``HealthPolicy.fail_slow_factor``)."""

    host: str
    start_us: float
    slowdown: float = 4.0
    duration_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError("start_us must be >= 0")
        if self.slowdown <= 1.0:
            raise ValueError("slowdown must be > 1")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValueError("duration_us must be positive (or None)")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of failures for one run."""

    device_faults: tuple = ()
    host_crashes: tuple = ()
    corruptions: tuple = ()
    fail_slows: tuple = ()

    def __post_init__(self) -> None:
        # Accept any iterable but store tuples so plans hash/compare
        # and cannot drift after the injector is armed.
        object.__setattr__(
            self, "device_faults", tuple(self.device_faults)
        )
        object.__setattr__(self, "host_crashes", tuple(self.host_crashes))
        object.__setattr__(self, "corruptions", tuple(self.corruptions))
        object.__setattr__(self, "fail_slows", tuple(self.fail_slows))

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @property
    def is_empty(self) -> bool:
        return not (
            self.device_faults
            or self.host_crashes
            or self.corruptions
            or self.fail_slows
        )

    def __len__(self) -> int:
        return (
            len(self.device_faults)
            + len(self.host_crashes)
            + len(self.corruptions)
            + len(self.fail_slows)
        )

    def check_topology(
        self, hosts: Iterable[str], functions: Iterable[str]
    ) -> None:
        """Raise ``ValueError`` naming every entry that points outside
        the cluster: a crash, corruption or fail-slow on a host not in
        ``hosts``, a device-fault scope that is neither such a host
        nor ``*``/``shared``, a corruption of a function not in
        ``functions``. Run it before the plan touches any state."""
        hosts = set(hosts)
        functions = set(functions)
        bad = [
            f"device-fault scope {f.scope!r}"
            for f in self.device_faults
            if f.scope not in hosts
            and f.scope not in (SCOPE_ALL, SCOPE_SHARED)
        ]
        for what, entries in (
            ("host crash", self.host_crashes),
            ("corruption", self.corruptions),
            ("fail-slow", self.fail_slows),
        ):
            bad += [
                f"{what} on {e.host!r}" for e in entries if e.host not in hosts
            ]
        bad += [
            f"corruption of {c.function!r}"
            for c in self.corruptions
            if c.function not in functions
        ]
        if bad:
            raise ValueError(
                f"fault plan names what the cluster lacks: {', '.join(bad)} "
                f"(hosts: {', '.join(sorted(hosts))})"
            )

    # -- serialisation -------------------------------------------------

    def as_dict(self) -> Dict[str, List[Dict[str, object]]]:
        """JSON-ready form, stable across runs (plans are ordered)."""
        return {
            "device_faults": [
                {
                    "scope": f.scope,
                    "start_us": f.start_us,
                    "duration_us": f.duration_us,
                    "latency_factor": f.latency_factor,
                    "bandwidth_factor": f.bandwidth_factor,
                    "iops_factor": f.iops_factor,
                    "error_rate": f.error_rate,
                }
                for f in self.device_faults
            ],
            "host_crashes": [
                {
                    "host": c.host,
                    "at_us": c.at_us,
                    "reboot_after_us": c.reboot_after_us,
                }
                for c in self.host_crashes
            ],
            "corruptions": [
                {
                    "host": c.host,
                    "function": c.function,
                    "at_us": c.at_us,
                }
                for c in self.corruptions
            ],
            "fail_slows": [
                {
                    "host": s.host,
                    "start_us": s.start_us,
                    "slowdown": s.slowdown,
                    "duration_us": s.duration_us,
                }
                for s in self.fail_slows
            ],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultPlan":
        return cls(
            device_faults=tuple(
                DeviceFault(**entry)
                for entry in doc.get("device_faults", ())
            ),
            host_crashes=tuple(
                HostCrash(**entry) for entry in doc.get("host_crashes", ())
            ),
            corruptions=tuple(
                SnapshotCorruption(**entry)
                for entry in doc.get("corruptions", ())
            ),
            # ``.get`` keeps pre-durability plan documents loadable.
            fail_slows=tuple(
                FailSlow(**entry) for entry in doc.get("fail_slows", ())
            ),
        )
