"""SLO monitoring with multi-window burn-rate alerts.

Evaluates latency and availability objectives over the *virtual*
clock: every served invocation is an SLI sample, rolling windows are
spans of simulated time, and an alert fires when the error-budget
burn rate exceeds a rule's factor in **both** a long and a short
window (the classic SRE fast-burn/slow-burn pair — the long window
gives confidence the burn is real, the short window makes the alert
reset quickly once the incident ends).

Burn rate is ``bad_fraction / (1 - target)``: 1.0 means the error
budget is being consumed exactly at the rate that exhausts it at the
objective horizon; 14.4 (the fast-rule default) means a 5-minute
window is burning budget 14.4x too fast.

Everything here is passive bookkeeping fed from the scheduler's
served stream — no simulation events, no RNG draws — so an enabled
monitor leaves the cluster latency checksum bit-identical (the
zero-perturbation contract). Alert *evaluation* happens inline at
each observation, which is what makes replay deterministic: the
journal records only the ``slo-status`` commands, and re-running the
same served stream reproduces the same alerts at the same virtual
times.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

SLO_SCHEMA = "repro.slo-status/1"


@dataclass(frozen=True)
class SloObjective:
    """One service-level objective.

    ``kind`` is ``"availability"`` (good = invocation did not fail or
    shed) or ``"latency"`` (good = succeeded within ``threshold_us``).
    ``target`` is the good-fraction objective, e.g. 0.999.
    """

    name: str
    kind: str
    target: float
    threshold_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.kind == "latency" and (
            self.threshold_us is None or self.threshold_us <= 0
        ):
            raise ValueError("latency objectives need a positive threshold")

    def good(self, latency_us: float, ok: bool) -> bool:
        if self.kind == "availability":
            return ok
        return ok and latency_us <= self.threshold_us

    def to_dict(self) -> dict:
        d: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
        }
        if self.threshold_us is not None:
            d["threshold_ms"] = self.threshold_us / 1000.0
        return d


@dataclass(frozen=True)
class BurnRateRule:
    """A long/short window pair and the burn factor that trips it."""

    name: str
    long_us: float
    short_us: float
    factor: float

    def __post_init__(self) -> None:
        if self.short_us <= 0 or self.long_us < self.short_us:
            raise ValueError("need 0 < short window <= long window")
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "long_window_ms": self.long_us / 1000.0,
            "short_window_ms": self.short_us / 1000.0,
            "factor": self.factor,
        }


#: The SRE-style default pair: a fast burn over a 5-minute window
#: (30 s confirmation) pages immediately; a slow burn over an hour
#: (5 min confirmation) catches budget leaks.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast", long_us=300e6, short_us=30e6, factor=14.4),
    BurnRateRule("slow", long_us=3_600e6, short_us=300e6, factor=6.0),
)

DEFAULT_OBJECTIVES: Tuple[SloObjective, ...] = (
    SloObjective("availability", "availability", target=0.999),
    SloObjective(
        "latency-500ms", "latency", target=0.99, threshold_us=500_000.0
    ),
)


class _Window:
    """Rolling good/bad counts over a span of virtual time."""

    __slots__ = ("span_us", "samples", "good", "total")

    def __init__(self, span_us: float):
        self.span_us = span_us
        self.samples: deque = deque()
        self.good = 0
        self.total = 0

    def add(self, t_us: float, good: bool) -> None:
        self.samples.append((t_us, good))
        self.total += 1
        if good:
            self.good += 1

    def advance(self, now_us: float) -> None:
        cutoff = now_us - self.span_us
        samples = self.samples
        while samples and samples[0][0] <= cutoff:
            _, was_good = samples.popleft()
            self.total -= 1
            if was_good:
                self.good -= 1

    def burn(self, target: float) -> float:
        if self.total == 0:
            return 0.0
        bad_fraction = (self.total - self.good) / self.total
        return bad_fraction / (1.0 - target)


def _entries(
    config: dict, section: str, required: set, optional: set = frozenset()
) -> List[Tuple[str, dict]]:
    """``(where, entry)`` for each entry of the ``section`` list of an
    SLO config, each checked to be an object with a non-empty string
    ``name`` unique in its section, every ``required`` key and no key
    outside ``required | optional``."""
    entries = config.get(section, [])
    if not isinstance(entries, list):
        raise ValueError(
            f"slo {section} must be a list, got {type(entries).__name__}"
        )
    checked = []
    names = set()
    for index, entry in enumerate(entries):
        where = f"slo {section}[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        missing = required - set(entry)
        if missing:
            raise ValueError(f"{where} is missing {sorted(missing)}")
        unknown = set(entry) - required - optional
        if unknown:
            raise ValueError(f"{where} has unknown keys {sorted(unknown)}")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}.name must be a non-empty string")
        if name in names:
            raise ValueError(f"{where}: duplicate name {name!r}")
        names.add(name)
        checked.append((where, entry))
    return checked


def _number(where: str, key: str, value: Any) -> float:
    """``value`` as a float, if it is a finite JSON number."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


class SloMonitor:
    """Feeds SLI samples into per-objective burn windows and raises
    deduplicated multi-window alerts.

    An alert is a rising edge: it fires when a rule's burn condition
    becomes true for an objective and re-arms only after the
    condition clears (the short window draining is what clears it —
    that's the hysteresis).
    """

    def __init__(
        self,
        objectives: Sequence[SloObjective] = DEFAULT_OBJECTIVES,
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    ):
        if not objectives:
            raise ValueError("need at least one objective")
        if not rules:
            raise ValueError("need at least one burn-rate rule")
        self.objectives = tuple(objectives)
        self.rules = tuple(rules)
        # windows[obj_name][rule_name] = (long, short)
        self._windows: Dict[str, Dict[str, Tuple[_Window, _Window]]] = {
            o.name: {
                r.name: (_Window(r.long_us), _Window(r.short_us))
                for r in self.rules
            }
            for o in self.objectives
        }
        self._active: Dict[Tuple[str, str], bool] = {
            (o.name, r.name): False
            for o in self.objectives
            for r in self.rules
        }
        self.alerts: List[dict] = []
        self.observed = 0
        self.bad: Dict[str, int] = {o.name: 0 for o in self.objectives}

    # -- construction from wire config --------------------------------

    @classmethod
    def default(cls) -> "SloMonitor":
        return cls()

    @classmethod
    def from_dict(cls, config: Optional[dict]) -> "SloMonitor":
        """Build from the ``set-slo`` wire form (milliseconds)::

            {"objectives": [{"name": "avail", "kind": "availability",
                             "target": 0.999},
                            {"name": "lat", "kind": "latency",
                             "target": 0.99, "threshold_ms": 400}],
             "rules": [{"name": "fast", "long_window_ms": 300000,
                        "short_window_ms": 30000, "factor": 14.4}]}

        Omitted or empty sections fall back to the defaults. Anything
        else that is not this shape — a non-object, unknown or missing
        keys, non-numeric or non-finite numbers, duplicate names —
        raises :class:`ValueError`.
        """
        if config is None:
            config = {}
        if not isinstance(config, dict):
            raise ValueError(
                f"slo config must be a JSON object, got "
                f"{type(config).__name__}"
            )
        unknown = set(config) - {"objectives", "rules"}
        if unknown:
            raise ValueError(f"unknown slo config keys: {sorted(unknown)}")
        objectives: List[SloObjective] = []
        for where, entry in _entries(
            config, "objectives", {"name", "kind", "target"}, {"threshold_ms"}
        ):
            threshold_ms = entry.get("threshold_ms")
            objectives.append(
                SloObjective(
                    name=entry["name"],
                    kind=entry["kind"],
                    target=_number(where, "target", entry["target"]),
                    threshold_us=(
                        _number(where, "threshold_ms", threshold_ms) * 1000.0
                        if threshold_ms is not None
                        else None
                    ),
                )
            )
        rules: List[BurnRateRule] = []
        for where, entry in _entries(
            config,
            "rules",
            {"name", "long_window_ms", "short_window_ms", "factor"},
        ):
            rules.append(
                BurnRateRule(
                    name=entry["name"],
                    long_us=_number(
                        where, "long_window_ms", entry["long_window_ms"]
                    )
                    * 1000.0,
                    short_us=_number(
                        where, "short_window_ms", entry["short_window_ms"]
                    )
                    * 1000.0,
                    factor=_number(where, "factor", entry["factor"]),
                )
            )
        return cls(
            objectives=objectives or DEFAULT_OBJECTIVES,
            rules=rules or DEFAULT_RULES,
        )

    def config_dict(self) -> dict:
        return {
            "objectives": [o.to_dict() for o in self.objectives],
            "rules": [r.to_dict() for r in self.rules],
        }

    # -- the SLI feed --------------------------------------------------

    def observe(
        self, t_us: float, latency_us: float, ok: bool
    ) -> List[dict]:
        """Record one served invocation; returns newly fired alerts."""
        self.observed += 1
        fired: List[dict] = []
        for objective in self.objectives:
            good = objective.good(latency_us, ok)
            if not good:
                self.bad[objective.name] += 1
            for rule in self.rules:
                long_w, short_w = self._windows[objective.name][rule.name]
                for window in (long_w, short_w):
                    window.add(t_us, good)
                    window.advance(t_us)
                burn_long = long_w.burn(objective.target)
                burn_short = short_w.burn(objective.target)
                firing = (
                    burn_long >= rule.factor and burn_short >= rule.factor
                )
                key = (objective.name, rule.name)
                if firing and not self._active[key]:
                    alert = {
                        "t_us": round(t_us, 3),
                        "objective": objective.name,
                        "rule": rule.name,
                        "factor": rule.factor,
                        "burn_long": round(burn_long, 4),
                        "burn_short": round(burn_short, 4),
                    }
                    self.alerts.append(alert)
                    fired.append(alert)
                self._active[key] = firing
        return fired

    # -- reporting ------------------------------------------------------

    def status(self, now_us: float) -> dict:
        """Canonical status document at virtual time ``now_us``."""
        objectives = []
        for objective in self.objectives:
            windows = []
            for rule in self.rules:
                long_w, short_w = self._windows[objective.name][rule.name]
                long_w.advance(now_us)
                short_w.advance(now_us)
                windows.append(
                    {
                        "rule": rule.name,
                        "factor": rule.factor,
                        "burn_long": round(
                            long_w.burn(objective.target), 4
                        ),
                        "burn_short": round(
                            short_w.burn(objective.target), 4
                        ),
                        "samples_long": long_w.total,
                        "active": self._active[
                            (objective.name, rule.name)
                        ],
                    }
                )
            doc = objective.to_dict()
            doc["bad"] = self.bad[objective.name]
            doc["windows"] = windows
            objectives.append(doc)
        return {
            "schema": SLO_SCHEMA,
            "t_us": round(now_us, 3),
            "observed": self.observed,
            "objectives": objectives,
            "alerts": list(self.alerts),
        }

    def status_sha(self, now_us: float) -> Tuple[dict, str]:
        doc = self.status(now_us)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return doc, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def render_slo_status(doc: dict) -> str:
    """Readable rendering of a :meth:`SloMonitor.status` document."""
    lines = [
        f"SLO status @ {doc['t_us'] / 1000:.3f} ms — "
        f"{doc['observed']} observation(s), "
        f"{len(doc['alerts'])} alert(s)"
    ]
    for objective in doc["objectives"]:
        target = objective["target"]
        threshold = objective.get("threshold_ms")
        head = (
            f"  {objective['name']} ({objective['kind']}"
            f"{f' <= {threshold:g} ms' if threshold is not None else ''}"
            f", target {target}): bad={objective['bad']}"
        )
        lines.append(head)
        for window in objective["windows"]:
            state = "FIRING" if window["active"] else "ok"
            lines.append(
                f"    {window['rule']:<5} burn long={window['burn_long']:g} "
                f"short={window['burn_short']:g} "
                f"(trip at {window['factor']:g}) [{state}]"
            )
    for alert in doc["alerts"]:
        lines.append(
            f"  ALERT @ {alert['t_us'] / 1000:.3f} ms: "
            f"{alert['objective']}/{alert['rule']} "
            f"burn {alert['burn_long']:g}/{alert['burn_short']:g} "
            f">= {alert['factor']:g}"
        )
    return "\n".join(lines)
