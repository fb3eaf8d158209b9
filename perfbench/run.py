#!/usr/bin/env python3
"""Repeated-trial benchmark of the FaaSnap simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-warm --seed 1 --seconds 12 --trace 0

``--trace 0`` runs whole trials (set-up, then the timed operations),
each in a fresh process, until their timed parts add up to
``--seconds`` and at least the workload's ``min_trials`` set-ups were
measured, checks the simulated
outputs, prints every end-to-end metric by name and unit, and ends
with one JSON line holding the metrics ``BENCHMARK.json`` names.

``--trace 1`` runs one untraced trial, installs the layer shims of
:mod:`tracing`, runs the same trial traced, checks that both give the
same simulated checksum and work counts, prints the per-layer metrics
with their bases, writes the spans to
``.perfbench/<workload>-seed<seed>-trace.json`` and ends with the JSON
line of per-layer metrics.

*Host* numbers are the simulator's own cost and are noisy; *sim*
numbers are the modelled system's virtual time and repeat exactly for
one seed. The end-to-end host numbers, ``setup_s`` and ``inv_per_s``,
are normalised: each trial's host times are scaled by
``SPEED_REF_MS / probe``, the probe being the median of
:class:`SpeedProbe` readings taken just before and after the trial,
so that a machine that is slower for a few minutes does not read as
a slower program. The table prints both raw beside them. The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import multiprocessing
import os
import pickle
import random
import platform as pyplatform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: First argument of a trial process (see :func:`fresh`).
CHILD_FLAG = "--trial-process"

#: Stop starting trials after this much wall time, so a slow machine
#: still finishes well inside the 180 s a run may take.
WALL_CAP_S = 100.0

#: Paper Figure 6 A→B references (EXPERIMENTS.md).
PAPER_SPEEDUP = {"firecracker": 2.0, "reap": 1.55}


def calibration_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: tells a slower
    machine from a slower commit."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, perf_counter() - t0)
    return best * 1000.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any worker it
    started and reaped (the sharded workload's shards), MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def nearest_rank(ordered, percentile: float):
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above
    it: (value, percentile, sample count), or ``None`` when there are
    too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    k = n - beyond
    return ordered[k - 1], 100.0 * k / n, n


def sim_metrics(trial):
    """Median and tail virtual latency plus availability. A shed or
    failed arrival counts as missing any limit (+inf)."""
    served = sorted(trial.latencies_ms)
    with_misses = served + [math.inf] * trial.missed
    tail_point = tail(with_misses)
    return {
        "p50": nearest_rank(served, 50.0) if served else 0.0,
        "tail": tail_point,
        "availability": len(served) / trial.invocations if trial.invocations else 1.0,
    }


#: Normalised host times are scaled to a machine on which one
#: :meth:`SpeedProbe.ms` reads this many ms.
SPEED_REF_MS = 20.0
#: Speed probes taken before and after each untraced trial.
PROBES = 3


class _Event:
    __slots__ = ("t", "key", "load")

    def __init__(self, t, key, load):
        self.t, self.key, self.load = t, key, load

    def __lt__(self, other):
        return self.t < other.t


class SpeedProbe:
    """Times a fixed piece of pure-Python work, to tell how fast the
    machine runs at the moment.

    The machine may be shared, and its speed then drifts by tens of
    percent between minutes. The work has two parts shaped like the
    simulator's: small objects pushed through a heap into a dict (the
    event loop and the cluster code), and lookups at scattered
    positions of a table of about 70 MB of ints, more than a
    last-level cache holds (the page tables of a restore)."""

    table_size = 1 << 21

    def __init__(self):
        self.table = list(range(self.table_size))

    def _work(self) -> int:
        rng = random.Random(7)
        heap = []
        counts = {}
        for i in range(4_500):
            heapq.heappush(heap, _Event(rng.random(), i & 255, [i, i + 1]))
            if len(heap) > 64:
                event = heapq.heappop(heap)
                counts[event.key] = counts.get(event.key, 0) + event.load[0]
        table, mask, i, acc = self.table, self.table_size - 1, 0, 0
        for _ in range(40_000):
            i = (i * 1_103_515_245 + 12_345) & mask
            acc += table[i]
        return acc + len(counts)

    def ms(self) -> float:
        """Host ms of one run of the work, with the cyclic garbage
        collector paused so that a collection cannot land in it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._work()
            return (perf_counter() - t0) * 1000.0
        finally:
            if enabled:
                gc.enable()

    def around(self, fn, *args):
        """``fn(*args)`` and the median of :data:`PROBES` probes taken
        before it and as many after."""
        before = [self.ms() for _ in range(PROBES)]
        result = fn(*args)
        return result, statistics.median(before + [self.ms() for _ in range(PROBES)])


class TrialError(RuntimeError):
    """A trial raised in its process; the message is its traceback."""


def trial_worker(workload, seed, shards=None, trace_file=None, meta=None):
    """Run one trial in this process and return ``(trial, summary)``.

    With ``trace_file`` the layer shims are installed before anything
    is built, the spans are written to that file, and ``summary``
    holds the per-layer self times and the counts the shims saw."""
    kwargs = {"shards": shards} if shards else {}
    summary = None
    if trace_file is None:
        trial = workload.trial(seed, **kwargs)
    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            started = perf_counter()
            trial = workload.trial(seed, tracer=tracer, **kwargs)
            wall = perf_counter() - started
        finally:
            tracer.uninstall()
        results = [r for r in tracer.invocation_results if r is not None]
        summary = {
            "timed_self_ms": {k: v * 1000.0 for k, v in tracer.self_seconds("timed").items()},
            "all_self_ms": {k: v * 1000.0 for k, v in tracer.self_seconds().items()},
            "calls": dict(tracer.calls_by_name),
            "fetch_bytes": sum(r.fetch_bytes for r in results),
            "fetch_us": sum(r.fetch_time_us for r in results),
            "wall_s": wall,
            "spans": len(tracer.spans),
            "missing": list(tracer.missing),
        }
        tracer.dump(trace_file, dict(meta or {}, checksum=trial.checksum))
    trial.extra["peak_rss_mb"] = peak_rss_mb()
    return trial, summary


def child_main() -> int:
    """Body of a trial process: read the pickled ``trial_worker``
    arguments from stdin, run the trial and write the pickled
    ``(ok, payload)`` reply to the original stdout. Anything the
    simulator prints goes to stderr, so it cannot corrupt the reply."""
    reply_out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    args = pickle.load(sys.stdin.buffer)
    try:
        reply = (True, trial_worker(*args))
    except Exception:
        reply = (False, traceback.format_exc())
    finally:
        # Reap any worker the trial started (the sharded backend's
        # shards) before this process reports and exits.
        for proc in multiprocessing.active_children():
            proc.terminate()
            proc.join()
    pickle.dump(reply, reply_out)
    reply_out.close()
    return 0


def fresh(*args):
    """Call ``trial_worker(*args)`` in a new interpreter and return its
    result.

    Every trial runs in its own process, so each starts the way a new
    run of the simulator does: with its module-level caches (workload
    traces, page contents) empty, and with its own peak memory. The
    process is always waited for, and killed first if this one is
    leaving early."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), CHILD_FLAG],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(pickle.dumps(args))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    try:
        ok, payload = pickle.loads(out)
    except Exception:
        ok, payload = False, f"trial process exited with code {proc.returncode} and no reply"
    if not ok:
        raise TrialError(payload)
    return payload


def run_trials(workload, seed: int, seconds: float):
    trials, errors = [], []
    probe = SpeedProbe()
    started = perf_counter()
    timed = 0.0
    while len(trials) < workload.min_trials or timed < seconds:
        if trials and perf_counter() - started > WALL_CAP_S:
            break
        try:
            (trial, _), speed_ms = probe.around(fresh, workload, seed)
        except TrialError as error:  # reported and counted, not fatal
            errors.append(str(error))
            if len(errors) >= 2:
                break
            continue
        trial.extra["speed_ms"] = speed_ms
        trials.append(trial)
        timed += trial.timed_s
    return trials, errors


def check_trials(trials, errors):
    """Output checks across the trials of one run: each trial's own
    misses, and an identical simulated checksum in every trial."""
    attempted = sum(len(t.step_s) for t in trials) + len(errors)
    misses = [m for t in trials for m in t.misses]
    if len({t.checksum for t in trials}) > 1:
        misses.append(
            "determinism: simulated checksums differ between trials "
            f"of one seed: {sorted({t.checksum for t in trials})}"
        )
    failed = min(attempted, len(misses) + len(errors))
    return max(attempted, 1), failed, misses


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_provenance(args, calib):
    prov = {
        "git_sha": git_sha(),
        "python": pyplatform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "calibration_ms": round(calib, 3),
    }
    print(
        "provenance: "
        + ", ".join(f"{k}={v}" for k, v in prov.items())
        + " (calibration = best of 3 runs of a fixed pure-Python loop)"
    )


# -- untraced -------------------------------------------------------------


def untraced(args, workload):
    trials, errors = run_trials(workload, args.seed, args.seconds)
    for error in errors:
        print(error, file=sys.stderr)
    if not trials:
        return None, 1, 1, ["every trial raised"]
    attempted, failed, misses = check_trials(trials, errors)
    first = trials[0]
    sim = sim_metrics(first)
    # Host times scaled by each trial's speed probe (see SPEED_REF_MS).
    speed = [t.extra["speed_ms"] / SPEED_REF_MS for t in trials]
    raw_rates = [t.invocations / t.timed_s for t in trials]
    rates = [r * k for r, k in zip(raw_rates, speed)]
    steps = [s * 1000.0 for t in trials for s in t.step_s]
    step_tail = tail(steps)
    raw_setup = statistics.median(t.setup_s for t in trials)
    setup = statistics.median(t.setup_s / k for t, k in zip(trials, speed))
    inv_per_s = statistics.median(rates)
    rss = statistics.median(t.extra["peak_rss_mb"] for t in trials)
    sim_tail = sim["tail"]
    if sim_tail is None or math.isinf(sim_tail[0]):
        misses.append(
            "sim tail: fewer than 11 arrivals, or the tail arrival was "
            "shed or failed"
        )
        failed = min(attempted, failed + 1)
        tail_value = max(first.latencies_ms, default=0.0)
    else:
        tail_value = sim_tail[0]

    print(
        f"{workload.name}: {len(trials)} trial(s), seed {args.seed}, "
        f"{first.invocations} simulated invocations per trial, "
        f"{attempted} timed operations, checksum {first.checksum} "
        f"(latency sum {first.latency_sum_us:.3f} us)"
    )
    rows = [
        ("setup_s", "s", "host", f"{setup:.4f}", f"median of {len(trials)} set-ups, normalised"),
        ("setup_s_raw", "s", "host", f"{raw_setup:.4f}", "the same, not normalised"),
        (
            "inv_per_s",
            "1/s",
            "host",
            f"{inv_per_s:.3f}",
            "normalised, median of trials " + ", ".join(f"{r:.3f}" for r in rates),
        ),
        (
            "inv_per_s_raw",
            "1/s",
            "host",
            f"{statistics.median(raw_rates):.3f}",
            "median of trials " + ", ".join(f"{r:.3f}" for r in raw_rates),
        ),
        (
            "speed_probe_ms",
            "ms",
            "host",
            f"{statistics.median(t.extra['speed_ms'] for t in trials):.3f}",
            f"median over trials of each trial's median probe; host times are scaled to {SPEED_REF_MS} ms",
        ),
    ]
    if workload.name == "sharded-chaos":
        rows += [
            ("step_ms_p50", "ms", "host", "n/a", "one run call per trial"),
            ("step_ms_tail", "ms", "host", "n/a", "one run call per trial"),
        ]
    else:
        rows += [
            ("step_ms_p50", "ms", "host", f"{statistics.median(steps):.3f}", f"n={len(steps)}"),
            (
                "step_ms_tail",
                "ms",
                "host",
                f"{step_tail[0]:.3f}" if step_tail else "n/a",
                f"p{step_tail[1]:.1f}, n={step_tail[2]}, 10 beyond" if step_tail else "too few steps",
            ),
        ]
    rows += [
        ("peak_rss_mb", "MB", "host", f"{rss:.1f}", f"median of {len(trials)} trial processes"),
        ("failed_frac", "ratio", "-", f"{failed / attempted:.4f}", f"{failed}/{attempted} operations"),
        ("sim_ms_p50", "ms", "sim", f"{sim['p50']:.4f}", f"n={len(first.latencies_ms)} served"),
        (
            "sim_ms_tail",
            "ms",
            "sim",
            f"{tail_value:.4f}",
            f"p{sim_tail[1]:.1f}, n={sim_tail[2]}, 10 beyond" if sim_tail else "too few arrivals",
        ),
        ("sim_availability", "ratio", "sim", f"{sim['availability']:.4f}", f"{len(first.latencies_ms)}/{first.invocations}"),
    ]
    if workload.name == "restore-cold":
        for base in ("firecracker", "reap"):
            value = first.extra[f"speedup_vs_{base}"]
            ref = PAPER_SPEEDUP[base]
            rows.append(
                (
                    f"sim_speedup_vs_{base}",
                    "x",
                    "sim",
                    f"{value:.4f}",
                    f"Figure 6 A->B geomean; paper ~{ref}x, model error {100 * (value - ref) / ref:+.1f}%",
                )
            )
    else:
        rows += [
            ("sim_speedup_vs_firecracker", "x", "sim", "n/a", "restore-cold only"),
            ("sim_speedup_vs_reap", "x", "sim", "n/a", "restore-cold only"),
        ]
    for name, unit, clock, value, note in rows:
        print(f"  {name:<28} {value:>14} {unit:<6} [{clock:>4}] {note}")
    if workload.name != "restore-cold":
        print(
            "  note: the cluster workloads' sim_* metrics have no paper "
            "reference; the model is unvalidated there."
        )
    print(f"  outcomes: {first.outcomes}")
    metrics = {
        "setup_s": metric(setup, "s"),
        "inv_per_s": metric(inv_per_s, "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
        "sim_ms_p50": metric(sim["p50"], "ms"),
        "sim_ms_tail": metric(tail_value, "ms"),
        "sim_availability": metric(sim["availability"], "ratio"),
    }
    return metrics, attempted, failed, misses


# -- traced ---------------------------------------------------------------


def _per(value, base):
    return value / base if base else 0.0


def layer_metrics(trial, summary, base_trial, traced_rate, untraced_rate, calib):
    """Per-layer metrics of one traced trial. ``trial.counts`` are work
    counts of the timed part; self times are host ms of the timed part
    unless the metric is per record or per capture."""
    c = trial.counts
    inv = trial.invocations
    steps = len(trial.step_s)
    timed_self = summary["timed_self_ms"]
    all_self = summary["all_self_ms"]
    traced_wall_s = summary["wall_s"]

    def own(layer):
        return timed_self.get(layer, 0.0)

    events = c.get("sim.engine.events", 0)
    hits, misses_ = c.get("page_cache.hits", 0), c.get("page_cache.misses", 0)
    requests = c.get("device.requests", 0)
    fast, slow = c.get("vcpu.fast_path_accesses", 0), c.get("vcpu.event_path_accesses", 0)
    started = c.get("starts.warm", 0) + c.get("starts.snapshot", 0) + c.get("starts.cold", 0)
    fired, won = c.get("hedge.fired", 0), c.get("hedge.won", 0)
    records = trial.setup_counts.get("record_phases", 0) + c.get("record_phases", 0)
    captures = summary["calls"].get("create_snapshot", 0)
    windows = c.get("cluster.router.windows", 0)
    if "loader.fetch_bytes" in c:
        fetch_bytes, fetch_us = c["loader.fetch_bytes"], c["loader.fetch_time_us"]
    else:
        fetch_bytes, fetch_us = summary["fetch_bytes"], summary["fetch_us"]
    untraced_events_us = base_trial.timed_s * 1e6

    m = {
        # bases
        "base.invocations": (inv, "count", "simulated invocations in the timed part"),
        "base.steps": (steps, "count", "timed operations"),
        "base.events": (events, "count", "heap events in the timed part"),
        "base.records": (records, "count", "record phases (set-up and serving)"),
        "base.captures": (captures, "count", "create_snapshot calls"),
        # sim
        "sim.events_per_inv": (_per(events, inv), "count", f"base {inv} invocations"),
        "sim.host_us_per_event": (_per(untraced_events_us, events), "us", f"untraced trial, base {events} events"),
        "sim.self_ms_per_inv": (_per(own("sim"), inv), "ms", f"base {inv} invocations"),
        # host
        "host.fault.major_per_inv": (_per(c.get("fault.major", 0), inv), "count", f"base {inv} invocations"),
        "host.fault.minor_per_inv": (_per(c.get("fault.minor", 0), inv), "count", f"base {inv} invocations"),
        "host.fault.anon_per_inv": (_per(c.get("fault.anon", 0), inv), "count", f"base {inv} invocations"),
        "host.uffd.delegated_per_inv": (_per(c.get("uffd.delegated_faults", 0), inv), "count", f"base {inv} invocations"),
        "host.fault.self_ms_per_inv": (_per(own("host.fault"), inv), "ms", f"base {inv} invocations"),
        "host.page_cache.hit_ratio": (_per(hits, hits + misses_), "ratio", f"base {hits + misses_} lookups"),
        "host.page_cache.shared_waits_per_inv": (_per(c.get("page_cache.shared_waits", 0), inv), "count", f"base {inv} invocations"),
        "host.page_cache.self_ms_per_inv": (_per(own("host.page_cache"), inv), "ms", f"base {inv} invocations"),
        "host.readahead.self_ms_per_inv": (_per(own("host.readahead"), inv), "ms", f"base {inv} invocations"),
        "host.uffd.self_ms_per_inv": (_per(own("host.uffd"), inv), "ms", f"base {inv} invocations"),
        # storage
        "storage.device.requests_per_inv": (_per(requests, inv), "count", f"base {inv} invocations"),
        "storage.device.bytes_per_inv": (_per(c.get("device.bytes_read", 0), inv), "bytes", f"base {inv} invocations"),
        "storage.device.sequential_ratio": (_per(c.get("device.sequential_requests", 0), requests), "ratio", f"base {requests} requests"),
        "storage.device.queue_wait_ms_per_inv": (_per(c.get("device.queue_wait_us", 0) / 1000.0, inv), "ms", f"sim clock, base {inv} invocations"),
        "storage.device.self_ms_per_inv": (_per(own("storage.device"), inv), "ms", f"base {inv} invocations"),
        "storage.filestore.self_ms_per_inv": (_per(own("storage.filestore"), inv), "ms", f"base {inv} invocations"),
        # vm
        "vm.vcpu.fast_path_ratio": (_per(fast, fast + slow), "ratio", f"base {fast + slow} accesses"),
        "vm.vcpu.self_ms_per_inv": (_per(own("vm.vcpu"), inv), "ms", f"base {inv} invocations"),
        "vm.vmm.self_ms_per_inv": (_per(own("vm.vmm"), inv), "ms", f"base {inv} invocations"),
        "vm.snapshot.self_ms_per_capture": (_per(all_self.get("vm.snapshot", 0.0), captures), "ms", f"set-up and timed, base {captures} captures"),
        # core
        "core.restore.self_ms_per_inv": (_per(own("core.restore"), inv), "ms", f"base {inv} invocations"),
        "core.loader.fetch_bytes_per_inv": (_per(fetch_bytes, inv), "bytes", f"base {inv} invocations"),
        "core.loader.fetch_ms_per_inv": (_per(fetch_us / 1000.0, inv), "ms", f"sim clock, base {inv} invocations"),
        "core.record.self_ms_per_record": (_per(all_self.get("core.record", 0.0), records), "ms", f"set-up and timed, base {records} records"),
        # cluster
        "cluster.scheduler.warm_ratio": (_per(c.get("starts.warm", 0), started), "ratio", f"base {started} starts"),
        "cluster.scheduler.snapshot_ratio": (_per(c.get("starts.snapshot", 0), started), "ratio", f"base {started} starts"),
        "cluster.scheduler.cold_ratio": (_per(c.get("starts.cold", 0), started), "ratio", f"base {started} starts"),
        "cluster.scheduler.self_ms_per_inv": (_per(own("cluster.scheduler"), inv), "ms", f"base {inv} invocations"),
        "cluster.placement.decisions_per_inv": (_per(c.get("cluster.placement.decisions", 0), inv), "count", f"base {inv} invocations"),
        "cluster.placement.self_ms_per_inv": (_per(own("cluster.placement"), inv), "ms", f"base {inv} invocations"),
        "cluster.router.windows": (windows, "count", ""),
        "cluster.router.redispatches": (c.get("cluster.router.redispatches", 0), "count", ""),
        "cluster.router.self_ms_per_window": (_per(own("cluster.router"), windows), "ms", f"base {windows} windows"),
        # faults
        "faults.retry.attempts_per_inv": (_per(c.get("retry.attempts", 0), inv), "count", f"base {inv} invocations"),
        "faults.retry.denied": (c.get("retry.denied", 0), "count", ""),
        "faults.hedge.won_ratio": (_per(won, fired), "ratio", f"base {fired} hedges fired"),
        "faults.durability.detected_restore": (c.get("durability.detected_restore", 0), "count", ""),
        "faults.durability.detected_scrub": (c.get("durability.detected_scrub", 0), "count", ""),
        "faults.durability.repairs": (c.get("durability.repairs", 0), "count", ""),
        "faults.durability.silent_corrupt_serves": (c.get("durability.silent_corrupt_serves", 0), "count", ""),
        "faults.health.drains": (c.get("health.drains", 0), "count", ""),
        "faults.self_ms_per_inv": (_per(own("faults.durability") + own("faults.health"), inv), "ms", f"base {inv} invocations"),
        # service, metrics
        "service.self_ms_per_step": (_per(own("service"), steps), "ms", f"base {steps} steps"),
        "metrics.self_ms_per_inv": (_per(own("metrics"), inv), "ms", f"base {inv} invocations"),
        # the tracing itself
        "trace.inv_per_s_untraced": (untraced_rate, "1/s", "untraced trial"),
        "trace.inv_per_s_traced": (traced_rate, "1/s", "traced trial"),
        "trace.slowdown": (_per(untraced_rate, traced_rate), "ratio", "untraced / traced inv_per_s"),
        "trace.uncovered_share": (
            _per(all_self.get("(uncovered)", 0.0), traced_wall_s * 1000.0),
            "ratio",
            f"base {traced_wall_s:.3f} s traced wall time",
        ),
        "machine.calibration_ms": (calib, "ms", "fixed pure-Python loop"),
    }
    return m


def traced(args, workload, calib):
    base, _ = fresh(workload, args.seed)
    baseline, shards = base, None
    if workload.name == "sharded-chaos":
        # The traced trial uses the in-process serial backend, which
        # the shims can see; the determinism contract makes its
        # results equal to shards=N. Its overhead is measured against
        # an untraced serial trial.
        shards = 1
        baseline, _ = fresh(workload, args.seed, shards)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace.json"
    meta = {"workload": workload.name, "seed": args.seed}
    trial, summary = fresh(workload, args.seed, shards, str(path), meta)
    misses = list(trial.misses) + list(base.misses)
    if trial.checksum != base.checksum:
        misses.append(
            f"tracing perturbed the simulation: checksum {trial.checksum} != untraced {base.checksum}"
        )
    if trial.counts != base.counts:
        diff = sorted(k for k in set(trial.counts) | set(base.counts) if trial.counts.get(k) != base.counts.get(k))
        misses.append(f"tracing changed work counts: {diff}")
    if summary["missing"]:
        print(f"note: entry points not present in this tree: {summary['missing']}")
    if workload.name == "sharded-chaos":
        print(
            "note: the prep epoch runs inside the sharded run call, so "
            "this workload's work counts and timed self times include it"
        )
    untraced_rate = baseline.invocations / baseline.timed_s
    traced_rate = trial.invocations / trial.timed_s
    layers = layer_metrics(trial, summary, baseline, traced_rate, untraced_rate, calib)
    print(
        f"{workload.name} traced: checksum {trial.checksum} "
        f"(untraced {base.checksum}), {trial.invocations} invocations, "
        f"traced wall {summary['wall_s']:.3f} s"
    )
    for name, (value, unit, note) in layers.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {note}")
    print(f"  spans written to {path.relative_to(ROOT)} ({summary['spans']} kept spans)")
    metrics = {name: metric(value, unit) for name, (value, unit, _note) in layers.items()}
    attempted = len(trial.step_s) + len(base.step_s)
    return metrics, attempted, min(attempted, len(misses)), misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    calib = calibration_ms()
    print_provenance(args, calib)
    if args.trace:
        metrics, attempted, failed, misses = traced(args, workload, calib)
    else:
        metrics, attempted, failed, misses = untraced(args, workload)
    for miss in misses:
        print(f"CHECK FAILED: {miss}", file=sys.stderr)
    correct = not misses and metrics is not None
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics or {},
            }
        )
    )
    return 0 if correct else 1


def _exit_on_term(signum, _frame):
    # Raising here runs every ``finally``, so a terminated run still
    # kills and waits for its trial process.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_term)
    if sys.argv[1:] == [CHILD_FLAG]:
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        sys.exit(child_main())
    sys.exit(main())
