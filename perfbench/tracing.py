"""Host-time tracing of the simulator's layers, installed from outside.

:func:`install` wraps public entry points of the ``repro`` packages
with timing shims. Every shim pushes a frame on one call stack on
entry and pops it on exit, so a layer's *self time* is its span minus
the part covered by the spans of the calls it made (its children).
Generator entry points (the sim's process helpers, reached through
``yield from``) get a generator shim that forwards every resumption,
value and exception, and times each resumption as one span.

Spans at coarse boundaries (one invocation, one restore, one service
command, one placement decision) are kept individually, with name,
start, end, parent span and invocation id. The boundaries called
millions of times per run (the kernel's ``step``, page lookups,
device reads) are aggregated per (layer, parent layer) instead.
Everything stays in memory until :meth:`Tracer.dump`.

The shims must not perturb the simulation: they hold no reference to
a yielded event while the wrapped generator is suspended (the kernel
recycles timeouts nobody else references) and change no argument or
return value. The benchmark checks that a traced trial reproduces the
untraced trial's simulated checksum exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, "module:Class.method" or "module:function", keep spans).
#: ``Class.*`` names are wrapped on the class and every subclass that
#: defines the method itself. Entry points missing from the tree are
#: skipped and listed by :attr:`Tracer.missing`.
ENTRY_POINTS: Tuple[Tuple[str, str, bool], ...] = (
    ("sim", "repro.sim.engine:Environment.step", False),
    ("storage.device", "repro.storage.device:BlockDevice.read", False),
    ("storage.filestore", "repro.storage.filestore:StoredFile.page_value", False),
    ("storage.filestore", "repro.storage.filestore:StoredFile.read", False),
    ("storage.filestore", "repro.storage.filestore:StoredFile.data_runs", False),
    ("storage.filestore", "repro.storage.filestore:StoredFile.chunk_checksums", False),
    ("host.fault", "repro.host.fault:FaultHandler.access", False),
    ("host.fault", "repro.host.fault:FaultHandler.fast_access", False),
    ("host.fault", "repro.host.fault:plan_uncontended_read", False),
    ("host.page_cache", "repro.host.page_cache:PageCache.missing_ranges", False),
    ("host.page_cache", "repro.host.page_cache:PageCache.insert_range", False),
    ("host.readahead", "repro.host.readahead:ReadaheadPolicy.plan", False),
    ("host.readahead", "repro.host.readahead:ReadaheadPolicy.fault_read", False),
    ("host.uffd", "repro.host.uffd:UserfaultfdManager.handle_fault", False),
    ("vm.vcpu", "repro.vm.vcpu:VCpu.run_trace", False),
    ("vm.vmm", "repro.vm.vmm:MicroVM.restore", True),
    ("vm.vmm", "repro.vm.vmm:MicroVM.apply_plan", False),
    ("vm.vmm", "repro.vm.vmm:MicroVM.cold_boot", True),
    ("vm.snapshot", "repro.vm.snapshot:create_snapshot", False),
    ("vm.snapshot", "repro.vm.snapshot:capture_memory_contents", False),
    ("core.restore", "repro.core.host:Host.invocation", True),
    ("core.record", "repro.core.host:Host.record_process", True),
    ("cluster.placement", "repro.cluster.placement:PlacementPolicy.choose", False),
    ("cluster.scheduler", "repro.cluster.scheduler:ClusterSimulator._dispatch_arrival", False),
    ("cluster.scheduler", "repro.cluster.scheduler:ClusterSimulator._serve", False),
    ("cluster.scheduler", "repro.cluster.scheduler:ClusterSimulator._serve_robust", False),
    ("cluster.scheduler", "repro.cluster.scheduler:ClusterSimulator._attempt", False),
    ("cluster.scheduler", "repro.cluster.sharding:_ShardHostSim._serve_sharded", False),
    ("faults.durability", "repro.faults.durability:DurabilityManager.verify_restore", True),
    ("faults.durability", "repro.faults.durability:DurabilityManager.publish", True),
    ("faults.durability", "repro.faults.durability:DurabilityManager.scrub_host", True),
    ("faults.health", "repro.faults.health:HealthMonitor.check_now", False),
    ("metrics", "repro.metrics.telemetry:HostTelemetry.absorb_fault_records", False),
    ("service", "repro.service.core:ClusterService.execute", True),
    ("cluster.router", "repro.cluster.sharding:ShardedClusterSimulator.run", True),
)

#: The layer that owns time no shim covers (the benchmark's own loop).
UNCOVERED = "(uncovered)"


class _Frame:
    __slots__ = ("layer", "start", "child", "span")

    def __init__(self, layer: str, start: float, span: Optional[int]):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span = span


def _count(table: Dict[str, int], name: str) -> None:
    table[name] = table.get(name, 0) + 1


class Tracer:
    """The span stack, the per-layer aggregates and the kept spans."""

    def __init__(self) -> None:
        self._stack: List[_Frame] = [_Frame(UNCOVERED, 0.0, None)]
        #: (phase, layer, parent layer) -> [self seconds, calls].
        self.aggregate: Dict[Tuple[str, str, str], List[float]] = {}
        #: Kept spans: [name, start, end, parent span id, invocation id].
        self.spans: List[List[Any]] = []
        self.phase = "setup"
        #: Calls per entry point; a generator entry point counts one
        #: call per generator created, not per resumption.
        self.calls_by_name: Dict[str, int] = {}
        self.missing: List[str] = []
        self._inv_counter = 0
        self._inv_stack: List[int] = []
        self._restores: List[Callable[[], None]] = []
        #: Invocation results seen by the ``Host.invocation`` shim.
        self.invocation_results: List[Any] = []

    # -- the span stack -------------------------------------------------

    def _enter(self, layer: str, name: str, keep: bool) -> _Frame:
        span = None
        if keep:
            span = len(self.spans)
            # The nearest kept ancestor: aggregated frames keep no span.
            parent = next(
                (f.span for f in reversed(self._stack) if f.span is not None), None
            )
            inv = self._inv_stack[-1] if self._inv_stack else None
            self.spans.append([name, 0.0, 0.0, parent, inv])
        frame = _Frame(layer, perf_counter(), span)
        self._stack.append(frame)
        return frame

    def _leave(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        duration = end - frame.start
        parent.child += duration
        key = (self.phase, frame.layer, parent.layer)
        slot = self.aggregate.get(key)
        if slot is None:
            self.aggregate[key] = [duration - frame.child, 1]
        else:
            slot[0] += duration - frame.child
            slot[1] += 1
        if frame.span is not None:
            record = self.spans[frame.span]
            record[1] = frame.start
            record[2] = end

    # -- shims ----------------------------------------------------------

    def _timed(self, gen, layer: str, name: str, keep: bool):
        """Forward every resumption of ``gen`` and time each one."""
        enter, leave = self._enter, self._leave
        inv_stack = self._inv_stack
        inv_id = None
        if name == "Host.invocation":
            self._inv_counter += 1
            inv_id = self._inv_counter
        sent: Any = None
        thrown: Optional[BaseException] = None
        while True:
            if inv_id is not None:
                inv_stack.append(inv_id)
            frame = enter(layer, name, keep)
            try:
                if thrown is None:
                    out = [gen.send(sent)]
                else:
                    exc, thrown = thrown, None
                    out = [gen.throw(exc)]
            except StopIteration as stop:
                if inv_id is not None:
                    self.invocation_results.append(stop.value)
                return stop.value
            finally:
                leave(frame)
                if inv_id is not None:
                    inv_stack.pop()
            try:
                # ``out.pop()`` leaves no reference to the yielded
                # event in this frame while the caller holds it.
                sent = yield out.pop()
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                thrown = exc
                sent = None

    def _shim(self, fn, layer: str, name: str, keep: bool):
        """A shim for ``fn``. A generator it creates or returns (some
        entry points, like ``Host.invocation``, return another
        function's generator) is timed resumption by resumption."""
        enter, leave, timed = self._enter, self._leave, self._timed
        calls = self.calls_by_name
        generator_function = inspect.isgeneratorfunction(fn)
        isgenerator = inspect.isgenerator

        def wrap(gen):
            wrapped = timed(gen, layer, name, keep)
            # Processes are named after their generator.
            wrapped.__name__, wrapped.__qualname__ = gen.__name__, gen.__qualname__
            return wrapped

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            _count(calls, name)
            if generator_function:
                return wrap(fn(*args, **kwargs))
            frame = enter(layer, name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame)
            return wrap(out) if isgenerator(out) else out

        return shim

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point. Call before the traced trial builds
        any simulator object: some components bind methods of others
        when they are constructed."""
        _import_all("repro")
        for layer, target, keep in ENTRY_POINTS:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                cls = getattr(module, class_name, None)
                if cls is None or not hasattr(cls, method):
                    self.missing.append(target)
                    continue
                for klass in [cls] + _subclasses(cls):
                    original = klass.__dict__.get(method)
                    if original is None or not callable(original):
                        continue
                    if getattr(original, "__isabstractmethod__", False):
                        continue
                    name = f"{klass.__name__}.{method}"
                    setattr(klass, method, self._shim(original, layer, name, keep))
                    self._restores.append(
                        functools.partial(setattr, klass, method, original)
                    )
            else:
                original = getattr(module, qualname, None)
                if original is None:
                    self.missing.append(target)
                    continue
                shim = self._shim(original, layer, qualname, keep)
                # Rebind every module that imported the function by
                # name, not only its home module.
                for other in _loaded("repro"):
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, shim)
                            self._restores.append(
                                functools.partial(setattr, other, attr, original)
                            )

    def uninstall(self) -> None:
        for restore in reversed(self._restores):
            restore()
        self._restores.clear()

    # -- results --------------------------------------------------------

    def self_seconds(self, phase: Optional[str] = None) -> Dict[str, float]:
        """Self time per layer, over one phase or all of them."""
        out: Dict[str, float] = {}
        for (ph, layer, _parent), (seconds, _calls) in self.aggregate.items():
            if phase is None or ph == phase:
                out[layer] = out.get(layer, 0.0) + seconds
        return out

    def close_phase(self, wall_seconds: float, next_phase: str) -> None:
        """End the current phase, which took ``wall_seconds``: credit
        the part no span covered to :data:`UNCOVERED`, so the phase's self
        times sum to its wall time, then start ``next_phase``."""
        root = self._stack[0]
        self.aggregate[(self.phase, UNCOVERED, "")] = [
            wall_seconds - root.child,
            1,
        ]
        root.child = 0.0
        self.phase = next_phase

    def dump(self, path, meta: Dict[str, Any]) -> None:
        doc = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent", "invocation"],
            "spans": self.spans,
            "aggregated": [
                {
                    "phase": phase,
                    "layer": layer,
                    "parent": parent,
                    "self_s": seconds,
                    "calls": calls,
                }
                for (phase, layer, parent), (seconds, calls) in sorted(
                    self.aggregate.items()
                )
            ],
            "calls_by_name": self.calls_by_name,
            "missing_entry_points": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


def _import_all(package: str) -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _loaded(package: str):
    import sys

    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == package or name.startswith(package + "."))
    ]


def _subclasses(cls) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
