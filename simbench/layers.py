"""Per-layer tracing for the simulator benchmark, installed from outside.

A :class:`LayerTracer` wraps the public entry points of each simulator
layer (see :data:`LAYER_CALLS`) for the length of one traced replay and
records a span around every call: its name, start, end, enclosing span
and, where the call carries a job or an invocation record, that job's
id.  Every generator handed to ``Environment.process`` is wrapped in a
:class:`TracedGenerator`, so each resumption of a process body is a span
of its own, named after the process family.

Spans live in parallel ``array`` columns while the replay runs and are
written out once it ends.  A span's self time is its duration minus the
durations of its direct children; because the simulator is
single-threaded, children nest strictly inside their parent and never
overlap, so that difference is exactly the part of the parent's interval
no child covers.  Layer figures are sums over the span names of a layer.

Nothing under ``src/`` is edited: the wrappers are class attributes set
by :meth:`LayerTracer.install` and restored by
:meth:`LayerTracer.uninstall`.  The wrappers draw no random numbers and
keep no reference to any argument or return value, so a traced replay
fires the same events in the same order as an untraced one, and the
kernel's refcount-gated carrier pools see the same reference counts.
"""

from __future__ import annotations

import importlib
import re
from array import array
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Wrapped calls: (module, class, method names, layer, job argument).
#: The job argument is the position (``self`` = 0) of the argument whose
#: ``job_id`` the span records, or None.
LAYER_CALLS: Tuple[Tuple[str, str, Tuple[str, ...], str, Optional[int]], ...] = (
    ("repro.sim.kernel", "Environment", ("run", "timeout"), "sim", None),
    (
        "repro.core.orchestrator",
        "Orchestrator",
        (
            "submit_batch",
            "complete",
            "fail",
            "resubmit",
            "recover_job",
            "is_delivered",
            "discard_stale_attempt",
        ),
        "core.orchestrator",
        1,
    ),
    ("repro.core.queue", "WorkerQueue", ("push",), "core.queue", 1),
    ("repro.core.queue", "WorkerQueue", ("pop",), "core.queue", None),
    ("repro.core.telemetry", "TelemetryCollector", ("record",), "core.telemetry", 1),
    ("repro.hardware.power", "PowerTrace", ("record",), "hardware.power", None),
    ("repro.hardware.power", "PowerStateMachine", ("set_state",), "hardware.power", None),
    (
        "repro.hardware.sbc",
        "SingleBoardComputer",
        (
            "power_on",
            "boot_complete",
            "begin_reboot",
            "power_off",
            "start_compute",
            "start_io_wait",
            "finish_job",
        ),
        "hardware.sbc",
        None,
    ),
    ("repro.net.transfer", "TransferModel", ("transfer",), "net", None),
    (
        "repro.energy.controlplane",
        "EnergyLedger",
        ("bill_attempt", "bill_crashed_attempt"),
        "energy.ledger",
        1,
    ),
    (
        "repro.obs.trace",
        "TraceRecorder",
        (
            "sample",
            "begin_trace",
            "span",
            "annotate",
            "begin_attempt",
            "end_attempt",
            "mark_delivered",
        ),
        "obs",
        None,
    ),
)

_INSTANCE_SUFFIX = re.compile(r"-\d.*$")


def process_family(name: str) -> str:
    """The family a process name belongs to: the name up to its first
    numeric segment (``sbc-worker-3`` → ``sbc-worker``,
    ``chaos-12-worker-crash`` → ``chaos``)."""
    return _INSTANCE_SUFFIX.sub("", name)


class SpanRecorder:
    """Spans as parallel columns, with the stack of open spans."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("q")
        self.stack: List[int] = []

    def name_id(self, name: str) -> int:
        """Intern a span name."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def reset(self) -> None:
        """Drop every recorded span, keeping the columns' identity (the
        installed wrappers hold references to them)."""
        if self.stack:
            raise RuntimeError("reset() with spans still open")
        for column in (self.start, self.end, self.name, self.parent, self.job):
            del column[:]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int, job_id: int = -1) -> int:
        """Start a span inside the innermost open one; returns its index."""
        stack = self.stack
        index = len(self.start)
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(name_id)
        self.job.append(job_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as numpy arrays (``end`` of a still-open span is 0)."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans and the name table to ``path`` (``.npz``)."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        cols = self.columns()
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - child
        size = len(self.names)
        calls = np.bincount(cols["name"], minlength=size)
        inclusive = np.bincount(cols["name"], weights=duration, minlength=size)
        self_s = np.bincount(cols["name"], weights=own, minlength=size)
        return {
            name: (int(calls[i]), float(inclusive[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }


def _job_id(args, position: Optional[int]) -> int:
    if position is None or len(args) <= position:
        return -1
    job_id = getattr(args[position], "job_id", None)
    return job_id if isinstance(job_id, int) else -1


def _wrap_call(recorder: SpanRecorder, name_id: int, fn, job_arg):
    # SpanRecorder.open/close inlined: these wrappers run millions of
    # times per traced replay, and their cost lands in the parent span.
    start = recorder.start
    end = recorder.end
    names = recorder.name
    parents = recorder.parent
    jobs = recorder.job
    stack = recorder.stack

    def traced(*args, **kwargs):
        index = len(start)
        parents.append(stack[-1] if stack else -1)
        names.append(name_id)
        jobs.append(_job_id(args, job_arg))
        end.append(0.0)
        stack.append(index)
        start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            end[index] = perf_counter()
            stack.pop()

    return traced


class TracedGenerator:
    """Stands in for a process generator and times each resumption.

    Forwards ``send`` and ``throw`` (including chaos ``Interrupt``\\ s)
    to the wrapped generator; ``StopIteration`` carrying the return value
    propagates unchanged.  Keeps no reference to values sent in or events
    yielded out.
    """

    def __init__(self, generator, recorder: SpanRecorder, name_id: int):
        self._generator = generator
        self._recorder = recorder
        self._name_id = name_id
        #: Read by ``Process`` when the caller gives no name.
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value):
        index = self._recorder.open(self._name_id)
        try:
            return self._generator.send(value)
        finally:
            self._recorder.close(index)

    def throw(self, exception):
        index = self._recorder.open(self._name_id)
        try:
            return self._generator.throw(exception)
        finally:
            self._recorder.close(index)


class LayerTracer:
    """Installs and removes the layer wrappers; owns the recorder."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self._saved: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        recorder = self.recorder
        for module_name, class_name, methods, layer, job_arg in LAYER_CALLS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(
                    cls, method, recorder.name_id(f"{layer}:{method}"), job_arg
                )
        from repro.core.scheduler import AssignmentPolicy

        for cls in _subclasses(AssignmentPolicy):
            if "select" in cls.__dict__:
                self._patch(
                    cls, "select", recorder.name_id("core.scheduler:select"), 1
                )
        from repro.sim.kernel import Environment

        process = Environment.__dict__["process"]
        families: Dict[str, int] = {}

        def traced_process(env, generator, name=""):
            family = process_family(
                name or getattr(generator, "__name__", "process")
            )
            name_id = families.get(family)
            if name_id is None:
                name_id = families[family] = recorder.name_id(f"proc.{family}")
            return process(env, TracedGenerator(generator, recorder, name_id), name)

        self._patch(
            Environment, "process", recorder.name_id("sim:process"), None,
            wrapped=traced_process,
        )

    def _patch(self, cls: type, method: str, name_id: int, job_arg,
               wrapped=None) -> None:
        """Replace ``cls.method`` by a span around ``wrapped`` (default:
        the method itself)."""
        original = cls.__dict__[method]
        self._saved.append((cls, method, original))
        setattr(
            cls, method,
            _wrap_call(self.recorder, name_id, wrapped or original, job_arg),
        )

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _subclasses(cls: type) -> List[type]:
    """Every subclass of ``cls`` imported so far, each once."""
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found
