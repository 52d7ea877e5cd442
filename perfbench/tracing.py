"""Per-layer spans, recorded from outside the simulator.

:class:`Tracer` wraps the public entry points of each layer (the table
:data:`LAYER_CALLS`) for the duration of a traced pass and restores them
afterwards; nothing under ``src/`` changes.  Every wrapped call records a
span ``(name, start, end, parent, job)``, where ``parent`` is the index
of the enclosing span and ``job`` the benchmark's job number.  A
layer's *self time* is its spans' durations minus the time covered by
their child spans, so the self times of all layers plus the root span
(``other``) add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.cost_model import RecordSizer
from repro.cluster.events import SimKernel
from repro.columnar import datagen, kernels
from repro.core.group_manager import GroupManager
from repro.core.locality_manager import LocalityManager
from repro.engine.block_manager import BlockManagerMaster
from repro.engine.compute import EvalContext
from repro.engine.dag_scheduler import DAGScheduler
from repro.engine.task_scheduler import TaskScheduler
from repro.obs.bus import EventBus
from repro.service.pools import PoolSet
from repro.service.service import DatasetService
from repro.sql import compiler, optimizer, parser
from repro.workloads.taxi import TaxiTrace
from repro.workloads.twitter import MergedTaxiTwitterTrace
from repro.workloads.wikipedia import WikipediaTrace

_INHERITED = object()

#: Counter hook: ``(tracer, args, result, before)``, where ``before``
#: is what the entry's pre-call hook returned (``None`` without one).
CountFn = Callable[["Tracer", tuple, Any, Any], None]


def _count_result_len(tracer: "Tracer", args: tuple, result: Any,
                      before: Any) -> None:
    tracer.counts["workloads.records"] += len(result)


def _count_sized(tracer: "Tracer", args: tuple, result: Any,
                 before: Any) -> None:
    tracer.counts["sizer.records"] += len(args[1])


def _not_memoized(args: tuple) -> bool:
    """Pre-call hook of ``EvalContext.evaluate(rdd, pid)``: whether the
    partition is not yet memoized in this task."""
    ctx, rdd, pid = args[0], args[1], args[2]
    return (rdd.rdd_id, pid) not in ctx._memo


def _count_evaluated(tracer: "Tracer", args: tuple, result: Any,
                     before: Any) -> None:
    if before:
        tracer.counts["compute.fresh_records"] += len(result)


def _count_cache_hit(tracer: "Tracer", args: tuple, result: Any,
                     before: Any) -> None:
    if result is not None:
        tracer.counts["cache.hit_records"] += len(result.records)


def _count_rows(tracer: "Tracer", args: tuple, result: Any,
                before: Any) -> None:
    rows = getattr(args[0], "num_rows", None) if args else None
    if isinstance(rows, int):
        tracer.counts["columnar.rows"] += rows


def _kernel_functions() -> List[tuple]:
    return [(kernels, fn_name, "columnar", _count_rows)
            for fn_name, fn in vars(kernels).items()
            if inspect.isfunction(fn) and not fn_name.startswith("_")
            and fn.__module__ == kernels.__name__]


#: (owner, attribute, span name, counter[, pre-call hook]).  A span
#: name's first dotted component is its layer.
LAYER_CALLS: List[tuple] = [
    (WikipediaTrace, "lines_for_hour_partition", "workloads",
     _count_result_len),
    (TaxiTrace, "events_for_step_partition", "workloads", _count_result_len),
    (MergedTaxiTwitterTrace, "records_for_step_partition", "workloads",
     _count_result_len),
    (datagen, "orders_rows", "workloads", _count_result_len),
    (datagen, "lineitem_rows", "workloads", _count_result_len),
    (RecordSizer, "size_of_partition", "sizer", _count_sized),
    (RecordSizer, "in_memory_size", "sizer", _count_sized),
    (EvalContext, "evaluate", "compute", _count_evaluated, _not_memoized),
    (EvalContext, "write_shuffle_output", "shuffle.write", None),
    (EvalContext, "fetch_shuffle", "shuffle.fetch", None),
    (BlockManagerMaster, "put", "cache.put", None),
    (BlockManagerMaster, "get_local", "cache.get_local", _count_cache_hit),
    (TaskScheduler, "run_taskset", "tasksched", None),
    (DAGScheduler, "run_job", "dag", None),
    (SimKernel, "run_until", "kernel", None),
    (SimKernel, "run_all", "kernel", None),
    (SimKernel, "pump", "kernel", None),
    (DatasetService, "submit", "service", None),
    (DatasetService, "run", "service", None),
    (PoolSet, "select", "service", None),
    (PoolSet, "enqueue", "service", None),
    (PoolSet, "charge", "service", None),
    (LocalityManager, "preferred_executors", "core", None),
    (GroupManager, "preferred_executors", "core", None),
    (GroupManager, "report_rdd", "core", None),
    (GroupManager, "rebalance", "core", None),
    (parser, "parse_select", "sql.parse", None),
    (optimizer, "optimize", "sql.optimize", None),
    (compiler, "compile_plan", "sql.compile", None),
    (EventBus, "post", "bus", None),
] + _kernel_functions()

#: Layers in report order; ``other`` is the root span's self time.
LAYERS = ("workloads", "sizer", "compute", "shuffle", "cache", "tasksched",
          "dag", "kernel", "service", "core", "sql", "columnar", "bus",
          "other")


class Tracer:
    """Records spans around wrapped layer calls (see module docstring)."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, job) per span, in start order.
        self.spans: List[Optional[tuple]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Benchmark job number stamped on new spans (-1: outside a job).
        self.job = -1
        self._stack: List[List[float]] = []   # [span index, child seconds]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ---- spans --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             count: Optional[CountFn] = None,
             pre: Optional[Callable[[tuple], Any]] = None) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        spans, stack = self.spans, self._stack
        self_s, calls = self.self_s, self.calls
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                before = pre(args) if pre is not None else None
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer, args, result, before)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                spans[index] = (name, start, end, parent, tracer.job)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget recorded spans and totals (between traced passes)."""
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.job = -1

    # ---- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        """Wrap every entry of :data:`LAYER_CALLS`.  Module-level
        functions are also replaced wherever a ``repro`` module imported
        them by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count, *pre in LAYER_CALLS:
            original = getattr(owner, attr)
            traced = self.wrap(original, name, count, *pre)
            if inspect.isclass(owner):
                self._patch(owner, attr, traced)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, traced)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        # An inherited method is shadowed on ``owner`` and later deleted.
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ---- reporting --------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (every layer of :data:`LAYERS`)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            totals[name.split(".")[0]] += seconds
        return totals

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write the recorded spans once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({**meta,
                       "columns": ["name", "start", "end", "parent", "job"],
                       "spans": [s for s in self.spans if s is not None]},
                      out, separators=(",", ":"))
