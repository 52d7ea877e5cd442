"""Runs one workload and prints its metrics.

One run of ``perfbench/run.py --workload W --seed N --seconds S --trace T``:

1. **Prepare** (untimed): the workload draws its inputs from the seed and
   computes the expected answers in plain Python.
2. **Check pass** (untimed): a fresh setup plus one pass with an event
   collector on every context.  Gives the simulated figures, the
   critical-path blame of the system-under-test jobs, and the simulated
   output digest.
3. **Timed units** for ``S`` seconds (and at least :data:`MIN_UNITS`
   units and the workload's ``min_host_jobs`` jobs): each unit is a fresh
   setup (timed: ``setup_s``) then a pass (timed: ``wall_s``; each job's
   host time feeds ``host_job_ms``).  Every pass must reproduce the check
   pass's simulated output bit for bit.
4. With ``--trace 1`` the units alternate untraced and traced; a traced
   unit wraps the layers' public functions (:mod:`perfbench.tracing`),
   attaches a ``SimProfiler`` and an event collector to every context,
   and the per-layer metrics come from the traced units.

Host times are calibration-normalized: each unit's times are multiplied
by :data:`CALIBRATION_REF_S` over the mean time of a fixed pure-Python
loop (:func:`calibration_s`) measured just before and just after the
unit.  On a shared 2-core VM, host speed drifted by 10-25% between runs;
the loop tracks that drift, so normalized times compare across runs.

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- median host seconds of one setup (build contexts,
  generate inputs, ingest and cache);
* ``wall_s`` -- median host seconds of one pass (the timed phase);
* ``host_job_ms.p50`` / ``.tail`` -- host milliseconds per simulated job
  of the system-under-test arm, median and the workload's fixed tail
  percentile;
* ``sim_tasks_per_host_s`` -- simulated tasks of the passes' jobs per
  host second of pass time;
* ``peak_rss_mb`` -- peak resident memory of the process;
* ``sim_makespan_s`` -- simulated first due time to last finish of the
  system-under-test arm's jobs;
* ``sim_delay.p50_s`` / ``.tail_s`` -- simulated delay (due time to
  finish) of the system-under-test jobs, median and the highest
  percentile with ten samples beyond it;
* ``sim_speedup`` -- the system under test against its baseline arm on
  identical inputs (the workload states which).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from perfbench import ROOT
from perfbench.tracing import LAYERS, Tracer
from perfbench.workloads import (
    WORKLOADS,
    PassOutcome,
    Recorder,
    Workload,
    tail_pct,
)
from repro.cluster.queueing import nearest_rank
from repro.engine.task_scheduler import ANY
from repro.obs import (
    CATEGORIES,
    BlockEvicted,
    EventCollector,
    SimProfiler,
    add_context_observer,
    critical_paths,
    remove_context_observer,
)

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".perfbench"
#: Fewest timed units per run (so setup_s and wall_s are medians).
MIN_UNITS = 3
#: Traced self times must tile the traced wall within this share.
TILING_TOLERANCE = 0.01
#: Median :func:`calibration_s` on the machine the benchmark was tuned on
#: (2 cores, Python 3.11): normalized host times read as seconds there.
CALIBRATION_REF_S = 0.035


def calibration_s(samples: int = 9) -> float:
    """Median host seconds of a fixed integer loop."""
    times = []
    for _ in range(samples):
        started = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(perf_counter() - started)
    return statistics.median(times)


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    ``BENCHMARK.json`` declares them (the single list of metrics)."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# One unit: a fresh setup plus one pass
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    setup_s: float
    pass_s: float
    recorder: Recorder
    outcome: PassOutcome
    collectors: Dict[int, EventCollector] = field(default_factory=dict)
    profilers: List[SimProfiler] = field(default_factory=list)
    tracer: Optional[Tracer] = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.pass_s


def run_unit(workload: Workload, collect_events: bool = False,
             tracer: Optional[Tracer] = None,
             reference_arms: bool = False) -> Unit:
    """Set up and run one pass of ``workload``.

    ``collect_events`` attaches an :class:`EventCollector` to every new
    context; ``tracer`` additionally records layer spans and attaches a
    :class:`SimProfiler` to every kernel.
    """
    collectors: Dict[int, EventCollector] = {}
    profilers: List[SimProfiler] = []

    def observe(context: Any) -> None:
        if collect_events:
            collectors[id(context)] = context.event_bus.subscribe(
                EventCollector())
        if tracer is not None:
            profiler = SimProfiler()
            context.cluster.kernel.attach_profiler(profiler)
            profilers.append(profiler.start())

    recorder = Recorder(on_job_start=None if tracer is None
                        else lambda i: setattr(tracer, "job", i))
    setup, run = workload.setup, workload.run
    if tracer is not None:
        tracer.reset()
        setup, run = tracer.wrap(setup, "other"), tracer.wrap(run, "other")
    gc.collect()
    add_context_observer(observe)
    if tracer is not None:
        tracer.install()
    try:
        started = perf_counter()
        system = setup(reference_arms)
        set_up = perf_counter()
        outcome = run(system, recorder)
        finished = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
        remove_context_observer(observe)
        for profiler in profilers:
            profiler.stop()
    return Unit(set_up - started, finished - set_up, recorder, outcome,
                collectors, profilers, tracer)


# ---------------------------------------------------------------------------
# Checks: answers, blame, digest
# ---------------------------------------------------------------------------

def sut_blame(workload: Workload, unit: Unit) -> tuple:
    """Critical-path blame summed over the system-under-test jobs, and
    the blame-tiling problems found (must be none)."""
    measured = {(id(j.context), j.job_id) for j in unit.recorder.jobs
                if j.arm == workload.sut and j.job_id >= 0}
    totals = {category: 0.0 for category in CATEGORIES}
    problems: List[str] = []
    for arm, context in unit.outcome.contexts:
        if arm != workload.sut:
            continue
        events = list(unit.collectors[id(context)])
        for report in critical_paths(
                events, locality_wait=context.config.locality_wait):
            if (id(context), report.job_id) not in measured:
                continue
            problems.extend(report.problems())
            for category, seconds in report.blame().items():
                totals[category] += seconds
    return totals, problems


def arm_digests(unit: Unit) -> Dict[str, str]:
    """sha256 per arm over every simulated statistic of its contexts:
    each job's times and stages, every task attempt's metrics, and the
    measured jobs' due and finish times."""
    hashes: Dict[str, Any] = {}
    for arm, context in unit.outcome.contexts:
        h = hashes.setdefault(arm, hashlib.sha256())
        for job in context.metrics.jobs:
            h.update(repr((job.job_id, job.description, job.submit_time,
                           job.finish_time, job.num_stages,
                           job.skipped_stages,
                           [dataclasses.astuple(t) for t in job.tasks])
                          ).encode())
    for rec in unit.recorder.jobs:
        if rec.arm in hashes:
            hashes[rec.arm].update(
                repr((rec.job_id, rec.due, rec.finish)).encode())
    return {arm: h.hexdigest() for arm, h in hashes.items()}


@dataclass
class Summary:
    """What the metrics need from a timed or traced unit, so that the
    unit's systems can be released before the next one runs."""

    setup_s: float
    pass_s: float
    #: Host seconds of each system-under-test job.
    sut_host_s: List[float]
    tasks: int
    attempted: int
    failures: List[str]
    digests: Dict[str, str]
    #: Per-layer figures (traced units only).
    layer: Optional[Dict[str, float]] = None
    #: Host seconds -> normalized seconds (see module docstring).
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.pass_s


def summarize(workload: Workload, unit: Unit) -> Summary:
    return Summary(
        setup_s=unit.setup_s, pass_s=unit.pass_s,
        sut_host_s=[j.host_s for j in unit.recorder.jobs
                    if j.arm == workload.sut],
        tasks=measured_tasks(unit),
        attempted=len(unit.recorder.jobs) + unit.outcome.shed,
        failures=failures(unit),
        digests=arm_digests(unit),
        layer=traced_unit_metrics(unit) if unit.tracer is not None else None)


def failures(unit: Unit) -> List[str]:
    """One message per failed or shed job."""
    out = [f"job on {job.arm} failed: " + (
        job.error.strip().splitlines()[-1] if job.error else
        f"answer {job.answer!r:.200} != expected {job.expected!r:.200}")
        for job in unit.recorder.jobs if not job.ok]
    out.extend(["a job was shed"] * unit.outcome.shed)
    return out


def measured_tasks(unit: Unit) -> int:
    """Simulated task attempts of the pass's measured jobs."""
    total = 0
    for _, context in unit.outcome.contexts:
        ids = {j.job_id for j in unit.recorder.jobs if j.context is context}
        total += sum(len(job.tasks) for job in context.metrics.jobs
                     if job.job_id in ids)
    return total


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(workload: Workload, check: Unit,
                       timed: Sequence[Summary]) -> Dict[str, float]:
    host_ms = sorted(s * 1e3 * u.scale for u in timed for s in u.sut_host_s)
    delays = sorted(j.delay for j in check.recorder.jobs
                    if j.arm == workload.sut and j.sample)
    pass_s = sum(u.pass_s * u.scale for u in timed)
    return {
        "setup_s": statistics.median(u.setup_s * u.scale for u in timed),
        "wall_s": statistics.median(u.pass_s * u.scale for u in timed),
        "host_job_ms.p50": nearest_rank(host_ms, 50),
        "host_job_ms.tail": nearest_rank(host_ms, workload.host_tail_pct),
        "sim_tasks_per_host_s": sum(u.tasks for u in timed) / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_makespan_s": check.outcome.sim["sim_makespan_s"],
        "sim_delay.p50_s": nearest_rank(delays, 50),
        "sim_delay.tail_s": nearest_rank(delays, tail_pct(len(delays))),
        "sim_speedup": check.outcome.sim["sim_speedup"],
    }


def _context_stats(unit: Unit) -> Dict[str, float]:
    hits = misses = 0.0
    recompute = written = fetched = 0.0
    tasks = non_local = stages = evictions = 0
    for _, context in unit.outcome.contexts:
        stats = context.metrics.cache_stats()
        hits += stats["hits"]
        misses += stats["misses"]
        recompute += stats["recompute_time"]
        # Capacity, quota and broker evictions alike (not unpersist,
        # migration or worker loss).
        evictions += sum(
            1 for event in unit.collectors[id(context)]
            if isinstance(event, BlockEvicted)
            and event.reason in ("capacity", "quota", "broker"))
        for job in context.metrics.jobs:
            stages += job.num_stages
            for t in job.tasks:
                tasks += 1
                non_local += t.locality == ANY
                written += t.shuffle_bytes_written
                fetched += t.shuffle_bytes_fetched
    return {
        "shuffle.written_mb": written / 1e6,
        "shuffle.fetched_mb": fetched / 1e6,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": float(evictions),
        "cache.recompute_sim_s": recompute,
        "tasksched.attempts": float(tasks),
        "tasksched.local_frac": 1.0 - non_local / tasks if tasks else 0.0,
        "dag.stages": float(stages),
    }


def traced_unit_metrics(unit: Unit) -> Dict[str, float]:
    """Per-layer figures of one traced unit."""
    tracer = unit.tracer
    assert tracer is not None
    layer_s = tracer.layer_self_s()
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s
    materialized = counts["compute.fresh_records"] - counts["cache.hit_records"]
    out = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
    out.update(_context_stats(unit))
    out.update({
        "workloads.calls": float(calls["workloads"]),
        "workloads.records": counts["workloads.records"],
        "sizer.calls": float(calls["sizer"]),
        "sizer.records": counts["sizer.records"],
        "sizer.resize_ratio": (counts["sizer.records"] / materialized
                               if materialized > 0 else 0.0),
        "compute.evaluate_calls": float(calls["compute"]),
        "shuffle.write_self_s": self_s["shuffle.write"],
        "shuffle.fetch_self_s": self_s["shuffle.fetch"],
        "cache.put_calls": float(calls["cache.put"]),
        "cache.put_self_s": self_s["cache.put"],
        "tasksched.tasksets": float(calls["tasksched"]),
        "dag.jobs": float(calls["dag"]),
        "kernel.events": float(sum(p.events_dispatched
                                   for p in unit.profilers)),
        "kernel.heap_peak": float(max((p.heap.peak_len
                                       for p in unit.profilers), default=0)),
        "core.calls": float(sum(n for name, n in calls.items()
                                if name.split(".")[0] == "core")),
        "sql.plans": float(calls["sql.compile"]),
        "columnar.kernel_calls": float(calls["columnar"]),
        "columnar.rows": counts["columnar.rows"],
        "bus.posts": float(calls["bus"]),
    })
    return out


def per_layer_metrics(workload: Workload, check: Unit,
                      traced: Sequence[Summary],
                      untraced: Sequence[Summary]) -> Dict[str, float]:
    """Times are medians over the traced units; counts repeat exactly."""
    per_unit = [u.layer for u in traced if u.layer is not None]
    out = dict(per_unit[-1])
    for name in out:
        if name.endswith("_s") and not name.startswith("cache.recompute"):
            out[name] = statistics.median(m[name] for m in per_unit)
    out["trace.overhead_frac"] = (
        statistics.median(u.wall_s * u.scale for u in traced)
        / statistics.median(u.wall_s * u.scale for u in untraced) - 1.0)
    for key in ("service.dispatches", "service.quota_evictions",
                "service.dedup_hits", "sql.pushdown_saved_frac"):
        out[key] = check.outcome.layer.get(key, 0.0)
    out["service.isolation_ratio"] = check.outcome.sim.get(
        "isolation_ratio", 0.0)
    blame, _ = sut_blame(workload, check)
    for category, seconds in blame.items():
        out[f"blame.{category}_s"] = seconds
    return out


def tiling_problem(unit: Unit) -> Optional[str]:
    """Layer self times plus ``other`` must tile the traced wall."""
    assert unit.tracer is not None
    tiled = sum(unit.tracer.layer_self_s().values())
    if abs(tiled - unit.wall_s) > TILING_TOLERANCE * unit.wall_s:
        return (f"layer self times sum to {tiled:.6f} s but the traced "
                f"wall is {unit.wall_s:.6f} s")
    return None


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> Dict[str, Any]:
    """Run one workload; returns the result object printed last, plus
    ``lines`` (human-readable report), ``digest`` and ``tracer`` (holding
    the last traced unit's spans, or ``None``).  ``tiny`` shrinks the
    workload for self-tests."""
    declared = declared_metrics()
    workload = WORKLOADS[name](seed, tiny=tiny)
    workload.prepare()
    problems: List[str] = []

    check = run_unit(workload, collect_events=True, reference_arms=True)
    reference = arm_digests(check)
    blame, blame_problems = sut_blame(workload, check)
    problems.extend(blame_problems)

    timed: List[Summary] = []
    traced: List[Summary] = []
    tracer = Tracer() if trace else None
    calibration = calibration_s()
    started = perf_counter()
    while True:
        traced_turn = trace and len(traced) < len(timed)
        unit = run_unit(workload, collect_events=traced_turn,
                        tracer=tracer if traced_turn else None)
        problem = tiling_problem(unit) if traced_turn else None
        if problem:
            problems.append(problem)
        summary = summarize(workload, unit)
        unit = None  # release the unit's systems before the next setup
        before, calibration = calibration, calibration_s()
        summary.scale = 2 * CALIBRATION_REF_S / (before + calibration)
        (traced if traced_turn else timed).append(summary)
        for arm, digest in summary.digests.items():
            if digest != reference[arm]:
                problems.append(f"pass {len(timed) + len(traced)}: simulated "
                                f"output of arm {arm} differs from the "
                                "check pass")
        jobs = sum(len(u.sut_host_s) for u in timed)
        if (perf_counter() - started >= seconds and len(timed) >= MIN_UNITS
                and jobs >= workload.min_host_jobs
                and (not trace or len(traced) >= len(timed))):
            break
    scale = statistics.median(u.scale for u in timed)

    summaries = [summarize(workload, check)] + timed + traced
    attempted = sum(u.attempted for u in summaries)
    failed_jobs = [f for u in summaries for f in u.failures]
    failed = len(failed_jobs)
    problems.extend(failed_jobs[:3])

    if trace:
        metrics = per_layer_metrics(workload, check, traced, timed)
        kind = "per_layer"
    else:
        metrics = end_to_end_metrics(workload, check, timed)
        kind = "end_to_end"
    missing = sorted(set(declared[kind]) - set(metrics))
    if missing:
        raise KeyError(f"{name} computed no value for {missing}")

    digest = hashlib.sha256(json.dumps({
        "arms": reference, "blame": blame,
        "sim": check.outcome.sim}, sort_keys=True).encode()).hexdigest()
    lines = _report(workload, seed, trace, metrics, declared[kind], check,
                    timed, traced, attempted, failed, digest, problems)
    lines.insert(1, f"  host times x{scale:.4f} (median over units): "
                    f"calibration loop {CALIBRATION_REF_S / scale * 1e3:.2f}"
                    f" ms here, {CALIBRATION_REF_S * 1e3:.2f} ms on the "
                    "reference"
                    + (" (per-layer self times are not scaled)" if trace
                       else ""))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit}
                    for m, unit in declared[kind].items()},
        "lines": lines,
        "digest": digest,
        "tracer": tracer,
    }


def _report(workload: Workload, seed: int, trace: bool,
            metrics: Dict[str, float], declared: Dict[str, str],
            check: Unit, timed: Sequence[Summary], traced: Sequence[Summary],
            attempted: int, failed: int, digest: str,
            problems: Sequence[str]) -> List[str]:
    host_jobs = sum(len(u.sut_host_s) for u in timed)
    lines = [f"perfbench {workload.name} ({workload.loop} loop) seed={seed} "
             f"trace={int(trace)}: check pass + {len(timed)} timed"
             + (f" + {len(traced)} traced" if trace else "") + " units, "
             f"{host_jobs} jobs timed"]
    for name, unit in declared.items():
        lines.append(f"  {name} = {metrics[name]:.6g} {unit}")
    if not trace:
        sut = [j for j in check.recorder.jobs
               if j.arm == workload.sut and j.sample]
        lines.append(f"  host_job_ms.tail is p{workload.host_tail_pct} of "
                     f"n={host_jobs}; sim_delay.tail_s is "
                     f"p{tail_pct(len(sut))} of n={len(sut)}")
        speedup = metrics["sim_speedup"]
        paper = workload.paper_speedup
        lines.append(f"  sim_speedup: {workload.speedup_meaning}; paper "
                     + (f"{paper:g}x, relative error "
                        f"{(speedup - paper) / paper:+.1%}" if paper
                        else "n/a (not a paper figure)"))
        for key in ("sim_max_rate", "isolation_ratio"):
            if key in check.outcome.sim:
                lines.append(f"  {key} = {check.outcome.sim[key]:.6g}")
    lines.extend(check.outcome.lines)
    lines.append(f"  failed_frac = {failed / max(attempted, 1):.6g} "
                 f"({failed} of {attempted} jobs failed or were shed)")
    lines.append(f"  simulated output digest sha256={digest}")
    for problem in problems:
        lines.append(f"  PROBLEM: {problem}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    tracer = result.pop("tracer")
    if tracer is not None:
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "unit": "last traced unit"})
        result["lines"].append(f"spans of the last traced unit written to "
                               f"{path.relative_to(ROOT)}")
    for line in result.pop("lines"):
        print(line)
    result.pop("digest")
    print(json.dumps(result))
    return 0
