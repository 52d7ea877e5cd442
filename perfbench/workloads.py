"""The benchmark's four workloads.

Each workload generates its inputs from the seed, builds its systems in
:meth:`Workload.setup` (contexts, generated inputs, ingested and cached
datasets) and runs its jobs in :meth:`Workload.run`, recording every
job through a :class:`Recorder`.  Expected answers come from
:meth:`Workload.prepare`, which recomputes them in plain Python from the
same generated inputs, outside any timed region.

Every pass starts from a fresh :meth:`Workload.setup`, so a pass's
simulated output depends only on the seed: the driver checks that every
pass reproduces the first one exactly.
"""

from __future__ import annotations

import bisect
import math
import random
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.log_mining import LogMiningApp
from repro.bench.configs import SPARK_H, STARK_H, ClusterSpec, make_setup
from repro.bench.harness import COLUMNAR_TPCH_QUERY
from repro.cluster.cost_model import CostModel, SimStr
from repro.cluster.queueing import JobDriver, nearest_rank
from repro.columnar import datagen
from repro.columnar.batch import ColumnarBatch, normalize_schema
from repro.engine.context import StarkConfig, StarkContext
from repro.engine.partitioner import HashPartitioner
from repro.sql import SQLSession
from repro.sql.compiler import compile_plan
from repro.sql.optimizer import optimize
from repro.workloads.taxi import TaxiTrace, TaxiTraceConfig
from repro.workloads.twitter import MergedTaxiTwitterTrace, TwitterConfig
from repro.workloads.wikipedia import WikipediaTrace, WikipediaTraceConfig


def tail_pct(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples
    beyond it (0 when ``n`` is too small to have a tail)."""
    return max(0, (100 * (n - 10)) // n) if n > 10 else 0


# ---------------------------------------------------------------------------
# Recording jobs
# ---------------------------------------------------------------------------

@dataclass
class JobRecord:
    """One measured job: simulated due/finish times, host cost, answer."""

    arm: str
    context: Any             # the StarkContext the job ran on
    job_id: int              # DAG job id in that context (-1: it raised)
    due: float               # simulated time the job was due to start
    finish: float            # simulated finish time
    host_s: float            # host seconds spent running the job
    answer: Any
    expected: Any
    #: Whether the job's delay belongs to the workload's delay sample
    #: (warm-up jobs and the abusive tenant's burst do not).
    sample: bool = True
    error: str = ""

    @property
    def delay(self) -> float:
        return self.finish - self.due

    @property
    def ok(self) -> bool:
        return not self.error and self.answer == self.expected


class Recorder:
    """Runs the measured jobs of one pass and keeps their records."""

    def __init__(self, on_job_start: Optional[Callable[[int], None]] = None,
                 ) -> None:
        self.jobs: List[JobRecord] = []
        self._on_job_start = on_job_start

    def job(self, arm: str, context: StarkContext, due: float,
            expected: Any, body: Callable[[], Any],
            sample: bool = True) -> float:
        """Run ``body()`` as one job submitted at ``due``; returns its
        simulated finish time.  An exception fails the job, not the pass."""
        if self._on_job_start is not None:
            self._on_job_start(len(self.jobs))
        started = perf_counter()
        try:
            answer = body()
        except Exception:
            host = perf_counter() - started
            self.jobs.append(JobRecord(
                arm, context, -1, due, due, host, None, expected,
                sample=sample, error=traceback.format_exc()))
            return due
        host = perf_counter() - started
        last = context.metrics.last_job()
        self.jobs.append(JobRecord(
            arm, context, last.job_id, due, last.finish_time, host, answer,
            expected, sample=sample))
        return last.finish_time


@dataclass
class PassOutcome:
    """What one pass produced, beyond its job records."""

    #: (arm, context) for every context the pass ran jobs on.
    contexts: List[Tuple[str, StarkContext]]
    #: Simulated headline figures (``sim_makespan_s``, ``sim_speedup``,
    #: and workload-specific ones such as ``sim_max_rate``).
    sim: Dict[str, float]
    #: Jobs refused by admission control (counted as failed).
    shed: int = 0
    #: Human-readable detail printed with the result.
    lines: List[str] = field(default_factory=list)
    #: Extra per-layer figures only the workload can compute.
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Interface of a benchmark workload (see module docstring)."""

    name = ""
    loop = ""                 # "closed" | "open"
    sut = ""                  # system-under-test arm
    #: Fixed host-cost tail percentile; the driver times at least
    #: ``min_host_jobs`` jobs so ten lie beyond it.
    host_tail_pct = 90
    paper_speedup: Optional[float] = None
    speedup_meaning = ""

    @property
    def min_host_jobs(self) -> int:
        return math.ceil(10 / (1 - self.host_tail_pct / 100.0))

    def prepare(self) -> None:
        """Compute expected answers in plain Python (untimed)."""

    def setup(self, reference_arms: bool = False) -> Any:
        """Build and load the systems one pass runs on.  With
        ``reference_arms`` also build arms that only set a reference
        (they run in the untimed check pass)."""
        raise NotImplementedError

    def run(self, system: Any, recorder: Recorder) -> PassOutcome:
        raise NotImplementedError


def _span(jobs: Sequence[JobRecord]) -> float:
    """First due time to last finish of ``jobs`` (0 when empty)."""
    if not jobs:
        return 0.0
    return max(j.finish for j in jobs) - min(j.due for j in jobs)


# ---------------------------------------------------------------------------
# fig11_colocality: closed-loop cogroup queries, Spark-H vs Stark-H
# ---------------------------------------------------------------------------

#: Serialized bytes of one synthetic wiki log line (stands for ~1000
#: real 40 B requests; the CPU rates below are scaled to match).
LINE_BYTES = 40_000


class Fig11Colocality(Workload):
    """Fig 11: cogroup N cached wiki-hour RDDs and count keyword hits.

    One client runs the queries back to back (closed loop) on a fresh
    context per (arm, N), as in the paper.  Hour files are 15% of the
    paper's 800 MB, with executor memory scaled alike, so the same N
    overflows Spark-H's caches.
    """

    name = "fig11_colocality"
    loop = "closed"
    sut = STARK_H
    host_tail_pct = 75
    paper_speedup = 4.0
    speedup_meaning = ("Spark-H / Stark-H mean query delay, peak over N "
                       "(same N, same queries)")
    arms = (SPARK_H, STARK_H)
    num_partitions = 8

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.scale = 0.01 if tiny else 0.15
        # N=6 overflows Spark-H's caches with duplicate copies (the
        # churn behind the paper's ~4x); N=2 and N=4 fit both arms.
        self.rdd_counts: Tuple[int, ...] = (2, 3) if tiny else (2, 4, 6)
        hour_bytes = 800e6 * self.scale
        self.trace = WikipediaTrace(WikipediaTraceConfig(
            base_requests_per_hour=int(hour_bytes / LINE_BYTES),
            peak_to_nadir=1.0, line_padding_bytes=LINE_BYTES - 40,
            seed=seed))
        rng = random.Random(seed)
        self.keywords = [f"Article_{rng.randint(0, 200):05d}"
                         for _ in range(2 if tiny else 7)]
        self.expected: Dict[Tuple[str, int], int] = {}

    def prepare(self) -> None:
        hits_per_hour = []
        for hour in range(max(self.rdd_counts)):
            lines = [line for pid in range(self.num_partitions)
                     for line in self.trace.lines_for_hour_partition(
                         hour, pid, self.num_partitions)]
            hits_per_hour.append({
                kw: sum(1 for line in lines if kw in line)
                for kw in self.keywords})
        for n in self.rdd_counts:
            for kw in self.keywords:
                self.expected[(kw, n)] = sum(h[kw] for h in hits_per_hour[:n])

    def _spec(self) -> ClusterSpec:
        return ClusterSpec(
            num_workers=8, cores_per_worker=2,
            memory_per_worker=4.0e9 * self.scale,
            cost_model=CostModel(cpu_per_record=2.0e-4,
                                 shuffle_cpu_per_record=4.0e-4))

    def setup(self, reference_arms: bool = False) -> Any:
        systems = []
        for arm in self.arms:
            for n in self.rdd_counts:
                setup = make_setup(arm, self._spec(),
                                   num_partitions=self.num_partitions)
                app = LogMiningApp(
                    setup.context, self.trace, self.num_partitions,
                    mode="stark" if setup.locality else "spark-h",
                    partitioner=setup.partitioner)
                rdds = app.load_hours(range(n))
                systems.append((arm, n, setup.context, rdds))
        return systems

    def run(self, system: Any, recorder: Recorder) -> PassOutcome:
        contexts = []
        mean_delay: Dict[Tuple[str, int], float] = {}
        for arm, n, sc, rdds in system:
            contexts.append((arm, sc))
            due = sc.now
            first = len(recorder.jobs)
            for kw in self.keywords:
                grouped = rdds[0].cogroup(*rdds[1:], name=f"cogroup-{n}")
                hits = grouped.map(
                    lambda kv, kw=kw: sum(1 for lines in kv[1]
                                          for line in lines if kw in line),
                    name="grep")

                def query(sc=sc, hits=hits, kw=kw, due=due) -> int:
                    return sum(sc.run_job(hits, sum, description=f"q:{kw}",
                                          submit_time=due))

                due = recorder.job(arm, sc, due, self.expected[(kw, n)],
                                   query)
            jobs = recorder.jobs[first:]
            mean_delay[(arm, n)] = sum(j.delay for j in jobs) / len(jobs)
        ratios = {n: mean_delay[(SPARK_H, n)] / mean_delay[(STARK_H, n)]
                  for n in self.rdd_counts}
        sut_jobs = [j for j in recorder.jobs if j.arm == self.sut]
        by_context: Dict[int, List[JobRecord]] = {}
        for j in sut_jobs:
            by_context.setdefault(id(j.context), []).append(j)
        lines = [
            f"  N={n}: Spark-H {mean_delay[(SPARK_H, n)]:.3f} s, "
            f"Stark-H {mean_delay[(STARK_H, n)]:.3f} s, "
            f"ratio {ratios[n]:.2f}x" for n in self.rdd_counts]
        return PassOutcome(
            contexts=contexts,
            sim={"sim_makespan_s": sum(_span(js) for js in by_context.values()),
                 "sim_speedup": max(ratios.values())},
            lines=lines)


# ---------------------------------------------------------------------------
# fig19_stream: open-loop cogroup queries at a fixed ladder of rates
# ---------------------------------------------------------------------------

#: One synthetic stream event stands for this many real ~200 B events.
#: Four times the ratio the Fig 19 harness uses, with a quarter of its
#: events, so simulated bytes match the paper-scale run at a quarter of
#: the host cost.
STREAM_EVENT_SCALE = 1000
#: Delay limit of Fig 19 (the paper's 800 ms).
DELAY_CAP_S = 0.8


class Fig19Stream(Workload):
    """Fig 19: spatial cogroup queries over cached taxi+Twitter steps.

    Each arm ingests the steps once and runs warm-up queries during
    setup, so the ladder measures steady-state response times.  Queries
    then arrive open loop, evenly spaced, at each rate of a fixed ladder,
    every rate running the same query sequence and starting one second
    after the previous rate drained.  (Poisson arrivals made a rate's
    delays depend on its first burst more than on the rate.)  Arrivals
    are kernel events, so the generator is never late in simulated
    time.
    """

    name = "fig19_stream"
    loop = "open"
    sut = STARK_H
    host_tail_pct = 95
    paper_speedup = None
    speedup_meaning = ("Spark-H / Stark-H mean query delay over the whole "
                       "rate ladder (same queries, same arrivals)")
    #: Fig 19's headline is throughput at the 800 ms limit: ~6x.
    paper_throughput_ratio = 6.0
    arms = (SPARK_H, STARK_H)
    num_partitions = 16
    warmup_rate = 5.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.events_per_step = 40 if tiny else 300
        self.num_steps = 4 if tiny else 6
        # Spark-H and Stark-H both saturate between 40 and 80 jobs/s at
        # steady state; an odd number of rates keeps the pooled median
        # delay inside one rate's sample.
        self.rates: Tuple[float, ...] = (10.0, 40.0) if tiny else (
            10.0, 40.0, 80.0)
        self.jobs_per_rate = 12 if tiny else 30
        self.warmup_jobs = 2 if tiny else 6
        self.setup_queries = 6 if tiny else 20
        self.taxi = TaxiTrace(TaxiTraceConfig(
            base_events_per_step=self.events_per_step, peak_to_nadir=1.0,
            record_bytes=200 * STREAM_EVENT_SCALE, seed=seed))
        self.trace = MergedTaxiTwitterTrace(
            self.taxi, TwitterConfig(seed=seed + 1))
        rng = random.Random(seed)
        # Every rate runs the same query sequence, so rates differ only in
        # arrival spacing.  Query widths cycle through 2..4 steps, so every
        # seed asks for the same amount of work; the steps and the region
        # are random.
        self.queries: List[Tuple[int, int, int, int]] = []
        for i in range(self.jobs_per_rate):
            span = min(2 + i % 3, self.num_steps)
            start = rng.randint(0, self.num_steps - span)
            lo, hi = self.taxi.random_region_query(rng)
            self.queries.append((start, span, lo, hi))
        self.expected: List[int] = []

    def prepare(self) -> None:
        part = HashPartitioner(self.num_partitions)
        keys_per_step = []
        for step in range(self.num_steps):
            keys = {k for pid in range(self.num_partitions)
                    for k, _ in self.trace.records_for_step_partition(
                        step, pid, self.num_partitions, part)}
            keys_per_step.append(sorted(keys))
        for start, span, lo, hi in self.queries:
            found = set()
            for keys in keys_per_step[start:start + span]:
                found.update(keys[bisect.bisect_left(keys, lo):
                                  bisect.bisect_right(keys, hi)])
            self.expected.append(len(found))

    def _stark_config(self) -> StarkConfig:
        step_bytes = self.events_per_step * 2 * 200 * STREAM_EVENT_SCALE
        window = 6
        return StarkConfig(max_group_mem_size=step_bytes * window / 8,
                           min_group_mem_size=step_bytes * window / 32,
                           group_size_window=window)

    def setup(self, reference_arms: bool = False) -> Any:
        spec = ClusterSpec(
            num_workers=8, cores_per_worker=2, memory_per_worker=1.4e9,
            cost_model=CostModel(
                cpu_per_record=2.0e-7 * STREAM_EVENT_SCALE,
                shuffle_cpu_per_record=4.0e-7 * STREAM_EVENT_SCALE),
            seed=5)
        key_space = self.taxi.encoder.key_space()
        systems = []
        for arm in self.arms:
            setup = make_setup(arm, spec, num_partitions=self.num_partitions,
                               key_lo=0, key_hi=key_space,
                               stark_config=self._stark_config())
            sc, part = setup.context, setup.partitioner
            steps = []
            for step in range(self.num_steps):
                rdd = sc.generated(
                    self.trace.step_generator(step, self.num_partitions, part),
                    self.num_partitions, partitioner=part,
                    read_cost="network", name=f"step{step}")
                if setup.locality:
                    rdd = rdd.locality_partition_by(part, "stream")
                rdd = rdd.cache()
                rdd.count()
                if setup.locality:
                    sc.group_manager.report_rdd(rdd)
                steps.append(rdd)
            # Warm-up: the first queries after ingestion pay one-off
            # replica and rebalance work (Fig 14's first-job effect).
            self._run_rate(sc, steps, self.warmup_rate,
                           lambda t, i, run: run(), self.setup_queries)
            systems.append((arm, sc, steps))
        return systems

    def _run_rate(self, sc: StarkContext, steps: List[Any], rate: float,
                  submit: Callable[[float, int, Callable[[], int]], float],
                  count: Optional[int] = None) -> None:
        """Replay the first ``count`` queries (default: all) with evenly
        spaced arrivals at ``rate``, starting one second after everything
        submitted so far finished."""
        def job(t: float, i: int) -> float:
            start, span, lo, hi = self.queries[i]
            chosen = steps[start:start + span]
            region = chosen[0].cogroup(*chosen[1:]).filter(
                lambda kv: lo <= kv[0] <= hi)

            def run() -> int:
                return sum(sc.run_job(region, len, description=f"q:{i}",
                                      submit_time=t))
            return submit(t, i, run)

        finished = [job.finish_time for job in sc.metrics.jobs]
        start = max([sc.now] + finished) + 1.0
        count = self.jobs_per_rate if count is None else count
        JobDriver(sc).run_arrivals(job, [start + i / rate
                                         for i in range(1, count + 1)])

    def _rung_delay(self, jobs: List[JobRecord]) -> float:
        """Median delay of the second half of a rate's sampled jobs.  A
        growing backlog keeps raising it, so a rate the system cannot
        sustain exceeds the cap even when its early jobs were fast."""
        delays = [j.delay for j in jobs if j.sample]
        return nearest_rank(sorted(delays[len(delays) // 2:]), 50)

    def _max_rate(self, rungs: List[List[JobRecord]]) -> Tuple[float, str]:
        """Highest ladder rate whose :meth:`_rung_delay` stays within the
        cap, interpolated (log-rate) between the last rate that holds
        and the first that does not."""
        last_ok: Optional[Tuple[float, float]] = None
        for rate, jobs in zip(self.rates, rungs):
            delay = self._rung_delay(jobs)
            if delay <= DELAY_CAP_S:
                last_ok = (rate, delay)
                continue
            if last_ok is None:
                return rate * DELAY_CAP_S / delay, "below the ladder"
            lo_rate, lo_delay = last_ok
            frac = (DELAY_CAP_S - lo_delay) / (delay - lo_delay)
            return math.exp(math.log(lo_rate) + frac * (
                math.log(rate) - math.log(lo_rate))), "interpolated"
        return self.rates[-1], "at the ladder top"

    def run(self, system: Any, recorder: Recorder) -> PassOutcome:
        contexts = []
        max_rate: Dict[str, float] = {}
        mean_delay: Dict[str, float] = {}
        lines = []
        makespan = 0.0
        for arm, sc, steps in system:
            contexts.append((arm, sc))
            rungs: List[List[JobRecord]] = []
            for rate in self.rates:
                first = len(recorder.jobs)
                self._run_rate(sc, steps, rate, lambda t, i, run, arm=arm,
                               sc=sc: recorder.job(
                                   arm, sc, t, self.expected[i], run,
                                   sample=i >= self.warmup_jobs))
                rungs.append(recorder.jobs[first:])
            max_rate[arm], how = self._max_rate(rungs)
            sampled = [j.delay for jobs in rungs for j in jobs if j.sample]
            mean_delay[arm] = sum(sampled) / len(sampled)
            if arm == self.sut:
                makespan = sum(_span(jobs) for jobs in rungs)
            delays = [f"{rate:g}/s {self._rung_delay(jobs):.3f}s"
                      for rate, jobs in zip(self.rates, rungs)]
            lines.append(f"  {arm}: max rate {max_rate[arm]:.2f} jobs/s "
                         f"({how}); late-half median delay "
                         + ", ".join(delays))
        ratio = max_rate[STARK_H] / max_rate[SPARK_H]
        lines.append(f"  throughput ratio Stark-H / Spark-H {ratio:.3f}x; "
                     f"paper {self.paper_throughput_ratio:g}x, relative "
                     f"error {ratio / self.paper_throughput_ratio - 1:+.1%}")
        lines.append("  generator lateness: none by construction "
                     "(arrivals are SimKernel events)")
        return PassOutcome(
            contexts=contexts,
            sim={"sim_makespan_s": makespan,
                 "sim_speedup": mean_delay[SPARK_H] / mean_delay[STARK_H],
                 "sim_max_rate": max_rate[self.sut]},
            lines=lines)


# ---------------------------------------------------------------------------
# tenant_service: multi-tenant open loop with an abusive burst
# ---------------------------------------------------------------------------

class TenantService(Workload):
    """Fair pools and cache quotas isolating compliant tenants.

    Compliant tenants submit open-loop job streams with Zipfian rates
    against their datasets, cached during setup; at ``burst_time`` the
    last tenant dumps a burst of jobs that each cache a fresh dataset.
    Records are few but declare large simulated sizes (``SimStr``), so
    the abuser's quota forces evictions while host-side sizing stays
    cheap.

    Arms on identical arrivals: ``fair`` (fair pools + quotas, the
    system under test), ``fifo`` (FIFO, no quotas) and ``reference``
    (fair + quotas, abuser silent).
    """

    name = "tenant_service"
    loop = "open"
    sut = "fair"
    #: Sub-millisecond jobs: p99 followed sporadic host stalls more than
    #: the program, so the tail is taken at p95.
    host_tail_pct = 95
    paper_speedup = None
    speedup_meaning = ("FIFO / fair-share compliant tail delay "
                       "(same arrivals)")
    num_tenants = 6
    num_partitions = 4
    #: Simulated bytes per record (before the seed's variation): 15 times
    #: a bare (int, int) record, so 20 records stand for the 300 the
    #: tenant-fairness bench uses.
    record_pad_bytes = 776

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.records_per_partition = 20
        self.horizon = 3.0 if tiny else 18.0
        self.burst_jobs = 40 if tiny else 400
        # The burst caches four times the abuser's quota either way.
        self.quota_mb = 1.6 if tiny else 16.0
        self.burst_time = 1.0 if tiny else 5.0
        self.base_rate = 12.0
        self.tenants = [f"t{k}" for k in range(self.num_tenants)]
        self.compliant, self.abuser = self.tenants[:-1], self.tenants[-1]
        # Jittered arrivals: each tenant submits rate x horizon jobs, one
        # at a random time within each of as many equal slots, so every
        # seed offers the same load and about as many jobs meet the burst.
        self.arrivals: Dict[str, List[float]] = {}
        for k, name in enumerate(self.compliant):
            rng = random.Random(seed * 1009 + k)
            count = round(self.base_rate / (k + 1) * self.horizon)
            slot = self.horizon / count
            self.arrivals[name] = [(i + rng.random()) * slot
                                   for i in range(count)]
        self.burst = [self.burst_time + 1e-3 * j
                      for j in range(self.burst_jobs)]
        self.value_salt = seed % 997
        # Record sizes vary by up to 10% with the seed.
        self.record_pad_bytes = int(self.record_pad_bytes * (
            1.0 + random.Random(seed).random() / 10))
        self.expected: Dict[str, int] = {}

    def _records(self, pid: int, source: int) -> List[tuple]:
        pad = SimStr("", sim_size=self.record_pad_bytes)
        return [(pid * 1000 + i, (i * 31 + source + self.value_salt) % 997, pad)
                for i in range(self.records_per_partition)]

    def prepare(self) -> None:
        for k, name in enumerate(self.compliant):
            source = self._source(k)
            self.expected[name] = sum(
                r[1] + 1 for pid in range(self.num_partitions)
                for r in self._records(pid, source))
        self.expected[self.abuser] = (self.num_partitions
                                      * self.records_per_partition)

    def _source(self, k: int) -> int:
        # The last compliant tenant files tenant 0's exact computation,
        # so the registry dedups it onto tenant 0's cached blocks.
        return 0 if k == len(self.compliant) - 1 else k

    def setup(self, reference_arms: bool = False) -> Any:
        from repro.service import DatasetService

        systems = []
        for arm, policy, quota_mb in (("reference", "fair", self.quota_mb),
                                      ("fair", "fair", self.quota_mb),
                                      ("fifo", "fifo", 0.0)):
            sc = StarkContext(
                num_workers=4, cores_per_worker=2, memory_per_worker=64e6,
                config=StarkConfig(scheduling_policy=policy,
                                   tenant_quota_mb=quota_mb))
            svc = DatasetService(sc)
            for k, name in enumerate(self.compliant):
                svc.create_tenant(name, weight=1.0 / (k + 1))
            svc.create_tenant(self.abuser, weight=1.0 / self.num_tenants)
            handles = {}
            for k, name in enumerate(self.compliant):
                source = self._source(k)
                rdd = (sc.generated(
                    lambda pid, source=source: self._records(pid, source),
                    self.num_partitions, read_cost="disk",
                    name=f"src{source}")
                    .map(lambda r: (r[0], r[1] + 1, r[2])))
                handles[name] = svc.register_dataset(name, f"ds-{name}", rdd)
            for handle in handles.values():
                handle.rdd.count()
            # Traffic starts once the datasets are cached.
            systems.append((arm, sc, svc, handles, sc.now))
        return systems

    def run(self, system: Any, recorder: Recorder) -> PassOutcome:
        from repro.service import SloTarget, TenantSloMonitor

        contexts = []
        tails: Dict[str, float] = {}
        extra: Dict[str, float] = {}
        shed = 0
        lines = []
        makespan = 0.0
        for arm, sc, svc, handles, start in system:
            contexts.append((arm, sc))
            first = len(recorder.jobs)
            if arm == self.sut:
                # Online SLO monitoring keeps the event bus live, as a
                # deployed service would run it.
                monitor = TenantSloMonitor(sc.event_bus, default_target=SloTarget(
                    p95_seconds=3.0 * max(tails["reference"], 1e-9), window=40))
                sc.event_bus.subscribe(monitor)

            def make_job(name: str, arm=arm, sc=sc, handles=handles):
                rdd = handles[name].rdd

                def job(t: float, i: int) -> float:
                    return recorder.job(
                        arm, sc, t, self.expected[name],
                        lambda: sum(sc.run_job(
                            rdd, lambda recs: sum(r[1] for r in recs),
                            description=f"q:{name}-{i}", submit_time=t)))
                return job

            def abuser_job(t: float, i: int, arm=arm, sc=sc, svc=svc) -> float:
                rdd = sc.generated(
                    lambda pid, i=i: [(pid * 1000 + j, (j * 17 + i) % 991,
                                       SimStr("", sim_size=self.record_pad_bytes))
                                      for j in range(self.records_per_partition)],
                    self.num_partitions, read_cost="disk",
                    name=f"abuse{i}").cache()
                svc.quotas.own(rdd.rdd_id, self.abuser)
                return recorder.job(
                    arm, sc, t, self.expected[self.abuser],
                    lambda: sum(sc.run_job(rdd, len,
                                           description=f"q:{self.abuser}-{i}",
                                           submit_time=t)),
                    sample=False)

            for name in self.compliant:
                svc.submit_arrivals(name, make_job(name),
                                    [start + t for t in self.arrivals[name]])
            if arm != "reference":
                svc.submit_arrivals(self.abuser, abuser_job,
                                    [start + t for t in self.burst])
            svc.run()
            jobs = recorder.jobs[first:]
            delays = sorted(j.delay for j in jobs if j.sample)
            tails[arm] = nearest_rank(delays, tail_pct(len(delays)))
            shed += sum(svc.result_of(t).shed_jobs for t in self.tenants)
            if arm == self.sut:
                makespan = _span(jobs)
                extra = {"quota_evictions": float(svc.quotas.quota_evictions),
                         "dedup_hits": float(svc.registry.dedup_hits),
                         "dispatches": float(sum(
                             p.dispatched for p in svc.pools.pools.values()))}
            lines.append(f"  {arm}: {len(delays)} compliant jobs, "
                         f"p{tail_pct(len(delays))} delay {tails[arm]:.4f} s")
        isolation = tails[self.sut] / tails["reference"]
        lines.append(f"  isolation_ratio {isolation:.3f} "
                     "(fair tail under the burst / reference tail)")
        return PassOutcome(
            contexts=contexts,
            sim={"sim_makespan_s": makespan,
                 "sim_speedup": tails["fifo"] / tails[self.sut],
                 "isolation_ratio": isolation},
            shed=shed, lines=lines,
            layer={f"service.{k}": v for k, v in extra.items()})


# ---------------------------------------------------------------------------
# tpch_sql: closed-loop SQL over in-memory columnar TPC-H-style tables
# ---------------------------------------------------------------------------

SCAN_FILTER_AGG_QUERY = (
    "SELECT l_suppkey, SUM(l_quantity) AS qty, COUNT(*) AS n FROM lineitem "
    "WHERE l_quantity > 25 GROUP BY l_suppkey"
)
SORT_LIMIT_QUERY = (
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_status = 'F' "
    "ORDER BY o_totalprice DESC, o_orderkey LIMIT 20"
)
CUSTOMER_AVG_QUERY = (
    "SELECT o_custkey, AVG(o_totalprice) AS avg_price FROM orders "
    "GROUP BY o_custkey"
)


class Rows:
    """Sorted result rows comparing floats with a relative tolerance of
    1e-9: vectorized sums add in another order than the plain-Python
    reference, so the last digits may differ."""

    def __init__(self, rows: Sequence[tuple]) -> None:
        self.rows = sorted(tuple(row) for row in rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rows) or len(self.rows) != len(other.rows):
            return False
        return all(
            len(a) == len(b) and all(
                math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
                if isinstance(x, float) or isinstance(y, float) else x == y
                for x, y in zip(a, b))
            for a, b in zip(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"Rows({len(self.rows)} rows, first {self.rows[:2]!r})"


class TpchSql(Workload):
    """A fixed SQL mix over columnar tables held in memory.

    Tables are generated once per setup and registered with an in-memory
    source, so queries read cached column batches; the per-query cost is
    SQL parsing, planning, compiling and the vectorized kernels.  The
    row-RDD pipeline for the revenue query (the columnar engine's
    baseline arm) runs only in the check pass.
    """

    name = "tpch_sql"
    loop = "closed"
    sut = "columnar"
    host_tail_pct = 90
    paper_speedup = None
    speedup_meaning = ("row-RDD / columnar SQL simulated time of the "
                       "revenue query (same rows)")
    num_partitions = 6

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        # Table sizes vary by up to 10% with the seed, like the rows.
        grow = 1.0 + random.Random(seed).random() / 10
        self.orders_per_partition = int((100 if tiny else 3000) * grow)
        self.lineitems_per_partition = int((400 if tiny else 12000) * grow)
        self.rounds = 2 if tiny else 8
        self.queries = (COLUMNAR_TPCH_QUERY, SCAN_FILTER_AGG_QUERY,
                        SORT_LIMIT_QUERY, CUSTOMER_AVG_QUERY)
        self.expected: Dict[str, List[tuple]] = {}

    @property
    def total_orders(self) -> int:
        return self.num_partitions * self.orders_per_partition

    def _rows(self) -> Tuple[List[List[tuple]], List[List[tuple]]]:
        # Called through the module so a traced pass sees the generators.
        orders = [datagen.orders_rows(pid, self.orders_per_partition, self.seed)
                  for pid in range(self.num_partitions)]
        lineitem = [datagen.lineitem_rows(pid, self.lineitems_per_partition,
                                  self.total_orders, self.seed)
                    for pid in range(self.num_partitions)]
        return orders, lineitem

    def prepare(self) -> None:
        orders_parts, lineitem_parts = self._rows()
        orders = [r for part in orders_parts for r in part]
        lineitem = [r for part in lineitem_parts for r in part]
        open_keys = {o[0] for o in orders if o[2] == "O"}
        revenue: Dict[str, float] = {}
        for key, _, _, price, flag in lineitem:
            if key in open_keys:
                revenue[flag] = revenue.get(flag, 0.0) + price
        qty: Dict[int, List[float]] = {}
        for _, supp, quantity, _, _ in lineitem:
            if quantity > 25:
                acc = qty.setdefault(supp, [0.0, 0])
                acc[0] += quantity
                acc[1] += 1
        top = sorted(((o[0], o[3]) for o in orders if o[2] == "F"),
                     key=lambda r: (-r[1], r[0]))[:20]
        per_customer: Dict[int, List[float]] = {}
        for o in orders:
            acc = per_customer.setdefault(o[1], [0.0, 0])
            acc[0] += o[3]
            acc[1] += 1
        self.expected = {
            COLUMNAR_TPCH_QUERY: Rows(revenue.items()),
            SCAN_FILTER_AGG_QUERY: Rows(
                (s, q, n) for s, (q, n) in qty.items()),
            SORT_LIMIT_QUERY: Rows(top),
            CUSTOMER_AVG_QUERY: Rows(
                (c, total / n) for c, (total, n) in per_customer.items()),
        }

    def _context(self) -> StarkContext:
        return StarkContext(num_workers=4, cores_per_worker=2)

    def setup(self, reference_arms: bool = False) -> Any:
        orders, lineitem = self._rows()
        sc = self._context()
        session = SQLSession(sc)
        for name, schema, parts in (
                ("orders", datagen.ORDERS_SCHEMA, orders),
                ("lineitem", datagen.LINEITEM_SCHEMA, lineitem)):
            schema = normalize_schema(schema)
            batches = [ColumnarBatch.from_rows(schema, rows) for rows in parts]
            session.create_table(name, schema, batches.__getitem__,
                                 self.num_partitions, read_cost="none")
        row = None
        if reference_arms:
            row = (self._context(), orders, lineitem)
        return sc, session, row

    def _row_revenue(self, sc: StarkContext, orders, lineitem,
                     recorder: Recorder) -> float:
        """The revenue query as a hand-written row-RDD pipeline."""
        o = sc.generated(orders.__getitem__, self.num_partitions,
                         read_cost="none", name="orders_rows")
        li = sc.generated(lineitem.__getitem__, self.num_partitions,
                          read_cost="none", name="lineitem_rows")
        open_orders = (o.filter(lambda r: r[2] == "O", name="open_orders")
                       .map(lambda r: (r[0], 1), name="order_keys"))
        priced = li.map(lambda r: (r[0], (r[4], r[3])), name="li_kv")
        pipeline = (priced.join(open_orders, name="li_join_orders")
                    .map(lambda kv: (kv[1][0][0], kv[1][0][1]),
                         name="flag_rev")
                    .reduce_by_key(lambda a, b: a + b, name="revenue"))
        due = sc.now
        finish = recorder.job(
            "row", sc, due, self.expected[COLUMNAR_TPCH_QUERY],
            lambda: Rows(pipeline.collect()), sample=False)
        return finish - due

    def run(self, system: Any, recorder: Recorder) -> PassOutcome:
        sc, session, row = system
        due = sc.now
        revenue_delays = []
        for _ in range(self.rounds):
            for text in self.queries:
                start = due
                due = recorder.job(
                    self.sut, sc, due, self.expected[text],
                    lambda text=text: Rows(session.sql(text).collect()))
                if text == COLUMNAR_TPCH_QUERY:
                    revenue_delays.append(due - start)
        contexts = [(self.sut, sc)]
        sim = {"sim_makespan_s": _span(
            [j for j in recorder.jobs if j.arm == self.sut])}
        lines = []
        layer: Dict[str, float] = {}
        if row is not None:
            row_sc, orders, lineitem = row
            contexts.append(("row", row_sc))
            row_delay = self._row_revenue(row_sc, orders, lineitem, recorder)
            col_delay = sorted(revenue_delays)[len(revenue_delays) // 2]
            sim["sim_speedup"] = row_delay / col_delay
            lines.append(f"  revenue query: row {row_delay:.4f} s, "
                         f"columnar {col_delay:.4f} s")
            layer["sql.pushdown_saved_frac"] = self._pushdown_saved(session)
        return PassOutcome(contexts=contexts, sim=sim, lines=lines,
                           layer=layer)

    def _pushdown_saved(self, session: SQLSession) -> float:
        """Share of scanned bytes the optimizer's pushdown avoids over
        the query mix (unoptimized vs optimized plans, fresh context)."""
        probe = self._context()
        probe_session = SQLSession(probe)
        probe_session.tables = dict(session.tables)
        full = pushed = 0.0
        for text in self.queries:
            plan = probe_session.sql(text).plan
            for logical, acc in ((plan, "full"), (optimize(plan)[0], "pushed")):
                rdd, _ = compile_plan(logical, probe)
                probe.run_job(rdd, len)
                scanned = sum(t.input_bytes
                              for t in probe.metrics.last_job().tasks)
                if acc == "full":
                    full += scanned
                else:
                    pushed += scanned
        return 1.0 - pushed / full if full else 0.0


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (Fig11Colocality, Fig19Stream, TenantService,
                              TpchSql)
}
