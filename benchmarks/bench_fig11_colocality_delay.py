"""Fig 11: co-locality job delay.

Paper: cogrouping N wiki-hour RDDs (~800 MB each) on 8 executors — the
Spark-H/Stark-H gap grows with N (Stark ~5x faster at N=5; the paper's
headline "reduces the job makespan by 4X").
"""


from repro.bench.harness import run_colocality
from repro.bench.reporting import print_comparison, print_table


def test_fig11_colocality_job_delay(run_once):
    results = run_once(
        run_colocality,
        rdd_counts=(1, 2, 3, 4, 5, 6),
        queries_per_point=3,
    )
    by = {}
    for r in results:
        by.setdefault(r.num_rdds, {})[r.config] = r
    rows = []
    for n in sorted(by):
        spark = by[n]["Spark-H"].job_delay
        stark = by[n]["Stark-H"].job_delay
        rows.append([n, spark, stark, spark / stark])
    print_table(
        "Fig 11: co-locality job delay (cogroup N RDDs)",
        ["rdds", "Spark-H (s)", "Stark-H (s)", "speedup"],
        rows,
    )
    # Shape: the gap grows with N and reaches the headline ~4x.
    speedups = [row[3] for row in rows]
    assert speedups[0] < 1.5  # single RDD: nothing to co-locate
    assert max(speedups) >= 3.0
    # Headline: the same-N pair at the N with the peak ratio.
    n, spark, stark, _ = max(rows, key=lambda row: row[3])
    print_comparison(f"headline makespan reduction (N={n})",
                     "Spark-H", spark, "Stark-H", stark)
    assert speedups[4] > speedups[1]  # monotone-ish growth to n=5
