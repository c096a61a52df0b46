"""The benchmark's workloads and the metrics it reports.

Each workload stresses a different layer of REPOSE (see README.md for
the layer -> end-to-end map). Sizes are scaled down from the `lite`
profile so that three set-ups, a timed query loop and the brute-force
check of every answer fit in well under a minute per run on a 4-core
host; the dataset shapes (span, hotspots, lengths) are the `lite` ones.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    measure: str
    n: int  # trajectories
    avg_len: int  # mean points per trajectory
    delta: float  # grid cell side
    n_partitions: int
    k: int
    n_pivots: int = 5  # the paper's default N_p
    strategy: str = "heterogeneous"  # the paper's default partitioning


WORKLOADS = {
    w.name: w
    for w in (
        # framework-bound: more tasks than cores, tiny tries, no DP kernel
        Workload("tdrive-hausdorff", "tdrive", "hausdorff", 3000, 22, 0.15, 8, 10),
        # search-bound: one partition per core, k = 100, exact Frechet DPs
        Workload("xian-frechet", "xian", "frechet", 1500, 60, 0.03, 4, 100),
        # build-bound: basic (order-preserving) tries, no pivots, no D_max
        Workload("osm-dtw", "osm", "dtw", 300, 80, 1.0, 4, 10),
    )
}

#: untraced run (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "throughput_qps": "1/s",
    "index_bytes": "bytes",
    "cached_bytes": "bytes",
    "correct_answer_share": "share",
}

#: traced run (``--trace 1``): name -> unit
PER_LAYER = {
    "framework.noop_job_s": "s",
    "framework.local_max_s": "s",
    "framework.local_sum_s": "s",
    "framework.query_s": "s",
    "framework.pack_restore_s": "s",
    "tracing.overhead_s": "s",
    "search.local_s": "s",
    "search.exact_computed": "count",
    "search.leaves_visited": "count",
    "search.nodes_expanded": "count",
    "search.pushed": "count",
    "search.exact_per_result": "ratio",
    "measures.exact_us": "us",
    "pivots.select_s": "s",
    "pivots.query_dists_s": "s",
    "partition.bounds_s": "s",
    "partition.assign_s": "s",
    "partition.skew": "ratio",
    "rptrie.build_s": "s",
    "rptrie.build_max_s": "s",
    "succinct.size_s": "s",
    "rptrie.nodes": "count",
    "rptrie.pickled_bytes": "bytes",
}
