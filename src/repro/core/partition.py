"""Global partitioning strategies (paper §V-A/§V-B) as DataFrame ops.

Strategies over a trajectory DataFrame ``(tid, xs, ys)``:

* ``heterogeneous`` (REPOSE, §V-B): SOM-TC-style clustering — encode each
  trajectory as a geohash cell-code sequence, coarsen the granularity
  until ~``N/N_G`` clusters remain, sort by (cluster id, tid), assign
  round-robin → similar trajectories land in *different* partitions.
* ``homogeneous`` (DITA/DFT-style, §V-A): same clustering, but sorted
  trajectories are cut into ``N_G`` contiguous chunks → similar
  trajectories land in the *same* partition. ``key_mode`` selects what is
  clustered: the whole trajectory ("traj", Table VII), the first point
  ("first", DITA) or the centroid ("centroid", DFT).
* ``random``: ``xxhash64(tid) mod N_G``.

All assignment logic is Spark SQL / window functions (Catalyst); the only
Python is the per-trajectory geohash code sequence (inherently per-row).
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Window
from pyspark.sql.types import LongType

from repro.geo.geohash import int_codes

MAX_BITS = 14  # finest geohash granularity tried by the coarsening loop


def dataset_bounds(traj_df: DataFrame) -> tuple[float, float, float, float]:
    """Global (minx, miny, maxx, maxy) over all trajectory points."""
    row = traj_df.select(
        F.min(F.array_min("xs")).alias("minx"),
        F.min(F.array_min("ys")).alias("miny"),
        F.max(F.array_max("xs")).alias("maxx"),
        F.max(F.array_max("ys")).alias("maxy"),
    ).first()
    return (row.minx, row.miny, row.maxx, row.maxy)


def _stable_hash64(b: bytes) -> int:
    """Process-independent 63-bit hash (python's hash() is seeded)."""
    return int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big") >> 1


def _key_udf(bounds: tuple[float, float, float, float], bits: int, key_mode: str):
    """pandas_udf: trajectory (xs, ys) → int64 cluster key at ``bits``."""

    @F.pandas_udf(LongType())
    def key(xs: pd.Series, ys: pd.Series) -> pd.Series:
        out = np.empty(len(xs), dtype=np.int64)
        for i in range(len(xs)):
            x = np.asarray(xs.iloc[i], dtype=float)
            y = np.asarray(ys.iloc[i], dtype=float)
            if key_mode == "first":
                x, y = x[:1], y[:1]
            elif key_mode == "centroid":
                x, y = np.array([x.mean()]), np.array([y.mean()])
            codes = int_codes(x, y, bounds, bits)
            # consecutive-duplicate removal = the cell *sequence* the
            # trajectory traverses (SOM-TC encoding)
            if len(codes) > 1:
                keep = np.concatenate([[True], codes[1:] != codes[:-1]])
                codes = codes[keep]
            out[i] = _stable_hash64(codes.tobytes())
        return pd.Series(out)

    return key


def _cluster_counts(
    traj_df: DataFrame,
    bounds: tuple[float, float, float, float],
    key_mode: str,
    max_bits: int,
):
    """Key columns at every trial granularity plus one multi-aggregate
    job: the distinct key count per granularity (``c<bits>``) and the
    row count (``n``). Returns ``(keyed df, trials, counts row)``."""
    trials = list(range(max_bits, 0, -2))
    keyed = traj_df
    for bits in trials:
        keyed = keyed.withColumn(
            f"_k{bits}", _key_udf(bounds, bits, key_mode)("xs", "ys")
        )
    keyed = keyed.cache()
    counts = keyed.select(
        F.count(F.lit(1)).alias("n"),
        *[F.count_distinct(f"_k{bits}").alias(f"c{bits}") for bits in trials],
    ).first()
    return keyed, trials, counts


def _pick_granularity(keyed, trials, counts, target_clusters):
    """§V-B: the finest granularity with ≤ ``target_clusters`` clusters."""
    target_clusters = max(1, target_clusters)
    chosen_bits, n_clusters = trials[-1], counts[f"c{trials[-1]}"]
    for bits in trials:
        if counts[f"c{bits}"] <= target_clusters:
            chosen_bits, n_clusters = bits, counts[f"c{bits}"]
            break
    out = keyed.withColumn("cluster", F.col(f"_k{chosen_bits}")).drop(
        *[f"_k{bits}" for bits in trials]
    )
    return out, chosen_bits, n_clusters


def cluster_trajectories(
    traj_df: DataFrame,
    target_clusters: int,
    *,
    bounds: tuple[float, float, float, float] | None = None,
    key_mode: str = "traj",
    max_bits: int = MAX_BITS,
) -> tuple[DataFrame, int, int]:
    """§V-B granularity loop: coarsen geohash until ≤ ``target_clusters``.

    Returns ``(df with 'cluster' column, bits_used, n_clusters)``.
    Starts at ``max_bits`` (near-singleton clusters) and enlarges the
    space granularity until the cluster count first drops to the target.
    """
    bounds = bounds or dataset_bounds(traj_df)
    return _pick_granularity(
        *_cluster_counts(traj_df, bounds, key_mode, max_bits), target_clusters
    )


def assign_partitions(
    traj_df: DataFrame,
    n_partitions: int,
    strategy: str = "heterogeneous",
    *,
    bounds: tuple[float, float, float, float] | None = None,
    key_mode: str = "traj",
) -> DataFrame:
    """Add a ``pid`` column in [0, n_partitions) according to ``strategy``."""
    if strategy == "random":
        return traj_df.withColumn(
            "pid", F.pmod(F.xxhash64("tid"), F.lit(n_partitions)).cast("int")
        )
    if strategy not in ("heterogeneous", "homogeneous"):
        raise ValueError(f"unknown strategy {strategy!r}")
    bounds = bounds or dataset_bounds(traj_df)
    # the row count rides on the clustering's multi-aggregate job
    keyed, trials, counts = _cluster_counts(traj_df, bounds, key_mode, MAX_BITS)
    n = counts["n"]
    clustered, _, _ = _pick_granularity(
        keyed, trials, counts, max(n_partitions, n // n_partitions)
    )
    w = Window.orderBy("cluster", "tid")
    ranked = clustered.withColumn("rn", F.row_number().over(w) - 1)
    if strategy == "heterogeneous":
        pid = F.col("rn") % n_partitions  # round-robin over sorted clusters
    else:
        pid = F.floor(F.col("rn") * n_partitions / F.lit(n))  # contiguous chunks
    return ranked.withColumn("pid", pid.cast("int")).drop("rn", "cluster")
