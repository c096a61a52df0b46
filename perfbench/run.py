"""REPOSE benchmark: exact top-k trajectory queries on Spark local mode.

Run from the repository root:

    python3 perfbench/run.py --workload xian-frechet --seed 1 --seconds 12 --trace 0

One driver process runs Spark ``local[nproc]`` and one closed-loop
client (the next query is sent when the previous answer is back). Each
workload has one fixed dataset and index; the seed draws the queries.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (README.md).
Every answer is checked against brute force; the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``.
``--smoke`` swaps in the tiny `smoke` data profile, for the test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: distinct queries per run, one per length stratum; the loop cycles them
QUERY_POOL = 16
#: sampled candidates whose vectorised distance is checked per run
KERNEL_SAMPLE = 32
#: a workload's dataset and index are fixed, like the paper's real
#: datasets; the run's seed draws only the queries
DATA_SEED = 0


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def start_spark(cores: int):
    """Local-mode session whose scratch files stay under ``WORK``."""
    tmp, local = WORK / "tmp", WORK / "spark"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
        .config("spark.local.dir", str(local))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits on EOF of its stdin
        gateway.proc.wait(timeout=60)


def load(spark, wl, seed: int, smoke: bool):
    """Cached trajectory DataFrame, its driver-side copy and the queries."""
    import numpy as np
    from repro import synth_data

    size = {} if smoke else {"n": wl.n, "avg_len": wl.avg_len}
    df = synth_data.trajectories(
        spark, wl.dataset, profile="smoke" if smoke else "lite", seed=DATA_SEED, **size
    ).cache()
    df.count()
    pdf = df.toPandas()
    tids = pdf["tid"].to_numpy()
    trajs = [np.column_stack([x, y]) for x, y in zip(pdf["xs"], pdf["ys"])]
    return df, tids, trajs, sample_queries(tids, trajs, seed)


def sample_queries(tids, trajs, seed: int) -> list:
    """Warm-up query, then one query from each of ``QUERY_POOL`` strata.

    Like ``synth_data.sample_queries``, queries are dataset trajectories
    drawn uniformly, but stratified: the dataset is cut into equal-count
    strata by length and one query is drawn from each, in random order.
    Query cost grows with query length, so every run sees the same
    spread of lengths instead of a luck-of-the-draw mix. The warm-up
    query comes from the middle stratum.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    by_len = np.argsort([len(t) for t in trajs], kind="stable")
    strata = np.array_split(by_len, QUERY_POOL)
    picks = [int(rng.choice(s)) for s in strata]
    rng.shuffle(picks)
    picks.insert(0, int(rng.choice(strata[QUERY_POOL // 2])))
    return [(int(tids[i]), trajs[i]) for i in picks]


def closed_loop(queries, seconds: float, ask):
    """Send queries 1.. (0 is the warm-up) one at a time for ``seconds``.

    Returns latencies, ``(qid, answer or None)`` pairs and the loop's
    wall clock. A query that raises is recorded with answer ``None``.
    """
    lat, answers = [], []
    start = time.perf_counter()
    while (t := time.perf_counter()) - start < seconds:
        qid = 1 + len(lat) % (len(queries) - 1)
        try:
            ans = ask(qid, queries[qid][1])
        except Exception:  # the loop must go on; the answer counts as wrong
            traceback.print_exc()
            ans = None
        lat.append(time.perf_counter() - t)
        answers.append((qid, ans))
    return lat, answers, time.perf_counter() - start


def count_wrong(bf, queries, answers, k: int) -> int:
    """Answers that differ from brute force (``None`` counts as wrong)."""
    from perfbench.oracle import same_answer

    want = {}
    wrong = 0
    for qid, ans in answers:
        if qid not in want:
            want[qid] = bf.topk(queries[qid][1], k)
        wrong += ans is None or not same_answer(ans, want[qid])
    return wrong


def tail(lat: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ten samples beyond it.

    Returns ``(seconds, percentile)``; with ten samples or fewer no
    sample qualifies, and the maximum is returned as percentile 100.
    """
    s = sorted(lat)
    rank = len(s) - 10
    if rank < 1:
        return s[-1], 100.0
    return s[rank - 1], 100.0 * rank / len(s)


def cached_bytes(spark, rdd) -> int:
    """Memory + disk the block manager reports for a cached RDD."""
    for info in spark.sparkContext._jsc.sc().getRDDStorageInfo():
        if info.id() == rdd.id():
            return info.memSize() + info.diskSize()
    return 0


def end_to_end(spark, wl, queries, seconds, build):
    """Untraced run: median set-up, then the timed closed loop."""
    setups = []
    index = None
    for _ in range(SETUP_REPS):
        if index is not None:
            index.unpersist()
        t0 = time.perf_counter()
        index = build()
        warm = index.query(queries[0][1], wl.k)  # warm-up counts as set-up
        setups.append(time.perf_counter() - t0)
    lat, answers, wall = closed_loop(
        queries, seconds, lambda qid, q: index.query(q, wl.k)
    )
    done = sum(a is not None for _, a in answers)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(lat),
        "query_tail_s": tail_s,
        "throughput_qps": done / wall,
        "index_bytes": index.index_bytes,
        "cached_bytes": cached_bytes(spark, index.rdd),
    }
    info = {"setups_s": setups, "samples": len(lat), "tail_percentile": tail_pct}
    return metrics, [(0, warm)] + answers, info


def traced(df, wl, queries, seconds, build, out_stem):
    """Traced run: one set-up and the closed loop, both under spans."""
    from perfbench.layers import TracedQueries, traced_setup
    from perfbench.tracing import Tracer

    # one untraced set-up first, so that the spans time a warm session,
    # like the median of ``setup_s`` does
    cold = build()
    cold.query(queries[0][1], wl.k)
    cold.unpersist()
    tracer = Tracer()
    index, packs, warm, metrics, node_mismatch = traced_setup(
        tracer, df, wl, queries, DATA_SEED, build
    )
    ask = TracedQueries(tracer, index, packs, wl)
    lat, answers, _ = closed_loop(queries, seconds, ask)
    metrics.update(ask.metrics())
    tracer.write(out_stem.with_suffix(".spans.jsonl"))
    problems = {
        "replayed trie node counts differ": node_mismatch,
        "replayed local searches differ from the index": ask.replay_mismatch,
    }
    return metrics, [(0, warm)] + answers, {"samples": len(lat)}, problems


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)

    import numpy
    import pyspark

    from perfbench.oracle import BruteForce
    from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS

    wl = WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    phases = {}
    t0 = time.perf_counter()
    spark = start_spark(cores)
    phases["spark_start"] = time.perf_counter() - t0
    try:
        df, tids, trajs, queries = load(spark, wl, args.seed, args.smoke)
        phases["load"] = time.perf_counter() - t0 - sum(phases.values())

        def build():
            from repro.dist.repose import Repose

            return Repose(
                spark, df,
                measure=wl.measure, delta=wl.delta, n_partitions=wl.n_partitions,
                strategy=wl.strategy, n_pivots=wl.n_pivots, seed=DATA_SEED,
            )

        stem = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, answers, info, problems = traced(
                df, wl, queries, args.seconds, build, stem
            )
            units = PER_LAYER
        else:
            metrics, answers, info = end_to_end(
                spark, wl, queries, args.seconds, build
            )
            problems = {}
            units = END_TO_END
        host = {
            "nproc": cores,
            "master": spark.sparkContext.master,
            "python": platform.python_version(),
            "pyspark": pyspark.__version__,
            "numpy": numpy.__version__,
        }
        phases["run"] = time.perf_counter() - t0 - sum(phases.values())
    finally:
        stop_spark(spark)
    phases["stop"] = time.perf_counter() - t0 - sum(phases.values())

    bf = BruteForce(tids, trajs, wl.measure)
    problems["vectorised kernel differs from repro.core.measures"] = bf.check_kernel(
        queries[0][1], KERNEL_SAMPLE, args.seed
    )
    failed = count_wrong(bf, queries, answers, wl.k)
    if not args.trace:
        metrics["correct_answer_share"] = 1.0 - failed / len(answers)
    problems = {p: n for p, n in problems.items() if n}
    phases["check"] = time.perf_counter() - t0 - sum(phases.values())

    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "data_seed": DATA_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "trajectories": len(trajs),
        "partitions": wl.n_partitions,
        "k": wl.k,
        "delta": wl.delta,
        "n_pivots": wl.n_pivots,
        "strategy": wl.strategy,
        "host": host,
        "wrong_answer_share": failed / len(answers),
        "problems": problems,
        "phases_s": phases,
        **info,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(answers),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps({**stamp, **result}, indent=1))
    print("# " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
