"""Best-first top-k search over an RP-Trie (paper §IV, §VI, Algorithm 2).

The measure's ``Measure`` spec (``core.measures``) supplies the exact
kernel, the CompLB engine (``core.complb``) that bounds a node by
``LB_o`` / ``LB_t``, and whether the pivot bound ``LB_p`` is admissible
(metrics only).

Traversal is *path-compressed*: single-child chains (frequent in the
order-preserving tries, where consecutive points revisit cells) are
advanced in one call, with the column DP running on Python lists — the
same representation as the exact kernels — and an early chain abort as
soon as the monotone column minimum crosses the current d_k. This is an
implementation detail (DESIGN.md §3): bound values and visit order are
exactly those of node-at-a-time traversal.

The pivot lower bound (§IV-D) uses the node HR arrays with the standard
symmetric metric bound (see DESIGN.md §3 re: the paper's Eq. 5).
"""
from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

from .measures import Measure, as_measure
from .pivots import query_pivot_dists
from .rptrie import Chain, Leaf, RPTrie


def _pivot_lbs(dqp: np.ndarray, hr: np.ndarray, slack: float) -> np.ndarray:
    """LB_p for HR arrays of shape (..., N_p, 2) → (...,).

    max_i max{ d_qp[i] − HR[i].max − slack, HR[i].min − slack − d_qp[i], 0 }.
    """
    lo = dqp - hr[..., 1] - slack
    hi = hr[..., 0] - slack - dqp
    return np.maximum(np.maximum(lo, hi), 0.0).max(axis=-1)


#: columns advanced per heap pop — best-first granularity of the
#: path-compressed traversal (heap overhead vs. wasted DP columns)
CHAIN_CHUNK = 8
CHAIN, LEAF = 0, 1


class SearchStats:
    """Counters exposed for tests/benchmarks: how much pruning happened."""

    __slots__ = ("nodes_expanded", "leaves_visited", "exact_computed", "pushed")

    def __init__(self):
        self.nodes_expanded = 0
        self.leaves_visited = 0
        self.exact_computed = 0
        self.pushed = 0


def search_topk(
    trie: RPTrie,
    trajs: dict[int, np.ndarray],
    qpts: np.ndarray,
    k: int,
    *,
    measure: Measure | str,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
    d_k: float = np.inf,
    stats: SearchStats | None = None,
) -> list[tuple[float, int]]:
    """Exact local top-k (Algorithm 2): returns ``[(dist, tid)]`` ascending.

    ``measure`` is a resolved spec, or a name bound with ``eps``/``gap``
    (see ``as_measure``). ``d_k`` seeds the pruning threshold (useful
    when merging partitions).
    """
    spec = as_measure(measure, eps=eps, gap=gap)
    fn = spec.fn
    engine = spec.engine(qpts, trie.grid.half_diag)
    # LB_p needs the triangle inequality: never apply it to a non-metric
    use_pivots = spec.is_metric and trie.n_pivots > 0
    dqp = query_pivot_dists(qpts, trie.pivots, fn) if use_pivots else None
    slack_p = trie.pivot_slack

    stats = stats or SearchStats()
    result: list[tuple[float, int]] = []  # max-heap via negated dist
    counter = 0
    heap: list = []

    def push_chain(child: Chain, lb: float, state) -> None:
        """Enqueue a (lazy) chain entry; its DP has not been advanced yet."""
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (lb, counter, CHAIN, (child, 0, state)))
        stats.pushed += 1

    root_state = engine.root_state()
    for child in trie.heads:
        push_chain(child, 0.0, root_state)

    while heap:
        lb, _, kind, payload = heapq.heappop(heap)
        if lb >= d_k:
            break
        if kind == LEAF:
            leaf: Leaf = payload
            stats.leaves_visited += 1
            for tid in leaf.tids:
                stats.exact_computed += 1
                dist = fn(qpts, trajs[tid])
                if dist < d_k:
                    heapq.heappush(result, (-dist, tid))
                    if len(result) > k:
                        heapq.heappop(result)
                    if len(result) == k:
                        d_k = -result[0][0]
            continue
        # CHAIN: advance the child's compressed chain by one chunk, then
        # re-enqueue — best-first ordering operates at chunk granularity,
        # so no chain runs to its end while d_k is still loose.
        child, off, state = payload
        if off == 0 and use_pivots and child.hr is not None:
            # HR is identical along a chain: one check covers its subtree
            if float(_pivot_lbs(dqp, child.hr, slack_p)) >= d_k:
                continue
        stats.nodes_expanded += 1
        n_chain = len(child.refpts)
        hi = min(off + CHAIN_CHUNK, n_chain)
        st = engine.advance(
            state,
            child.refpts[off:hi],
            child.rects[off:hi],
            d_k,
        )
        if st is None:
            continue  # monotone bound crossed d_k: subtree pruned
        if hi < n_chain:
            # interior of a single-child run: depth/suffix are derivable
            left = n_chain - hi  # nodes of the run still below
            clb = engine.node_lb(st, child.depth - left, left + child.max_suffix)
            if clb < d_k:
                counter += 1
                heapq.heappush(heap, (clb, counter, CHAIN, (child, hi, st)))
                stats.pushed += 1
            continue
        clb = engine.node_lb(st, child.depth, child.max_suffix)
        if clb >= d_k:
            continue
        for grand in child.children:
            push_chain(grand, clb, st)
        if child.leaf is not None:
            llb = engine.leaf_lb(st, child.leaf, child.depth)
            if use_pivots and child.leaf.hr is not None:
                llb = max(llb, float(_pivot_lbs(dqp, child.leaf.hr, slack_p)))
            llb = max(llb, clb)
            if llb < d_k:
                counter += 1
                heapq.heappush(heap, (llb, counter, LEAF, child.leaf))
                stats.pushed += 1

    return sorted(((-d, t) for d, t in result), key=lambda x: (x[0], x[1]))


def brute_force_topk(
    trajs: Iterable[tuple[int, np.ndarray]],
    qpts: np.ndarray,
    k: int,
    *,
    measure: Measure | str,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
) -> list[tuple[float, int]]:
    """Reference linear scan; also the kernel used by the LS baseline."""
    fn = as_measure(measure, eps=eps, gap=gap).fn
    scored = sorted(
        ((fn(qpts, pts), tid) for tid, pts in trajs), key=lambda x: (x[0], x[1])
    )
    return scored[:k]
