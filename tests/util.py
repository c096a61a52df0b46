"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np

from repro.core.measures import METRICS

#: per-measure extra kwargs used consistently across tests
MEASURE_PARAMS = {
    "hausdorff": {},
    "frechet": {},
    "dtw": {},
    "erp": {"gap": (5.0, 5.0)},
    "edr": {"eps": 0.5},
    "lcss": {"eps": 0.5},
}
ALL = tuple(MEASURE_PARAMS)


def rnd_traj(rng: np.random.Generator, n: int, scale: float = 10.0) -> np.ndarray:
    """A momentum-free random-walk trajectory inside roughly [0, scale]²."""
    p0 = rng.random(2) * scale
    return p0 + np.cumsum(rng.normal(0, scale / 33, (int(n), 2)), axis=0)


def rnd_dataset(seed: int, n: int, min_len: int = 5, max_len: int = 25):
    """Deterministic dict {tid: (len, 2) points}."""
    rng = np.random.default_rng(seed)
    return {
        i: rnd_traj(rng, rng.integers(min_len, max_len + 1)) for i in range(n)
    }


def rnd_query(seed: int, n: int = 12) -> np.ndarray:
    return rnd_traj(np.random.default_rng(seed + 10_000), n)


def topk_dists_equal(got, exp, tol=1e-9) -> bool:
    """Compare two [(dist, tid)] lists by distance multiset (tie-safe)."""
    if len(got) != len(exp):
        return False
    return all(abs(g[0] - e[0]) <= tol for g, e in zip(got, exp))


def iter_chains(trie):
    """Every frozen ``Chain`` record of ``trie``, in the order of its chain
    arrays (a chain's children come after it)."""
    frontier = [trie.heads]
    while frontier:
        for c in frontier.pop():
            yield c
            frontier.append(c.children)


def chain_paths(trie):
    """``[(record, nodes)]`` in chain-array order: each frozen ``Chain``
    paired with the run of build-graph nodes it stands for, found by
    walking both structures in parallel (a record's children follow the
    children of its last node, in the same order)."""
    out = []
    frontier = [(trie.root, trie.heads)]
    while frontier:
        node, chains = frontier.pop()
        assert len(chains) == len(node.children)
        for head, c in zip(node.children.values(), chains):
            path = [head]
            for _ in range(len(c.refpts) - 1):
                (nxt,) = path[-1].children.values()
                path.append(nxt)
            out.append((c, path))
            frontier.append((path[-1], c.children))
    return out


def subtree_tids(top) -> list[int]:
    """Trajectory ids stored at or below a build ``Node`` or a ``Chain``."""
    out, stack = [], [top]
    while stack:
        n = stack.pop()
        if n.leaf is not None:
            out.extend(n.leaf.tids)
        kids = n.children
        stack.extend(kids.values() if isinstance(kids, dict) else kids)
    return out
