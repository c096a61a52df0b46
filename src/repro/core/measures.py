"""Exact trajectory distance kernels and the ``Measure`` spec (paper §II, §VI).

All trajectories are ``(n, 2)`` float64 numpy arrays. These kernels are
shared by REPOSE and all baselines (LS, DFT, DITA) so query-time
comparisons measure pruning/indexing, not kernel implementations.

Supported measures (paper §I): Hausdorff, Frechet, DTW, ERP, EDR, LCSS.
Everything the rest of the system needs to know about a measure lives in
its ``Measure`` spec, resolved once per index on the driver by
``resolve_measure`` and shipped to the workers in the pack config:

* the bound parameters — ERP's gap point, EDR/LCSS's match threshold ε;
* the exact kernel ``fn`` and the CompLB engine factory (``core.complb``);
* ``is_metric`` — triangle inequality holds, so the pivot bound ``LB_p``
  and ``D_max`` apply (§IV-D, §VI; ``METRICS``);
* ``order_independent`` — invariant to point re-ordering, so the
  z-value re-arrangement trie optimization is valid (§III-C;
  ``ORDER_INDEPENDENT``);
* ``collapse_invariant`` — invariant to collapsing consecutive duplicate
  points, so HR/``D_max`` may use collapsed reference trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .complb import (
    DtwEngine, EdrEngine, ErpEngine, FrechetEngine, HausdorffEngine, LcssEngine,
)


def pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape ``(len(a), len(b))``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Bidirectional Hausdorff distance (paper Eq. 1)."""
    d = pair_dists(a, b)
    return float(max(d.min(1).max(), d.min(0).max()))


def _rowwise_dp(d: list[list[float]], kind: str) -> float:
    """Shared discrete-Frechet / DTW dynamic program over a cost matrix.

    ``d`` is a Python list-of-lists (scalar indexing on lists is ~3x
    faster than on numpy arrays). ``kind`` is "frechet" (max of matched
    costs under a monotone coupling) or "dtw" (sum).
    """
    m, n = len(d), len(d[0])
    prev = [0.0] * n
    row0 = d[0]
    if kind == "frechet":
        acc = row0[0]
        for j in range(n):
            acc = max(acc, row0[j]) if j else row0[0]
            prev[j] = acc
        for i in range(1, m):
            di = d[i]
            cur = [0.0] * n
            cur[0] = max(di[0], prev[0])
            for j in range(1, n):
                best = prev[j - 1]
                if prev[j] < best:
                    best = prev[j]
                if cur[j - 1] < best:
                    best = cur[j - 1]
                cur[j] = di[j] if di[j] > best else best
            prev = cur
    else:  # dtw
        acc = 0.0
        for j in range(n):
            acc += row0[j]
            prev[j] = acc
        for i in range(1, m):
            di = d[i]
            cur = [0.0] * n
            cur[0] = di[0] + prev[0]
            for j in range(1, n):
                best = prev[j - 1]
                if prev[j] < best:
                    best = prev[j]
                if cur[j - 1] < best:
                    best = cur[j - 1]
                cur[j] = di[j] + best
            prev = cur
    return float(prev[-1])


def frechet(a: np.ndarray, b: np.ndarray) -> float:
    """Discrete Frechet distance (paper Eq. 6)."""
    return _rowwise_dp(pair_dists(a, b).tolist(), "frechet")


def dtw(a: np.ndarray, b: np.ndarray) -> float:
    """Dynamic time warping distance (paper Eq. 12)."""
    return _rowwise_dp(pair_dists(a, b).tolist(), "dtw")


def erp(a: np.ndarray, b: np.ndarray, gap: tuple[float, float] = (0.0, 0.0)) -> float:
    """Edit distance with Real Penalty [Chen & Ng, VLDB'04].

    Matching q_i↔p_j costs d(q_i, p_j); gapping a point costs its distance
    to the fixed gap point ``g``. ERP is a metric.
    """
    g = np.asarray(gap, dtype=float)
    ga = np.sqrt(((a - g) ** 2).sum(1)).tolist()
    gb = np.sqrt(((b - g) ** 2).sum(1)).tolist()
    d = pair_dists(a, b).tolist()
    m, n = len(a), len(b)
    prev = [0.0] * (n + 1)
    for j in range(1, n + 1):
        prev[j] = prev[j - 1] + gb[j - 1]
    for i in range(1, m + 1):
        di = d[i - 1]
        cur = [prev[0] + ga[i - 1]] + [0.0] * n
        for j in range(1, n + 1):
            best = prev[j - 1] + di[j - 1]      # match
            v = prev[j] + ga[i - 1]             # gap q_i
            if v < best:
                best = v
            v = cur[j - 1] + gb[j - 1]          # gap p_j
            if v < best:
                best = v
            cur[j] = best
        prev = cur
    return float(prev[-1])


def edr(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """Edit Distance on Real sequences [Chen et al., SIGMOD'05].

    Points match when their Euclidean distance is ≤ ``eps`` (the common
    Euclidean variant of the per-coordinate test); every edit costs 1.
    """
    match = (pair_dists(a, b) <= eps).tolist()
    m, n = len(a), len(b)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        mi = match[i - 1]
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            best = prev[j - 1] + (0 if mi[j - 1] else 1)
            v = prev[j] + 1
            if v < best:
                best = v
            v = cur[j - 1] + 1
            if v < best:
                best = v
            cur[j] = best
        prev = cur
    return float(prev[-1])


def lcss(a: np.ndarray, b: np.ndarray, eps: float) -> float:
    """LCSS *distance*: ``1 − |LCSS(a,b)| / min(|a|,|b|)`` ∈ [0, 1].

    Points match when Euclidean distance ≤ ``eps`` (no temporal window).
    """
    match = (pair_dists(a, b) <= eps).tolist()
    m, n = len(a), len(b)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        mi = match[i - 1]
        cur = [0] * (n + 1)
        for j in range(1, n + 1):
            if mi[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev = cur
    return float(1.0 - prev[-1] / min(m, n))


#: name: (kernel, CompLB engine, metric, order-independent,
#: collapse-invariant, the parameter the measure takes)
_KINDS = {
    "hausdorff": (hausdorff, HausdorffEngine, True, True, True, None),
    "frechet": (frechet, FrechetEngine, True, False, True, None),
    "dtw": (dtw, DtwEngine, False, False, False, None),
    "erp": (erp, ErpEngine, True, False, False, "gap"),
    "edr": (edr, EdrEngine, False, False, False, "eps"),
    "lcss": (lcss, LcssEngine, False, False, False, "eps"),
}
#: all supported measure names
ALL_MEASURES = tuple(_KINDS)
#: measures satisfying the triangle inequality → pivot pruning valid
METRICS = frozenset(n for n, kind in _KINDS.items() if kind[2])
#: measures invariant to point re-ordering → optimized trie valid
ORDER_INDEPENDENT = frozenset(n for n, kind in _KINDS.items() if kind[3])


@dataclass(frozen=True)
class Measure:
    """A measure with its parameters bound; see the module docstring.

    ``fn(a, b) -> float`` is the exact distance; ``engine(qpts, slack)``
    builds the query's CompLB engine. Both are module-level callables or
    ``functools.partial``s of them (not lambdas), so a spec survives
    plain-pickle round trips inside Spark workers. Specs compare by name,
    flags and parameters.
    """

    name: str
    fn: Callable = field(compare=False, repr=False)
    engine: Callable = field(compare=False, repr=False)
    is_metric: bool
    order_independent: bool
    collapse_invariant: bool
    eps: float | None = None
    gap: tuple[float, float] | None = None

    @property
    def params(self) -> dict:
        """The bound parameters as keywords of ``get_measure``."""
        return {
            k: v for k, v in (("eps", self.eps), ("gap", self.gap)) if v is not None
        }


def resolve_measure(
    name: str,
    bounds: tuple[float, float, float, float] | None = None,
    *,
    eps: float | None = None,
    gap: tuple[float, float] | None = None,
) -> Measure:
    """Resolve a measure name and its parameters into a ``Measure``.

    Without ``gap``, ERP's gap point is the centre of the dataset
    ``bounds`` ``(minx, miny, maxx, maxy)``, or the origin when no bounds
    are given. EDR and LCSS need ``eps``. A parameter the measure does
    not take is ignored.
    """
    if name not in _KINDS:
        raise ValueError(f"unknown measure {name!r}")
    kernel, engine, metric, order_free, collapse, takes = _KINDS[name]
    eps = eps if takes == "eps" else None
    gap = gap if takes == "gap" else None
    if takes == "eps" and eps is None:
        raise ValueError(f"measure {name!r} needs eps")
    if takes == "gap" and gap is None:
        gap = (0.0, 0.0) if bounds is None else (
            (bounds[0] + bounds[2]) / 2.0,
            (bounds[1] + bounds[3]) / 2.0,
        )
    if takes:
        kw = {takes: eps if takes == "eps" else gap}
        kernel, engine = partial(kernel, **kw), partial(engine, **kw)
    return Measure(name, kernel, engine, metric, order_free, collapse, eps, gap)


def as_measure(measure: Measure | str, **params) -> Measure:
    """``measure`` itself if it is a spec, else the name resolved with
    ``params`` (``eps``/``gap``) and no dataset bounds."""
    if isinstance(measure, Measure):
        return measure
    return resolve_measure(measure, **params)


def get_measure(name: str, **params) -> Callable:
    """Return ``fn(a, b) -> float`` for a measure name, binding params
    (``eps`` for EDR/LCSS, ``gap`` for ERP)."""
    return resolve_measure(name, **params).fn
