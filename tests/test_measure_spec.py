"""The ``Measure`` spec: parameter defaults, flags, pickling, and the
agreement it buys between systems (one resolution for every system)."""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines.ls import Ls
from repro.core.measures import (
    ALL_MEASURES, METRICS, ORDER_INDEPENDENT, get_measure, resolve_measure,
)
from repro.dist.repose import Repose
from tests.util import MEASURE_PARAMS, rnd_dataset, rnd_query

DATA = rnd_dataset(3, 12)


@pytest.mark.parametrize("measure", ALL_MEASURES)
def test_spec_pickles_and_matches_get_measure(measure):
    kw = MEASURE_PARAMS[measure]
    spec = resolve_measure(measure, **kw)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec
    assert back.params == kw
    fn = get_measure(measure, **kw)
    q = rnd_query(1)
    for pts in DATA.values():
        d = fn(q, pts)
        assert back.fn(q, pts) == d  # bit-identical
        assert spec.fn(q, pts) == d


@pytest.mark.parametrize("measure", ALL_MEASURES)
def test_spec_flags(measure):
    spec = resolve_measure(measure, **MEASURE_PARAMS[measure])
    assert spec.is_metric == (measure in ("hausdorff", "frechet", "erp"))
    assert spec.is_metric == (measure in METRICS)
    assert spec.order_independent == (measure == "hausdorff")
    assert spec.order_independent == (measure in ORDER_INDEPENDENT)
    assert spec.collapse_invariant == (measure in ("hausdorff", "frechet"))


def test_erp_gap_defaults():
    assert resolve_measure("erp").gap == (0.0, 0.0)
    assert resolve_measure("erp", (0.0, 2.0, 4.0, 10.0)).gap == (2.0, 6.0)
    assert resolve_measure("erp", (0.0, 2.0, 4.0, 10.0), gap=(1, 1)).gap == (1, 1)


def test_unused_params_dropped_and_eps_required():
    assert resolve_measure("hausdorff", eps=0.5, gap=(1.0, 1.0)).params == {}
    assert resolve_measure("erp", eps=0.5).eps is None
    for name in ("edr", "lcss"):
        with pytest.raises(ValueError):
            resolve_measure(name)
    with pytest.raises(ValueError):
        resolve_measure("euclid")


def test_repose_and_ls_agree_on_erp_default_gap(spark, tdrive_smoke, tdrive_queries):
    """Without ``gap``, every system resolves ERP's gap to the region centre."""
    rep = Repose(spark, tdrive_smoke, measure="erp", delta=0.15, n_partitions=4)
    ls = Ls(spark, tdrive_smoke, measure="erp", n_partitions=4)
    assert ls.config["measure"] == rep.config["measure"]
    for _, q in tdrive_queries[:2]:
        got = [d for d, _ in rep.query(q, 6)]
        exp = [d for d, _ in ls.query(q, 6)]
        assert np.allclose(got, exp, rtol=0, atol=1e-9)
    rep.unpersist()
    ls.unpersist()
