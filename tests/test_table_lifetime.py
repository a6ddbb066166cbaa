"""Direction tables belong to the query that builds them.

A cloud is immutable: no query leaves anything on it, and a table built
for a query is freed when the query returns.  Each query builds one
table per planar cloud it reads and passes it to every routine that
needs it, so the tables are counted here.
"""

import gc
import weakref
from fractions import Fraction

import pytest

from centertrans.centers import SUFFICIENT, center_point
from centertrans.cloud import WeightedPointCloud
from centertrans.depth import (
    _DirectionTable,
    depth_of_measure,
    depth_region,
    marginal,
    tukey_depth,
)
from centertrans.generators import generate_cloud, maintheorem_suite
from centertrans.transversal import SearchConfig, random_frame, search, verify

F = Fraction

# a square around a heavy centre atom: its depth 3/5 exceeds the improved
# bound 28/81, so center_point also builds the region at the bound
SQUARE = WeightedPointCloud(
    2, [((F(x), F(y)), F(1, 5)) for x, y in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    + [((F(0), F(0)), F(1, 5))],
)


@pytest.fixture
def built(monkeypatch):
    """Weak references to every direction table built, in order."""
    refs = []
    init = _DirectionTable.__init__

    def recording_init(self, cloud):
        refs.append(weakref.ref(self))
        init(self, cloud)

    monkeypatch.setattr(_DirectionTable, "__init__", recording_init)
    return refs


def test_queries_leave_the_clouds_unchanged():
    planar = generate_cloud("gaussian-quantized", seed=5, atoms=12, dim=2)
    pair = maintheorem_suite(count=2)[1]
    frame = random_frame(7, 2, 0)
    config = SearchConfig(restarts=2, local_steps=2)
    queries = [
        (planar, lambda: depth_of_measure(planar)),
        (planar, lambda: depth_region(planar, F(1, 4))),
        (planar, lambda: center_point(planar, 2)),
        (planar, lambda: tukey_depth(planar, (0, 0))),
        (pair[0], lambda: marginal(pair[0], frame)),
        (pair[0], lambda: search(list(pair), 2, config)),
        (pair[1], lambda: verify(frame, list(pair), 2)),
    ]
    for cloud, query in queries:
        before = dict(vars(cloud))
        query()
        assert vars(cloud) == before


def test_no_table_outlives_depth_of_measure(built):
    cloud = generate_cloud("gaussian-quantized", seed=5, atoms=12, dim=2)
    depth_of_measure(cloud)
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None
    assert len(cloud) == 12  # the cloud is still referenced


def test_verify_builds_one_table_per_marginal(built):
    pair = maintheorem_suite(count=2)[1]
    verify(random_frame(7, 2, 0), list(pair), 2)
    assert len(built) == 2


def test_center_point_builds_one_table_for_both_queries(built):
    report = center_point(SQUARE, 2)
    assert report.classification == SUFFICIENT
    assert report.region.tau == report.threshold
    assert len(built) == 1


def test_no_table_outlives_search(built):
    # the restart's first frame builds one table per marginal from the
    # integer images, and the report's verify builds one per marginal again
    pair = maintheorem_suite(count=2)[1]
    report = search(list(pair), 2, SearchConfig(restarts=1, local_steps=0))
    assert report.objective > 0
    assert len(built) == 4
    gc.collect()
    assert all(ref() is None for ref in built)
