"""verify's c-points are center_point's c of each marginal.

The c-point of a marginal is the centroid of its depth region at the
improved bound, or at its own depth when that is lower.  verify reads
the common level L of the marginals, which no marginal's depth is below:
when L reaches the bound it takes each c-point from one region probe at
the bound, with no level search; below it, each marginal's level search
finds its depth first.  Both branches must give exactly the c of
``center_point`` on the marginal cloud, which builds the canonical
region; the tests below also count the level searches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans import centers, transversal
from centertrans.bounds import thresholds
from centertrans.centers import center_point
from centertrans.depth import marginal
from centertrans.errors import InternalConsistencyError
from centertrans.generators import centerline_suite, generate_cloud, maintheorem_suite
from centertrans.transversal import SearchConfig, random_frame, search, verify
from test_marginal import clouds_and_frames, seeded_cloud
from test_table_lifetime import SQUARE


def assert_c_points(frame, clouds):
    """verify's c-points equal center_point's; True when the common level
    reaches the improved bound (the one-probe branch)."""
    n = frame.n
    report = verify(frame, list(clouds), n)
    assert report.c_points == tuple(center_point(marginal(c, frame), n).c for c in clouds)
    return report.objective >= thresholds(n)[1]


def _suite_frames():
    """(clouds, frame) of every report of the two seeded acceptance suites."""
    cases = [((cloud,), SearchConfig(restarts=40, local_steps=25, master_seed=1000 + i))
             for i, cloud in enumerate(centerline_suite())]
    cases += [(pair, SearchConfig(restarts=120, local_steps=25, master_seed=2000 + i))
              for i, pair in enumerate(maintheorem_suite())]
    return [(clouds, search(list(clouds), 2, config).frame) for clouds, config in cases]


def test_suite_frames():
    # every suite report reaches the bound, so every c-point is one probe
    assert all(assert_c_points(frame, clouds) for clouds, frame in _suite_frames())


@pytest.mark.parametrize("n", (1, 2))
def test_seeded_frames(n):
    branches = set()
    for pair in maintheorem_suite(count=3):
        for seed in range(4):
            branches.add(assert_c_points(random_frame(7, n, seed), pair))
    for cloud in centerline_suite()[:4]:
        for seed in range(2):
            branches.add(assert_c_points(random_frame(3, n, seed), (cloud,)))
    assert False in branches
    if n == 2:
        assert True in branches


def test_adversarial_pairs_below_the_bound():
    # planar three-cluster clouds in R^7: the marginals stay near depth 1/3,
    # under the improved bound 28/81, so every c-point takes a level search
    for seeds in ((51, 52), (61, 62)):
        pair = [generate_cloud("adversarial-three-cluster", seed=s, atoms=9, ambient=7)
                for s in seeds]
        for seed in range(4):
            assert not assert_c_points(random_frame(7, 2, seed), pair)


@st.composite
def frames_and_clouds(draw):
    """A cloud and a frame with n <= 2, and maybe a second cloud."""
    cloud, frame = draw(clouds_and_frames().filter(lambda case: case[1].n <= 2))
    clouds = [cloud]
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
        clouds.append(seeded_cloud(rng, cloud.dim))
    return frame, clouds


@settings(max_examples=60, derandomize=True)
@given(case=frames_and_clouds())
def test_c_points_property(case):
    assert_c_points(*case)


@pytest.fixture
def level_searches(monkeypatch):
    """Calls of _deepest_common_region from transversal and centers."""
    calls = []
    search_levels = transversal._deepest_common_region

    def counting(*args):
        calls.append(args)
        return search_levels(*args)

    for module in (transversal, centers):
        monkeypatch.setattr(module, "_deepest_common_region", counting)
    return calls


def _pair_and_frames():
    """Criterion-9 pair 1 with a frame above the bound and one below."""
    pair = list(maintheorem_suite(count=2)[1])
    report = search(pair, 2, SearchConfig(restarts=120, local_steps=25, master_seed=2001))
    assert report.success
    return pair, report.frame, random_frame(7, 2, 0)


def test_verify_level_searches(level_searches):
    # a successful verify runs the common level search alone; a failing one
    # runs one more per marginal
    pair, good, bad = _pair_and_frames()
    level_searches.clear()
    assert verify(good, pair, 2).success
    assert len(level_searches) == 1
    level_searches.clear()
    assert not verify(bad, pair, 2).success
    assert len(level_searches) == 3


def test_empty_region_at_the_bound_raises(monkeypatch):
    pair, good, _ = _pair_and_frames()
    bound = thresholds(2)[1]
    region = centers._region_vertices

    def empty_at_bound(tables, tau):
        return () if tau == bound else region(tables, tau)

    monkeypatch.setattr(centers, "_region_vertices", empty_at_bound)
    with pytest.raises(InternalConsistencyError):
        verify(good, pair, 2)
    with pytest.raises(InternalConsistencyError):
        center_point(SQUARE, 2)
