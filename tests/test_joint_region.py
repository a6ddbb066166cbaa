"""The joint region kernel and the shared level search against the oracles.

The kernel clips one box against every cloud's run-end halfplanes at
once, in homogeneous integers.  One oracle clips every direction's
halfplane of the per-direction reference table as Fractions with
polygon.clip_many; the other builds one region per cloud and folds them
together with polygon.intersect.  The kernel returns a raw clip loop;
in canonical vertex form, which is unique, all of them must agree tuple
for tuple.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centertrans.centers as centers
from centertrans import polygon
from centertrans.centers import INSUFFICIENT, SUFFICIENT, center_point
from centertrans.cloud import OrthoFrame, WeightedPointCloud
from centertrans.depth import (
    _deepest_common_region,
    _DirectionTable,
    _region_vertices,
    depth_of_measure,
    depth_region,
    marginal,
)
from centertrans.transversal import _common_level
from reference_table import reference_region

F = Fraction


def cloud(points, weights=None):
    if weights is None:
        weights = [F(1, len(points))] * len(points)
    return WeightedPointCloud(
        len(points[0]), [(tuple(map(F, p)), w) for p, w in zip(points, weights)]
    )


def random_cloud(rng, n_atoms, scale=6):
    pts = rng.integers(-scale, scale + 1, size=(n_atoms, 2))
    raw = rng.integers(1, 5, size=n_atoms)
    total = int(raw.sum())
    return WeightedPointCloud(
        2,
        [(tuple(F(int(c), scale) for c in p), F(int(w), total)) for p, w in zip(pts, raw)],
    )


def quantized_marginal(rng, n_atoms):
    """Planar marginal of a random 7-D cloud under a random frame.

    The frame is quantized to 12 digits, so coordinates carry large
    denominators.
    """
    pts = rng.integers(-5, 6, size=(n_atoms, 7))
    raw = rng.integers(1, 4, size=n_atoms)
    total = int(raw.sum())
    c = WeightedPointCloud(
        7, [(tuple(F(int(x)) for x in p), F(int(w), total)) for p, w in zip(pts, raw)]
    )
    q, _ = np.linalg.qr(rng.standard_normal((7, 2)))
    return marginal(c, OrthoFrame(q.T.tolist()))


def tables(clouds):
    return [_DirectionTable(c) for c in clouds]


def joint_region(clouds, tau):
    """The kernel's region at tau, in canonical form."""
    return polygon.normalize(_region_vertices(tables(clouds), tau))


def deepest(clouds):
    """The shared level search, with its region in canonical form."""
    level, loop = _deepest_common_region(tables(clouds))
    return level, polygon.normalize(loop)


def assert_kernel_matches_oracle(clouds, tau):
    joint = joint_region(clouds, tau)
    assert joint == reference_region(clouds, tau), tau
    return joint


def folded(clouds, tau):
    inter = None
    for c in clouds:
        verts = depth_region(c, tau).vertices
        inter = verts if inter is None else polygon.intersect(inter, verts)
    return inter


def union_levels(clouds):
    return sorted({F(lv, t.weight_den) for t in tables(clouds) for lv in t.levels})


def brute_deepest(clouds):
    best = (F(0), ())
    for tau in union_levels(clouds):
        inter = folded(clouds, tau)
        if inter:
            best = (tau, inter)
    return best


TRIANGLE = cloud([(0, 0), (1, 0), (0, 1)])
# shares the edge (1, 0)-(0, 1) with TRIANGLE: a segment at level 1/3
FLIPPED = cloud([(1, 0), (0, 1), (1, 1)])
# shares only the corner (1, 0) with TRIANGLE: a point at level 1/3
CORNER = cloud([(1, 0), (2, 0), (1, 1)])
DIAGONAL = cloud([(0, 0), (1, 1), (2, 2)])
ANTIDIAGONAL = cloud([(0, 2), (1, 1), (2, 0)])
SINGLE = cloud([(F(1, 2), F(1, 2))])

DEGENERATE = [
    ([TRIANGLE, FLIPPED], F(1, 3), "segment"),
    ([TRIANGLE, CORNER], F(1, 3), "point"),
    ([DIAGONAL, ANTIDIAGONAL], F(1, 3), "point"),
    ([DIAGONAL, ANTIDIAGONAL], F(2, 3), "point"),
    ([TRIANGLE, SINGLE], F(1, 3), "point"),
    ([DIAGONAL, DIAGONAL], F(1, 3), "segment"),
    ([TRIANGLE, FLIPPED, CORNER], F(1, 3), "point"),
    ([TRIANGLE, FLIPPED, DIAGONAL], F(1, 3), "point"),
]


@pytest.mark.parametrize("clouds, tau, kind", DEGENERATE)
def test_degenerate_intersections_match_fold(clouds, tau, kind):
    joint = joint_region(clouds, tau)
    assert joint == folded(clouds, tau)
    assert len(joint) == {"segment": 2, "point": 1}[kind]
    assert deepest(clouds) == brute_deepest(clouds)


@pytest.mark.parametrize("size", [2, 3])
def test_seeded_intersections_match_fold(size):
    rng = np.random.default_rng(20 + size)
    kinds = set()
    for _ in range(12):
        clouds = [random_cloud(rng, int(rng.integers(3, 8))) for _ in range(size)]
        for tau in union_levels(clouds):
            joint = joint_region(clouds, tau)
            assert joint == folded(clouds, tau), tau
            kinds.add(len(joint))
        assert deepest(clouds) == brute_deepest(clouds)
    # empty, degenerate (point or segment) and full-rank intersections occur
    assert 0 in kinds and kinds & {1, 2} and max(kinds) >= 3


def test_single_cloud_region_is_the_depth_region():
    rng = np.random.default_rng(5)
    for _ in range(6):
        c = random_cloud(rng, int(rng.integers(1, 9)))
        level, loop = _deepest_common_region(tables([c]))
        dv, point = depth_of_measure(c)
        assert level == dv.value
        assert polygon.normalize(loop) == depth_region(c, level).vertices
        assert point == polygon.centroid(loop) == depth_region(c, level).centroid()


def test_disjoint_hulls_fall_back_to_the_first_mean():
    near = cloud([(0, 0), (1, 0), (0, 1)], [F(1, 2), F(1, 4), F(1, 4)])
    far = cloud([(10, 10), (11, 10), (10, 11)])
    assert _deepest_common_region(tables([near, far])) == (F(0), ())
    assert _common_level(tables([near, far]), [near, far]) == (F(0), (F(1, 4), F(1, 4)))


def test_center_point_does_not_call_depth_of_measure(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("center_point called depth_of_measure")

    rng = np.random.default_rng(9)
    cases = [
        (TRIANGLE, 2, INSUFFICIENT),
        (cloud([(0, 0), (4, 0), (0, 4), (4, 4), (2, 2)]), 2, SUFFICIENT),
        (cloud([(0,), (1,), (2,)]), 1, SUFFICIENT),
        (cloud([(0,), (1,), (3,), (7,)]), 1, INSUFFICIENT),
    ] + [(random_cloud(rng, 9), 2, None) for _ in range(4)]
    expected = []
    for c, n, _ in cases:
        dv, _ = depth_of_measure(c)
        expected.append(dv.value)
    monkeypatch.setattr(centers, "depth_of_measure", forbidden)
    for (c, n, label), dm in zip(cases, expected):
        rep = center_point(c, n)
        assert rep.depth_of_measure == dm
        assert label is None or rep.classification == label
        if n == 2:
            level = min(dm, rep.threshold)
            assert rep.region.tau == level
            assert rep.region.vertices == depth_region(c, level).vertices


@pytest.mark.parametrize("size", [2, 3])
def test_integer_kernel_matches_fraction_clip(size):
    rng = np.random.default_rng(40 + size)
    kinds = set()
    for _ in range(20):
        marginals = int(rng.integers(0, size + 1)) if rng.random() < 0.6 else 0
        clouds = [quantized_marginal(rng, int(rng.integers(3, 7))) for _ in range(marginals)]
        clouds += [
            random_cloud(rng, int(rng.integers(1, 8)), scale=int(rng.choice([2, 3, 4, 6])))
            for _ in range(size - marginals)
        ]
        for tau in union_levels(clouds):
            kind = min(len(assert_kernel_matches_oracle(clouds, tau)), 3)
            kinds.add((marginals > 0, kind))
    # empty, point, segment and polygon results all occur, and marginals
    # (large denominators, mixed with small ones) meet in full-rank regions
    assert {kind for _, kind in kinds} == {0, 1, 2, 3}
    assert (True, 3) in kinds


def small_clouds():
    atom = st.tuples(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), st.integers(1, 3)
    )

    def build(den, atoms):
        total = sum(w for _, w in atoms)
        return WeightedPointCloud(
            2, [((F(x, den), F(y, den)), F(w, total)) for (x, y), w in atoms]
        )

    one = st.builds(build, st.integers(1, 6), st.lists(atom, min_size=1, max_size=5))
    return st.lists(one, min_size=1, max_size=3)


@settings(max_examples=150)
@given(clouds=small_clouds(), data=st.data())
def test_integer_kernel_matches_fraction_clip_property(clouds, data):
    levels = union_levels(clouds)
    tau = data.draw(st.sampled_from(levels + [F(1, 7), F(1)]))
    assert_kernel_matches_oracle(clouds, tau)
