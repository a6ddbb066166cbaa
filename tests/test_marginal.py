"""depth.marginal's integer projection against the Fraction reference.

reference_marginal.reference_marginal forms each image with Fraction
multiply-adds.  The integer projection must give the same atoms: the
same order, the same coordinates and the same merged weights.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans.cloud import OrthoFrame, WeightedPointCloud
from centertrans.depth import marginal
from centertrans.transversal import random_frame
from reference_marginal import reference_marginal

F = Fraction

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

DENOMINATORS = (1, 2, 3, 5, 7, 12, 10 ** 4)


def _build(dim, points, weights):
    total = sum(weights)
    return WeightedPointCloud(dim, [(p, F(w, total)) for p, w in zip(points, weights)])


def seeded_cloud(rng, dim):
    """Mixed denominators, negative coordinates and repeated atoms."""
    k = int(rng.integers(1, 13))
    points = [
        tuple(F(int(rng.integers(-30, 31)), int(rng.choice(DENOMINATORS))) for _ in range(dim))
        for _ in range(k)
    ]
    points += [points[int(rng.integers(0, k))] for _ in range(int(rng.integers(0, 4)))]
    return _build(dim, points, [int(rng.integers(1, 6)) for _ in points])


def assert_matches_reference(cloud, frame, digits=None):
    assert marginal(cloud, frame, digits).atoms == reference_marginal(cloud, frame, digits).atoms


@pytest.mark.parametrize("dim", range(3, 8))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_seeded_clouds_and_random_frames(dim, n):
    rng = np.random.default_rng(1000 * dim + n)
    for _ in range(8):
        cloud = seeded_cloud(rng, dim)
        frame = random_frame(dim, n, int(rng.integers(0, 2 ** 31)))
        assert_matches_reference(cloud, frame)
        assert_matches_reference(cloud, frame, digits=2)


def test_exact_rows_with_different_denominators():
    frame = OrthoFrame([(F(3, 5), F(4, 5), 0), (0, 0, 1)])
    cloud = _build(
        3,
        [(F(1, 3), F(-2, 7), F(5)), (F(-4), F(3), F(1, 2)), (F(-1, 21), F(0), F(5)),
         (F(1, 3), F(-2, 7), F(5))],
        [1, 2, 3, 4],
    )
    # (1/3, -2/7) and (-1/21, 0) both project to -1/35 on the first row
    got = marginal(cloud, frame)
    assert got.atoms == reference_marginal(cloud, frame).atoms
    assert got.atoms == (
        ((F(-1, 35), F(5)), F(8, 10)),
        ((F(0), F(1, 2)), F(2, 10)),
    )


def test_few_digits_merge_distinct_atoms():
    cloud = _build(3, [(F(1), F(0), F(0)), (F(1), F(1, 1000), F(0)), (F(0), F(0), F(1))],
                   [1, 2, 3])
    frame = OrthoFrame([(1, 0, 0), (0, 0.001, 0.9999995)])
    assert_matches_reference(cloud, frame)
    assert len(marginal(cloud, frame).atoms) == 3
    # at 2 digits the second row is (0, 0, 1): the first two atoms collide
    assert_matches_reference(cloud, frame, 2)
    assert marginal(cloud, frame, 2).atoms == (((F(0), F(1)), F(1, 2)), ((F(1), F(0)), F(1, 2)))


coordinate = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS))


@st.composite
def clouds_and_frames(draw):
    dim = draw(st.integers(3, 7))
    n = draw(st.integers(1, 3))
    distinct = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=8))
    points = distinct + draw(st.lists(st.sampled_from(distinct), max_size=3))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(points), max_size=len(points)))
    frame = random_frame(dim, n, draw(st.integers(0, 2 ** 31 - 1)))
    return _build(dim, points, weights), frame


@PROPERTY
@given(case=clouds_and_frames(), digits=st.sampled_from((None, 1, 2, 6)))
def test_matches_reference_property(case, digits):
    assert_matches_reference(*case, digits)
