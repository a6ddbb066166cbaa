"""depth.marginal's integer projection against the Fraction reference.

reference_marginal.reference_marginal forms each image with Fraction
multiply-adds.  The integer projection must give the same atoms: the
same order, the same coordinates and the same merged weights.  The
integer forms that clouds and frames make in ``__init__`` must equal
the lcm-and-``int(x * c)`` formula on their Fraction data.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans.cloud import OrthoFrame, WeightedPointCloud, quantize_entry
from centertrans.depth import marginal
from centertrans.transversal import random_frame
from reference_marginal import reference_marginal

F = Fraction

PROPERTY = settings(max_examples=100)

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


def signed_axis_frame(axes, signs, dim):
    """Exact rows +-e_a: images drop coordinates, so distinct atoms merge."""
    return OrthoFrame([tuple(s * (j == a) for j in range(dim)) for a, s in zip(axes, signs)])


def _scaled_by_lcm(rows):
    """(c, rows scaled by c), c the lcm of every entry's denominator."""
    c = math.lcm(*(x.denominator for row in rows for x in row))
    return c, tuple(tuple(int(x * c) for x in row) for row in rows)


def assert_integer_forms(cloud):
    d, (weights,) = _scaled_by_lcm([cloud.weights()])
    assert cloud.int_weights == (d, weights)
    assert cloud.int_points == _scaled_by_lcm(cloud.points())


def assert_matches_reference(cloud, frame):
    got = marginal(cloud, frame)
    assert got.atoms == reference_marginal(cloud, frame).atoms
    assert_integer_forms(cloud)
    assert_integer_forms(got)
    assert frame.int_rows == _scaled_by_lcm([[quantize_entry(x) for x in r] for r in frame.rows])


@pytest.mark.parametrize("dim", range(3, 8))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_seeded_clouds_and_random_frames(dim, n):
    rng = np.random.default_rng(1000 * dim + n)
    for _ in range(8):
        cloud = seeded_cloud(rng, dim)
        frame = random_frame(dim, n, int(rng.integers(0, 2 ** 31)))
        assert_matches_reference(cloud, frame)
        axes = rng.permutation(dim)[:n].tolist()
        signs = rng.choice((-1, 1), size=n).tolist()
        assert_matches_reference(cloud, signed_axis_frame(axes, signs, dim))


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


def test_exact_rows_merge_distinct_atoms():
    cloud = _build(3, [(F(1), F(0), F(0)), (F(1), F(1, 1000), F(0)), (F(0), F(0), F(1))],
                   [1, 2, 3])
    frame = OrthoFrame([(1, 0, 0), (0, 0.001, 0.9999995)])
    assert_matches_reference(cloud, frame)
    assert len(marginal(cloud, frame).atoms) == 3
    # the exact rows drop the coordinate that tells the first two atoms apart
    frame = OrthoFrame([(1, 0, 0), (0, 0, 1)])
    assert_matches_reference(cloud, frame)
    assert marginal(cloud, frame).atoms == (((F(0), F(1)), F(1, 2)), ((F(1), F(0)), F(1, 2)))


coordinate = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS))


@st.composite
def clouds_and_frames(draw):
    """Random frames, and exact signed-axis frames with twin atoms that
    differ only on a dropped axis, so their images merge."""
    dim = draw(st.integers(3, 7))
    n = draw(st.integers(1, 3))
    distinct = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=8))
    points = distinct + draw(st.lists(st.sampled_from(distinct), max_size=3))
    if draw(st.booleans()):
        axes = draw(st.permutations(range(dim)))[:n]
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        frame = signed_axis_frame(axes, signs, dim)
        dropped = [j for j in range(dim) if j not in axes]
        for p in draw(st.lists(st.sampled_from(distinct), max_size=3 if dropped else 0)):
            j = draw(st.sampled_from(dropped))
            points.append(p[:j] + (p[j] + 1,) + p[j + 1:])
    else:
        frame = random_frame(dim, n, draw(st.integers(0, 2 ** 31 - 1)))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(points), max_size=len(points)))
    return _build(dim, points, weights), frame


@PROPERTY
@given(case=clouds_and_frames())
def test_matches_reference_property(case):
    assert_matches_reference(*case)
