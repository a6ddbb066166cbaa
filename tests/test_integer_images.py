"""Direction tables read straight from a frame's integer images of a cloud.

A search move builds its tables from ``depth._images``, with no cloud;
``marginal`` builds its cloud from the same images.  A table built from
the images keeps their unreduced integers (coordinates over
row_scale * coord_scale, weights over the cloud's weight denominator), so
it must read exactly like one built from the marginal cloud: the same
levels and cap as Fractions, the same directions and the same region
loop at every level.  The level search over image tables, which bisects
integer levels over the lcm of the weight denominators, must match the
reference search over every level, with and without a floor.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from centertrans.cloud import OrthoFrame
from centertrans.depth import (
    _deepest_common_region, _DirectionTable, _images, _region_vertices, marginal,
)
from centertrans.generators import generate_cloud, maintheorem_suite
from centertrans.transversal import random_frame
from reference_table import reference_deepest_common_region
from test_level_search import floors
from test_marginal import _build, clouds_and_frames, seeded_cloud, signed_axis_frame

F = Fraction


def assert_tables_agree(cloud, frame):
    images = _images(cloud, frame)
    got_cloud = marginal(cloud, frame)
    (den, ys), (weight_den, ws) = images.int_points, images.int_weights
    assert images.dim == frame.n
    assert got_cloud.atoms == tuple(
        (tuple(F(v, den) for v in y), F(w, weight_den)) for y, w in zip(ys, ws)
    )
    got, want = _DirectionTable(images), _DirectionTable(got_cloud)
    levels = [F(v, got.weight_den) for v in got.levels]
    assert levels == [F(v, want.weight_den) for v in want.levels]
    assert got.directions == want.directions
    assert F(got.heaviest, got.weight_den) == F(want.heaviest, want.weight_den)
    for tau in levels:
        assert _region_vertices([got], tau) == _region_vertices([want], tau)
    return got, want


@pytest.mark.parametrize("dim", range(3, 8))
@pytest.mark.parametrize("n", (1, 2))
def test_seeded_frames(dim, n):
    rng = np.random.default_rng(500 * dim + n)
    for _ in range(6):
        cloud = seeded_cloud(rng, dim)
        assert_tables_agree(cloud, random_frame(dim, n, int(rng.integers(0, 2 ** 31))))


def test_merged_images():
    # twins that differ only on the dropped third axis merge, as do the
    # atoms (1/3, -2/7) and (-1/21, 0) on the first row of the exact frame
    cloud = _build(3, [(F(1), F(2), F(0)), (F(1), F(2), F(5)), (F(-1), F(0), F(1)),
                       (F(0), F(3), F(1)), (F(0), F(3), F(-2))], [1, 2, 3, 4, 5])
    for frame in (signed_axis_frame((0, 1), (1, -1), 3), signed_axis_frame((1,), (1,), 3)):
        assert_tables_agree(cloud, frame)
        assert len(_images(cloud, frame).int_weights[1]) < len(cloud)
    frame = OrthoFrame([(F(3, 5), F(4, 5), 0), (0, 0, 1)])
    cloud = _build(3, [(F(1, 3), F(-2, 7), F(5)), (F(-4), F(3), F(1, 2)),
                       (F(-1, 21), F(0), F(5))], [1, 2, 3])
    assert_tables_agree(cloud, frame)
    assert _images(cloud, frame).int_weights[1] == [4, 2]


def test_line_images():
    cloud = generate_cloud("gaussian-quantized", seed=31, atoms=9, dim=7, weight_mode="random")
    for seed in range(5):
        got, want = assert_tables_agree(cloud, random_frame(7, 1, seed))
        assert _deepest_common_region([got]) == _deepest_common_region([want])


@settings(max_examples=60, derandomize=True)
@given(case=clouds_and_frames().filter(lambda case: case[1].n <= 2))
def test_tables_agree_property(case):
    assert_tables_agree(*case)


def assert_level_searches_agree(clouds, frame):
    """The image tables' search matches the reference and the marginal
    tables' search, unfloored and at every floor."""
    tables = [_DirectionTable(_images(c, frame)) for c in clouds]
    cloud_tables = [_DirectionTable(marginal(c, frame)) for c in clouds]
    want = reference_deepest_common_region(tables)
    assert want == reference_deepest_common_region(cloud_tables)
    assert _deepest_common_region(tables) == want
    levels = sorted({F(v, t.weight_den) for t in tables for v in t.levels})
    for floor in floors(levels):
        got = _deepest_common_region(tables, floor)
        assert got == (want if want[0] > floor else (F(0), ()))
        assert got == _deepest_common_region(cloud_tables, floor)
    # a table from images beside one from a cloud: different coordinate
    # and weight scales in one clip
    mixed = tables[:1] + cloud_tables[1:]
    assert _deepest_common_region(mixed) == want
    return want


def test_level_search_on_criterion_9_pairs():
    suite = maintheorem_suite(count=3)
    for pair in suite[1:]:
        for seed in range(3):
            assert assert_level_searches_agree(pair, random_frame(7, 2, seed))[0] > 0


def test_level_search_on_unequal_weights():
    # random weights give the two clouds different weight denominators, so
    # the levels are bisected over their lcm
    pair = [generate_cloud("gaussian-quantized", seed=s, atoms=9, dim=7, weight_mode="random")
            for s in (31, 32)]
    assert pair[0].int_weights[0] != pair[1].int_weights[0]
    for n in (1, 2):
        for seed in range(3):
            assert_level_searches_agree(pair, random_frame(7, n, seed))
