"""Search and verification read a frame's marginals as integer images.

``depth._images`` is the one projection of ``transversal``: the search
moves, ``verify`` and the n >= 3 ascent read it, and no marginal cloud
is built; ``marginal`` builds its cloud from the same images.  The
images keep their unreduced integers (coordinates over
row_scale * coord_scale, weights over the cloud's weight denominator),
so they must read exactly like the marginal cloud: the same mean and
depths, and for n <= 2 a direction table with the same levels and cap
as Fractions, the same directions and the same region loop at every
level.  The level search over image tables, which bisects integer
levels over the lcm of the weight denominators, must match the
reference search over every level, with and without a floor.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from centertrans import polygon
from centertrans.cloud import OrthoFrame, WeightedPointCloud
from centertrans.depth import (
    _deepest_common_region, _DirectionTable, _images, _mean, _region_vertices, marginal,
    tukey_depth,
)
from centertrans.generators import generate_cloud, maintheorem_suite
from centertrans.transversal import SearchConfig, random_frame, search, verify
from reference_table import reference_deepest_common_region
from test_level_search import floors
from test_marginal import _build, clouds_and_frames, seeded_cloud, signed_axis_frame

F = Fraction


def assert_tables_agree(cloud, frame):
    """The images read like the marginal cloud: the same atoms, mean and
    depths, and for n <= 2 the same direction table, returned with the
    marginal's (None for n = 3)."""
    images = _images(cloud, frame)
    got_cloud = marginal(cloud, frame)
    (den, ys), (weight_den, ws) = images.int_points, images.int_weights
    assert images.dim == frame.n
    assert got_cloud.atoms == tuple(
        (tuple(F(v, den) for v in y), F(w, weight_den)) for y, w in zip(ys, ws)
    )
    mean = tuple(sum(p[i] * w for p, w in got_cloud.atoms) for i in range(frame.n))
    assert _mean(images) == _mean(got_cloud) == mean
    probes = [p for p, _ in got_cloud.atoms] + [mean]
    got = want = None
    if frame.n <= 2:
        got, want = _DirectionTable(images), _DirectionTable(got_cloud)
        levels = [F(v, got.weight_den) for v in got.levels]
        assert levels == [F(v, want.weight_den) for v in want.levels]
        assert got.directions == want.directions
        assert F(got.heaviest, got.weight_den) == F(want.heaviest, want.weight_den)
        for tau in levels:
            assert _region_vertices([got], tau) == _region_vertices([want], tau)
        # the witness verify takes: the centroid of the deepest region
        probes.append(polygon.centroid(_deepest_common_region([got])[1])[:frame.n])
    for x in probes:
        assert tukey_depth(images, x).value == tukey_depth(got_cloud, x).value
    return got, want


@pytest.mark.parametrize("dim", range(3, 8))
@pytest.mark.parametrize("n", (1, 2, 3))
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
@given(case=clouds_and_frames())
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


def test_search_and_verify_build_no_cloud(monkeypatch):
    # the clouds are built first; a search and its final verify, and an
    # n = 3 verify with its ascent, read only integer images
    pair = list(maintheorem_suite(count=2)[1])
    built = []
    init = WeightedPointCloud.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(WeightedPointCloud, "__init__", counting_init)
    assert search(pair, 2, SearchConfig(restarts=3, local_steps=5, master_seed=3)).objective > 0
    assert verify(random_frame(7, 3, 0), pair, 3).objective > 0
    assert built == []
