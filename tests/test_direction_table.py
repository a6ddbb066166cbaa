"""The angular sweep of depth._DirectionTable against its references.

reference_table.ReferenceTable sorts every atom for every direction and
keeps one halfplane per direction.  The sweep must give the same
directions, in exact angular order, and the same levels, and its run
ends must cut out the same canonical region at every level, for one
cloud and for the joint region of several clouds.
reference_table.reference_sweep is the sweep as first written; every
field of the table must equal it exactly.
"""

import math
from fractions import Fraction
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans import polygon
from centertrans.cloud import WeightedPointCloud
from centertrans.depth import (
    DepthRegion,
    _angle_sorted,
    _DirectionTable,
    _region_vertices,
    depth_of_measure,
)
from centertrans.generators import generate_cloud
from reference_table import ReferenceTable, reference_levels, reference_region, reference_sweep

F = Fraction


def cloud(points, weights=None):
    weights = weights or [1] * len(points)
    total = sum(weights)
    return WeightedPointCloud(
        2, [(tuple(map(F, p)), F(w, total)) for p, w in zip(points, weights)]
    )


def probe_levels(clouds):
    """Every level, the midpoints between them and one level above the mass."""
    levels = reference_levels(clouds)
    mids = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    return levels + mids + [levels[0] / 2, F(3, 2)]


def assert_matches_reference(clouds):
    tables = [_DirectionTable(c) for c in clouds]
    for c, table in zip(clouds, tables):
        ref = ReferenceTable(c)
        assert sorted(table.directions) == ref.directions
        assert table.directions == _angle_sorted(set(table.directions))
        assert table.levels == ref.levels
    for tau in probe_levels(clouds):
        raw = _region_vertices(tables, tau)
        canonical = polygon.normalize(raw)
        assert canonical == reference_region(clouds, tau), tau
        # only DepthRegion canonicalizes: it must, and exact centroids
        # must not see the repeated or collinear vertices of the raw loop
        assert DepthRegion(raw, tau).vertices == canonical
        if raw:
            assert polygon.centroid(raw) == polygon.centroid(canonical)


BIG = 10 ** 20

CASES = {
    "one atom": cloud([(0, 0)]),
    "one rational atom": cloud([(F(1, 2), F(-3, 7))]),
    "two atoms": cloud([(0, 0), (1, 2)], [1, 3]),
    "horizontal pair": cloud([(0, 0), (3, 0)]),
    "three on the x axis": cloud([(0, 0), (1, 0), (5, 0)], [1, 2, 1]),
    "vertical pair": cloud([(1, -2), (1, 5)], [2, 1]),
    "duplicate atoms": cloud([(0, 0), (0, 0), (1, 1)], [1, 2, 3]),
    "one point thrice": cloud([(1, 2), (1, 2), (1, 2)]),
    "collinear triple": cloud([(0, 0), (1, 1), (2, 2)], [3, 1, 2]),
    "axis-parallel square": cloud([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]),
    "5x5 grid": cloud([(x, y) for x in range(-2, 3) for y in range(-2, 3)]),
    # normals whose float angle keys tie
    "near-parallel normals": cloud(
        [(0, 0), (BIG, 1), (BIG + 1, 1), (1, -BIG), (-BIG, 2)], [1, 2, 1, 3, 1]
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_clouds_match_reference(name):
    assert_matches_reference([CASES[name]])


def grid_cloud(rng, n_atoms):
    """Atoms on the integer grid [-3, 3]^2: collinear triples, duplicates
    and axis-parallel pairs are common; weights are unequal."""
    pts = rng.integers(-3, 4, size=(n_atoms, 2)).tolist()
    return cloud(pts, rng.integers(1, 5, size=n_atoms).tolist())


def test_seeded_grid_clouds_match_reference():
    rng = np.random.default_rng(71)
    for _ in range(40):
        assert_matches_reference([grid_cloud(rng, int(rng.integers(1, 11)))])


def test_seeded_joint_regions_match_reference():
    rng = np.random.default_rng(72)
    kinds = set()
    for _ in range(15):
        clouds = [grid_cloud(rng, int(rng.integers(1, 8))) for _ in range(int(rng.integers(2, 4)))]
        assert_matches_reference(clouds)
        tables = [_DirectionTable(c) for c in clouds]
        kinds.update(
            min(len(polygon.normalize(_region_vertices(tables, t))), 3)
            for t in reference_levels(clouds)
        )
    assert kinds == {0, 1, 2, 3}


def test_generated_cloud_matches_reference():
    assert_matches_reference([generate_cloud("gaussian-quantized", seed=5, atoms=12, dim=2)])


def test_run_ends_prune_most_planes():
    c = generate_cloud("gaussian-quantized", seed=102, atoms=50, dim=2)
    level = depth_of_measure(c)[0].value
    table = _DirectionTable(c)
    planes = table.halfplanes(level, table.coord_scale)
    assert 5 * len(planes) < len(table.directions)


def grid_clouds():
    atom = st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 3))
    one = st.lists(atom, min_size=1, max_size=7).map(
        lambda atoms: cloud([p for p, _ in atoms], [w for _, w in atoms])
    )
    return st.lists(one, min_size=1, max_size=2)


@settings(max_examples=120)
@given(clouds=grid_clouds())
def test_sweep_matches_reference_property(clouds):
    assert_matches_reference(clouds)


def exact_angle_order(a, b):
    """Exact comparison of angles from (1, 0) in [0, 2 pi)."""

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    if half(a) != half(b):
        return half(a) - half(b)
    return b[0] * a[1] - b[1] * a[0]


def near_parallel_vectors():
    """Primitive vectors mixing small components with ones near +-BIG,
    so that many share a float angle key."""
    component = st.integers(-5, 5) | st.builds(
        lambda s, t: s * BIG + t, st.sampled_from([-1, 1]), st.integers(-3, 3)
    )
    vec = st.tuples(component, component).filter(lambda v: math.gcd(*v) == 1)
    return st.sets(vec, min_size=1, max_size=12)


@settings(max_examples=200)
@given(dirs=near_parallel_vectors())
def test_angle_sort_is_exact(dirs):
    assert _angle_sorted(dirs) == sorted(dirs, key=cmp_to_key(exact_angle_order))


TABLE_FIELDS = (
    "coord_scale", "weight_den", "bounds", "directions", "levels",
    "_points", "_axes", "_initial_prefix", "_events", "_blocks",
)


def block_sizes(table):
    return {len(block[1]) for blocks in table._blocks for block in blocks}


def assert_matches_sweep(c):
    table, ref = _DirectionTable(c), reference_sweep(c)
    for field in TABLE_FIELDS:
        assert getattr(table, field) == getattr(ref, field), field
    return table


SWEEP_CASES = {
    "one atom": cloud([(0, 0)]),
    "two atoms on an axis": cloud([(0, -1), (0, 4)], [3, 1]),
    "duplicate atoms": CASES["duplicate atoms"],
    "six on a vertical line": cloud([(2, y) for y in (-3, -1, 0, 2, 5, 6)], [1, 2, 3, 1, 2, 3]),
    "five on a diagonal": cloud([(t, -t) for t in range(-2, 3)], [2, 1, 1, 3, 1]),
    "5x5 grid": CASES["5x5 grid"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_named_clouds_match_sweep(name):
    assert_matches_sweep(SWEEP_CASES[name])


LINE_CASES = {
    "one atom": [(F(3, 2), 1)],
    "two atoms": [(F(0), 1), (F(5), 3)],
    "repeated atoms": [(F(1), 2), (F(-1), 1), (F(1), 1), (F(-1), 2), (F(0), 1)],
    "unequal weights": [(F(v, 3), w) for v, w in zip((-4, 7, 0, 2, -9, 5), (1, 4, 2, 5, 3, 1))],
}


@pytest.mark.parametrize("name", sorted(LINE_CASES))
def test_line_table_is_the_sweep_on_the_x_axis(name):
    # a cloud on the line skips the pair loop and names its one line directly
    total = sum(w for _, w in LINE_CASES[name])
    atoms = [(x, F(w, total)) for x, w in LINE_CASES[name]]
    table = _DirectionTable(WeightedPointCloud(1, [((x,), w) for x, w in atoms]))
    ref = reference_sweep(WeightedPointCloud(2, [((x, F(0)), w) for x, w in atoms]))
    for field in TABLE_FIELDS:
        assert getattr(table, field) == getattr(ref, field), field


def test_seeded_grid_clouds_match_sweep():
    rng = np.random.default_rng(73)
    for _ in range(40):
        assert_matches_sweep(grid_cloud(rng, int(rng.integers(1, 13))))


# the base clouds of the deepest-point benchmark workload
@pytest.mark.parametrize(
    "family, atoms, seed",
    [("gaussian-quantized", 25, 101), ("gaussian-quantized", 50, 102),
     ("adversarial-three-cluster", 25, 104)],
)
def test_benchmark_clouds_match_sweep(family, atoms, seed):
    assert_matches_sweep(generate_cloud(family, seed=seed, atoms=atoms, dim=2))


@st.composite
def clouds_with_runs(draw):
    """Grid atoms plus a run of 3-6 collinear atoms, one atom beside the
    run and some run atoms repeated."""
    x0, y0 = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    dx, dy = draw(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda v: math.gcd(*v) == 1)
    )
    run = [(x0 + t * dx, y0 + t * dy) for t in range(draw(st.integers(3, 6)))]
    repeats = draw(st.lists(st.sampled_from(run), max_size=3))
    extra = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=6))
    pts = run + repeats + [(x0 - dy, y0 + dx)] + extra
    return cloud(pts, draw(st.lists(st.integers(1, 4), min_size=len(pts), max_size=len(pts))))


@settings(max_examples=150, derandomize=True)
@given(c=clouds_with_runs())
def test_sweep_matches_first_sweep_property(c):
    # the run puts three or more atoms on one line (the general path); the
    # atoms are not all collinear, so some line holds exactly two
    # (Sylvester-Gallai): the adjacent swap
    sizes = block_sizes(assert_matches_sweep(c))
    assert 2 in sizes and max(sizes) >= 3


@st.composite
def clouds_on_few_rows_and_columns(draw):
    """Atoms on a few shared x and y values: many pairs share an x (normal
    (1, 0)) or a y (normal (0, 1)), so the axes tie atoms at both
    orientations, and at (-1, 0) the sweep starts to find each line under
    the negation of its direction."""
    xs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    ys = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    atom = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    pts = draw(st.lists(atom, min_size=2, max_size=10))
    return cloud(pts, draw(st.lists(st.integers(1, 4), min_size=len(pts), max_size=len(pts))))


@settings(max_examples=150, derandomize=True)
@given(c=clouds_on_few_rows_and_columns())
def test_axis_ties_match_first_sweep_property(c):
    table = assert_matches_sweep(c)
    half = len(table.directions) // 2
    assert table.directions[half:] == [(-x, -y) for x, y in table.directions[:half]]
