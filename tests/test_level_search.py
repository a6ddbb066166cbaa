"""The bracketed planar level search against the unbracketed one.

depth._deepest_common_region probes no level above the cap (1 + m) / 2
of the heaviest atom m, and for one table none below the first level at
or above 1/3 (Rado).  reference_table.reference_deepest_common_region
bisects over every level, top first; the two must give exactly the same
level and raw loop, on clouds where a bound is itself the answer too.
With a floor, the search must give the same answer when its level is
above the floor and (0, ()) otherwise, at every level and midpoint, and
probe nothing at or below the floor.
"""

import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans import depth
from centertrans.cloud import WeightedPointCloud
from centertrans.depth import _deepest_common_region, _DirectionTable
from centertrans.errors import InternalConsistencyError
from centertrans.generators import generate_cloud
from reference_table import reference_deepest_common_region
from test_table_lifetime import SQUARE

F = Fraction


def cloud(points, weights=None):
    weights = weights or [1] * len(points)
    total = sum(weights)
    return WeightedPointCloud(
        2, [(tuple(map(F, p)), F(w, total)) for p, w in zip(points, weights)]
    )


def cap(table):
    return F(table.weight_den + table.heaviest, 2 * table.weight_den)


def rado_level(table):
    """The first level of the table at or above 1/3, where Rado's theorem
    lets a one-table search start."""
    return min(lv for lv in (F(v, table.weight_den) for v in table.levels) if lv >= F(1, 3))


def assert_matches_reference(clouds):
    tables = [_DirectionTable(c) for c in clouds]
    got = _deepest_common_region(tables)
    assert got == reference_deepest_common_region(tables)
    return got


ADVERSARIAL_24 = generate_cloud("adversarial-three-cluster", seed=7, atoms=24, dim=2)
# the adversarial cloud of the deepest-point benchmark workload
ADVERSARIAL_25 = generate_cloud("adversarial-three-cluster", seed=104, atoms=25, dim=2)

# (clouds, the level the search must reach, when a bound is the answer)
CASES = {
    "one atom": ([cloud([(0, 0)])], F(1)),
    "square around a heavy centre": ([SQUARE], F(3, 5)),
    "one atom of weight 1/2": ([cloud([(0, 0), (1, 0), (0, 1), (-1, -1)], [3, 1, 1, 1])], None),
    "adversarial 24": ([ADVERSARIAL_24], F(1, 3)),
    "adversarial 25": ([ADVERSARIAL_25], F(1, 3)),
    "collinear triple": ([cloud([(0, 0), (1, 1), (2, 2)], [3, 1, 2])], None),
    "six on a vertical line": ([cloud([(2, y) for y in (-3, -1, 0, 2, 5, 6)], [1, 2, 3, 1, 2, 3])],
                               None),
    "duplicate atoms": ([cloud([(0, 0), (0, 0), (1, 1)], [1, 2, 3])], None),
    "one point thrice": ([cloud([(1, 2), (1, 2), (1, 2)])], F(1)),
    "5x5 grid, unequal weights": (
        [cloud([(x, y) for x in range(-2, 3) for y in range(-2, 3)],
               [1 + (x * y) % 4 for x in range(-2, 3) for y in range(-2, 3)])], None),
    "two overlapping triangles": (
        [cloud([(0, 0), (4, 0), (0, 4)]), cloud([(1, 1), (5, 1), (1, 5)], [2, 1, 1])], None),
    "disjoint hulls": (
        [cloud([(0, 0), (1, 0), (0, 1)], [2, 1, 1]), cloud([(10, 10), (11, 10), (10, 11)])],
        F(0)),
    "three tables, one far": (
        [cloud([(0, 0), (3, 0), (0, 3)]), cloud([(1, 0), (2, 2)]), cloud([(9, 9), (9, 8)])],
        F(0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_clouds_match_reference(name):
    clouds, want = CASES[name]
    level, loop = assert_matches_reference(clouds)
    if want is not None:
        assert level == want
    assert bool(loop) == (level > 0)


def test_bounds_are_the_answer():
    # the cap: a lone atom, and the heavy centre of the square
    assert cap(_DirectionTable(CASES["one atom"][0][0])) == 1
    assert cap(_DirectionTable(SQUARE)) == F(3, 5)
    # Rado's level: the adversarial clouds reach exactly 1/3, itself a level
    for c in (ADVERSARIAL_24, ADVERSARIAL_25):
        assert rado_level(_DirectionTable(c)) == F(1, 3)


def grid_cloud(rng, n_atoms):
    pts = rng.integers(-3, 4, size=(n_atoms, 2)).tolist()
    return cloud(pts, rng.integers(1, 5, size=n_atoms).tolist())


def test_seeded_grid_clouds_match_reference():
    rng = np.random.default_rng(181)
    for _ in range(40):
        assert_matches_reference([grid_cloud(rng, int(rng.integers(1, 13)))])


def test_seeded_cloud_sets_match_reference():
    rng = np.random.default_rng(182)
    empty = 0
    for _ in range(20):
        clouds = [grid_cloud(rng, int(rng.integers(1, 8))) for _ in range(int(rng.integers(2, 4)))]
        empty += assert_matches_reference(clouds) == (F(0), ())
    assert empty > 0


GENERATED_CLOUDS = [
    ("gaussian-quantized", 25, 101), ("uniform-ball", 30, 5), ("adversarial-three-cluster", 48, 3),
]


@pytest.mark.parametrize("family, atoms, seed", GENERATED_CLOUDS)
def test_generated_clouds_match_reference(family, atoms, seed):
    assert_matches_reference([generate_cloud(family, seed=seed, atoms=atoms, dim=2)])


def grid_clouds():
    atom = st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(1, 4))
    one = st.lists(atom, min_size=1, max_size=8).map(
        lambda atoms: cloud([p for p, _ in atoms], [w for _, w in atoms])
    )
    return st.lists(one, min_size=1, max_size=3)


@settings(max_examples=150, derandomize=True)
@given(clouds=grid_clouds())
def test_level_search_matches_reference_property(clouds):
    assert_matches_reference(clouds)


@contextlib.contextmanager
def recorded_probes():
    """The levels at which _deepest_common_region builds a region, in order."""
    seen = []
    region = depth._region_vertices

    def recording(tables, tau):
        seen.append(tau)
        return region(tables, tau)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depth, "_region_vertices", recording)
        yield seen


@pytest.fixture
def probes():
    with recorded_probes() as seen:
        yield seen


# the base clouds of the deepest-point benchmark workload
BENCHMARK_CLOUDS = [
    ("gaussian-quantized", 25, 101), ("gaussian-quantized", 50, 102),
    ("adversarial-three-cluster", 25, 104),
]


@pytest.mark.parametrize("family, atoms, seed", BENCHMARK_CLOUDS)
def test_one_table_probes_stay_between_the_bounds(probes, family, atoms, seed):
    table = _DirectionTable(generate_cloud(family, seed=seed, atoms=atoms, dim=2))
    level, _ = _deepest_common_region([table])
    levels = [F(v, table.weight_den) for v in table.levels]
    assert probes[0] == max(lv for lv in levels if lv <= cap(table))
    assert all(rado_level(table) <= tau <= cap(table) for tau in probes)
    # the answer is probed, Rado's level 1/3 of the adversarial cloud too
    assert level in probes
    # every probe answers a question the bounds leave open: none repeats
    assert len(set(probes)) == len(probes)


@pytest.mark.parametrize("c", [ADVERSARIAL_24, ADVERSARIAL_25], ids=["24", "25"])
def test_empty_floor_region_raises(monkeypatch, c):
    region = depth._region_vertices
    table = _DirectionTable(c)
    rado = rado_level(table)

    def empty_at_rado(tables, tau):
        return () if tau == rado else region(tables, tau)

    monkeypatch.setattr(depth, "_region_vertices", empty_at_rado)
    with pytest.raises(InternalConsistencyError):
        _deepest_common_region([table])


def test_empty_regions_raise_for_one_table_only(monkeypatch):
    monkeypatch.setattr(depth, "_region_vertices", lambda tables, tau: ())
    c = generate_cloud("gaussian-quantized", seed=101, atoms=25, dim=2)
    with pytest.raises(InternalConsistencyError):
        _deepest_common_region([_DirectionTable(c)])
    # several regions may have no level in common
    assert _deepest_common_region([_DirectionTable(c), _DirectionTable(c)]) == (F(0), ())


def floors(levels):
    """0, every level and every midpoint between two consecutive levels."""
    return [F(0)] + levels + [(a + b) / 2 for a, b in zip(levels, levels[1:])]


def assert_floors_match_reference(clouds):
    """At every floor the search returns the reference answer if its level
    is above the floor, and (0, ()) otherwise, after a first probe at the
    lowest level the bounds leave open and none at or below the floor."""
    tables = [_DirectionTable(c) for c in clouds]
    want = reference_deepest_common_region(tables)
    levels = sorted({F(v, t.weight_den) for t in tables for v in t.levels})
    # the levels the cap and, for one table, Rado leave open
    lowest = rado_level(tables[0]) if len(tables) == 1 else 0
    bracketed = [lv for lv in levels if lowest <= lv <= min(map(cap, tables))]
    for floor in floors(levels):
        with recorded_probes() as seen:
            got = _deepest_common_region(tables, floor)
        above = want[0] > floor
        assert got == (want if above else (F(0), ()))
        assert all(tau > floor for tau in seen)
        first = min((lv for lv in bracketed if lv > floor), default=None)
        assert seen[:1] == ([] if first is None else [first])
        if not above:
            assert len(seen) <= 1  # one probe rejects


@pytest.mark.parametrize("name", sorted(CASES))
def test_floored_named_clouds_match_reference(name):
    assert_floors_match_reference(CASES[name][0])


def test_floored_seeded_clouds_match_reference():
    rng = np.random.default_rng(183)
    for _ in range(20):
        assert_floors_match_reference([grid_cloud(rng, int(rng.integers(1, 13)))])
    for _ in range(10):
        assert_floors_match_reference(
            [grid_cloud(rng, int(rng.integers(1, 8))) for _ in range(int(rng.integers(2, 4)))]
        )


@pytest.mark.parametrize("family, atoms, seed", GENERATED_CLOUDS)
def test_floored_generated_clouds_match_reference(family, atoms, seed):
    assert_floors_match_reference([generate_cloud(family, seed=seed, atoms=atoms, dim=2)])


@settings(max_examples=150, derandomize=True)
@given(clouds=grid_clouds())
def test_floored_search_matches_reference_property(clouds):
    assert_floors_match_reference(clouds)
