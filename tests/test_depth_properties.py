"""Property tests for planar Tukey depth: witness attainment, invariance
under exact rigid motions, and nesting of depth regions."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans.cloud import WeightedPointCloud, apply_affine
from centertrans.depth import depth_of_measure, depth_region, halfspace_mass, tukey_depth

F = Fraction

# (cos, sin) of rotations with rational entries
PYTHAGOREAN = ((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)), (F(8, 17), F(15, 17)))

PROPERTY = settings(max_examples=100)


def _build(den, atoms):
    total = sum(w for _, w in atoms)
    return WeightedPointCloud(2, [((F(x, den), F(y, den)), F(w, total)) for (x, y), w in atoms])


coordinate = st.integers(-5, 5)
clouds = st.builds(
    _build,
    st.integers(1, 4),
    st.lists(st.tuples(st.tuples(coordinate, coordinate), st.integers(1, 3)),
             min_size=1, max_size=7),
)
points = st.tuples(*[st.builds(F, st.integers(-12, 12), st.integers(1, 4))] * 2)


@st.composite
def rigid_motions(draw):
    """(matrix, shift): a rotation, possibly a reflection, and a translation."""
    c, s = draw(st.sampled_from(PYTHAGOREAN))
    if draw(st.booleans()):
        s = -s
    flip = -1 if draw(st.booleans()) else 1
    return [[c, -s * flip], [s, c * flip]], draw(points)


def _move(motion, x):
    (row0, row1), shift = motion
    return tuple(sum(a * b for a, b in zip(row, x)) + t for row, t in zip((row0, row1), shift))


@PROPERTY
@given(cloud=clouds, x=points, at_atom=st.booleans())
def test_witness_attains_depth(cloud, x, at_atom):
    if at_atom:
        x = cloud.atoms[0][0]
    dv = tukey_depth(cloud, x)
    w = dv.witness_direction
    if w is None:  # only when every atom sits at x
        assert dv.value == 1 and all(p == x for p in cloud.points())
        return
    level = sum(a * b for a, b in zip(x, w))
    assert halfspace_mass(cloud, w, level) == dv.value


@PROPERTY
@given(cloud=clouds, x=points, motion=rigid_motions())
def test_depth_invariant_under_rigid_motions(cloud, x, motion):
    moved = apply_affine(cloud, *motion)
    assert tukey_depth(moved, _move(motion, x)).value == tukey_depth(cloud, x).value
    value, point = depth_of_measure(cloud)
    moved_value, moved_point = depth_of_measure(moved)
    assert moved_value.value == value.value
    assert moved_point == _move(motion, point)


@PROPERTY
@given(cloud=clouds, data=st.data())
def test_depth_regions_nest(cloud, data):
    levels = sorted({tukey_depth(cloud, p).value for p in cloud.points()} | {F(1, 3), F(1)})
    lo = data.draw(st.sampled_from(levels))
    hi = data.draw(st.sampled_from([t for t in levels if t >= lo]))
    outer, inner = depth_region(cloud, lo), depth_region(cloud, hi)
    for v in inner.vertices:
        assert outer.contains(v)
    for region in (outer, inner):
        for v in region.vertices:
            assert tukey_depth(cloud, v).value >= region.tau
