"""Property tests for Tukey depth: witness attainment in the plane, in 3-D
and in 4-D, invariance under exact rigid motions, and nesting of depth
regions; and for the canonical form of a region, the convex hull."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans.cloud import WeightedPointCloud, apply_affine
from centertrans.depth import depth_of_measure, depth_region, halfspace_mass, tukey_depth
from centertrans.polygon import locate_point, normalize
from reference_depth import depth_3d_by_pairs

F = Fraction

# (cos, sin) of rotations with rational entries
PYTHAGOREAN = ((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)), (F(8, 17), F(15, 17)))

PROPERTY = settings(max_examples=100)


def _build(den, atoms):
    total = sum(w for _, w in atoms)
    return WeightedPointCloud(len(atoms[0][0]), [(tuple(F(c, den) for c in p), F(w, total))
                                                 for p, w in atoms])


def _clouds(dim, coordinate):
    return st.builds(
        _build,
        st.integers(1, 4),
        st.lists(st.tuples(st.tuples(*[coordinate] * dim), st.integers(1, 3)),
                 min_size=1, max_size=7),
    )


clouds = _clouds(2, st.integers(-5, 5))
# a small grid, so that atoms repeat and lie on common lines and planes
clouds_3d = _clouds(3, st.integers(-2, 2))
clouds_4d = _clouds(4, st.integers(-2, 2))
points = st.tuples(*[st.builds(F, st.integers(-12, 12), st.integers(1, 4))] * 2)
points_3d = st.tuples(*[st.builds(F, st.integers(-6, 6), st.integers(1, 2))] * 3)
points_4d = st.tuples(*[st.builds(F, st.integers(-6, 6), st.integers(1, 2))] * 4)


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


def _check_witness(cloud, x):
    """The depth at x, once its witness direction is seen to attain it."""
    dv = tukey_depth(cloud, x)
    w = dv.witness_direction
    if w is None:  # only when every atom sits at x
        assert dv.value == 1 and all(p == x for p in cloud.points())
    else:
        level = sum(a * b for a, b in zip(x, w))
        assert halfspace_mass(cloud, w, level) == dv.value
    return dv


@PROPERTY
@given(cloud=clouds, x=points, at_atom=st.booleans())
def test_witness_attains_depth(cloud, x, at_atom):
    _check_witness(cloud, cloud.atoms[0][0] if at_atom else x)


@PROPERTY
@given(cloud=clouds_3d, x=points_3d, at_atom=st.booleans())
def test_witness_attains_depth_3d(cloud, x, at_atom):
    x = cloud.atoms[0][0] if at_atom else x
    assert _check_witness(cloud, x).value == depth_3d_by_pairs(cloud, x).value


@PROPERTY
@given(cloud=clouds_4d, x=points_4d, at_atom=st.booleans())
def test_witness_attains_depth_4d(cloud, x, at_atom):
    _check_witness(cloud, cloud.atoms[0][0] if at_atom else x)


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


def _turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_corners(points):
    """The corners of the hull, counterclockwise from the lexicographic
    minimum, by gift wrapping: each next corner is the farthest point with
    no point to the right of the edge that reaches it."""
    pts = sorted(set(points))
    if all(_turn(pts[0], pts[-1], p) == 0 for p in pts):  # a point or a segment
        return pts[:1] + pts[1:][-1:]
    loop = [pts[0]]
    while True:
        p = loop[-1]
        q = max((c for c in pts if c != p and all(_turn(p, c, r) >= 0 for r in pts)),
                key=lambda c: abs(c[0] - p[0]) + abs(c[1] - p[1]))
        if q == loop[0]:
            return loop
        loop.append(q)


@st.composite
def _presentations(draw, corners):
    """corners as an ordered convex loop: each corner repeated, points
    inserted along each edge, any rotation and either orientation."""
    loop = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        loop += [a] * draw(st.integers(1, 3))
        for k in sorted(draw(st.lists(st.integers(1, 5), max_size=3))):
            loop.append((a[0] + F(k, 6) * (b[0] - a[0]), a[1] + F(k, 6) * (b[1] - a[1])))
    turn = draw(st.integers(0, len(loop) - 1))
    loop = loop[turn:] + loop[:turn]
    return loop[::-1] if draw(st.booleans()) else loop


grid_points = st.lists(st.tuples(*[st.builds(F, st.integers(-4, 4))] * 2), min_size=1, max_size=8)


@PROPERTY
@given(points=grid_points, data=st.data())
def test_normalize_is_the_hull_of_every_presentation(points, data):
    corners = _hull_corners(points)
    canonical = normalize(data.draw(_presentations(corners)))
    assert canonical == normalize(data.draw(_presentations(corners))) == tuple(corners)
    assert canonical[0] == min(points)
    n = len(canonical)
    if n > 2:
        assert all(_turn(canonical[i - 1], canonical[i], canonical[(i + 1) % n]) > 0
                   for i in range(n))
    assert all(locate_point(canonical, p) != "outside" for p in points)
