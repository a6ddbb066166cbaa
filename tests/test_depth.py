import hashlib
import inspect
import random
from fractions import Fraction

import numpy as np
import pytest

from centertrans.centers import C_CONVENTION, INSUFFICIENT, SUFFICIENT, center_point
from centertrans.cloud import OrthoFrame, WeightedPointCloud, apply_affine
from centertrans.depth import (
    depth_of_measure,
    depth_region,
    halfspace_mass,
    marginal,
    thresholds,
    tukey_depth,
)
from centertrans.errors import DomainError
from centertrans.generators import generate_cloud
from centertrans.serialize import frac_str
from reference_depth import (
    depth_3d_by_pairs, depth_4d_by_triples, depth_of_measure_by_candidates, interval_1d,
)

F = Fraction


def cloud_1d(values, weights=None):
    values = list(values)
    if weights is None:
        weights = [F(1, len(values))] * len(values)
    return WeightedPointCloud(1, [((F(v),), w) for v, w in zip(values, weights)])


def triangle_cloud():
    pts = [(0, 0), (1, 0), (0, 1)]
    return WeightedPointCloud(2, [(tuple(map(F, p)), F(1, 3)) for p in pts])


def random_cloud(rng, n_atoms, dim=2, coord_scale=100):
    pts = rng.integers(-coord_scale, coord_scale + 1, size=(n_atoms, dim))
    raw = rng.integers(1, 10, size=n_atoms)
    total = int(raw.sum())
    atoms = [
        (tuple(F(int(c), coord_scale) for c in p), F(int(w), total))
        for p, w in zip(pts, raw)
    ]
    return WeightedPointCloud(dim, atoms)


def grid_clouds(dim, count, seed):
    """Seeded clouds of 1-11 atoms in {-2..2}^dim, each with four probes.

    Atoms repeat often; every third cloud is squeezed onto a line or
    (in 3-D) a plane through the origin.  The probes are the first and
    last atom, a half-integer point and a point with denominators up to 7.
    """
    rng = random.Random(seed)
    for i in range(count):
        atoms = [(tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 11))]
        if i % 3 == 1:  # collinear
            d = [rng.randint(-1, 1) for _ in range(dim - 1)] + [1]
            atoms = [(tuple(p[0] * c for c in d), w) for p, w in atoms]
        elif i % 3 == 2 and dim == 3:  # coplanar: x + y + z = 0
            atoms = [((x, y, -x - y), w) for (x, y, _), w in atoms]
        total = sum(w for _, w in atoms)
        cloud = WeightedPointCloud(dim, [(tuple(map(F, p)), F(w, total)) for p, w in atoms])
        probes = [cloud.atoms[0][0], cloud.atoms[-1][0],
                  tuple(F(rng.randint(-5, 5), 2) for _ in range(dim)),
                  tuple(F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(dim))]
        yield cloud, probes


def test_halfspace_mass_examples():
    c = cloud_1d([0, 1, 2])
    assert halfspace_mass(c, (1,), 1) == F(2, 3)
    assert halfspace_mass(c, (1,), -100) == 1
    t = triangle_cloud()
    assert halfspace_mass(t, (1, 0), 1) == F(1, 3)
    assert halfspace_mass(t, (-1, 0), 0) == F(2, 3)


def test_halfspace_mass_errors():
    with pytest.raises(DomainError):
        halfspace_mass(triangle_cloud(), (0, 0), 0)
    with pytest.raises(DomainError):
        halfspace_mass(triangle_cloud(), (1,), 0)


def test_tukey_depth_1d():
    c = cloud_1d([0, 1, 2])
    assert tukey_depth(c, (F(1),)).value == F(2, 3)
    assert tukey_depth(c, (F(0),)).value == F(1, 3)
    assert tukey_depth(c, (F(5),)).value == 0
    assert tukey_depth(c, (F(1, 2),)).value == F(1, 3)


def test_tukey_depth_triangle():
    t = triangle_cloud()
    assert tukey_depth(t, (F(1, 3), F(1, 3))).value == F(1, 3)
    assert tukey_depth(t, (F(0), F(0))).value == F(1, 3)
    assert tukey_depth(t, (F(2), F(2))).value == 0
    assert tukey_depth(t, (F(-1, 100), F(1, 2))).value == 0


def test_depth_at_atom_bounded_by_weight():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_cloud(rng, 8)
        for p, w in c.atoms:
            assert tukey_depth(c, p).value >= w


def test_witness_achieves_depth():
    rng = np.random.default_rng(17)
    for _ in range(10):
        c = random_cloud(rng, 9)
        probe = c.atoms[0][0]
        dv = tukey_depth(c, probe)
        assert dv.witness_direction is not None
        level = sum(w * v for w, v in zip(probe, dv.witness_direction))
        assert halfspace_mass(c, dv.witness_direction, level) == dv.value


def test_oracle_dominance_sampled_directions():
    rng = np.random.default_rng(23)
    c = random_cloud(rng, 10)
    probes = [c.atoms[i][0] for i in range(3)]
    dirs = rng.standard_normal((1000, 2))
    pts = np.array([[float(x) for x in p] for p in c.points()])
    ws = np.array([float(w) for w in c.weights()])
    for probe in probes:
        exact = tukey_depth(c, probe).value
        rel = pts - np.array([float(x) for x in probe])
        dots = dirs @ rel.T
        masses = (ws * (dots >= -1e-12)).sum(axis=1)
        assert float(exact) <= masses.min() + 1e-9


def test_affine_invariance():
    rng = np.random.default_rng(4)
    c = random_cloud(rng, 8)
    mat = [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]  # rational rotation
    shift = (F(7, 3), F(-2))
    tc = apply_affine(c, mat, shift)
    for i in range(4):
        x = c.atoms[i][0]
        tx = tuple(
            sum(mat[r][j] * x[j] for j in range(2)) + shift[r] for r in range(2)
        )
        assert tukey_depth(c, x).value == tukey_depth(tc, tx).value
    # a shear too (not an isometry)
    mat = [[F(1), F(2)], [F(0), F(1)]]
    tc = apply_affine(c, mat)
    x = c.atoms[0][0]
    tx = (x[0] + 2 * x[1], x[1])
    assert tukey_depth(c, x).value == tukey_depth(tc, tx).value


def test_depth_3d_exact():
    # unit tetrahedron, equal weights: center has depth 1/4, vertex 1/4
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    c = WeightedPointCloud(3, [(tuple(map(F, p)), F(1, 4)) for p in pts])
    center = (F(1, 4), F(1, 4), F(1, 4))
    assert tukey_depth(c, center).value == F(1, 4)
    assert tukey_depth(c, (F(0), F(0), F(0))).value == F(1, 4)
    assert tukey_depth(c, (F(2), F(2), F(2))).value == 0
    # witness achieves the value
    dv = tukey_depth(c, center)
    level = sum(w * v for w, v in zip(center, dv.witness_direction))
    assert halfspace_mass(c, dv.witness_direction, level) == dv.value


def test_depth_3d_collinear_cloud():
    pts = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    c = WeightedPointCloud(3, [(tuple(map(F, p)), F(1, 3)) for p in pts])
    assert tukey_depth(c, (F(1), F(1), F(1))).value == F(2, 3)
    assert tukey_depth(c, (F(0), F(0), F(0))).value == F(1, 3)


def assert_witness_attains(cloud, x, dv):
    w = dv.witness_direction
    if w is None:  # only when every atom sits at x
        assert dv.value == 1 and all(p == x for p in cloud.points())
    else:
        assert halfspace_mass(cloud, w, sum(a * b for a, b in zip(x, w))) == dv.value


def test_depth_3d_matches_pair_oracle():
    # the reduction to planar counts against the pair enumeration it
    # replaced: the same value, and a witness attaining it
    for cloud, probes in grid_clouds(3, 300, 3):
        for x in probes:
            dv = tukey_depth(cloud, x)
            assert dv.value == depth_3d_by_pairs(cloud, x).value, (cloud.atoms, x)
            assert_witness_attains(cloud, x, dv)


@pytest.mark.parametrize("points, x, value", [
    ([(1, 1, 1)] * 3, (1, 1, 1), 1),  # every atom at x: no witness
    ([(0, 0, 0), (1, 1, 1), (1, 1, 1), (3, 3, 3)], (1, 1, 1), F(3, 4)),  # collinear, duplicate
    ([(0, 0, 0), (1, 2, 3), (1, 2, 3)], (0, 0, 0), F(1, 3)),
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], (F(1, 2), F(1, 2), 0), F(1, 2)),  # coplanar
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], (F(1, 2), F(1, 2), F(1, 3)), 0),
    ([(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2), (0, 0, 0)],
     (0, 0, 0), F(4, 7)),  # octahedron with its center
])
def test_depth_3d_degenerate_clouds(points, x, value):
    cloud = WeightedPointCloud(3, [(tuple(map(F, p)), F(1, len(points))) for p in points])
    x = tuple(map(F, x))
    dv = tukey_depth(cloud, x)
    assert dv.value == value == depth_3d_by_pairs(cloud, x).value
    assert_witness_attains(cloud, x, dv)


def test_depth_4d_matches_triple_oracle():
    # general-position clouds, probed at the mean, at an atom and at a
    # random convex combination: the value of the triple enumeration, and
    # a witness attaining it
    rng = random.Random(11)
    for seed in range(20):
        cloud = generate_cloud("gaussian-quantized", seed=100 + seed, atoms=5 + seed % 5, dim=4)
        mix = [F(rng.randint(1, 9)) for _ in cloud.atoms]
        mixes = ([w for _, w in cloud.atoms], [m / sum(mix) for m in mix])
        probes = [tuple(sum(m * p[j] for m, (p, _) in zip(ms, cloud.atoms)) for j in range(4))
                  for ms in mixes] + [cloud.atoms[seed % len(cloud.atoms)][0]]
        for x in probes:
            dv = tukey_depth(cloud, x)
            assert dv.value == depth_4d_by_triples(cloud, x).value, (seed, x)
            assert_witness_attains(cloud, x, dv)


def test_depth_4d_embedded_grid_clouds():
    # degenerate offsets: a 3-D grid cloud in the hyperplane x_4 = 0 keeps
    # its 3-D depth there, and a point off the hyperplane has depth 0
    for cloud, probes in grid_clouds(3, 100, 23):
        lifted = WeightedPointCloud(4, [(p + (F(0),), w) for p, w in cloud.atoms])
        for x in probes:
            for x4, value in ((x + (F(0),), depth_3d_by_pairs(cloud, x).value), (x + (F(1, 3),), 0)):
                dv = tukey_depth(lifted, x4)
                assert dv.value == value, (cloud.atoms, x4)
                assert_witness_attains(lifted, x4, dv)


# sha256 of "value witness" lines over grid_clouds(2, 300, 19): the
# witness directions `depth --point` reports on planar clouds
PLANAR_WITNESS_DIGEST = "54e159f343496ed511d2cc1a4c98edab7a9dc60f3c7ab39160a471330b26be5a"


def test_planar_witness_directions_pinned():
    lines = []
    for cloud, probes in grid_clouds(2, 300, 19):
        for x in probes:
            dv = tukey_depth(cloud, x)
            w = dv.witness_direction
            w = "-" if w is None else ",".join(map(frac_str, w))
            lines.append("%s %s\n" % (frac_str(dv.value), w))
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == PLANAR_WITNESS_DIGEST


def test_region_locate_rejects_non_planar_points():
    region = depth_region(triangle_cloud(), F(1, 3))
    assert region.contains((F(1, 3), F(1, 3)))
    for point in ((F(1, 3), F(1, 3), 99), (F(1, 3),), ()):
        with pytest.raises(DomainError):
            region.contains(point)
        with pytest.raises(DomainError):
            region.locate(point)


def test_depth_dim4_simplex_origin_exact():
    pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    c = WeightedPointCloud(4, [(tuple(map(F, p)), F(1, 5)) for p in pts])
    x = (F(0), F(0), F(0), F(0))
    dv = tukey_depth(c, x)
    assert dv.value == F(1, 5)
    assert_witness_attains(c, x, dv)


def test_depth_of_measure_1d():
    dv, pt = depth_of_measure(cloud_1d([0, 1, 2]))
    assert dv.value == F(2, 3) and pt == (1,)
    dv, pt = depth_of_measure(cloud_1d([0, 1], [F(1, 2), F(1, 2)]))
    assert dv.value == F(1, 2) and pt == (F(1, 2),)


def line_clouds(count, seed):
    """Seeded clouds on the line: one atom, then 1-12 atoms on a small grid
    of halves and thirds, so that atoms repeat, with weights 1-5."""
    yield cloud_1d([F(-7, 3)])
    rng = random.Random(seed)
    for _ in range(count - 1):
        k = rng.randint(1, 12)
        values = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k)]
        raw = [rng.randint(1, 5) for _ in range(k)]
        yield cloud_1d(values, [F(w, sum(raw)) for w in raw])


def test_line_measures_match_interval_oracle():
    # the planar level search on the x axis against prefix/suffix intervals
    improved = thresholds(1)[1]
    for c in line_clouds(400, 41):
        level, (lo, hi) = interval_1d(c)
        dv, pt = depth_of_measure(c)
        assert (dv.value, pt) == (level, ((lo + hi) / 2,))
        _, (lo, hi) = interval_1d(c, min(level, improved))
        assert center_point(c, 1).to_dict() == {
            "depth_of_measure": frac_str(level),
            "threshold": frac_str(improved),
            "classification": INSUFFICIENT if level < improved else SUFFICIENT,
            "c": [frac_str((lo + hi) / 2)],
            "region": None,
            "convention": C_CONVENTION,
        }


def test_depth_of_measure_triangle():
    dv, pt = depth_of_measure(triangle_cloud())
    assert dv.value == F(1, 3)
    assert tukey_depth(triangle_cloud(), pt).value == F(1, 3)


def test_depth_of_measure_matches_candidate_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(8):
        c = random_cloud(rng, int(rng.integers(3, 7)), coord_scale=10)
        fast, pt = depth_of_measure(c)
        slow, _ = depth_of_measure_by_candidates(c)
        assert fast.value == slow.value
        assert tukey_depth(c, pt).value == fast.value


def test_rado_bound_2d():
    rng = np.random.default_rng(8)
    for _ in range(15):
        c = random_cloud(rng, int(rng.integers(4, 12)))
        dv, _ = depth_of_measure(c)
        assert dv.value >= F(1, 3)


def test_depth_of_measure_requires_flag_beyond_2d():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    c = WeightedPointCloud(3, [(tuple(map(F, p)), F(1, 4)) for p in pts])
    with pytest.raises(DomainError):
        depth_of_measure(c)


def test_depth_region_triangle():
    t = triangle_cloud()
    region = depth_region(t, F(1, 3))
    assert region.kind == "polygon"
    assert set(region.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}
    assert depth_region(t, F(28, 81)).kind == "empty"


def test_depth_region_single_atom():
    c = WeightedPointCloud(2, [((F(1, 2), F(3, 4)), F(1))])
    region = depth_region(c, 1)
    assert region.kind == "point"
    assert region.vertices == ((F(1, 2), F(3, 4)),)


def test_depth_region_collinear_cloud():
    pts = [(0, 0), (1, 1), (2, 2)]
    c = WeightedPointCloud(2, [(tuple(map(F, p)), F(1, 3)) for p in pts])
    region = depth_region(c, F(2, 3))
    assert region.kind == "point" and region.vertices == ((F(1), F(1)),)
    region = depth_region(c, F(1, 3))
    assert region.kind == "segment"
    assert region.vertices == ((F(0), F(0)), (F(2), F(2)))


def test_region_pointwise_consistency():
    rng = np.random.default_rng(12)
    c = random_cloud(rng, 9, coord_scale=20)
    for tau in (F(1, 3), F(2, 5), F(1, 2)):
        region = depth_region(c, tau)
        count = 0
        for gx in range(-22, 23, 2):
            for gy in range(-22, 23, 2):
                probe = (F(gx, 20), F(gy, 20))
                loc = region.locate(probe)
                if loc == "boundary":
                    continue
                count += 1
                inside = tukey_depth(c, probe).value >= tau
                assert inside == (loc == "inside"), (tau, probe)
        assert count > 400


def test_region_monotone_nesting():
    rng = np.random.default_rng(14)
    c = random_cloud(rng, 8)
    r_small = depth_region(c, F(1, 4))
    r_big = depth_region(c, F(2, 5))
    for v in r_big.vertices:
        assert r_small.contains(v)


def test_marginal_examples():
    pts3 = [(1, 2, 3), (4, 5, 6)]
    c = WeightedPointCloud(3, [(tuple(map(F, p)), F(1, 2)) for p in pts3])
    axes = OrthoFrame([(1, 0, 0), (0, 1, 0)])
    m = marginal(c, axes)
    assert m.dim == 2
    assert set(m.atoms) == {((F(1), F(2)), F(1, 2)), ((F(4), F(5)), F(1, 2))}
    # identity frame: isometric copy
    eye = OrthoFrame([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert set(marginal(c, eye).atoms) == set(c.atoms)
    # merge rule
    c2 = WeightedPointCloud(
        3, [((F(0), F(0), F(1)), F(1, 2)), ((F(0), F(0), F(-1)), F(1, 2))]
    )
    m2 = marginal(c2, axes)
    assert m2.atoms == (((F(0), F(0)), F(1)),)


def test_marginal_mass_and_tower():
    rng = np.random.default_rng(3)
    c = random_cloud(rng, 7, dim=4)
    f1 = OrthoFrame([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    f2 = OrthoFrame([(1, 0, 0), (0, 0, 1)])
    m1 = marginal(c, f1)
    assert sum(m1.weights()) == 1
    nested = marginal(m1, f2)
    direct = marginal(c, OrthoFrame([(1, 0, 0, 0), (0, 0, 1, 0)]))
    assert set(nested.atoms) == set(direct.atoms)


def test_marginal_dimension_mismatch():
    with pytest.raises(DomainError):
        marginal(triangle_cloud(), OrthoFrame([(1, 0, 0)]))


def test_thresholds():
    assert thresholds(2) == (F(1, 3), F(28, 81))
    assert thresholds(3) == (F(1, 4), F(49, 192))
    assert thresholds(1) == (F(1, 2), F(13, 24))


def test_cloud_validation():
    with pytest.raises(DomainError):
        WeightedPointCloud(2, [((F(0), F(0)), F(1, 2))])  # weights sum != 1
    with pytest.raises(DomainError):
        WeightedPointCloud(2, [((F(0),), F(1))])  # dim mismatch
    with pytest.raises(DomainError):
        WeightedPointCloud(2, [])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: tukey_depth(triangle_cloud(), (NAN, 0)),
    lambda: tukey_depth(triangle_cloud(), (True, 0)),
    lambda: WeightedPointCloud(2, [((NAN, 0), 1)]),
    lambda: WeightedPointCloud(2, [((0, -INF), 1)]),
    lambda: WeightedPointCloud(1, [((0,), True)]),
    lambda: depth_region(triangle_cloud(), NAN),
    lambda: halfspace_mass(triangle_cloud(), (1, 0), INF),
    lambda: halfspace_mass(triangle_cloud(), (False, 1), 0),
], ids=["point-nan", "point-bool", "atom-nan", "atom-inf", "weight-bool", "level-nan",
        "offset-inf", "direction-bool"])
def test_library_rejects_non_finite_and_boolean_numbers(call):
    # float("nan") and float("inf") have no Fraction, and True is not the rational 1
    with pytest.raises(DomainError):
        call()


def test_library_rejects_non_numeric_objects():
    # Fraction raises TypeError on these; the library reads them as bad input
    tri = triangle_cloud()
    for call in (
        lambda: tukey_depth(tri, (None, 0)),
        lambda: tukey_depth(tri, ([1], 0)),
        lambda: depth_region(tri, None),
        lambda: WeightedPointCloud(2, [((object(), 0), 1)]),
        lambda: halfspace_mass(tri, (1, 0), 1j),
    ):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_frame_rejects_non_finite_entries(entry):
    with pytest.raises(DomainError):
        OrthoFrame([(1, 0), (0, entry)])


def test_frame_takes_only_its_rows():
    # the Gram bound is the constant 1e-9, not a setting
    assert list(inspect.signature(OrthoFrame).parameters) == ["rows"]
    assert OrthoFrame([(1, 0), (1e-9, 1)]).n == 2
    with pytest.raises(DomainError, match="Gram defect"):
        OrthoFrame([(1, 0), (2e-9, 1)])


def test_cloud_serialization_roundtrip():
    t = triangle_cloud()
    assert WeightedPointCloud.from_dict(t.to_dict()) == t
    assert WeightedPointCloud.from_tsv(t.to_tsv()) == t
    decimal_tsv = "x1\tweight\n0.25\t0.5\n0.75\t0.5\n"
    c = WeightedPointCloud.from_tsv(decimal_tsv)
    assert c.atoms[0] == ((F(1, 4),), F(1, 2))
