import inspect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from centertrans.centers import center_point
from centertrans.cloud import WeightedPointCloud
from centertrans.errors import (
    DegeneracyError,
    DomainError,
    OriginNotInteriorError,
    SurrogateUnavailableError,
)
from centertrans.simplex import (
    RegularSimplexPlacement,
    VertexTuple,
    delta_of_vertices,
    jacobi_eigh,
    polar_decompose,
    positive_dependence,
    reference_simplex,
    simplex_map,
    witness_vertices,
)

F = Fraction


def hausdorff(a, b):
    d = np.linalg.norm(np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def random_vertex_tuple(rng, n):
    while True:
        v = rng.standard_normal((n + 1, n))
        v -= v.mean(axis=0)
        tup = VertexTuple.of(v)
        try:
            positive_dependence(tup)
        except (DegeneracyError, OriginNotInteriorError):
            continue
        return tup


def test_reference_simplex_properties():
    for n in range(1, 6):
        ref = reference_simplex(n)
        assert ref.shape == (n + 1, n)
        assert np.max(np.abs(ref.mean(axis=0))) < 1e-14
        for i, j in itertools.combinations(range(n + 1), 2):
            assert abs(np.linalg.norm(ref[i] - ref[j]) - 1.0) < 1e-12
        assert abs(ref[0][0] - math.sqrt(n / (2.0 * (n + 1)))) < 1e-14
        if n > 1:
            assert np.max(np.abs(ref[0][1:])) == 0


def test_positive_dependence_examples():
    lam = positive_dependence(VertexTuple.of([(1, 0), (0, 1), (-1, -1)]))
    assert np.allclose(lam, [1, 1, 1], atol=1e-12)
    lam = positive_dependence(VertexTuple.of([(2, 0), (0, 1), (-1, -1)]))
    assert np.allclose(lam, [1, 2, 2], atol=1e-12)
    with pytest.raises(OriginNotInteriorError):
        positive_dependence(VertexTuple.of([(1, 0), (-1, 0), (0, 1)]))


def test_positive_dependence_degenerate_kernel():
    with pytest.raises(DegeneracyError):
        positive_dependence(VertexTuple.of([(1, 0), (-1, 0), (2, 0)]))


def test_normalize_volume():
    tup = VertexTuple.of([(1, 0), (0, 1), (-1, -1)])
    sigma = delta_of_vertices(tup).sigma_vertices
    t = math.sqrt(2.0 / 3.0)
    assert np.allclose(sigma, t * tup.as_array(), atol=1e-12)
    edges = sigma[1:] - sigma[0]
    assert abs(abs(np.linalg.det(edges)) / 2.0 - 1.0) < 1e-12
    # scaling the input leaves sigma unchanged
    tup2 = VertexTuple.of(5.0 * tup.as_array())
    sigma2 = delta_of_vertices(tup2).sigma_vertices
    assert np.allclose(sigma, sigma2, atol=1e-12)


def test_simplex_map_fixed_points():
    ref = reference_simplex(2)
    assert np.allclose(simplex_map(ref), np.eye(2), atol=1e-12)
    assert np.allclose(simplex_map(2.0 * ref), 2.0 * np.eye(2), atol=1e-12)
    swapped = ref[[1, 0, 2]]
    a = simplex_map(swapped)
    assert np.max(np.abs(a @ a.T - np.eye(2))) < 1e-10  # a simplex symmetry


def test_simplex_map_sends_each_reference_vertex_to_sigma():
    # the closed form 2 sigma^T R rests on sum r_i r_i^T = I / 2
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        ref = reference_simplex(n)
        assert np.allclose(ref.T @ ref, np.eye(n) / 2, rtol=0, atol=1e-15)
        sigma = rng.standard_normal((n + 1, n))
        sigma -= sigma.mean(axis=0)
        a = simplex_map(sigma)
        assert np.max(np.abs(ref @ a.T - sigma)) <= 1e-12


def test_jacobi_eigh_reconstruction():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        m = rng.standard_normal((n, n))
        sym = m @ m.T
        w, q = jacobi_eigh(sym)
        assert np.max(np.abs(q @ np.diag(w) @ q.T - sym)) < 1e-10
        assert np.max(np.abs(q @ q.T - np.eye(n))) < 1e-12
        assert np.min(w) > -1e-12


def test_polar_examples():
    s, r = polar_decompose(np.diag([2.0, 0.5]))
    assert np.allclose(s, np.diag([2.0, 0.5]), atol=1e-12)
    assert np.allclose(r, np.eye(2), atol=1e-12)
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    s, r = polar_decompose(rot)
    assert np.allclose(s, np.eye(2), atol=1e-10)
    assert np.allclose(r, rot, atol=1e-10)
    with pytest.raises(DegeneracyError):
        polar_decompose(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_polar_contracts_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        s, r = polar_decompose(a)
        assert np.max(np.abs(r @ r.T - np.eye(n))) <= 1e-9
        assert np.max(np.abs(s @ r - a)) <= 1e-9
        assert np.max(np.abs(s - s.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(s)) > 0


def test_delta_regularity_and_invariances():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for _ in range(10):
            tup = random_vertex_tuple(rng, n)
            pl = delta_of_vertices(tup)
            verts = pl.delta_vertices
            for i, j in itertools.combinations(range(n + 1), 2):
                assert abs(np.linalg.norm(verts[i] - verts[j]) - 1.0) <= 1e-9
            assert np.max(np.abs(verts.mean(axis=0))) <= 1e-9
            # permutation invariance of the unordered vertex set
            perm = rng.permutation(n + 1)
            pl2 = delta_of_vertices(VertexTuple.of(tup.as_array()[perm]))
            assert hausdorff(verts, pl2.delta_vertices) <= 1e-8
            # rotation equivariance
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            pl3 = delta_of_vertices(VertexTuple.of(tup.as_array() @ q.T))
            assert hausdorff(verts @ q.T, pl3.delta_vertices) <= 1e-8
            # scale invariance
            pl4 = delta_of_vertices(VertexTuple.of(3.7 * tup.as_array()))
            assert hausdorff(verts, pl4.delta_vertices) <= 1e-8


def test_delta_of_reference_is_reference():
    ref = reference_simplex(2)
    pl = delta_of_vertices(VertexTuple.of(4.2 * ref))
    assert hausdorff(pl.delta_vertices, ref) <= 1e-10


def test_placement_serialization():
    pl = delta_of_vertices(VertexTuple.of([(1, 0), (0, 1), (-1, -1)]))
    d = pl.to_dict()
    assert set(d) == {
        "lambdas",
        "sigma_vertices",
        "map_A",
        "factor_S",
        "factor_R",
        "delta_vertices",
    }
    assert len(d["delta_vertices"]) == 3
    assert isinstance(pl, RegularSimplexPlacement)


def adversarial_cluster_cloud():
    # three tight clusters of total weight 1/3 each around unit directions
    centers = [(0, 1), (-0.87, -0.5), (0.87, -0.5)]
    atoms = []
    jitter = [(-0.01, 0.0), (0.01, 0.01), (0.0, -0.01)]
    for cx, cy in centers:
        for jx, jy in jitter:
            x = F(round((cx + jx) * 1000), 1000)
            y = F(round((cy + jy) * 1000), 1000)
            atoms.append(((x, y), F(1, 9)))
    return WeightedPointCloud(2, atoms)


def test_witness_vertices_cluster_cloud():
    cloud = adversarial_cluster_cloud()
    tup = witness_vertices(cloud)
    lam = positive_dependence(tup)
    assert np.all(lam > 0)
    verts = tup.as_array()
    # each vertex points roughly at one cluster
    norms = np.linalg.norm(verts, axis=1)
    assert np.all(norms > 0.5)


def test_witness_vertices_on_the_line():
    # atoms 0, 1, 5, 9 have depth 1/2 < 13/24 and c = 3, the middle of
    # [1, 5]; the sectors x < c and x > c have barycenters -2.5 and 4 about
    # c, recentered to -3.25 and 3.25, and the placement is +-1/2
    cloud = WeightedPointCloud(1, [((F(x),), F(1, 4)) for x in (0, 1, 5, 9)])
    report = center_point(cloud, 1)
    assert (report.depth_of_measure, report.threshold, report.c) == (F(1, 2), F(13, 24), (3,))
    tup = witness_vertices(cloud)
    assert tup.vertices == ((3.25,), (-3.25,))
    delta = delta_of_vertices(tup).delta_vertices
    assert np.allclose(delta, [[0.5], [-0.5]], rtol=0, atol=1e-12)


def test_witness_vertices_requires_insufficient():
    single = WeightedPointCloud(2, [((F(0), F(0)), F(1))])
    with pytest.raises(DomainError):
        witness_vertices(single)


def test_witness_vertices_ray_cloud_unavailable():
    # depth 13/25 < 13/24 at c = 0, the heavier atom: every other atom lies
    # on the ray x > 0, so the sector x < 0 is empty at every offset
    cloud = WeightedPointCloud(1, [((F(0),), F(13, 25)), ((F(1),), F(12, 25))])
    with pytest.raises(SurrogateUnavailableError):
        witness_vertices(cloud)


def test_witness_vertices_takes_only_the_cloud():
    # whether a surrogate exists is the cloud's depth alone: no override
    assert list(inspect.signature(witness_vertices).parameters) == ["cloud"]
