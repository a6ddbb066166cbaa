"""Deterministic instance generators.

All families quantize coordinates to exact rationals and produce weights
that sum to one exactly, so generated files feed the exact machinery
directly and identical seeds reproduce identical instances byte for
byte.
"""

import math
from fractions import Fraction

from .errors import DomainError

FAMILIES = (
    "uniform-ball",
    "gaussian-quantized",
    "simplex-atoms",
    "coplanar",
    "adversarial-three-cluster",
)
# the cluster jitter of adversarial-three-cluster, the one family with a spread
CLUSTER_SPREAD = 0.05

# exact rational rotations used to scramble embedded instances
_PYTHAGOREAN = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(7, 25), Fraction(24, 25)),
)


def _quantize(x, denominator):
    return Fraction(round(float(x) * denominator), denominator)


def _weights(rng, count, mode):
    if mode == "equal":
        return [Fraction(1, count)] * count
    if mode == "random":
        raw = [int(v) for v in rng.integers(1, 10, size=count)]
        total = sum(raw)
        return [Fraction(v, total) for v in raw]
    raise DomainError("unknown weight mode %r" % (mode,))


def _rational_rotation(rng, dim):
    """Exact orthogonal matrix from 2 * dim random Pythagorean Givens rotations."""
    q = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.choice(dim, size=2, replace=False)
        c, s = _PYTHAGOREAN[int(rng.integers(len(_PYTHAGOREAN)))]
        if rng.integers(2):
            s = -s
        for row in q:
            a, b = row[i], row[j]
            row[i] = c * a - s * b
            row[j] = s * a + c * b
    return q


def _embed(points2, ambient, rng, rotate):
    """Map planar rational points into R^ambient, optionally scrambled by
    an exact rational rotation (the support stays exactly coplanar)."""
    pts = [tuple(p) + (Fraction(0),) * (ambient - 2) for p in points2]
    if not rotate:
        return pts
    q = _rational_rotation(rng, ambient)
    return [
        tuple(sum(q[r][c] * p[c] for c in range(ambient)) for r in range(ambient))
        for p in pts
    ]


def generate_cloud(
    family,
    seed=0,
    atoms=12,
    dim=2,
    ambient=None,
    denominator=10000,
    weight_mode="equal",
    spread=None,
    rotate=True,
):
    """One deterministic instance of the named family.

    Only adversarial-three-cluster takes a spread (CLUSTER_SPREAD by
    default), and only the planar families embedded in R^ambient take an
    ambient.
    """
    if family not in FAMILIES:
        raise DomainError("unknown family %r (choose from %s)" % (family, ", ".join(FAMILIES)))
    if atoms < 1 or denominator < 1 or dim < 1:
        raise DomainError("atoms (%r), dim (%r) and denominator (%r) must be >= 1"
                          % (atoms, dim, denominator))
    if isinstance(seed, int) and seed < 0:
        raise DomainError("seed must be >= 0, got %d" % seed)
    if spread is not None and family != "adversarial-three-cluster":
        raise DomainError("%s takes no spread; only adversarial-three-cluster does" % family)
    if spread is not None and not math.isfinite(spread):
        raise DomainError("spread must be a finite number, got %r" % (spread,))
    if ambient is not None and family in ("simplex-atoms", "uniform-ball", "gaussian-quantized"):
        raise DomainError("%s takes no ambient; its dimension is dim" % family)
    import numpy as np

    from .cloud import WeightedPointCloud

    rng = np.random.default_rng(seed)
    if family == "simplex-atoms":
        n = dim
        pts = [tuple(Fraction(0) for _ in range(n))]
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            pts.append(tuple(e))
        w = Fraction(1, n + 1)
        return WeightedPointCloud(n, [(p, w) for p in pts])
    if family == "uniform-ball":
        pts = []
        while len(pts) < atoms:
            cand = rng.uniform(-1.0, 1.0, size=dim)
            if float(np.dot(cand, cand)) <= 1.0:
                pts.append(tuple(_quantize(c, denominator) for c in cand))
        ws = _weights(rng, atoms, weight_mode)
        return WeightedPointCloud(dim, list(zip(pts, ws)))
    if family == "gaussian-quantized":
        sample = rng.standard_normal((atoms, dim))
        pts = [tuple(_quantize(c, denominator) for c in row) for row in sample]
        ws = _weights(rng, atoms, weight_mode)
        return WeightedPointCloud(dim, list(zip(pts, ws)))
    if family == "coplanar":
        if ambient is None:
            ambient = max(3, dim)
        if ambient < 2:
            raise DomainError("coplanar needs ambient >= 2")
        sample = rng.standard_normal((atoms, 2))
        pts2 = [tuple(_quantize(c, denominator) for c in row) for row in sample]
        pts = _embed(pts2, ambient, rng, rotate)
        ws = _weights(rng, atoms, weight_mode)
        return WeightedPointCloud(ambient, list(zip(pts, ws)))
    # adversarial-three-cluster: three tight clusters, total weight 1/3 each
    target_dim = dim if ambient is None else ambient
    if target_dim < 2:
        raise DomainError("adversarial-three-cluster needs ambient >= 2 (ambient defaults to dim)")
    per = max(1, atoms // 3)
    centers = [
        (math.cos(math.pi / 2), math.sin(math.pi / 2)),
        (math.cos(math.pi * 7 / 6), math.sin(math.pi * 7 / 6)),
        (math.cos(math.pi * 11 / 6), math.sin(math.pi * 11 / 6)),
    ]
    if spread is None:
        spread = CLUSTER_SPREAD
    pts2 = []
    for cx, cy in centers:
        jitter = rng.standard_normal((per, 2)) * spread
        for jx, jy in jitter:
            pts2.append(
                (_quantize(cx + jx, denominator), _quantize(cy + jy, denominator))
            )
    w = Fraction(1, 3 * per)
    if target_dim > 2:
        pts = _embed(pts2, target_dim, rng, rotate)
    else:
        pts = pts2
    return WeightedPointCloud(target_dim, [(p, w) for p in pts])


def centerline_suite():
    """The 20 seeded clouds in R^3 (<= 20 atoms) for the m=1, n=2 verification."""
    import numpy as np

    seeds = np.random.SeedSequence(20250809).spawn(20)
    clouds = []
    for i, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        sub = int(rng.integers(0, 10 ** 9))
        k = int(rng.integers(12, 21))
        if i % 5 == 4:
            clouds.append(
                generate_cloud(
                    "uniform-ball", seed=sub, atoms=k, dim=3, weight_mode="random"
                )
            )
        else:
            clouds.append(
                generate_cloud("gaussian-quantized", seed=sub, atoms=k, dim=3)
            )
    return clouds


def maintheorem_suite(count=10):
    """The first count seeded two-cloud pairs in R^7 (<= 12 atoms) for m=2, n=2."""
    import numpy as np

    seeds = np.random.SeedSequence(20250810).spawn(count)
    instances = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        s1 = int(rng.integers(0, 10 ** 9))
        s2 = int(rng.integers(0, 10 ** 9))
        k = int(rng.integers(9, 12))
        c1 = generate_cloud("gaussian-quantized", seed=s1, atoms=k, dim=7)
        c2 = generate_cloud("gaussian-quantized", seed=s2, atoms=k, dim=7)
        instances.append((c1, c2))
    return instances
