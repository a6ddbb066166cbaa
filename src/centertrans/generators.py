"""Deterministic instance generators.

All families quantize coordinates to exact rationals and produce weights
that sum to one exactly, so generated files feed the exact machinery
directly and identical seeds reproduce identical instances byte for
byte.
"""

import math
from fractions import Fraction

from .errors import DomainError

# the keywords each family reads; generate_cloud refuses any other it is given
READS = {
    "uniform-ball": ("seed", "atoms", "dim", "denominator", "weight_mode"),
    "gaussian-quantized": ("seed", "atoms", "dim", "denominator", "weight_mode"),
    "simplex-atoms": ("dim",),
    "coplanar": ("seed", "atoms", "dim", "ambient", "denominator", "weight_mode", "rotate"),
    "adversarial-three-cluster": ("seed", "atoms", "dim", "ambient", "denominator", "spread",
                                  "rotate"),
}
# the value of each keyword that is not given, in generate_cloud's order;
# spread is the cluster jitter of adversarial-three-cluster
DEFAULTS = {"seed": 0, "atoms": 12, "dim": 2, "ambient": None, "denominator": 10000,
            "weight_mode": "equal", "spread": 0.05, "rotate": True}

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


def generate_cloud(family, seed=None, atoms=None, dim=None, ambient=None, denominator=None,
                   weight_mode=None, spread=None, rotate=None):
    """One deterministic instance of the named family.

    A keyword that is None takes its DEFAULTS value.  Each family reads
    only the keywords READS lists for it, and any other that is given is a
    DomainError; so are dim beside ambient, and rotate where nothing is
    embedded (adversarial-three-cluster at ambient 2).  The embedding
    families' ambient is ambient, else dim, else 3 (coplanar) or 2 (the
    cluster family), and at least 2.
    adversarial-three-cluster writes three equal clusters of
    max(1, atoms // 3) atoms each, so atoms 1 to 5 all give 3 atoms.
    """
    given = {k: v for k, v in locals().items() if k != "family" and v is not None}
    if family not in READS:
        raise DomainError("unknown family %r (choose from %s)" % (family, ", ".join(READS)))
    refused = [k for k in given if k not in READS[family]]
    if refused:
        raise DomainError("%s takes no %s" % (family, " or ".join(refused)))
    if "dim" in given and "ambient" in given:
        raise DomainError("%s takes dim or ambient, not both" % family)
    seed, atoms, dim, ambient, denominator, weight_mode, spread, rotate = (
        given.get(k, default) for k, default in DEFAULTS.items())
    if atoms < 1 or denominator < 1 or dim < 1:
        raise DomainError("atoms (%r), dim (%r) and denominator (%r) must be >= 1"
                          % (atoms, dim, denominator))
    if isinstance(seed, int) and seed < 0:
        raise DomainError("seed must be >= 0, got %d" % seed)
    if not math.isfinite(spread):
        raise DomainError("spread must be a finite number, got %r" % (spread,))
    if family in ("coplanar", "adversarial-three-cluster"):
        ambient = given.get("ambient", given.get("dim", 3 if family == "coplanar" else 2))
        if ambient < 2:
            raise DomainError("%s needs ambient >= 2" % family)
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
        sample = rng.standard_normal((atoms, 2))
        pts2 = [tuple(_quantize(c, denominator) for c in row) for row in sample]
        pts = _embed(pts2, ambient, rng, rotate)
        ws = _weights(rng, atoms, weight_mode)
        return WeightedPointCloud(ambient, list(zip(pts, ws)))
    # adversarial-three-cluster: three tight clusters, total weight 1/3 each
    if ambient == 2 and "rotate" in given:
        raise DomainError("adversarial-three-cluster embeds nothing at ambient 2: "
                          "it takes no rotate")
    per = max(1, atoms // 3)
    centers = [
        (math.cos(math.pi / 2), math.sin(math.pi / 2)),
        (math.cos(math.pi * 7 / 6), math.sin(math.pi * 7 / 6)),
        (math.cos(math.pi * 11 / 6), math.sin(math.pi * 11 / 6)),
    ]
    pts2 = []
    for cx, cy in centers:
        jitter = rng.standard_normal((per, 2)) * spread
        for jx, jy in jitter:
            pts2.append(
                (_quantize(cx + jx, denominator), _quantize(cy + jy, denominator))
            )
    w = Fraction(1, 3 * per)
    if ambient > 2:
        pts2 = _embed(pts2, ambient, rng, rotate)
    return WeightedPointCloud(ambient, [(p, w) for p in pts2])


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
