"""Canonical regular simplex attached to a centered vertex tuple.

Pipeline: a positive dependence certifies the origin interior to the
vertex hull, volume normalization fixes the simplex Sigma, a linear map
carries the reference regular simplex onto Sigma, and the orthogonal
polar factor of that map places the canonical regular simplex Delta.
Permutations of the vertex tuple change the map only by a symmetry of
the reference simplex, which the polar factor absorbs, so Delta is a
function of the tuple alone (checked numerically in the tests, not
assumed).

The dense kernel needed here (a Jacobi eigensolver for the symmetric
square root) is implemented locally; everything is small and float64.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegeneracyError,
    DomainError,
    OriginNotInteriorError,
    SurrogateUnavailableError,
)
from .serialize import float_list

_RANK_RTOL = 1e-10
_POSITIVITY_RTOL = 1e-9


@dataclass(frozen=True)
class VertexTuple:
    """n+1 real vectors in R^n, expected to surround the origin."""

    n: int
    vertices: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if len(self.vertices) != self.n + 1:
            raise DomainError(
                "need %d vertices, got %d" % (self.n + 1, len(self.vertices))
            )
        if any(len(v) != self.n for v in self.vertices):
            raise DomainError("every vertex must have dimension %d" % self.n)

    @classmethod
    def of(cls, vertices):
        vertices = tuple(tuple(float(c) for c in v) for v in vertices)
        return cls(len(vertices) - 1, vertices)

    def as_array(self):
        return np.array(self.vertices, dtype=float)


@dataclass(frozen=True)
class RegularSimplexPlacement:
    """All stages of the pipeline for one vertex tuple."""

    lambdas: np.ndarray
    sigma_vertices: np.ndarray
    map_a: np.ndarray
    factor_s: np.ndarray
    factor_r: np.ndarray
    delta_vertices: np.ndarray

    def to_dict(self):
        return {
            "lambdas": float_list(self.lambdas),
            "sigma_vertices": [float_list(v) for v in self.sigma_vertices],
            "map_A": [float_list(r) for r in self.map_a],
            "factor_S": [float_list(r) for r in self.factor_s],
            "factor_R": [float_list(r) for r in self.factor_r],
            "delta_vertices": [float_list(v) for v in self.delta_vertices],
        }


@lru_cache(maxsize=None)
def _reference_vertices(n):
    if n == 1:
        return ((0.5,), (-0.5,))
    r = math.sqrt(n / (2.0 * (n + 1.0)))
    sub = _reference_vertices(n - 1)
    verts = [(r,) + (0.0,) * (n - 1)]
    for v in sub:
        verts.append((-r / n,) + v)
    return tuple(verts)


def reference_simplex(n):
    """Unit-edge regular n-simplex centered at the origin.

    Deterministic layout: first vertex on the first axis, the remaining
    vertices a recursively constructed (n-1)-simplex in the other
    coordinates.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    return np.array(_reference_vertices(n), dtype=float)


def positive_dependence(vertex_tuple):
    """Strictly positive lambda with sum(lambda_i v_i) = 0, lambda_0 = 1.

    The kernel of the n x (n+1) column map must be one-dimensional;
    a wider kernel is a degeneracy and any nonpositive coefficient means
    the origin is not interior to the hull.
    """
    m = vertex_tuple.as_array().T  # shape (n, n+1)
    n = vertex_tuple.n
    _, svals, vt = np.linalg.svd(m)
    scale = svals[0] if svals[0] > 0 else 1.0
    rank = int(np.sum(svals > _RANK_RTOL * scale))
    if rank < n:
        raise DegeneracyError(
            "vertex tuple kernel has dimension %d, expected 1" % (n + 1 - rank)
        )
    lam = vt[-1]
    if abs(lam[0]) <= _POSITIVITY_RTOL * np.max(np.abs(lam)):
        raise OriginNotInteriorError("dependence coefficient lambda_0 vanishes")
    lam = lam / lam[0]
    if np.min(lam) <= _POSITIVITY_RTOL * np.max(lam):
        raise OriginNotInteriorError(
            "dependence is not strictly positive: %s" % (lam,)
        )
    return lam


def _scaled_simplex(vertex_tuple, lam):
    """(sigma_vertices, scaled lambda): lambda * v rescaled to enclose unit
    volume (volume scales as t^n)."""
    v = vertex_tuple.as_array()
    n = vertex_tuple.n
    q = lam[:, None] * v
    edges = q[1:] - q[0]
    det = np.linalg.det(edges)
    vol = abs(det) / math.factorial(n)
    if vol <= 1e-300:
        raise DegeneracyError("scaled vertex tuple has zero volume")
    t = vol ** (-1.0 / n)
    return t * q, t * lam


def simplex_map(sigma_vertices):
    """Unique linear map A sending reference vertices to sigma, in order:
    A = 2 sigma^T R, since the reference vertices R (rows) have R^T R = I / 2."""
    sigma = np.asarray(sigma_vertices, dtype=float)
    n = sigma.shape[1]
    if sigma.shape[0] != n + 1:
        raise DomainError("expected %d vertices" % (n + 1))
    bary = sigma.mean(axis=0)
    span = float(np.max(np.abs(sigma))) or 1.0
    if np.max(np.abs(bary)) > 1e-6 * span:
        raise DomainError("sigma vertices must have their barycenter at the origin")
    return 2.0 * sigma.T @ reference_simplex(n)


# sweeps stop when the scaled off-diagonal norm drops below _JACOBI_TOL;
# quadratic convergence makes _JACOBI_SWEEPS generous for n <= 8
_JACOBI_TOL, _JACOBI_SWEEPS = 1e-12, 100


def jacobi_eigh(matrix):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, Q) with matrix = Q diag(w) Q^T.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DomainError("matrix must be square")
    a = 0.5 * (a + a.T)
    scale = float(np.max(np.abs(a))) or 1.0
    a /= scale
    q = np.eye(n)
    for _ in range(_JACOBI_SWEEPS):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2) * 2.0))
        if off < _JACOBI_TOL:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                if abs(a[p, r]) <= _JACOBI_TOL * 1e-3:
                    continue
                theta = (a[r, r] - a[p, p]) / (2.0 * a[p, r])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[r, r] = c
                rot[p, r] = s
                rot[r, p] = -s
                a = rot.T @ a @ rot
                q = q @ rot
    return np.diag(a) * scale, q


def polar_decompose(map_a):
    """A = S R with S = sqrt(A A^T) symmetric positive definite, R orthogonal."""
    a = np.asarray(map_a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DomainError("map must be square")
    gram = a @ a.T
    w, q = jacobi_eigh(gram)
    w_max = float(np.max(w))
    if w_max <= 0 or float(np.min(w)) <= 1e-13 * w_max:
        raise DegeneracyError("map is singular; polar decomposition undefined")
    s = q @ np.diag(np.sqrt(w)) @ q.T
    s = 0.5 * (s + s.T)
    r = q @ np.diag(1.0 / np.sqrt(w)) @ q.T @ a
    return s, r


def delta_of_vertices(vertex_tuple):
    """Full pipeline; delta_vertices is R applied to the reference simplex."""
    lam = positive_dependence(vertex_tuple)
    sigma, lam_scaled = _scaled_simplex(vertex_tuple, lam)
    map_a = simplex_map(sigma)
    factor_s, factor_r = polar_decompose(map_a)
    delta = reference_simplex(vertex_tuple.n) @ factor_r.T
    return RegularSimplexPlacement(
        lambdas=lam_scaled,
        sigma_vertices=sigma,
        map_a=map_a,
        factor_s=factor_s,
        factor_r=factor_r,
        delta_vertices=delta,
    )


def witness_vertices(cloud):
    """Sector-barycenter vertex tuple for a measure of insufficient depth;
    a measure of sufficient depth raises DomainError.

    This is a labeled surrogate, not a construction from the literature:
    atoms are split into n+1 equal angular sectors around the associated
    point c, each vertex is the weighted barycenter of its sector
    relative to c, and the tuple is recentered so its mean is the origin
    (hence 0 sits in the hull interior whenever the tuple is
    nondegenerate).  Empty or degenerate sectors fail over to rotated
    sector anchors, up to n+1 offsets.
    """
    from .centers import INSUFFICIENT, center_point

    n = cloud.dim
    if n > 2:
        raise DomainError("vertex surrogate is available for dim <= 2 only")
    report = center_point(cloud, n)
    if report.classification != INSUFFICIENT:
        raise DomainError("measure has sufficient depth; the surrogate is built "
                          "for insufficient depth only")
    c = np.array([float(x) for x in report.c])
    pts = np.array([[float(x) for x in p] for p in cloud.points()]) - c
    ws = np.array([float(w) for w in cloud.weights()])
    nonzero = np.linalg.norm(pts, axis=1) > 1e-14
    count = n + 1
    for j in range(count):
        anchor = (2.0 * math.pi / count) * j / count
        if n == 1:
            sectors = (pts[:, 0] < 0).astype(int)
        else:
            angles = np.arctan2(pts[:, 1], pts[:, 0]) - anchor
            sectors = np.floor((angles % (2.0 * math.pi)) / (2.0 * math.pi / count))
            sectors = sectors.astype(int) % count
        verts = []
        ok = True
        for k in range(count):
            mask = (sectors == k) & nonzero
            mass = ws[mask].sum()
            if mass <= 0:
                ok = False
                break
            verts.append((ws[mask, None] * pts[mask]).sum(axis=0) / mass)
        if not ok:
            continue
        verts = np.array(verts)
        verts -= verts.mean(axis=0)
        tup = VertexTuple.of(verts)
        try:
            positive_dependence(tup)
        except (DegeneracyError, OriginNotInteriorError):
            continue
        return tup
    raise SurrogateUnavailableError(
        "no sector offset produced a nondegenerate vertex tuple"
    )
