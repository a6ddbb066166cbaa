"""Reference depth routines the tests check the depth kernels against.

depth_of_measure_by_candidates finds the planar depth of a measure by
enumerating the arrangement's vertices; depth.depth_of_measure finds the
same depth by a binary search over the levels of one angular sweep.
depth_3d_by_pairs is the 3-D point depth that tries every pair of
offsets, and depth_4d_by_triples the 4-D one that tries every triple;
depth.tukey_depth reduces each offset line to a count one dimension
down.  interval_1d is the superlevel interval on the line from prefix
and suffix weights; depth.depth_of_measure and centers.center_point run
a line through the planar level search instead.
"""

from fractions import Fraction
from itertools import accumulate, combinations, product

from centertrans.depth import DepthValue, _dot, _int_offsets, tukey_depth
from centertrans.errors import DomainError


def depth_of_measure_by_candidates(cloud):
    """Planar depth of a measure by direct candidate enumeration.

    Evaluates the exact depth at every atom and every intersection point
    of lines through atom pairs (the depth is piecewise constant on that
    arrangement and upper semicontinuous, so the maximum is attained
    there).  Quartic in the atom count; used to cross-validate the level
    search on small clouds.
    """
    if cloud.dim != 2:
        raise DomainError("candidate enumeration requires a planar cloud")
    pts = sorted(set(cloud.points()))
    candidates = set(pts)
    lines = []
    for a, b in combinations(pts, 2):
        d = (b[0] - a[0], b[1] - a[1])
        # line as (nx, ny, c): nx*x + ny*y = c
        lines.append((-d[1], d[0], -d[1] * a[0] + d[0] * a[1]))
    for (n1x, n1y, c1), (n2x, n2y, c2) in combinations(lines, 2):
        det = n1x * n2y - n1y * n2x
        if det == 0:
            continue
        candidates.add(((c1 * n2y - c2 * n1y) / det, (n1x * c2 - n2x * c1) / det))
    best_val = None
    best_pt = None
    for cand in sorted(candidates):
        val = tukey_depth(cloud, cand).value
        if best_val is None or val > best_val:
            best_val, best_pt = val, cand
    return DepthValue(best_val, None), best_pt


def interval_1d(cloud, level=None):
    """(level, (lo, hi)) with [lo, hi] = {x : depth >= level} on the line.

    A level of None means the depth of the measure; the interval is None
    when the superlevel set is empty.
    """
    mass = {}
    for (p,), w in cloud.atoms:
        mass[p] = mass.get(p, Fraction(0)) + w
    vals = sorted(mass)
    prefix = list(accumulate(mass[v] for v in vals))
    suffix = list(accumulate(mass[v] for v in reversed(vals)))[::-1]
    if level is None:
        # the maximum of min(mass <= x, mass >= x) is attained at an atom
        level = max(map(min, prefix, suffix))
    lo = next((v for v, m in zip(vals, prefix) if m >= level), None)
    hi = next((v for v, m in zip(reversed(vals), reversed(suffix)) if m >= level), None)
    if lo is None or hi is None or lo > hi:
        return level, None
    return level, (lo, hi)


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def depth_3d_by_pairs(cloud, x):
    """Exact 3-D Tukey depth by trying every pair of offsets.

    Each pair (j, k) of non-parallel offsets spans a plane with normal
    v0; the four directions w in it between the two offsets, and then
    the two rays along v0 x w, settle the offsets on lower strata by a
    lexicographic sign (v0, w, z).  Cubic in the atom count; x is a
    tuple of rationals.
    """
    at_x, offsets, d_den = _int_offsets(cloud, x)
    if not offsets:
        return DepthValue(Fraction(1), None)
    us = [u for u, _ in offsets]
    best = None
    found_pair = False
    for j, k in combinations(range(len(us)), 2):
        v0 = _cross3(us[j], us[k])
        if v0 == (0, 0, 0):
            continue
        found_pair = True
        a_dir = _cross3(us[k], v0)
        b_dir = _cross3(v0, us[j])
        for s in (1, -1):
            for t in (1, -1):
                w_dir = tuple(s * a + t * b for a, b in zip(a_dir, b_dir))
                z_dir = _cross3(v0, w_dir)
                base = at_x
                zz_plus = zz_minus = 0
                for u, wt in offsets:
                    d0 = _dot(u, v0)
                    if d0 > 0:
                        base += wt
                    elif d0 == 0:
                        d1 = _dot(u, w_dir)
                        if d1 > 0:
                            base += wt
                        elif d1 == 0:
                            # u is orthogonal to v0 and w, hence parallel to z
                            if _dot(u, z_dir) > 0:
                                zz_plus += wt
                            else:
                                zz_minus += wt
                for sigma, extra in ((1, zz_plus), (-1, zz_minus)):
                    val = base + extra
                    if best is None or val < best[0]:
                        best = (val, v0, w_dir, z_dir, sigma)
    if not found_pair:
        # all offsets on one line through x: one-dimensional split
        u = us[0]
        for sgn in (1, -1):
            val = at_x + sum(wt for uu, wt in offsets if sgn * _dot(uu, u) > 0)
            if best is None or val < best[0]:
                best = (val, None, None, None, sgn)
        val, _, _, _, sgn = best
        witness = tuple(Fraction(sgn * c) for c in u)
        return DepthValue(Fraction(val, d_den), witness)
    val, v0, w_dir, z_dir, sigma = best
    m_big = 1 + max(abs(_dot(u, w_dir)) for u in us) + max(abs(_dot(u, z_dir)) for u in us)
    witness = tuple(
        Fraction(m_big * m_big * a + m_big * b + sigma * c)
        for a, b, c in zip(v0, w_dir, z_dir)
    )
    return DepthValue(Fraction(val, d_den), witness)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _normal4(rows):
    """Integer normal to three vectors of R^4: the signed 3x3 minors."""
    return tuple((-1) ** i * _det3([r[:i] + r[i + 1:] for r in rows]) for i in range(4))


def depth_4d_by_triples(cloud, x):
    """Exact 4-D Tukey depth by perturbing the normal of every three offsets.

    Each open cell of the arrangement of the hyperplanes u-perp has a
    vertex, the normal n of three independent offsets, on the sphere.
    Near +-n the cells are told apart by the signs of those three, so for
    each sign pattern s the direction +-n + eps v, with <u_i, v> = s_i
    for the three offsets u_i, lies in one of them.  v comes from their
    Gram matrix by Cramer's rule, exactly: scaled by the Gram determinant,
    which is positive, it is an integer vector.  An offset counts by the
    sign of <u, +-n> and, where that is 0, of <u, v>.  Every candidate is
    the mass of a closed halfspace, so the least is an upper bound, and
    it is the depth when no four offsets are dependent (general
    position).  Quartic in the atom count; x is a tuple of rationals.
    """
    if cloud.dim != 4:
        raise DomainError("triple enumeration requires a cloud in R^4")
    at_x, offsets, d_den = _int_offsets(cloud, x)
    if not offsets:
        return DepthValue(Fraction(1), None)
    best = None
    for triple in combinations([u for u, _ in offsets], 3):
        n = _normal4(triple)
        if not any(n):
            continue
        across = [(_dot(u, n), u, wt) for u, wt in offsets]
        gram = [[_dot(a, b) for b in triple] for a in triple]
        for signs in product((1, -1), repeat=3):
            c = [_det3([row[:i] + [s] + row[i + 1:] for row, s in zip(gram, signs)])
                 for i in range(3)]
            v = [sum(ci * u[j] for ci, u in zip(c, triple)) for j in range(4)]
            for sign in (1, -1):
                val = at_x + sum(wt for s0, u, wt in across
                                 if sign * s0 > 0 or (s0 == 0 and _dot(u, v) >= 0))
                if best is None or val < best:
                    best = val
    if best is None:
        raise DomainError("the offsets hold no three independent vectors")
    return DepthValue(Fraction(best, d_den), None)
