"""Exact oracles for checking centertrans outputs.

Written from the definitions alone and sharing no code with
``centertrans.depth``: planar Tukey depth, closed half-space mass, and the
12-digit frame quantization of a marginal.  All arithmetic is on Python
integers and ``Fraction``s, so every comparison with the program's
results is exact.

Run ``python3 perfbench/oracles.py`` to check them on hand-worked cases.
"""

import math
from fractions import Fraction
from functools import cmp_to_key

FRAME_DIGITS = 12


def _integer_offsets(atoms, x):
    """(at_x, [(u, w)], D): integer offsets p - x and integer weights over D."""
    den = math.lcm(*(w.denominator for _, w in atoms))
    coords = [c for p, _ in atoms for c in p] + list(x)
    scale = math.lcm(*(Fraction(c).denominator for c in coords))
    xs = [int(Fraction(c) * scale) for c in x]
    at_x = 0
    offsets = []
    for p, w in atoms:
        u = tuple(int(Fraction(c) * scale) - xc for c, xc in zip(p, xs))
        wi = int(w * den)
        if any(u):
            offsets.append((u, wi))
        else:
            at_x += wi
    return at_x, offsets, den


def _half(v):
    return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1


def _angle_cmp(a, b):
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return ha - hb
    cr = a[0] * b[1] - a[1] * b[0]
    return -1 if cr > 0 else (1 if cr < 0 else 0)


def _primitive(v):
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def planar_depth(atoms, x):
    """Exact Tukey depth of point x in a planar weighted atomic measure.

    atoms is a sequence of ((x, y), weight) with rational entries.  The
    closed-halfplane mass is constant on each open arc of directions
    between consecutive normals to the atom offsets p - x, and at a
    normal it is at least its value on the neighbouring arcs; so the
    minimum over the normals plus one direction strictly inside every
    arc is the infimum over all directions.
    """
    at_x, offsets, den = _integer_offsets(atoms, x)
    if not offsets:
        return Fraction(1)
    normals = set()
    for (ux, uy), _ in offsets:
        n = _primitive((-uy, ux))
        normals.add(n)
        normals.add((-n[0], -n[1]))
    ring = sorted(normals, key=cmp_to_key(_angle_cmp))
    candidates = list(ring)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        if a[0] * b[1] - a[1] * b[0] > 0:
            candidates.append((a[0] + b[0], a[1] + b[1]))
        else:
            # the set of normals is symmetric, so a gap is at most a half
            # turn; a half-turn gap is split by a quarter turn from a
            candidates.append((-a[1], a[0]))
    best = None
    for vx, vy in candidates:
        mass = at_x
        for (ux, uy), w in offsets:
            if ux * vx + uy * vy >= 0:
                mass += w
        if best is None or mass < best:
            best = mass
    return Fraction(best, den)


def halfspace_mass(atoms, normal, point):
    """Exact weight of the closed half-space {y : <y - point, normal> >= 0}."""
    normal = [Fraction(c) for c in normal]
    level = sum(n * Fraction(c) for n, c in zip(normal, point))
    return sum(
        (w for p, w in atoms if sum(n * Fraction(c) for n, c in zip(normal, p)) >= level),
        Fraction(0),
    )


def min_mass_over_directions(atoms, point, directions):
    """Least closed half-space mass through point over integer directions."""
    at_x, offsets, den = _integer_offsets(atoms, point)
    best = None
    for v in directions:
        mass = at_x
        for u, w in offsets:
            if sum(a * b for a, b in zip(u, v)) >= 0:
                mass += w
        if best is None or mass < best:
            best = mass
    return Fraction(best, den)


def quantize(value, digits=FRAME_DIGITS):
    """A float frame entry as the rational nearest at 10^-digits."""
    scale = 10 ** digits
    return Fraction(round(float(value) * scale), scale)


def quantized_marginal(atoms, rows, digits=FRAME_DIGITS):
    """Pushforward onto quantized frame rows; coincident images merge."""
    qrows = [[quantize(c, digits) for c in row] for row in rows]
    merged = {}
    for p, w in atoms:
        y = tuple(sum(r * Fraction(c) for r, c in zip(row, p)) for row in qrows)
        merged[y] = merged.get(y, Fraction(0)) + w
    return sorted(merged.items())


def self_check():
    """Hand-worked cases; returns the list of cases that disagree."""
    third = Fraction(1, 3)
    tri = [((0, 0), third), ((1, 0), third), ((0, 1), third)]
    heavy = [((0, 0), Fraction(1, 2)), ((1, 0), Fraction(1, 4)), ((0, 1), Fraction(1, 4))]
    line = [((0, 0), third), ((1, 0), third), ((2, 0), third)]
    cases = [
        ("triangle centroid", planar_depth(tri, (third, third)), third),
        ("outside the hull", planar_depth(tri, (2, 2)), Fraction(0)),
        ("on a light atom", planar_depth(tri, (0, 0)), third),
        ("on the heavy atom", planar_depth(heavy, (0, 0)), Fraction(1, 2)),
        ("on a quarter atom", planar_depth(heavy, (1, 0)), Fraction(1, 4)),
        ("edge midpoint", planar_depth(tri, (Fraction(1, 2), 0)), third),
        ("middle of collinear atoms", planar_depth(line, (1, 0)), Fraction(2, 3)),
        ("off the collinear line", planar_depth(line, (1, 1)), Fraction(0)),
        ("all mass at the point", planar_depth([((1, 1), Fraction(1))], (1, 1)), Fraction(1)),
        ("closed half-plane x >= 0", halfspace_mass(tri, (1, 0), (0, 0)), Fraction(1)),
        ("closed half-plane x >= 1/2", halfspace_mass(tri, (1, 0), (Fraction(1, 2), 0)), third),
        ("quantized 1/3", quantize(1 / 3), Fraction(333333333333, 10 ** 12)),
        (
            "marginal merges images",
            quantized_marginal(line + [((1, 5), Fraction(0))], [(1.0, 0.0)]),
            [((Fraction(0),), third), ((Fraction(1),), third), ((Fraction(2),), third)],
        ),
    ]
    return [name for name, got, want in cases if got != want]


if __name__ == "__main__":
    bad = self_check()
    print("oracle self-check:", "ok" if not bad else "FAILED " + ", ".join(bad))
    raise SystemExit(1 if bad else 0)
