"""Test-only references for depth._DirectionTable.

ReferenceTable is the per-direction table that the angular sweep
replaced.  For every direction normal to an atom difference (both
orientations, plus the coordinate axes) the atom projections are sorted
with cumulative integer weights, so the threshold at any level is a
binary search and every direction gives one halfplane.  That is O(k^3)
time and memory for k atoms; the tests use it as the oracle for the
sweep's levels, its pruned halfplanes and the regions they cut out.

reference_sweep is the sweep as first written, which rebuilds every
reversed block by slicing, two atoms too.  The tests compare the table's
fields to it exactly.

reference_deepest_common_region is the level search before it was
bracketed: a binary search over every level of the union, top level
first.  The bracketed search must give exactly its level and loop.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations
from types import SimpleNamespace

from centertrans import polygon
from centertrans.depth import _angle_sorted, _canonical_line, _primitive, _region_vertices
from centertrans.errors import InternalConsistencyError


class ReferenceTable:
    """Per-direction projection lists of a planar cloud, one halfplane each."""

    def __init__(self, cloud):
        self.coord_scale, ipts = cloud.int_points
        self.weight_den, ws = cloud.int_weights
        xs = [p[0] for p in ipts]
        ys = [p[1] for p in ipts]
        self.bounds = (min(xs), min(ys), max(xs), max(ys))
        dirs = set()
        for (a, b) in combinations(sorted(set(ipts)), 2):
            d = (a[0] - b[0], a[1] - b[1])
            n = _primitive((-d[1], d[0]))
            dirs.add(n)
            dirs.add((-n[0], -n[1]))
        dirs.update([(1, 0), (-1, 0), (0, 1), (0, -1)])
        self.directions = sorted(dirs)
        self.proj_vals = []
        self.cum_weights = []
        levels = set()
        for v in self.directions:
            acc = {}
            for pt, w in zip(ipts, ws):
                key = v[0] * pt[0] + v[1] * pt[1]
                acc[key] = acc.get(key, 0) + w
            vals = sorted(acc, reverse=True)
            cums = []
            run = 0
            for val in vals:
                run += acc[val]
                cums.append(run)
            self.proj_vals.append(vals)
            self.cum_weights.append(cums)
            levels.update(cums)
        self.levels = sorted(levels)

    def threshold(self, idx, level_num, level_den):
        """Largest projection s with mass{<y,v> >= s} >= level."""
        # smallest integer target with cum >= level * weight_den
        target = -((-level_num * self.weight_den) // level_den)
        cums = self.cum_weights[idx]
        lo, hi = 0, len(cums) - 1
        if cums[hi] < target:
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if cums[mid] >= target:
                hi = mid
            else:
                lo = mid + 1
        return self.proj_vals[idx][lo]

    def halfplanes(self, tau, scale):
        """Integer (vx, vy, c) with vx*x + vy*y <= c / scale, or None.

        One halfplane per direction; None means tau exceeds the total
        mass.  scale must be a multiple of coord_scale.
        """
        m = scale // self.coord_scale
        out = []
        for i, (vx, vy) in enumerate(self.directions):
            s = self.threshold(i, tau.numerator, tau.denominator)
            if s is None:
                return None
            out.append((vx, vy, s * m))
        return out

    def start_box(self, scale):
        """(lo_x, lo_y, hi_x, hi_y) over scale: the atoms' box grown by 1."""
        m = scale // self.coord_scale
        lo_x, lo_y, hi_x, hi_y = self.bounds
        return (lo_x * m - scale, lo_y * m - scale, hi_x * m + scale, hi_y * m + scale)


def reference_levels(clouds):
    """Union of the clouds' levels as Fractions, in increasing order."""
    tables = [ReferenceTable(c) for c in clouds]
    return sorted({Fraction(lv, t.weight_den) for t in tables for lv in t.levels})


def reference_region(clouds, tau):
    """Canonical joint region at tau: every direction's plane, clipped as Fractions."""
    tables = [ReferenceTable(c) for c in clouds]
    scale = math.lcm(*(t.coord_scale for t in tables))
    planes = []
    for t in tables:
        hp = t.halfplanes(tau, scale)
        if hp is None:
            return ()
        planes.extend((vx, vy, Fraction(c, scale)) for vx, vy, c in hp)
    lo_x, lo_y, hi_x, hi_y = (Fraction(v, scale) for v in tables[0].start_box(scale))
    box = ((lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y))
    return polygon.normalize(polygon.clip_many(box, planes))


def reference_sweep(cloud):
    """Every field of _DirectionTable(cloud), built the first way."""
    coord_scale, ipts = cloud.int_points
    weight_den, ws = cloud.int_weights
    xs = [p[0] for p in ipts]
    ys = [p[1] for p in ipts]
    bounds = (min(xs), min(ys), max(xs), max(ys))
    mass = {}
    for pt, w in zip(ipts, ws):
        mass[pt] = mass.get(pt, 0) + w
    pts = sorted(mass, reverse=True)
    weights = [mass[p] for p in pts]
    lines = {}
    for i, j in combinations(range(len(pts)), 2):
        (ax, ay), (bx, by) = pts[i], pts[j]
        nx, ny = _canonical_line((by - ay, ax - bx))
        key = (nx, ny, nx * ax + ny * ay)
        if key in lines:
            lines[key].update((i, j))
        else:
            lines[key] = {i, j}
    ties = {}
    for (nx, ny, _), atoms in lines.items():
        ties.setdefault((nx, ny), []).append(atoms)
    ties.update({(-nx, -ny): g for (nx, ny), g in list(ties.items())})
    directions = _angle_sorted(set(ties) | {(1, 0), (0, 1), (-1, 0), (0, -1)})
    axes = tuple(directions.index(a) for a in ((0, 1), (-1, 0), (0, -1))) + (len(directions),)
    order = list(range(len(pts)))
    pos = list(range(len(pts)))
    prefix = list(accumulate(weights))
    initial_prefix = tuple(prefix)
    levels = set(prefix)
    events = [[] for _ in pts]
    blocks = [[] for _ in pts]
    for d, v in enumerate(directions[1:], 1):
        for atoms in ties.get(v, ()):
            ranks = [pos[a] for a in atoms]
            s, e = min(ranks), max(ranks) + 1
            if e - s != len(atoms):
                raise InternalConsistencyError("tied atoms are not contiguous")
            seg = order[s:e][::-1]
            order[s:e] = seg
            run = prefix[s - 1] if s else 0
            for r, a in enumerate(seg, s):
                pos[a] = r
                run += weights[a]
                prefix[r] = run
            block = (s, tuple(seg), tuple(prefix[s:e]))
            levels.update(block[2])
            for r in range(s, e):
                events[r].append(d)
                blocks[r].append(block)
    return SimpleNamespace(
        coord_scale=coord_scale,
        weight_den=weight_den,
        bounds=bounds,
        directions=directions,
        levels=sorted(levels),
        _points=pts,
        _axes=axes,
        _initial_prefix=initial_prefix,
        _events=events,
        _blocks=blocks,
    )


def reference_deepest_common_region(tables):
    """(largest level whose regions all meet, their raw loop there), probing
    the top level first and then bisecting over all levels; (0, ()) when
    even the lowest level fails."""
    levels = sorted({Fraction(lv, t.weight_den) for t in tables for lv in t.levels})
    hi = len(levels) - 1
    best = _region_vertices(tables, levels[hi])
    if best:
        return levels[hi], best
    lo = -1
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        loop = _region_vertices(tables, levels[mid])
        if loop:
            lo, best = mid, loop
        else:
            hi = mid
    if lo < 0:
        return Fraction(0), ()
    return levels[lo], best
