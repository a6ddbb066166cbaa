"""The per-direction table that the angular sweep of depth._DirectionTable replaced.

For every direction normal to an atom difference (both orientations,
plus the coordinate axes) the atom projections are sorted with
cumulative integer weights, so the threshold at any level is a binary
search and every direction gives one halfplane.  That is O(k^3) time and
memory for k atoms; the tests use it as the oracle for the sweep's
levels, its pruned halfplanes and the regions they cut out.
"""

import math
from fractions import Fraction
from itertools import combinations

from centertrans import polygon
from centertrans.depth import _primitive


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
