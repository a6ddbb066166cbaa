"""Planar depth of a measure by enumerating the arrangement's vertices.

The tests use it as the oracle for depth.depth_of_measure, which finds
the same depth by a binary search over the levels of one angular sweep.
"""

from itertools import combinations

from centertrans.depth import DepthValue, tukey_depth
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
