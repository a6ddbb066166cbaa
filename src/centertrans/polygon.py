"""Exact convex polygon primitives over rational coordinates.

Polygons are vertex tuples.  A clip yields an ordered convex loop, which
may repeat a vertex or keep collinear ones; the canonical form is the
convex hull of the vertices, which ``normalize`` computes: [] empty, [p]
a point, [p, q] a segment with p < q lexicographically, and for full
rank a strictly convex counterclockwise loop starting at the
lexicographically smallest vertex.
``centroid`` accepts either form and gives the same exact point.
Halfplanes are (vx, vy, c) meaning vx*x + vy*y <= c.  Everything here is
exact; emptiness tests downstream rely on it.

Depth regions are clipped by the homogeneous integer kernel in
``depth``, and ``depth.DepthRegion`` is the one place in the package
that puts them in canonical form.  ``clip``, ``clip_many`` and
``intersect`` are the Fraction references the tests compare the kernel
to.
"""

from fractions import Fraction


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def area2(vertices):
    """Twice the signed area of the vertex loop."""
    n = len(vertices)
    if n < 3:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc


def normalize(vertices):
    """Canonical form: the convex hull of the distinct vertices.

    Andrew's monotone chain (Andrew 1979) sorts the points and builds the
    lower and upper chains, popping every turn that is not a left turn.
    """
    pts = sorted(set(map(tuple, vertices)))
    if len(pts) < 3:
        return tuple(pts)

    def chain(points):
        out = []
        for p in points:
            while len(out) > 1 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return tuple(chain(pts) + chain(reversed(pts)))


def clip(vertices, vx, vy, c):
    """Intersect a convex loop with the halfplane vx*x + vy*y <= c.

    Works on degenerate loops (point, segment) as well; the output is an
    ordered loop, not necessarily canonical.
    """
    n = len(vertices)
    if n == 0:
        return ()
    sides = [vx * p[0] + vy * p[1] - c for p in vertices]
    if all(s <= 0 for s in sides):
        return tuple(vertices)
    if all(s > 0 for s in sides):
        return ()
    out = []
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        sa, sb = sides[i], sides[(i + 1) % n]
        if sa <= 0:
            out.append(a)
        if (sa < 0 < sb) or (sb < 0 < sa):
            t = sa / (sa - sb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return tuple(out)


def clip_many(vertices, halfplanes):
    """Clip a convex loop by every halfplane in turn; an ordered loop, like clip."""
    poly = tuple(vertices)
    for vx, vy, c in halfplanes:
        poly = clip(poly, vx, vy, c)
        if not poly:
            return ()
    return poly


def centroid(vertices):
    """Exact barycenter: area-weighted for polygons, midpoint for segments."""
    pts = list(vertices)
    if not pts:
        raise ValueError("centroid of an empty region")
    if len(pts) == 1:
        return pts[0]
    if len(pts) == 2:
        return (
            (pts[0][0] + pts[1][0]) / 2,
            (pts[0][1] + pts[1][1]) / 2,
        )
    a2 = area2(pts)
    if a2 == 0:
        lo, hi = min(pts), max(pts)
        return ((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2)
    cx = Fraction(0)
    cy = Fraction(0)
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return (cx / (3 * a2), cy / (3 * a2))


def _on_segment(a, b, p):
    if _cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def locate_point(vertices, point):
    """Classify a point against a canonical region: inside/boundary/outside."""
    pts = list(vertices)
    p = tuple(point)
    if not pts:
        return "outside"
    if len(pts) == 1:
        return "boundary" if p == pts[0] else "outside"
    if len(pts) == 2:
        return "boundary" if _on_segment(pts[0], pts[1], p) else "outside"
    on_edge = False
    n = len(pts)
    for i in range(n):
        cr = _cross(pts[i], pts[(i + 1) % n], p)
        if cr < 0:
            return "outside"
        if cr == 0:
            on_edge = True
    return "boundary" if on_edge else "inside"


def edge_halfplanes(vertices):
    """Halfplane list of a canonical full-rank CCW polygon."""
    out = []
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        # interior side of edge a->b for a CCW loop: cross(e, x - a) >= 0
        out.append((ey, -ex, ey * ax - ex * ay))
    return out


def _segment_intersection(a, b, p, q):
    """Exact intersection of closed segments; canonical region output."""
    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (q[0] - p[0], q[1] - p[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        if _cross(a, b, p) != 0:
            return ()
        # collinear: overlap interval by lexicographic order along the line
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((p, q))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return ()
        return (lo,) if lo == hi else (lo, hi)
    t = ((p[0] - a[0]) * d2[1] - (p[1] - a[1]) * d2[0])
    t = Fraction(t, denom)
    u = ((p[0] - a[0]) * d1[1] - (p[1] - a[1]) * d1[0])
    u = Fraction(u, denom)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ((a[0] + t * d1[0], a[1] + t * d1[1]),)
    return ()


def intersect(p_vertices, q_vertices):
    """Intersection of two canonical convex regions, canonical output.

    The depth code intersects regions by clipping all of their halfplanes
    at once; this pairwise form is the reference the tests compare it to.
    """
    p = tuple(p_vertices)
    q = tuple(q_vertices)
    if not p or not q:
        return ()
    # p gets the fewer vertices: a point or segment is always p
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        return p if locate_point(q, p[0]) != "outside" else ()
    if len(q) == 2:
        return normalize(_segment_intersection(p[0], p[1], q[0], q[1]))
    return normalize(clip_many(p, edge_halfplanes(q)))
