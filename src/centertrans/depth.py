"""Exact Tukey (half-space) depth for weighted atomic measures.

Point depth is exact in every dimension; the planar case drives
everything else (regions, depth of a measure, the transversal search)
and is built on integer sign tests: atom offsets are rescaled to
integer vectors, so every orientation predicate is decided exactly and
depth values come out as rationals over the common weight denominator.
One planar count serves point depth in every dimension: above 2-D each
offset line is projected away onto an integer basis of its orthogonal
hyperplane, one dimension at a time (Rousseeuw & Struyf 1998), and the
offsets on the line count by their lighter ray; in 1-D only that ray
is left.

The superlevel region {x : depth(x) >= tau} in the plane is cut out by
halfplanes normal to atom differences (plus the coordinate axes, which
keep degenerate clouds bounded).  One angular sweep per cloud
(_DirectionTable, the rotating line of Ruts & Rousseeuw 1996) sorts
these normals once by exact angle and records how the projection order
of the atoms changes between them: collinear atoms reverse a block, and
two atoms on a line through no third one swap adjacent ranks.
Between changes the threshold line at level tau turns about one atom,
so of each such run of directions only the two ends can bind, and a
query emits only those.  One clip against the halfplanes of several
clouds gives the intersection of their regions, and one binary search
over their finite level set, read off the same sweep, finds the largest
level at which it is nonempty: for one cloud, the depth of the measure.
A measure on the line runs through the same sweep as its atoms on the
x axis of the plane, where every point keeps its depth.
The search probes no level that the theory already decides: none above
(1 + heaviest atom) / 2, which no point exceeds, and for one cloud none
below the first level at or above 1/3, which Rado's centerpoint theorem
guarantees.  A caller that only asks whether the regions meet above a
level passes it as a floor, the third bound: the search probes nothing
at or below it, and one empty region just above it ends the search.
Each query builds the tables it reads and drops them: none is kept on a
cloud.  A table, point depth and the mean read only the integer forms of
a cloud, so ``transversal`` reads every marginal as a frame's integer
images of the atoms (_images), with no cloud; ``marginal``, the public
pushforward, builds its cloud from the same images.

The clip runs in homogeneous integer coordinates: every halfplane is
rescaled to the common coordinate scale of the clouds, each vertex is
the meet of two input lines, and vertices become Fractions only in the
output.  ``polygon.clip_many`` is the Fraction reference it is tested
against, and the per-direction table the sweep replaced is kept in the
tests as the reference for its levels and regions.

The clip yields an ordered convex loop that may repeat a vertex or keep
collinear ones.  The level search tests it for emptiness and exact
centroids do not depend on such vertices, so only DepthRegion, which
every reported region passes through, puts it in canonical form.
"""

import math
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate

from . import polygon
from .bounds import thresholds  # noqa: F401 (re-exported)
from .cloud import WeightedPointCloud, _as_fraction
from .errors import DomainError, InternalConsistencyError
from .serialize import frac_str

# the n >= 3 ascent: first radius, steps, shrink on rejection, denominator bound
_ASCENT_RADIUS, _ASCENT_STEPS, _ASCENT_SHRINK, _ASCENT_DENOMINATOR = 1.0, 60, 0.85, 10 ** 6


@dataclass(frozen=True)
class DepthValue:
    value: Fraction
    witness_direction: tuple = None

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise DomainError("depth %s outside [0, 1]" % (self.value,))


@dataclass(frozen=True)
class DepthRegion:
    """Convex superlevel set in the plane, in canonical vertex form.

    vertices may be any ordered convex loop (duplicate and collinear
    vertices allowed); the constructor stores its canonical form, the
    convex hull of the vertices, on which locate, kind and to_dict rely.
    """

    vertices: tuple
    tau: Fraction

    def __post_init__(self):
        object.__setattr__(self, "vertices", polygon.normalize(self.vertices))

    @property
    def kind(self):
        k = len(self.vertices)
        if k == 0:
            return "empty"
        if k == 1:
            return "point"
        if k == 2:
            return "segment"
        return "polygon"

    def locate(self, point):
        point = tuple(_as_fraction(c) for c in point)
        if len(point) != 2:
            raise DomainError("point dimension mismatch: a depth region is planar")
        return polygon.locate_point(self.vertices, point)

    def contains(self, point):
        return self.locate(point) != "outside"

    def centroid(self):
        return polygon.centroid(self.vertices)

    def to_dict(self):
        return {
            "kind": self.kind,
            "vertices": [[frac_str(x), frac_str(y)] for x, y in self.vertices],
            "tau": frac_str(self.tau),
        }


def halfspace_mass(cloud, v, a):
    """Exact weight of the closed half-space {<x, v> >= a}.

    The mass of {<x, v> <= a} is halfspace_mass(cloud, -v, -a).
    """
    v = tuple(_as_fraction(c) for c in v)
    if len(v) != cloud.dim:
        raise DomainError("direction dimension mismatch")
    if all(c == 0 for c in v):
        raise DomainError("direction must be nonzero")
    a = _as_fraction(a)
    total = Fraction(0)
    for p, w in cloud.atoms:
        s = sum(pc * vc for pc, vc in zip(p, v))
        if s >= a:
            total += w
    return total


def _int_offsets(cloud, x):
    """Integer rescalings of p - x plus the weight mass sitting at x.

    x is a tuple of Fractions of the cloud's dimension.  Returns
    (at_x_weight, [(u, w_int), ...], D) where u is a nonzero integer
    vector positively proportional to p - x.
    """
    c_scale, ipts = cloud.int_points
    d_den, ws = cloud.int_weights
    s = math.lcm(c_scale, *(c.denominator for c in x))
    m = s // c_scale
    sx = [int(c * s) for c in x]
    at_x = 0
    offsets = []
    for pt, w in zip(ipts, ws):
        u = tuple(m * pc - xc for pc, xc in zip(pt, sx))
        if all(c == 0 for c in u):
            at_x += w
        else:
            offsets.append((u, w))
    return at_x, offsets, d_den


def _primitive(vec):
    g = math.gcd(*vec)
    return tuple(c // g for c in vec)


def _canonical_line(vec):
    """Primitive representative of the line through +-vec."""
    p = _primitive(vec)
    for c in p:
        if c > 0:
            return p
        if c < 0:
            return tuple(-x for x in p)
    return p


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _planar_count(offsets):
    """(least mass, integer witness w) over closed halfplanes {<l, w> >= 0}.

    offsets are [(l, weight), ...] with l a nonzero integer vector and
    an integer weight.  A line through 0 and an offset splits the others
    into two open sides and two rays on the line; the least sum of the
    lighter side and the lighter ray is the mass, and <l, w> != 0 for
    every offset l.  No offsets give (0, (0, 0)).
    """
    if not offsets:
        return 0, (0, 0)
    lines = {_canonical_line(u) for u, _ in offsets}
    best = None
    for u in lines:
        ux, uy = u
        s_left = s_right = b_plus = b_minus = 0
        for (lx, ly), w in offsets:
            cr = ux * ly - uy * lx
            if cr > 0:
                s_left += w
            elif cr < 0:
                s_right += w
            elif ux * lx + uy * ly > 0:
                b_plus += w
            else:
                b_minus += w
        val = min(s_left, s_right) + min(b_plus, b_minus)
        if best is None or val < best[0]:
            best = (val, u, s_left <= s_right, b_plus <= b_minus)
    val, u, left_side, plus_side = best
    ux, uy = u
    # witness = K * (side normal) + sigma * u; K dominates every nonzero
    # cross product (integers, so |cross| >= 1) and sigma settles atoms on
    # the line itself
    k_big = 1 + max(abs(ux * lx + uy * ly) for (lx, ly), _ in offsets)
    v0 = (-uy, ux) if left_side else (uy, -ux)
    sigma = 1 if plus_side else -1
    return val, (k_big * v0[0] + sigma * ux, k_big * v0[1] + sigma * uy)


def _halfspace_count(offsets, d):
    """(least mass, integer witness w) over closed halfspaces {<l, w> >= 0}
    of R^d: _planar_count at d = 2, and by projection otherwise
    (Rousseeuw & Struyf 1998).

    Each open cell of the arrangement of the hyperplanes l-perp has a
    facet on some u-perp, and the two cells beside it differ only in the
    offsets parallel to u.  So per offset line u, the lighter of the rays
    +-u plus the count one dimension down of the rest, projected onto the
    integer basis b_j = u_k e_j - u_j e_k (j != k) of u-perp, with k the
    axis of the largest |u_k|, is a candidate.  M (sum_j s_j b_j) + tau u,
    with s the witness one dimension down and M above every |<l, u>|,
    keeps the sign of each projected offset and puts the lighter ray on
    tau's side.  At d = 1 the basis is empty and the lighter ray is all
    that is left.  No offsets give (0, (0, ..., 0)).
    """
    if d == 2:
        return _planar_count(offsets)
    if not offsets:
        return 0, (0,) * d
    best = None
    for u in {_canonical_line(l) for l, _ in offsets}:
        k = max(range(d), key=lambda i: abs(u[i]))
        uk = u[k]
        others = [(j, u[j]) for j in range(d) if j != k]
        plus = minus = 0
        projected = []
        for l, w in offsets:
            lk = l[k]
            p = tuple(uk * l[j] - uj * lk for j, uj in others)
            if any(p):
                projected.append((p, w))
            elif _dot(l, u) > 0:
                plus += w
            else:
                minus += w
        val, s = _halfspace_count(projected, d - 1)
        val += min(plus, minus)
        if best is None or val < best[0]:
            best = (val, u, k, others, s, 1 if plus <= minus else -1)
    val, u, k, others, s, tau = best
    lifted = [0] * d
    for (j, uj), sj in zip(others, s):
        lifted[j] = u[k] * sj
        lifted[k] -= uj * sj
    m_big = 1 + max(abs(_dot(l, u)) for l, _ in offsets)
    return val, tuple(m_big * c + tau * uc for c, uc in zip(lifted, u))


def tukey_depth(cloud, x):
    """Exact infimum mass over closed half-spaces containing x.

    Every dimension runs one halfspace count (_halfspace_count), which
    projects offset lines away down to the planar count.  The witness
    direction achieves the reported value exactly:
    halfspace_mass(cloud, witness, <x, witness>) equals DepthValue.value.
    It is None only when every atom sits at x.
    """
    x = tuple(_as_fraction(c) for c in x)
    if len(x) != cloud.dim:
        raise DomainError("point dimension mismatch")
    at_x, offsets, d_den = _int_offsets(cloud, x)
    if not offsets:
        return DepthValue(Fraction(1), None)
    val, witness = _halfspace_count(offsets, cloud.dim)
    return DepthValue(Fraction(at_x + val, d_den), tuple(map(Fraction, witness)))


def _angle_key(v):
    """A float that never decreases as the angle of v from (1, 0) grows.

    v is rotated out of its quadrant q as (a, b) with a > 0 and b >= 0,
    and the key is q + b / (a + b).  Integer quotients and float sums are
    correctly rounded, so only equal keys need the exact check of
    _angle_sorted.
    """
    x, y = v
    if x > 0 and y >= 0:
        return y / (x + y)
    if y > 0:
        return 1 + -x / (y - x)
    if x < 0:
        return 2 + y / (x + y)
    return 3 + x / (x - y)


def _angle_sorted(dirs):
    """Distinct nonzero integer vectors in exact angular order from (1, 0)."""
    keyed = sorted(zip(map(_angle_key, dirs), dirs))
    keys = [k for k, _ in keyed]
    out = [v for _, v in keyed]
    if len(set(keys)) < len(keys):
        # equal keys span a tiny angle, where the cross product decides
        ccw = cmp_to_key(lambda a, b: b[0] * a[1] - b[1] * a[0])
        lo = 0
        for hi in range(1, len(keys) + 1):
            if hi == len(keys) or keys[hi] != keys[lo]:
                out[lo:hi] = sorted(out[lo:hi], key=ccw)
                lo = hi
    return out


class _DirectionTable:
    """Angular sweep of one planar cloud, built and dropped by each query.

    A cloud on the line is swept as its atoms (x, 0) on the x axis.

    The directions are the normals to atom differences (both
    orientations) and the four axes, sorted once by exact angle from
    (1, 0).  The atoms on each line through two of them are grouped in
    one pass over the pairs, under the line's normal on the upper half
    circle [0, pi): y > 0, or (1, 0) when the atoms share an x.  The
    directions on the lower half read the same groups under their
    negation.  Between consecutive directions the order of the distinct
    atoms by projection is constant.  At a direction, the atoms on one
    line normal to it form a contiguous block of that order, and passing
    the direction reverses the block.  The sweep records each reversed
    block with its new atoms and prefix weights.  Most blocks hold two
    atoms, on a line through no third one: the sweep swaps their adjacent
    ranks in place and recomputes one prefix weight.  The levels are the
    prefix weights of every order it passes through: two consecutive
    directions are never parallel, so each rank of an order ends a tie
    group at one of the two directions around it, where its prefix
    weight is a cumulative weight of the projections.

    At level tau the threshold line of a direction passes through the
    atom at the threshold rank j, the first rank whose prefix weight
    reaches tau.  A query follows j alone: j and its atom change only
    inside a reversed block.  Consecutive directions that share the atom
    form a run; runs break at the axes, so their normals span at most
    pi / 2, and every middle halfplane of a run is a nonnegative
    combination of its two ends.  Only run ends are emitted.

    heaviest is the largest merged atom weight (over weight_den), which
    caps the level search.
    """

    def __init__(self, cloud):
        if cloud.dim > 2:
            raise DomainError("direction table requires a cloud on the line or in the plane")
        self.coord_scale, ipts = cloud.int_points
        if cloud.dim == 1:
            ipts = [(x, 0) for (x,) in ipts]
        self.weight_den, ws = cloud.int_weights
        xs = [p[0] for p in ipts]
        ys = [p[1] for p in ipts]
        self.bounds = (min(xs), min(ys), max(xs), max(ys))
        mass = {}
        for pt, w in zip(ipts, ws):
            mass[pt] = mass.get(pt, 0) + w
        # atoms are numbered by their rank in the order just after (1, 0):
        # descending x, then descending y
        self._points = pts = sorted(mass, reverse=True)
        weights = [mass[p] for p in pts]
        self.heaviest = max(weights)
        # atoms on one line, keyed by its normal on the upper half circle and
        # its offset: a later atom never has a larger x, so the normal
        # (by - ay, ax - bx) has y >= 0, and y == 0 means (1, 0).  The first
        # pair met on a line holds its first atom i, which pairs with every
        # other atom on it, so only i's pairs append.  The blocks keep these
        # ints: take them from one list, not from a range per i
        index = list(range(len(pts)))
        lines = {}
        for i, (ax, ay) in zip(index, pts):
            for j in index[i + 1:]:
                bx, by = pts[j]
                ny = ax - bx
                if ny:
                    nx = by - ay
                    g = math.gcd(nx, ny)
                    nx //= g
                    ny //= g
                else:
                    nx = 1
                key = (nx, ny, nx * ax + ny * ay)
                atoms = lines.get(key)
                if atoms is None:
                    lines[key] = [i, j]
                elif atoms[0] == i:
                    atoms.append(j)
        ties = {}
        for (nx, ny, _), atoms in lines.items():
            ties.setdefault((nx, ny), []).append(atoms)
        del lines  # read no more: dropping it lowers the build's peak memory
        self.directions = _angle_sorted(
            ties.keys() | {(-nx, -ny) for nx, ny in ties} | {(1, 0), (0, 1), (-1, 0), (0, -1)}
        )
        # the axes after (1, 0), then a sentinel past the last direction
        self._axes = tuple(
            self.directions.index(a) for a in ((0, 1), (-1, 0), (0, -1))
        ) + (len(self.directions),)
        order = list(range(len(pts)))
        pos = list(range(len(pts)))
        prefix = list(accumulate(weights))
        self._initial_prefix = tuple(prefix)
        levels = set(prefix)
        # per rank: the directions whose reversed block covers it, and those
        # blocks as (start, new atoms, new prefix weights)
        self._events = events = [[] for _ in pts]
        self._blocks = blocks = [[] for _ in pts]
        # the sweep starts just after (1, 0), so index 0 is not replayed.  A
        # line ties its atoms at both orientations of its normal, and the
        # directions from (-1, 0) on find their lines under their negation
        lower = self._axes[1]
        for d, v in enumerate(self.directions[1:], 1):
            for atoms in ties.get(v if d < lower else (-v[0], -v[1]), ()):
                if len(atoms) == 2:
                    # two atoms swap adjacent ranks s and t = s + 1, so only
                    # prefix[s] changes: prefix[t] still sums the same atoms
                    a, b = atoms
                    s, t = pos[a], pos[b]
                    if s > t:
                        s, t, a, b = t, s, b, a
                    if t != s + 1:
                        raise InternalConsistencyError("tied atoms are not contiguous")
                    order[s], order[t] = b, a
                    pos[a], pos[b] = t, s
                    p = prefix[s] = (prefix[s - 1] if s else 0) + weights[b]
                    levels.add(p)
                    block = (s, (b, a), (p, prefix[t]))
                    for r in (s, t):
                        events[r].append(d)
                        blocks[r].append(block)
                    continue
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
        self.levels = sorted(levels)

    def halfplanes(self, tau, scale):
        """Integer (vx, vy, c) with vx*x + vy*y <= c / scale, or None.

        The run ends of the sweep, in angular order; None means tau
        exceeds the total mass (an empty region).  scale must be a
        multiple of coord_scale.
        """
        # smallest integer target with prefix weight >= tau * weight_den
        target = -((-tau.numerator * self.weight_den) // tau.denominator)
        prefix = self._initial_prefix
        if prefix[-1] < target:
            return None
        m = scale // self.coord_scale
        dirs, pts, axes = self.directions, self._points, self._axes
        events_at, blocks_at = self._events, self._blocks
        n_dirs = len(dirs)
        out = []

        def emit(d, a):
            (vx, vy), (px, py) = dirs[d], pts[a]
            out.append((vx, vy, (vx * px + vy * py) * m))

        atom = j = bisect_left(prefix, target)
        emit(0, atom)
        d = ai = 0
        while True:
            events = events_at[j]
            i = bisect_right(events, d)
            d = min(events[i] if i < len(events) else n_dirs, axes[ai])
            if d == n_dirs:
                return out
            at_axis = d == axes[ai]
            ai += at_axis
            nxt = atom
            if i < len(events) and events[i] == d:
                s, seg, pre = blocks_at[j][i]
                j = s + bisect_left(pre, target)
                nxt = seg[j - s]
            # a run ends at an axis and where the threshold atom changes;
            # the threshold line there passes through both atoms
            if at_axis or nxt != atom:
                emit(d, atom)
            atom = nxt

    def start_box(self, scale):
        """(lo_x, lo_y, hi_x, hi_y) over scale: the atoms' box grown by 1."""
        m = scale // self.coord_scale
        lo_x, lo_y, hi_x, hi_y = self.bounds
        return (lo_x * m - scale, lo_y * m - scale, hi_x * m + scale, hi_y * m + scale)


def _clip_homogeneous(loop, planes):
    """Sutherland-Hodgman clip of a convex loop in homogeneous integers.

    A vertex is (X, Y, W, a, b, c): the point (X/W, Y/W) with W > 0 and
    the line a*x + b*y = c through it and the next vertex.  Every vertex
    is the meet of two input lines, so coefficients never grow.
    """
    for a, b, c in planes:
        sides = [a * x + b * y - c * w for x, y, w, _, _, _ in loop]
        if max(sides) <= 0:
            continue
        if min(sides) > 0:
            return ()
        out = []
        n = len(loop)
        for i, (p, sp) in enumerate(zip(loop, sides)):
            sq = sides[i + 1 - n]
            if sp < 0:
                out.append(p)
                if sq > 0:
                    out.append(_meet(p, a, b, c) + (a, b, c))
            elif sp == 0:
                # the next kept vertex lies on the clipping line
                out.append(p if sq <= 0 else p[:3] + (a, b, c))
            elif sq < 0:
                out.append(_meet(p, a, b, c) + p[3:])
        loop = out
    return loop


def _meet(p, a, b, c):
    """Homogeneous meet (W > 0) of p's edge line with a*x + b*y = c."""
    e, f, g = p[3:]
    x, y, w = g * b - f * c, e * c - g * a, e * b - f * a
    return (x, y, w) if w > 0 else (-x, -y, -w)


def _region_vertices(tables, tau):
    """Intersection of the superlevel regions at tau of the clouds whose
    direction tables these are, by one clip.

    The axis halfplanes keep every region inside its atoms' bounding box,
    so the first table's start box contains the intersection.  All lines
    are rescaled to the common scale of the clouds' coordinates and
    clipped in exact integers; vertices become Fractions only here.  The
    result is the clip's ordered convex loop, () when empty; it may
    repeat a vertex or keep collinear ones, so only DepthRegion puts it
    in canonical form.
    """
    tau = _as_fraction(tau)
    scale = math.lcm(*(t.coord_scale for t in tables))
    planes = []
    for table in tables:
        hp = table.halfplanes(tau, scale)
        if hp is None:
            return ()
        planes.extend(hp)
    lo_x, lo_y, hi_x, hi_y = tables[0].start_box(scale)
    box = (
        (lo_x, lo_y, 1, 0, -1, -lo_y),
        (hi_x, lo_y, 1, 1, 0, hi_x),
        (hi_x, hi_y, 1, 0, 1, hi_y),
        (lo_x, hi_y, 1, -1, 0, -lo_x),
    )
    return tuple(
        (Fraction(x, w * scale), Fraction(y, w * scale))
        for x, y, w, _, _, _ in _clip_homogeneous(box, planes)
    )


def depth_region(cloud, tau):
    """Exact convex region {x : tukey_depth(cloud, x) >= tau} in the plane."""
    if cloud.dim != 2:
        raise DomainError("depth_region requires a planar cloud")
    tau = _as_fraction(tau)
    if not 0 < tau <= 1:
        raise DomainError("tau must lie in (0, 1]")
    return DepthRegion(_region_vertices([_DirectionTable(cloud)], tau), tau=tau)


def _deepest_common_region(tables, floor=None):
    """(largest level whose regions all meet, their intersection there).

    The regions are those of the clouds whose direction tables these
    are.  Binary search over the union of the tables' levels, as integers
    over the lcm of their weight denominators; nonemptiness is monotone in
    the level, so the probe order does not change the answer.  Three
    bounds keep it off levels whose answer is known or not wanted:

    - Cap.  No point is deeper than (1 + m) / 2 in a cloud whose heaviest
      atom has mass m: a line through the point that meets no other atom
      bounds two closed halfplanes of total mass at most 1 + m.  So no
      level above the least cap of the tables meets, and the first probe
      is the highest level at or below it.
    - Rado.  For one table, by Rado's centerpoint theorem some point has
      depth at least 1/3; the depth of the measure is a level, so the
      first level at or above 1/3 meets.  The search starts just below it
      and never probes lower; as mid rounds up, it still probes that
      level whenever every level above it fails.
    - Floor.  A caller that only needs to know whether the regions meet
      above a given level passes it as floor.  The first probe is then
      the lowest level above the floor that the other two bounds leave
      open; if it fails, no higher level meets and the search ends
      there.  If it meets, the search goes on as without a floor, cap
      first, and never probes at or below the floor.  With no such
      level it builds no region at all.

    The intersection is the raw loop of _region_vertices: the search
    compares levels only, and a caller that reports the region wraps it
    in a DepthRegion.  (0, ()) when the regions meet at no level (above
    the floor, if one is given); for one table, a failing Rado level
    raises InternalConsistencyError.
    """
    # every level is an integer lv over den, so the bounds are too: lv / den
    # is at least 1/3 when lv >= ceil(den / 3), at most the cap when
    # lv <= floor(cap * den), and above the floor when lv > floor(floor * den)
    den = math.lcm(*(t.weight_den for t in tables))
    levels = sorted({lv * (den // t.weight_den) for t in tables for lv in t.levels})
    cap = min((t.weight_den + t.heaviest) * (den // t.weight_den) // 2 for t in tables)
    # levels[lo] meets or is not probed (lo == start); levels[hi] fails or
    # lies above the cap.  No level at or below levels[start] is probed
    rado = bisect_left(levels, -(-den // 3)) - 1 if len(tables) == 1 else -1
    floored = -1 if floor is None else bisect_right(levels, math.floor(floor * den)) - 1
    lo = start = max(rado, floored)
    hi = bisect_right(levels, cap)
    best = ()
    # the floor's probe, then the cap's; then mid rounds up, so it probes
    # levels[start + 1] only when every level above it failed
    firsts = iter(([lo + 1] if floor is not None else []) + [hi - 1])
    while hi - lo > 1:
        mid = next(firsts, (lo + hi + 1) // 2)
        loop = _region_vertices(tables, Fraction(levels[mid], den))
        if loop:
            lo, best = mid, loop
        else:
            hi = mid
    if lo > start:
        return Fraction(levels[lo], den), best
    if len(tables) > 1 or start > rado:
        return Fraction(0), ()
    raise InternalConsistencyError("no level at or above 1/3 meets, against Rado's theorem")


def depth_of_measure(cloud):
    """(max point depth, a maximizing point), exact; dim 1 and 2 only."""
    if cloud.dim > 2:
        raise DomainError("exact depth of a measure is only available in dimensions 1 and 2")
    level, loop = _deepest_common_region([_DirectionTable(cloud)])
    return DepthValue(level, None), polygon.centroid(loop)[:cloud.dim]


def _mean(cloud):
    """Exact mean of a cloud or of its integer images, from the integer forms."""
    (scale, pts), (den, ws) = cloud.int_points, cloud.int_weights
    return tuple(Fraction(sum(map(operator.mul, c, ws)), scale * den) for c in zip(*pts))


def _ascent(clouds, start):
    """Random ascent of the least depth over the clouds, from seed 0: the
    witness of the transversal objective for n >= 3 only.

    Each step tries a Gaussian move of the current radius, snapped to
    rationals of bounded denominator, and keeps it only if the least exact
    depth strictly rises; a rejected move shrinks the radius.  Returns
    (point, the minimising DepthValue there).
    """
    import numpy as np

    def least(x):
        return min((tukey_depth(c, x) for c in clouds), key=lambda d: d.value)

    x = list(start)
    cur = least(x)
    radius = _ASCENT_RADIUS
    rng = np.random.default_rng(0)
    for _ in range(_ASCENT_STEPS):
        delta = rng.standard_normal(len(x))
        cand = [
            xi + Fraction(float(d * radius)).limit_denominator(_ASCENT_DENOMINATOR)
            for xi, d in zip(x, delta)
        ]
        val = least(cand)
        if val.value > cur.value:
            x, cur = cand, val
        else:
            radius *= _ASCENT_SHRINK
    return tuple(x), cur


_Images = namedtuple("_Images", "dim int_points int_weights")


def _images(cloud, frame):
    """The cloud's atoms pushed onto the frame's coordinates, in integers.

    Each image is the tuple of integer dot products of the frame's
    ``int_rows`` (its rows quantized at 12 decimal digits when the frame
    was built, over ``row_scale``) with the cloud's ``int_points``, so
    every coordinate is that integer over ``row_scale * coord_scale``.
    Coincident images merge with summed integer weights, over the cloud's
    ``int_weights`` denominator, and come out sorted.  The result carries
    the ``dim``, ``int_points`` and ``int_weights`` that _DirectionTable,
    tukey_depth and _mean read, so ``transversal`` builds no cloud.
    """
    if frame.ambient != cloud.dim:
        raise DomainError(
            "frame ambient %d does not match cloud dim %d" % (frame.ambient, cloud.dim)
        )
    row_scale, irows = frame.int_rows
    coord_scale, ipts = cloud.int_points
    weight_den, ws = cloud.int_weights
    merged = {}
    for p, w in zip(ipts, ws):
        y = tuple(sum(map(operator.mul, row, p)) for row in irows)
        merged[y] = merged[y] + w if y in merged else w
    # one positive denominator, so the integer order is the rational order
    ys = sorted(merged)
    return _Images(frame.n, (row_scale * coord_scale, ys), (weight_den, [merged[y] for y in ys]))


def marginal(cloud, frame):
    """Pushforward of the cloud onto the frame's coordinate system: the
    integer images of _images over their denominators, as a cloud."""
    images = _images(cloud, frame)
    (den, ys), (weight_den, ws) = images.int_points, images.int_weights
    return WeightedPointCloud(images.dim, [
        (tuple(Fraction(v, den) for v in y), Fraction(w, weight_den)) for y, w in zip(ys, ws)
    ])
