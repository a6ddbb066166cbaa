"""Mod-2 Schubert calculus on real Grassmannians G_n(R^N).

Cohomology classes are finite F2-sums of Schubert cocycles
(a_1 <= ... <= a_n) constrained to the n x (N-n) box.  The two special
multiplications implemented are the horizontal-strip rule (product with
the dual class wbar_j) and the vertical-strip rule (product with the
Stiefel-Whitney class w_i); everything else is built from them.
All values are exact, so class equality and (non)vanishing are decidable.
"""

from dataclasses import dataclass
from itertools import combinations

from .bounds import is_power_of_two, min_dimension  # noqa: F401 (min_dimension re-exported)
from .errors import DomainError

W = "w"
WBAR = "wbar"


@dataclass(frozen=True)
class GrassmannContext:
    """Ambient ring data: subspace dimension n and codimension N - n."""

    n: int
    codim: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1, got %r" % (self.n,))
        if self.codim < 0:
            raise DomainError("codim must be >= 0, got %r" % (self.codim,))

    @property
    def ambient(self):
        return self.n + self.codim

    def check_cocycle(self, a):
        a = tuple(int(x) for x in a)
        if not (
            len(a) == self.n
            and all(0 <= x <= self.codim for x in a)
            and all(a[i] <= a[i + 1] for i in range(len(a) - 1))
        ):
            raise DomainError("invalid cocycle %r in %r" % (a, self))
        return a


@dataclass(frozen=True)
class Cochain:
    """An F2 linear combination of Schubert cocycles in one context.

    The support is a frozenset: a cocycle belongs to the class or it does
    not, and mod-2 cancellation is symmetric set difference.
    """

    context: GrassmannContext
    support: frozenset = frozenset()

    def __post_init__(self):
        support = frozenset(self.context.check_cocycle(a) for a in self.support)
        object.__setattr__(self, "support", support)

    def is_zero(self):
        return not self.support

    def degree(self):
        """Common degree of the support, or None if zero/mixed."""
        degs = {sum(a) for a in self.support}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_support(self):
        return sorted(self.support)

    def __add__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        if other.context != self.context:
            raise DomainError("cannot add cochains from different contexts")
        return Cochain(self.context, self.support ^ other.support)

    def __repr__(self):
        if self.is_zero():
            return "Cochain(%r, 0)" % (self.context,)
        body = " + ".join(str(a) for a in self.sorted_support())
        return "Cochain(%r, %s)" % (self.context, body)


def unit(context):
    return Cochain(context, [(0,) * context.n])


def zero(context):
    return Cochain(context)


def special_class(context, i, variant=W):
    """The distinguished single-cocycle classes.

    variant "w":    w_i    = (0,...,0,1,...,1) with i trailing ones,
    variant "wbar": wbar_j = (0,...,0,j).

    Index 0 gives the unit either way.  A "w" class whose displayed
    cocycle leaves the box (codim = 0, i >= 1) is the zero class; an
    out-of-range index is a domain error.  Each is the unit times w_i or
    wbar_j by the Pieri rules.
    """
    if variant == W:
        return pieri_dual(unit(context), i)
    if variant == WBAR:
        return pieri_special(unit(context), i)
    raise DomainError("unknown special class variant %r" % (variant,))


def _horizontal_strips(a, j, codim):
    """All b with a_i <= b_i <= a_{i+1} (a_{n+1}=codim) and sum(b)=j+sum(a).

    Bounded DFS with pruning on the remaining degree budget.
    """
    n = len(a)
    upper = list(a[1:]) + [codim]
    # suffix sums of the per-slot lower/upper bounds, for pruning
    lo_suffix = [0] * (n + 1)
    hi_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        lo_suffix[i] = lo_suffix[i + 1] + a[i]
        hi_suffix[i] = hi_suffix[i + 1] + upper[i]
    target = sum(a) + j
    out = []
    b = [0] * n

    def rec(i, remaining):
        if i == n:
            if remaining == 0:
                out.append(tuple(b))
            return
        lo = max(a[i], remaining - hi_suffix[i + 1])
        hi = min(upper[i], remaining - lo_suffix[i + 1])
        for v in range(lo, hi + 1):
            b[i] = v
            rec(i + 1, remaining - v)

    rec(0, target)
    return out


def pieri_special(c, j):
    """Multiply by wbar_j via the horizontal-strip rule."""
    j = int(j)
    ctx = c.context
    if not 0 <= j <= ctx.codim:
        raise DomainError("wbar index %d outside [0, %d]" % (j, ctx.codim))
    if j == 0:
        return c
    acc = set()
    for a in c.support:
        for b in _horizontal_strips(a, j, ctx.codim):
            acc.symmetric_difference_update((b,))
    return Cochain(ctx, acc)


def pieri_dual(c, i):
    """Multiply by w_i via the vertical-strip rule.

    For each support cocycle a, sum (mod 2) every b = a + delta with
    delta in {0,1}^n, sum(delta) = i, b nondecreasing, b_n <= codim.
    """
    i = int(i)
    ctx = c.context
    if not 0 <= i <= ctx.n:
        raise DomainError("w index %d outside [0, %d]" % (i, ctx.n))
    if i == 0:
        return c
    acc = set()
    for a in c.support:
        for pos in combinations(range(ctx.n), i):
            b = list(a)
            for p in pos:
                b[p] += 1
            if b[-1] > ctx.codim:
                continue
            if any(b[k] > b[k + 1] for k in range(ctx.n - 1)):
                continue
            acc.symmetric_difference_update((tuple(b),))
    return Cochain(ctx, acc)


def wn_power(context, k):
    """w_n^k = (k,...,k) inside the box, the zero class beyond it."""
    k = int(k)
    if k < 0:
        raise DomainError("power must be >= 0, got %d" % k)
    if k > context.codim:
        return zero(context)
    return Cochain(context, [(k,) * context.n])


def monomial(context, exponents):
    """Product of w_i^{e_i}, i = 1..n, by iterated vertical-strip steps."""
    exponents = [int(e) for e in exponents]
    if len(exponents) != context.n:
        raise DomainError(
            "expected %d exponents, got %d" % (context.n, len(exponents))
        )
    if any(e < 0 for e in exponents):
        raise DomainError("exponents must be >= 0")
    c = unit(context)
    for i, e in enumerate(exponents, start=1):
        for _ in range(e):
            c = pieri_dual(c, i)
            if c.is_zero():
                return c
    return c


def height_w1(context):
    """Largest k with w_1^k != 0, by iterating the vertical-strip rule."""
    c = unit(context)
    k = 0
    while True:
        nxt = pieri_dual(c, 1)
        if nxt.is_zero():
            return k
        c = nxt
        k += 1


def obstruction_main(m, n):
    """Nonvanishing of w_1^m w_n^{2m-1} in G_n(R^{3m+n-1}).

    Returns a report asserting that the monomial is a nonzero class and
    that its support contains the cocycle (2m-1,...,2m-1,3m-1), whose
    last entry fills the full codimension.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 2:
        raise DomainError("need m >= 1 and n >= 2")
    ctx = GrassmannContext(n, 3 * m - 1)
    exps = [0] * n
    exps[0] = m
    exps[n - 1] += 2 * m - 1
    cls = monomial(ctx, exps)
    target = (2 * m - 1,) * (n - 1) + (3 * m - 1,)
    report = {
        "check": "main-obstruction",
        "m": m,
        "n": n,
        "N": ctx.ambient,
        "codim": ctx.codim,
        "exponents": exps,
        "nonzero": not cls.is_zero(),
        "target_cocycle": list(target),
        "contains_target": target in cls.support,
        "support": [list(a) for a in cls.sorted_support()],
    }
    report["ok"] = report["nonzero"] and report["contains_target"]
    return report


def obstruction_power2free(m, n):
    """Nonvanishing of w_n powers in G_n(R^{2m+n-1}).

    Verifies w_n^{N-n} != 0 and reports on w_n^{N-n-m+1}, the power the
    covering argument actually restricts.  The n+1 power-of-two flag is
    informational; the computation runs regardless.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 2:
        raise DomainError("need m >= 1 and n >= 2")
    ctx = GrassmannContext(n, 2 * m - 1)
    full = wn_power(ctx, ctx.codim)
    restricted = wn_power(ctx, ctx.codim - m + 1)
    report = {
        "check": "power2free",
        "m": m,
        "n": n,
        "N": ctx.ambient,
        "codim": ctx.codim,
        "n_plus_1_power_of_two": is_power_of_two(n + 1),
        "wn_top_power_nonzero": not full.is_zero(),
        "wn_top_power_support": [list(a) for a in full.sorted_support()],
        "restricted_power": ctx.codim - m + 1,
        "wn_restricted_nonzero": not restricted.is_zero(),
    }
    report["ok"] = report["wn_top_power_nonzero"] and report["wn_restricted_nonzero"]
    return report


def whitney_defect(context, d):
    """Sum_{i+j=d} w_i wbar_j; the zero class when the ring is consistent."""
    acc = zero(context)
    for i in range(0, min(context.n, d) + 1):
        j = d - i
        if j < 0 or j > context.codim:
            continue
        acc = acc + pieri_special(special_class(context, i, W), j)
    return acc


def check_heights(context):
    """Report height(w_1) against its lower bound codim and, for n <= 2,
    its known value: N - 1 on G_1(R^N) = RP^{N-1}, and 2^s - 2 on
    G_2(R^N) with 2^{s-1} < N <= 2^s.
    """
    height = height_w1(context)
    report = {"check": "heights", "n": context.n, "codim": context.codim,
              "height_w1": height, "lower_bound": context.codim,
              "ok": height >= context.codim}
    if context.n <= 2:
        ambient = context.ambient
        report["expected"] = ambient - 1 if context.n == 1 else 2 ** (ambient - 1).bit_length() - 2
        report["ok"] = report["ok"] and height == report["expected"]
    return report


def check_whitney(context):
    """Report the degrees 1..N whose Whitney defect is a nonzero class."""
    failing = [d for d in range(1, context.ambient + 1)
               if not whitney_defect(context, d).is_zero()]
    return {"check": "whitney", "n": context.n, "codim": context.codim,
            "failing_degrees": failing, "ok": not failing}
