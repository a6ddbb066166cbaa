"""Weighted atomic measures and orthonormal frames.

A cloud is a finite list of atoms with exact positive rational weights
summing to one.  All depth computations downstream are exact, which
relies on the invariants enforced here.  Frames carry real-valued rows;
they are quantized to rationals (12 decimal digits) when a frame is
built, so numerically produced subspaces still feed exact arithmetic.
Frame floats (the Gram check and projector here, the orthonormalization
and moves of ``transversal``) are plain Python in a fixed order, each sum
rounded once by ``dot``: the same rows give the same bits on every CPU.
"""

import math
import operator
from fractions import Fraction

from .errors import DomainError
from .serialize import float_rows, frac_str, json_field, parse_frac

FRAME_QUANTIZE_DIGITS = 12


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return parse_frac(x)  # refuses booleans
    try:
        return Fraction(x)
    except (ValueError, OverflowError, TypeError) as exc:
        raise DomainError("%r is not a finite number" % (x,)) from exc


def _over_lcm(rows):
    """(c, rows of the integers x * c), c the lcm of the denominators."""
    c = math.lcm(*(x.denominator for row in rows for x in row))
    return c, tuple(tuple(x.numerator * (c // x.denominator) for x in row) for row in rows)


class WeightedPointCloud:
    """Atomic probability measure with exact rational data.

    Immutable after construction.  ``__init__`` makes the integer forms the
    exact routines use: ``int_weights`` = (D, weights * D), ``int_points`` =
    (C, points * C), D and C the lcms of their denominators.  No routine
    stores anything on a cloud afterwards.
    """

    def __init__(self, dim, atoms):
        dim = int(dim)
        if dim < 1:
            raise DomainError("dim must be >= 1")
        packed = []
        for point, weight in atoms:
            p = tuple(_as_fraction(c) for c in point)
            w = _as_fraction(weight)
            if len(p) != dim:
                raise DomainError("atom %r has dimension %d, expected %d" % (p, len(p), dim))
            if w <= 0:
                raise DomainError("weights must be positive, got %s" % (w,))
            packed.append((p, w))
        if not packed:
            raise DomainError("cloud needs at least one atom")
        total = sum(w for _, w in packed)
        if total != 1:
            raise DomainError("weights must sum to 1 exactly, got %s" % (total,))
        self.dim = dim
        self.atoms = tuple(packed)
        d, (ws,) = _over_lcm([self.weights()])
        self.int_weights = (d, ws)
        self.int_points = _over_lcm(self.points())

    def __len__(self):
        return len(self.atoms)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedPointCloud)
            and self.dim == other.dim
            and self.atoms == other.atoms
        )

    def __repr__(self):
        return "WeightedPointCloud(dim=%d, atoms=%d)" % (self.dim, len(self.atoms))

    def points(self):
        return [p for p, _ in self.atoms]

    def weights(self):
        return [w for _, w in self.atoms]

    def to_dict(self):
        return {
            "dim": self.dim,
            "atoms": [
                {"x": [frac_str(c) for c in p], "w": frac_str(w)}
                for p, w in self.atoms
            ],
        }

    @classmethod
    def from_dict(cls, data):
        dim = json_field(data, "dim", "cloud data")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise DomainError("malformed cloud data: dim %r is not an integer" % (dim,))
        atoms = json_field(data, "atoms", "cloud data")
        if not isinstance(atoms, list):
            raise DomainError("malformed cloud data: atoms %r are not a list" % (atoms,))
        points = [json_field(atom, "x", "atom") for atom in atoms]
        if not all(isinstance(x, list) for x in points):
            raise DomainError("malformed cloud data: atom coordinates must be lists")
        weights = [parse_frac(json_field(atom, "w", "atom")) for atom in atoms]
        return cls(dim, [(tuple(map(parse_frac, x)), w) for x, w in zip(points, weights)])

    def to_tsv(self):
        header = "\t".join(["x%d" % (i + 1) for i in range(self.dim)] + ["weight"])
        lines = [header]
        for p, w in self.atoms:
            lines.append("\t".join([frac_str(c) for c in p] + [frac_str(w)]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text):
        """Parse the tabular format; decimal entries convert exactly."""
        rows = [line.split("\t") for line in text.strip().splitlines()]
        if len(rows) < 2:
            raise DomainError("tabular cloud needs a header and at least one atom")
        header = rows[0]
        if header[-1] != "weight" or len(header) < 2:
            raise DomainError("tabular header must be x1..xd,weight")
        dim = len(header) - 1
        atoms = []
        for row in rows[1:]:
            if len(row) != dim + 1:
                raise DomainError("tabular row %r has wrong arity" % (row,))
            atoms.append((tuple(map(parse_frac, row[:dim])), parse_frac(row[dim])))
        return cls(dim, atoms)


def apply_affine(cloud, matrix, shift=None):
    """New cloud with atoms p -> M p + b (exact rational arithmetic)."""
    d = cloud.dim
    rows = [[_as_fraction(x) for x in row] for row in matrix]
    out_dim = len(rows)
    b = [Fraction(0)] * out_dim if shift is None else [_as_fraction(x) for x in shift]
    atoms = []
    for p, w in cloud.atoms:
        q = tuple(sum(rows[i][j] * p[j] for j in range(d)) + b[i] for i in range(out_dim))
        atoms.append((q, w))
    return WeightedPointCloud(out_dim, atoms)


def dot(a, b):
    """Sum of the products a[i] * b[i], rounded once (``math.fsum``)."""
    return math.fsum(map(operator.mul, a, b))


def quantize_entry(value):
    """Exact rational for a frame entry; floats round at 10^-12."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    scale = 10 ** FRAME_QUANTIZE_DIGITS
    return Fraction(round(float(value) * scale), scale)


class OrthoFrame:
    """n orthonormal rows spanning an n-dimensional subspace of R^N.

    ``int_rows`` = (R, rows * R) holds the rows quantized by
    ``quantize_entry``, R the lcm of their denominators.
    """

    def __init__(self, rows, tolerance=1e-9):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise DomainError("frame needs at least one row")
        ambient = len(rows[0])
        if any(len(r) != ambient for r in rows):
            raise DomainError("frame rows must share one length")
        if len(rows) > ambient:
            raise DomainError("more rows than ambient dimension")
        tolerance = float(tolerance)
        # a NaN or infinite tolerance would pass any Gram defect
        if not math.isfinite(tolerance) or tolerance < 0:
            raise DomainError("tolerance must be finite and >= 0, got %r" % (tolerance,))
        g = [[float(x) for x in r] for r in rows]
        if not all(math.isfinite(x) for r in g for x in r):
            raise DomainError("frame rows must be finite numbers")
        try:
            defect = max(abs(dot(a, b) - (i == j))
                         for i, a in enumerate(g) for j, b in enumerate(g))
        except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
            defect = math.inf
        if defect > max(tolerance, 1e-15):
            raise DomainError(
                "rows are not orthonormal: Gram defect %.3e > tolerance %.3e"
                % (defect, tolerance)
            )
        self.rows = rows
        self.ambient = ambient
        self.tolerance = tolerance
        self.int_rows = _over_lcm([[quantize_entry(x) for x in r] for r in rows])

    @property
    def n(self):
        return len(self.rows)

    def projector(self):
        """Basis-free N x N projector onto the subspace, as lists of floats."""
        cols = list(zip(*([float(x) for x in r] for r in self.rows)))
        return [[dot(a, b) for b in cols] for a in cols]

    def to_dict(self):
        return {
            "ambient": self.ambient,
            "rows": [[float(x) for x in r] for r in self.rows],
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_dict(cls, data):
        rows = float_rows(json_field(data, "rows", "frame"), "frame rows")
        tolerance = data.get("tolerance", 1e-9)
        try:
            # float() would read a boolean as 0 or 1
            if isinstance(tolerance, bool):
                raise TypeError
            tolerance = float(tolerance)
        except (TypeError, ValueError):
            raise DomainError("frame tolerance %r is not a number" % (tolerance,)) from None
        return cls(rows, tolerance=tolerance)
