"""Exact-rational string formats and deterministic JSON emission.

Rationals cross every file and CLI boundary as "p/q" strings so no
precision is lost.  JSON output is canonicalized (sorted keys, fixed
indent, trailing newline) so identical inputs produce byte-identical
report files.
"""

import json
from fractions import Fraction

from .errors import DomainError


def frac_str(x):
    """Canonical "p/q" string for a rational (q >= 1, reduced)."""
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_frac(s, max_denominator=None):
    """Parse "p/q", integer, or decimal text into an exact Fraction.

    Decimal strings convert exactly ("0.25" -> 1/4).  If max_denominator
    is given the result is snapped to the closest rational with a
    denominator within that bound.
    """
    if isinstance(s, Fraction):
        f = s
    elif isinstance(s, int):
        f = Fraction(s)
    else:
        text = str(s).strip()
        if not text:
            raise DomainError("empty rational literal")
        try:
            f = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError("bad rational literal %r" % (s,)) from exc
    if max_denominator is not None:
        f = f.limit_denominator(max_denominator)
    return f


def float_list(vec, digits=15):
    """Decimal rendering for real-valued vectors (15 significant digits)."""
    return [float(("%." + str(digits) + "g") % float(x)) for x in vec]


def float_rows(value, what):
    """Real-valued rows read from a file (frame rows, simplex vertices)."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise DomainError("%s must be a list of lists of numbers" % what)
    try:
        return [[float(x) for x in row] for row in value]
    except (TypeError, ValueError) as exc:
        raise DomainError("%s must be a list of lists of numbers: %s" % (what, exc)) from exc


def dump_json(obj, path=None):
    """Serialize deterministically; return the text, optionally writing it."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError("%s is not valid JSON: %s" % (path, exc)) from exc
