"""Exact-rational string formats and deterministic JSON emission.

Rationals cross every file and CLI boundary as "p/q" strings so no
precision is lost.  JSON output is canonicalized (sorted keys, fixed
indent, trailing newline) so identical inputs produce byte-identical
report files; every tab-separated table is written by ``tsv``.
"""

import json
import math
import re
from fractions import Fraction

from .errors import DomainError

# Python's limit on the digits of an integer read from text
LITERAL_DIGITS = 4300
_DIGIT_BOUND = 10 ** LITERAL_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def frac_str(x):
    """Canonical "p/q" string for a rational (q >= 1, reduced).

    A report holds only values that parse_frac reads back, so a numerator
    or denominator past LITERAL_DIGITS digits is refused here as well.
    """
    f = Fraction(x)
    if max(abs(f.numerator), f.denominator) >= _DIGIT_BOUND:
        raise DomainError("a report value has more than %d digits in its numerator or "
                          "denominator" % LITERAL_DIGITS)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_frac(s):
    """Parse "p/q", integer, or decimal text into an exact Fraction.

    Decimal strings convert exactly ("0.25" -> 1/4).  JSON booleans are
    not rationals, although Python counts them as integers.  No numerator
    or denominator in lowest terms may have more than LITERAL_DIGITS digits.
    """
    if isinstance(s, Fraction):
        return s
    if isinstance(s, bool):
        raise DomainError("bad rational literal %r" % (s,))
    if isinstance(s, int):
        return Fraction(s)
    text = str(s).strip()
    exponent = _EXPONENT.search(text)
    try:
        # Fraction("1e-1000000000") runs for more than 20 s.  Past this
        # exponent a nonzero value's numerator or denominator has more than
        # LITERAL_DIGITS digits, so only the rest of the text is parsed
        if exponent and abs(int(exponent[1])) > LITERAL_DIGITS + len(text):
            value = None if Fraction(text[:exponent.start()] + "e0") else Fraction(0)
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("bad rational literal %.60r" % (text,)) from exc
    if value is None or max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND:
        raise DomainError("rational literal %.60r has more than %d digits" % (text, LITERAL_DIGITS))
    return value


def json_field(data, key, what):
    """data[key] of a JSON object; bad input names the missing key."""
    if not isinstance(data, dict) or key not in data:
        raise DomainError("%s has no %r key" % (what, key))
    return data[key]


def float_list(vec):
    """Decimal rendering for real-valued vectors (15 significant digits)."""
    return [float("%.15g" % float(x)) for x in vec]


def float_rows(value, what):
    """Real-valued rows read from a file (frame rows, simplex vertices).

    JSON readers accept NaN and Infinity; no row may hold either, nor a
    boolean, which float() would read as 0 or 1.
    """
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise DomainError("%s must be a list of lists of numbers" % what)
    if any(isinstance(x, bool) for row in value for x in row):
        raise DomainError("%s must be a list of lists of numbers, not booleans" % what)
    try:
        rows = [[float(x) for x in row] for row in value]
    except (TypeError, ValueError) as exc:
        raise DomainError("%s must be a list of lists of numbers: %s" % (what, exc)) from exc
    if not all(math.isfinite(x) for row in rows for x in row):
        raise DomainError("%s must be finite numbers" % what)
    return rows


def tsv(header, rows):
    """Tab-separated text: the header line, then one line per row."""
    return "".join("\t".join(map(str, line)) + "\n" for line in (header, *rows))


def dump_json(obj):
    """Serialize deterministically: sorted keys, indent 2, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path):
    """The JSON object stored at path; every input file holds one.

    Besides malformed JSON, the decoder raises ValueError on bytes that
    are not UTF-8 and on integers past Python's digit limit, and
    RecursionError on deeply nested arrays: all of them are bad input.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DomainError("%s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise DomainError("%s must hold a JSON object, not %s" % (path, type(data).__name__))
    return data
