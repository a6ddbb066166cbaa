"""Generated malformed input files exit 2 with one error line.

Each example writes one bad file for one input path: a cloud as JSON or
TSV (``--input``), a frame (``--frame``) or a vertex tuple
(``--vertices``).  It starts from a valid document of at most 8 atoms
and breaks it in one place: a wrong type, a missing key, a non-finite
entry, a boolean, a bad or oversized literal, a wrong arity, or a cut or
empty file.  ``cli.main`` runs in-process and must exit 2, print nothing
on stdout, and write exactly one stderr line that starts with
``error:``, with no traceback.  Generated draws favour the first entries
of each list of bad values, so a catalogue also puts every bad value
through every input path once.

Bad argument values get the same treatment: one option of an otherwise
valid command (``--point``, ``--region``, ``--target``, ``--n``, ``--m``,
``--codim``, the search parameters, the seeds and the ``gen`` options)
takes a value out of its range, drawn from that range's complement, or
one from a catalogue.  Values that argparse refuses itself (not a
number) exit 2 by ``SystemExit``, with argparse's usage line and one
``prog: error:`` line.
"""

import contextlib
import copy
import io
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centertrans.cli import main

MISSING = object()

NON_FINITE = [float("nan"), float("inf"), float("-inf"), "nan", "inf", "-Infinity"]
BAD_TEXT = ["", " ", "abc", "1/0", "1//2", "0x10", "1e", "--1", "1/", ".", "1 2", "True"]
# past the 4300-digit limit on a numerator or denominator, or on the digits
OVERSIZED = ["1e4300", "1e-4300", "1e-1000000000", "9e1000000000", "1" * 4301,
             "1/" + "1" * 4301, "0." + "0" * 4299 + "1"]
WRONG_TYPES = [None, {}, [], [1], {"a": 1}]

BAD_RATIONALS = NON_FINITE + BAD_TEXT + OVERSIZED + WRONG_TYPES + [True, False]
# text only: a tab or newline would change the tabular layout itself
BAD_RATIONAL_TEXT = [x for x in BAD_RATIONALS if isinstance(x, str)]
# float() reads "1" or 1 as a number; none of these is a finite number
BAD_FLOATS = [float("nan"), float("inf"), float("-inf"), True, False, None, "a", "", "nan",
              [], {}]

# float() would read a boolean as 0 or 1; a NaN or infinite tolerance
# passes any Gram defect
BAD_TOLERANCES = [True, False, float("nan"), float("inf"), -1, "x", None, []]

bad_rational = st.sampled_from(BAD_RATIONALS)
bad_rational_text = st.sampled_from(BAD_RATIONAL_TEXT)
bad_float = st.sampled_from(BAD_FLOATS)
not_an_object = st.sampled_from([[], [1], "x", 5, None])

TRIANGLE = {"dim": 2, "atoms": [{"x": x, "w": "1/3"} for x in (["0", "0"], ["1", "0"],
                                                              ["0", "1"])]}
FRAME = {"rows": [[1, 0], [0, 1]]}
VERTICES = {"vertices": [[1, 0], [0, 1], [-1, -1]]}


def edited(doc, path, value):
    """A copy of doc with the entry at path replaced, or deleted by MISSING."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def tsv_text(header, rows):
    return "\n".join("\t".join(row) for row in [header] + rows) + "\n"


def tsv_parts(doc):
    """The header and rows of a cloud document in the tabular format."""
    header = ["x%d" % (j + 1) for j in range(doc["dim"])] + ["weight"]
    return header, [a["x"] + [a["w"]] for a in doc["atoms"]]


@st.composite
def clouds(draw):
    dim = draw(st.integers(1, 2))
    k = draw(st.integers(1, 8))
    coordinate = st.integers(-9, 9).map(str)
    points = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                           min_size=k, max_size=k))
    raw = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    return {"dim": dim, "atoms": [{"x": p, "w": "%d/%d" % (w, sum(raw))}
                                  for p, w in zip(points, raw)]}


def cloud_edits(draw, doc):
    dim, atoms = doc["dim"], doc["atoms"]
    i = draw(st.integers(0, len(atoms) - 1))
    j = draw(st.integers(0, dim - 1))
    x, w = atoms[i]["x"], Fraction(atoms[i]["w"])
    wrong_sum = [str(w + 1), "0", "-1/2"]
    return [
        (("dim",), st.sampled_from([MISSING, None, "2", 2.5, 1.0, True, [2], 0, -1, dim + 1])),
        (("atoms",), st.sampled_from([MISSING, None, 5, "ab", {}, [], [5], [["0"]]])),
        (("atoms", i), st.sampled_from([None, 5, "x", ["0"]])),
        (("atoms", i, "x"), st.sampled_from([MISSING, None, 5, "12", {}, True, x[:-1],
                                             x + ["0"]])),
        (("atoms", i, "x", j), bad_rational),
        (("atoms", i, "w"), st.one_of(st.sampled_from([MISSING] + wrong_sum), bad_rational)),
    ]


@st.composite
def frames(draw):
    """A signed permutation of the plane's axes: valid for a planar cloud."""
    first, second = draw(st.permutations([[1, 0], [0, 1]]))
    sign = draw(st.sampled_from((1, -1)))
    doc = {"rows": [first, [sign * c for c in second]]}
    if draw(st.booleans()):
        doc["tolerance"] = 1e-9
    return doc


def frame_edits(draw, doc):
    rows = doc["rows"]
    i = draw(st.integers(0, 1))
    j = draw(st.integers(0, 1))
    return [
        (("rows",), st.sampled_from([MISSING, None, 5, "x", {}, [], [[]], [1, 0], [[1, 0], 5],
                                     [[1, 0]], [[1, 0], [1, 0]], [[2, 0], [0, 1]],
                                     [[1, 0, 0], [0, 1, 0]]])),
        (("rows", i), st.sampled_from([None, 5, rows[i][:-1], rows[i] + [0]])),
        (("rows", i, j), bad_float),
        (("tolerance",), st.sampled_from(BAD_TOLERANCES)),
    ]


@st.composite
def vertex_tuples(draw):
    """e_1, ..., e_n and minus their sum: n + 1 vertices around the origin."""
    n = draw(st.integers(1, 3))
    axes = [[int(i == j) for j in range(n)] for i in range(n)]
    return {"vertices": axes + [[-1] * n]}


def vertex_edits(draw, doc):
    vertices = doc["vertices"]
    i = draw(st.integers(0, len(vertices) - 1))
    j = draw(st.integers(0, len(vertices[0]) - 1))
    return [
        (("vertices",), st.sampled_from([MISSING, None, 5, "x", {}, [], [[]], [1, 2],
                                         vertices[:-1], vertices + [vertices[0]]])),
        (("vertices", i), st.sampled_from([None, 5, vertices[i][:-1], vertices[i] + [0]])),
        (("vertices", i, j), bad_float),
    ]


JSON_KINDS = {"--input": (clouds, cloud_edits), "--frame": (frames, frame_edits),
              "--vertices": (vertex_tuples, vertex_edits)}


@st.composite
def bad_json(draw, option):
    make, edits = JSON_KINDS[option]
    doc = draw(make())
    whole = draw(st.sampled_from(("edit", "cut", "top")))
    if whole == "cut":
        # no proper prefix of an object's text is JSON; the empty one included
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if whole == "top":
        return json.dumps(draw(not_an_object))
    path, values = draw(st.sampled_from(edits(draw, doc)))
    return json.dumps(edited(doc, path, draw(values)))


@st.composite
def bad_tsv(draw):
    doc = draw(clouds())
    dim = doc["dim"]
    header, rows = tsv_parts(doc)
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, dim))
    edit = draw(st.sampled_from(("cell", "weight", "arity", "header", "file")))
    if edit == "file":
        return draw(st.sampled_from(["", "\n\n", "\t".join(header) + "\n"]))
    if edit == "cell":
        rows[i][j] = draw(bad_rational_text)
    elif edit == "weight":
        rows[i][dim] = draw(st.sampled_from([str(Fraction(rows[i][dim]) + 1), "0", "-1/2"]))
    elif edit == "arity":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    else:
        header = draw(st.sampled_from([header[:-1] + ["w"], ["weight"]]))
    return tsv_text(header, rows)


bad_inputs = st.one_of(
    st.tuples(st.just("--tsv"), bad_tsv()),
    *(st.tuples(st.just(option), bad_json(option)) for option in JSON_KINDS),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("bad-input")
    (root / "tri.json").write_text(json.dumps(TRIANGLE))
    return root


def run(workdir, option, body):
    path = workdir / ("bad.tsv" if option == "--tsv" else "bad.json")
    path.write_text(body)
    argv = {
        "--tsv": ["depth", "--input", str(path)],
        "--input": ["depth", "--input", str(path)],
        "--frame": ["transversal", "--input", str(workdir / "tri.json"), "--frame", str(path)],
        "--vertices": ["simplex", "--vertices", str(path)],
    }[option]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_rejected(workdir, option, body):
    code, out, err = run(workdir, option, body)
    assert code == 2, err
    assert out == ""
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
    assert "Traceback" not in err


@settings(max_examples=400)
@given(case=bad_inputs)
def test_generated_bad_input_exits_2(workdir, case):
    assert_rejected(workdir, *case)


def _triangle_tsv(cell):
    header, rows = tsv_parts(TRIANGLE)
    rows[1][1] = cell
    return tsv_text(header, rows)


CATALOGUE = (
    [("coordinate", "--input", json.dumps(edited(TRIANGLE, ("atoms", 0, "x", 1), v)))
     for v in BAD_RATIONALS]
    + [("weight", "--input", json.dumps(edited(TRIANGLE, ("atoms", 2, "w"), v)))
       for v in BAD_RATIONALS]
    + [("cell", "--tsv", _triangle_tsv(v)) for v in BAD_RATIONAL_TEXT]
    + [("entry", "--frame", json.dumps(edited(FRAME, ("rows", 1, 0), v))) for v in BAD_FLOATS]
    + [("entry", "--vertices", json.dumps(edited(VERTICES, ("vertices", 2, 1), v)))
       for v in BAD_FLOATS]
    + [("tolerance", "--frame", json.dumps(edited(FRAME, ("tolerance",), v)))
       for v in BAD_TOLERANCES]
)


@pytest.mark.parametrize(
    "option, body", [case[1:] for case in CATALOGUE],
    ids=["%s %s %d" % (option, where, i) for i, (where, option, _) in enumerate(CATALOGUE)],
)
def test_every_bad_value_exits_2(workdir, option, body):
    assert_rejected(workdir, option, body)


@pytest.mark.parametrize("option, doc, path", [
    ("--input", TRIANGLE, ("dim",)), ("--input", TRIANGLE, ("atoms",)),
    ("--input", TRIANGLE, ("atoms", 1, "x")), ("--input", TRIANGLE, ("atoms", 1, "w")),
    ("--frame", FRAME, ("rows",)), ("--vertices", VERTICES, ("vertices",)),
])
def test_missing_key_is_named(workdir, option, doc, path):
    code, _, err = run(workdir, option, json.dumps(edited(doc, path, MISSING)))
    assert code == 2
    assert "has no %r key" % (path[-1],) in err


@settings(max_examples=40)
@given(case=st.one_of(
    st.tuples(st.just("--input"), clouds().map(json.dumps)),
    st.tuples(st.just("--tsv"), clouds().map(lambda doc: tsv_text(*tsv_parts(doc)))),
    st.tuples(st.just("--frame"), frames().map(json.dumps)),
    st.tuples(st.just("--vertices"), vertex_tuples().map(json.dumps)),
))
def test_unedited_documents_are_valid(workdir, case):
    # each bad input above is bad because of its one edit
    code, _, err = run(workdir, *case)
    assert code in (0, 1), err
    assert "error:" not in err


# the commands each bad argument value is put into; "{tri}" is the
# triangle of the workdir
ARGUMENT_COMMANDS = {
    "--point": ["depth", "--input", "{tri}"],
    "--region": ["depth", "--input", "{tri}"],
    "--target": ["transversal", "--input", "{tri}", "--restarts", "1", "--local-steps", "0"],
    "bounds --n": ["bounds", "--m", "1"],
    "bounds --m": ["bounds", "--n", "2"],
    "schubert --m": ["schubert", "--n", "2", "--check", "main-obstruction"],
    "schubert --n": ["schubert", "--codim", "2", "--check", "whitney"],
    "schubert --codim": ["schubert", "--n", "2", "--exponents", "1,1"],
    "heights --codim": ["schubert", "--n", "2", "--check", "heights"],
    "transversal --n": ["transversal", "--input", "{tri}"],
    "--restarts": ["transversal", "--input", "{tri}"],
    "--local-steps": ["transversal", "--input", "{tri}"],
    "--angle": ["transversal", "--input", "{tri}"],
    "--decay": ["transversal", "--input", "{tri}"],
    "transversal --seed": ["transversal", "--input", "{tri}"],
    "--atoms": ["gen", "--family", "gaussian-quantized"],
    "gen --seed": ["gen", "--family", "gaussian-quantized"],
    "--denominator": ["gen", "--family", "uniform-ball"],
    "--spread": ["gen", "--family", "uniform-ball"],
    "cluster --spread": ["gen", "--family", "adversarial-three-cluster"],
    "--ambient": ["gen", "--family", "gaussian-quantized"],
    "coplanar --ambient": ["gen", "--family", "coplanar"],
}
ARGUMENT_COMMANDS.update(
    ("%s --dim" % family, ["gen", "--family", family])
    for family in ("uniform-ball", "gaussian-quantized", "simplex-atoms", "coplanar",
                   "adversarial-three-cluster")
)

NOT_AN_INTEGER = ["x", "2.5", ""]
NOT_A_NUMBER = ["x", ""]
BAD_LEVELS = ["0", "-1/3", "4/3", "2", "x", "1/0", "nan", "inf", "", "1e-4300"]

ARGUMENT_CATALOGUE = {
    # the triangle is planar; 1e-4299 parses, but the witness direction at
    # that point is past the digit limit of a report value
    "--point": ["1/3", "1/3,1/3,1/3", "a,b", "1/0,0", "nan,0", ",", "", "1e-4300,0",
                "1e-4299,1e-4299"],
    "--region": BAD_LEVELS,
    "--target": BAD_LEVELS,
    "bounds --n": ["1", "0", "-1"] + NOT_AN_INTEGER,
    "bounds --m": ["0", "-1"] + NOT_AN_INTEGER,
    "schubert --m": ["0", "-3"],
    "schubert --n": ["0", "-2"],
    "schubert --codim": ["-1"] + NOT_AN_INTEGER,
    "heights --codim": ["-1"],
    "transversal --n": ["0", "3", "-1"] + NOT_AN_INTEGER,
    "--restarts": ["0", "-1"] + NOT_AN_INTEGER,
    "--local-steps": ["-1"] + NOT_AN_INTEGER,
    "--angle": ["0", "-1", "4", "nan", "inf", "-inf"] + NOT_A_NUMBER,
    "--decay": ["0", "1", "2", "-0.5", "nan", "-inf"] + NOT_A_NUMBER,
    "transversal --seed": ["-1"] + NOT_AN_INTEGER,
    "--atoms": ["0", "-1"] + NOT_AN_INTEGER,
    "gen --seed": ["-1"] + NOT_AN_INTEGER,
    "--denominator": ["0", "-5"] + NOT_AN_INTEGER,
    "--spread": ["5", "0.05", "0", "nan"] + NOT_A_NUMBER,
    "cluster --spread": ["nan", "inf", "-inf"] + NOT_A_NUMBER,
    "--ambient": ["5", "2", "0"] + NOT_AN_INTEGER,
    "coplanar --ambient": ["0", "1", "-1"],
}
ARGUMENT_CATALOGUE.update(
    (key, ["0", "-1"] + NOT_AN_INTEGER) for key in ARGUMENT_COMMANDS if key.endswith(" --dim")
)


def _fraction_text(value):
    return "%d/%d" % (value.numerator, value.denominator)


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# out of each option's range, drawn from the range's complement
_not_a_level = st.one_of(st.fractions(max_value=0, max_denominator=10 ** 6),
                         st.fractions(min_value=1, max_denominator=10 ** 6)
                         .filter(lambda f: f > 1)).map(_fraction_text)
_coordinate = st.fractions(-2, 2, max_denominator=100).map(_fraction_text)
GENERATED_ARGUMENTS = {
    # a point of the wrong dimension for the planar triangle
    "--point": st.one_of(st.lists(_coordinate, min_size=1, max_size=1),
                         st.lists(_coordinate, min_size=3, max_size=5)).map(",".join),
    "--region": _not_a_level,
    "--target": _not_a_level,
    "bounds --n": st.integers(max_value=1),
    "bounds --m": st.integers(max_value=0),
    "schubert --m": st.integers(max_value=0),
    "schubert --n": st.integers(max_value=0),
    "schubert --codim": st.integers(max_value=-1),
    "heights --codim": st.integers(max_value=-1),
    "transversal --n": st.one_of(st.integers(max_value=0), st.integers(3, 10 ** 6)),
    "--restarts": st.integers(max_value=0),
    "--local-steps": st.integers(max_value=-1),
    "--angle": st.one_of(_finite(max_value=0), _finite(min_value=math.pi).filter(
        lambda x: x > math.pi), st.sampled_from([math.nan, math.inf, -math.inf])),
    "--decay": st.one_of(_finite(max_value=0), _finite(min_value=1),
                         st.sampled_from([math.nan, math.inf, -math.inf])),
    "transversal --seed": st.integers(max_value=-1),
    "--atoms": st.integers(max_value=0),
    "gen --seed": st.integers(max_value=-1),
    "--denominator": st.integers(max_value=0),
    # no family but the cluster one takes a spread, whatever its value
    "--spread": st.floats(),
    "cluster --spread": st.sampled_from([math.nan, math.inf, -math.inf]),
    # gaussian-quantized takes no ambient, whatever its value
    "--ambient": st.integers(),
    "coplanar --ambient": st.integers(max_value=1),
}
GENERATED_ARGUMENTS.update(
    (key, st.integers(max_value=0)) for key in ARGUMENT_COMMANDS if key.endswith(" --dim")
)


def run_argv(argv):
    """Exit code, stdout and stderr of cli.main; argparse's own errors exit
    by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _untimed(err):
    return re.sub(r"finished in [0-9.]+ s", "finished", err)


def assert_argument_rejected(workdir, key, value):
    option = key.split()[-1]
    argv = [a.format(tri=workdir / "tri.json") for a in ARGUMENT_COMMANDS[key]]
    code, out, err = run_argv(argv + ["%s=%s" % (option, value)])
    assert code == 2, err
    assert out == ""
    assert sum("error: " in line for line in err.splitlines()) == 1, err
    assert "Traceback" not in err
    # "--opt value" reads the same value, even one that starts with a minus
    spaced = run_argv(argv + [option, str(value)])
    assert (spaced[0], spaced[1], _untimed(spaced[2])) == (code, out, _untimed(err))


ARGUMENT_CASES = [(key, value) for key, values in ARGUMENT_CATALOGUE.items()
                  for value in values]


def test_every_option_has_bad_values():
    assert set(ARGUMENT_CATALOGUE) == set(ARGUMENT_COMMANDS) == set(GENERATED_ARGUMENTS)


@pytest.mark.parametrize("key, value", ARGUMENT_CASES,
                         ids=["%s %r" % case for case in ARGUMENT_CASES])
def test_every_bad_argument_exits_2(workdir, key, value):
    assert_argument_rejected(workdir, key, value)


@settings(max_examples=300)
@given(case=st.sampled_from(sorted(GENERATED_ARGUMENTS)).flatmap(
    lambda key: st.tuples(st.just(key), GENERATED_ARGUMENTS[key])))
def test_generated_bad_arguments_exit_2(workdir, case):
    assert_argument_rejected(workdir, *case)
