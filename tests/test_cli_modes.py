"""Every option a CLI mode reads acts, and every other is refused.

The modes and their options are cli.READS; the options of each subcommand
are walked from build_parser()'s actions.  An option outside its mode's set
must exit 2 with one error line, and write nothing; an option inside it,
given a second valid value, must change the output bytes.
"""

import contextlib
import io
import json

import pytest

from centertrans.cli import READS, build_parser, main

# options whose second value is not compared, and why
EXEMPT = {
    "--output": "it changes where the report goes, not the report",
    "--out": "it changes where the cloud goes, not the cloud",
    "--classify": "it writes the label to stderr",
}
# an option whose value is rounded, so that two values write the same bytes
# (the second values below avoid it): two such values, and why
ROUNDED = {
    "gen --family adversarial-three-cluster --atoms":
        ("1", "4", "three clusters of max(1, atoms // 3) atoms each: both give 3 atoms"),
}
# options read only as a check against another one: a second value
# exits 2 with this error
COUPLED = {
    "schubert --n": ("3", "error: expected 3 exponents, got 2"),
    "transversal --frame --n": ("2", "error: frame has 1 rows, expected n = 2"),
}
# options a subcommand once read, and a value of each (None for a flag):
# argparse refuses them in every mode of the subcommand.  The search's move
# schedule is fixed, and simplex builds a surrogate for insufficient depth only
GONE = {"transversal": {"--angle": "0.5", "--decay": "0.5"}, "simplex": {"--force": None}}
# a command line of each mode, and a second value of each option it reads
# (None for a flag); "{name}" is a file of the workdir
CASES = [
    ("bounds", "bounds --m 1 --n 2", {"--m": "2", "--n": "3", "--format": "tsv"}),
    ("schubert", "schubert --n 2 --codim 5 --exponents 2,3",
     {"--codim": "4", "--exponents": "1,0", "--format": "tsv"}),
    ("schubert --check main-obstruction", "schubert --n 2 --check main-obstruction",
     {"--n": "3", "--m": "2", "--check": "power2free"}),
    ("schubert --check power2free", "schubert --n 2 --check power2free",
     {"--n": "3", "--m": "2", "--check": "main-obstruction"}),
    ("schubert --check heights", "schubert --n 2 --codim 3 --check heights",
     {"--n": "3", "--codim": "4", "--check": "whitney"}),
    ("schubert --check whitney", "schubert --n 3 --codim 4 --check whitney",
     {"--n": "2", "--codim": "3", "--check": "heights"}),
    ("depth", "depth --input {tri}", {"--input": "{quad}"}),
    ("depth --point", "depth --input {tri} --point 1/3,1/3",
     {"--input": "{quad}", "--point": "1/4,1/4", "--tsv-out": "{profile}"}),
    ("depth --region", "depth --input {tri} --region 1/3",
     {"--input": "{quad}", "--region": "1/4", "--tsv-out": "{region}"}),
    ("center", "center --input {tri}", {"--input": "{quad}"}),
    ("simplex", "simplex --input {clusters}", {"--input": "{clusters2}"}),
    ("simplex --vertices", "simplex --vertices {vertices}", {"--vertices": "{vertices2}"}),
    ("transversal", "transversal --input {tri} --n 1 --restarts 1 --local-steps 0",
     {"--input": "{quad}", "--n": "2", "--restarts": "2", "--local-steps": "1",
      "--seed": "1", "--target": "1/4", "--tsv-out": "{trajectory}"}),
    ("transversal --frame", "transversal --input {tri} --frame {xframe}",
     {"--input": "{quad}", "--frame": "{yframe}", "--target": "1/4"}),
    ("gen", "gen --family coplanar",
     {"--family": "uniform-ball", "--seed": "1", "--atoms": "5", "--dim": "4",
      "--ambient": "4", "--denominator": "7", "--weights": "random", "--no-rotate": None}),
    ("gen", "gen --family adversarial-three-cluster", {"--spread": "0.5"}),
]

SUBPARSERS = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))


def _actions(command):
    return {a.option_strings[0]: a for a in SUBPARSERS[command]._actions if a.dest != "help"}


def _reads(mode):
    return {o.rstrip("!") for o in READS[mode].split()}


def _qualifiers(command):
    """The options that select a mode of command."""
    return {m.split()[1] for m in READS if m.split()[0] == command and " " in m}


def _arguments(option, value):
    return [option] if value is None else [option, value]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("modes")

    def cloud(name, points):
        weight = "1/%d" % len(points)
        (work / name).write_text(json.dumps({"dim": 2, "atoms": [
            {"x": list(p), "w": weight} for p in points]}))

    cloud("tri", [("0", "0"), ("1", "0"), ("0", "1")])
    cloud("quad", [("0", "0"), ("2", "0"), ("0", "1"), ("1", "3")])
    # three clusters: insufficient depth, so simplex builds a surrogate
    cloud("clusters", [("0", "1"), ("0", "11/10"), ("-1", "-1/2"), ("-11/10", "-1/2"),
                       ("1", "-1/2"), ("11/10", "-1/2")])
    cloud("clusters2", [("0", "1"), ("1/10", "1"), ("-1", "-1/2"), ("-1", "-3/5"),
                        ("1", "-1/2"), ("1", "-3/5")])
    (work / "xframe").write_text(json.dumps({"ambient": 2, "rows": [[1.0, 0.0]]}))
    (work / "yframe").write_text(json.dumps({"ambient": 2, "rows": [[0.0, 1.0]]}))
    (work / "vertices").write_text(json.dumps({"vertices": [[1, 0], [-0.5, 0.8], [-0.5, -0.8]]}))
    (work / "vertices2").write_text(json.dumps({"vertices": [[1, 0], [-0.4, 1], [-0.6, -1]]}))
    return work


def _run(files, argv):
    """Exit code, stdout, stderr and the files written to out/, with every
    "{name}" of argv a file of the workdir and out/ emptied first."""
    out_dir = files / "out"
    out_dir.mkdir(exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()
    names = {p.name: str(p) for p in files.iterdir()}
    names.update((name, str(out_dir / name))
                 for name in ("profile", "region", "trajectory", "report"))
    argv = [a.format(**names) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    return code, out.getvalue(), err.getvalue(), written


def _with(argv, option, value):
    """argv with option set to value: replaced where argv gives it, else added."""
    if option in argv and value is not None:
        i = argv.index(option)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + _arguments(option, value)


INSIDE = [(mode, base, option, value) for mode, base, seconds in CASES
          for option, value in seconds.items()]
OUTSIDE = [(mode, base, option) for mode, base, _ in CASES
           for option in _actions(base.split()[0])
           if option not in _reads(mode) | _qualifiers(base.split()[0])] + [
    (mode, base, option) for mode, base, _ in CASES
    for option in GONE.get(base.split()[0], ())]


def test_the_cases_cover_every_mode_and_option():
    assert {mode for mode, _, _ in CASES} == set(READS)
    for mode in READS:
        command = mode.split()[0]
        varied = {o for m, _, seconds in CASES if m == mode for o in seconds}
        coupled = {key.split()[-1] for key in COUPLED if key.rsplit(" ", 1)[0] == mode}
        assert varied | coupled | (_reads(mode) & set(EXEMPT)) == _reads(mode), mode
        # every option a mode reads is one of its subcommand's options
        assert _reads(mode) <= set(_actions(command)), mode
    for command in SUBPARSERS:
        assert set(_actions(command)) == {o for m in READS if m.split()[0] == command
                                          for o in _reads(m)}, command


@pytest.mark.parametrize("mode, base, option, value", INSIDE,
                         ids=["%s: %s" % (case[0], case[2]) for case in INSIDE])
def test_an_option_the_mode_reads_changes_the_output(files, mode, base, option, value):
    argv = base.split()
    code, out, err, written = _run(files, argv)
    assert code in (0, 1), err
    second = _run(files, _with(argv, option, value))
    assert second[0] in (0, 1), second[2]
    assert (second[1], second[3]) != (out, written)


@pytest.mark.parametrize("key", COUPLED)
def test_a_coupled_option_is_checked(files, key):
    mode, option = key.rsplit(" ", 1)
    base = next(base for m, base, _ in CASES if m == mode)
    value, error = COUPLED[key]
    code, out, err, _ = _run(files, _with(base.split(), option, value))
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == error


@pytest.mark.parametrize("mode, base, option", OUTSIDE,
                         ids=["%s: %s" % case[::2] for case in OUTSIDE])
def test_an_option_outside_the_mode_exits_2(files, mode, base, option):
    command = base.split()[0]
    destination = "--out" if command == "gen" else "--output"
    gone = GONE.get(command, {})
    value = next((s[option] for _, _, s in CASES if option in s), gone.get(option))
    argv = base.split() + _arguments(option, value) + [destination, "{report}"]
    code, out, err, written = _run(files, argv)
    assert (code, out, written) == (2, "", {})
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    if (mode, option) == ("simplex --vertices", "--input"):  # an argparse group
        assert errors[0].endswith("not allowed with argument --vertices")
    elif option in gone:
        assert errors[0].endswith("unrecognized arguments: " + " ".join(_arguments(option, value)))
    else:
        assert errors[0] == "error: %s takes no %s" % (mode, option)


@pytest.mark.parametrize("key", ROUNDED)
def test_a_rounded_value_writes_the_same_output(files, key):
    first, second, _ = ROUNDED[key]
    outputs = []
    for value in (first, second):
        code, out, _, written = _run(files, key.split() + [value])  # stderr holds the run time
        outputs.append((code, out, written))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


# gen command lines that wrote a cloud without one of their options; the
# generators table refuses them (the CLI's refusals are OUTSIDE cases)
IGNORED = [
    "gen --family simplex-atoms --dim 2 --atoms 50 --denominator 7",
    "gen --family simplex-atoms --dim 2 --seed 5",
    "gen --family gaussian-quantized --dim 2 --atoms 4 --no-rotate",
    "gen --family adversarial-three-cluster --dim 2 --atoms 4 --no-rotate",
    "gen --family coplanar --dim 5 --ambient 4",
    "gen --family adversarial-three-cluster --dim 5 --ambient 4",
]


@pytest.mark.parametrize("line", IGNORED)
def test_an_ignored_option_exits_2(files, line):
    code, out, err, written = _run(files, line.split() + ["--out", "{report}"])
    assert (code, out, written) == (2, "", {})
    assert sum("error: " in e for e in err.splitlines()) == 1, err
