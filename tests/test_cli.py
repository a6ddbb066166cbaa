import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from centertrans.cli import main
from centertrans.errors import DomainError
from centertrans.serialize import frac_str, parse_frac

F = Fraction


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_triangle(path):
    body = {
        "dim": 2,
        "atoms": [
            {"x": ["0/1", "0/1"], "w": "1/3"},
            {"x": ["1/1", "0/1"], "w": "1/3"},
            {"x": ["0/1", "1/1"], "w": "1/3"},
        ],
    }
    path.write_text(json.dumps(body))
    return str(path)


def write_simplex(path, dim):
    """The origin and the unit vectors of R^dim, each of weight 1/(dim + 1)."""
    corners = [["1" if i == j else "0" for i in range(dim)] for j in range(-1, dim)]
    weight = "1/%d" % (dim + 1)
    path.write_text(json.dumps({"dim": dim, "atoms": [{"x": x, "w": weight} for x in corners]}))
    return str(path)


def test_bounds_examples(capsys):
    code, out, _ = run_cli(["bounds", "--m", "1", "--n", "2"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["N_min"] == 3
    assert body["rado_threshold"] == "1/3"
    assert body["improved_threshold"] == "28/81"
    assert body["manifest"]["version"]
    code, out, _ = run_cli(["bounds", "--m", "1", "--n", "3"], capsys)
    assert json.loads(out)["N_min"] == 5
    code, out, _ = run_cli(["bounds", "--m", "2", "--n", "2", "--format", "tsv"], capsys)
    assert "5\t1/3\t28/81" in out


@pytest.mark.parametrize("argv, want", [
    (["bounds", "--m", "2", "--n", "2"], "m\tn\tN_min\trado\timproved\n2\t2\t5\t1/3\t28/81\n"),
    (["schubert", "--n", "2", "--codim", "5", "--exponents", "2,3"], "cocycle\n3,5\n4,4\n"),
], ids=["bounds", "schubert"])
def test_tsv_format_goes_to_output(capsys, tmp_path, argv, want):
    # the table is what --format tsv prints, written to --output alone
    code, out, _ = run_cli(argv + ["--format", "tsv"], capsys)
    assert (code, out) == (0, want)
    path = tmp_path / "out.tsv"
    code, out, _ = run_cli(argv + ["--format", "tsv", "--output", str(path)], capsys)
    assert (code, out) == (0, "")
    assert path.read_text() == want


def test_schubert_monomial(capsys):
    code, out, _ = run_cli(
        ["schubert", "--n", "2", "--codim", "5", "--exponents", "2,3"], capsys
    )
    assert code == 0
    body = json.loads(out)
    assert body["support"] == [[3, 5], [4, 4]]
    assert body["nonvanishing"] is True


def test_schubert_zero_class(capsys):
    code, out, _ = run_cli(
        ["schubert", "--n", "2", "--codim", "5", "--exponents", "0,6"], capsys
    )
    assert code == 0
    body = json.loads(out)
    assert body["support"] == []
    assert body["nonvanishing"] is False


def test_schubert_checks_pass(capsys):
    code, out, _ = run_cli(
        ["schubert", "--n", "3", "--codim", "4", "--check", "whitney"], capsys
    )
    assert code == 0 and json.loads(out)["result"]["ok"]
    code, out, _ = run_cli(
        ["schubert", "--n", "2", "--m", "2", "--check", "main-obstruction"], capsys
    )
    assert code == 0 and json.loads(out)["result"]["contains_target"]
    code, out, _ = run_cli(
        ["schubert", "--n", "2", "--m", "2", "--check", "power2free"], capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["schubert", "--n", "2", "--codim", "3", "--check", "heights"], capsys
    )
    assert code == 0 and json.loads(out)["result"]["height_w1"] == 6


# sha256 of the stdout of these schubert runs, concatenated; the manifest
# carries the package version, so a version bump changes it too
SCHUBERT_RUNS = [
    ["--n", "2", "--m", "2", "--check", "main-obstruction"],
    ["--n", "2", "--m", "2", "--check", "power2free"],
    ["--n", "3", "--codim", "4", "--check", "whitney"],
    ["--n", "2", "--codim", "5", "--check", "heights"],
    ["--n", "1", "--codim", "4", "--check", "heights"],
    ["--n", "3", "--codim", "3", "--check", "heights"],
    ["--n", "2", "--codim", "5", "--exponents", "2,3"],
]
SCHUBERT_DIGEST = "27b34a180d82c3c6424bc7df78b79deb488b14ca1405a5110951406ef441c91c"


def test_schubert_reports_pinned(capsys):
    text = ""
    for argv in SCHUBERT_RUNS:
        code, out, _ = run_cli(["schubert"] + argv, capsys)
        assert code == 0, argv
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == SCHUBERT_DIGEST


def test_schubert_bad_input_exit_2(capsys):
    code, _, err = run_cli(["schubert", "--n", "2"], capsys)
    assert code == 2 and "error" in err


def test_schubert_exponents_not_integers_exit_2(capsys):
    _assert_bad_input(["schubert", "--n", "2", "--codim", "5", "--exponents", "a,b"], capsys)


@pytest.mark.parametrize("extra", [["--format", "tsv"], ["--exponents", "1,1"]],
                         ids=["tsv", "exponents"])
@pytest.mark.parametrize("check", ["main-obstruction", "power2free", "heights", "whitney"])
def test_schubert_check_refuses_monomial_options(capsys, check, extra):
    # a named check writes a JSON report and reads no monomial, so a table
    # format or exponents beside it are bad input, not silently dropped
    _assert_bad_input(["schubert", "--n", "2", "--m", "2", "--codim", "3", "--check", check]
                      + extra, capsys)


@pytest.mark.parametrize("check", ["main-obstruction", "power2free"])
def test_schubert_m_defaults_to_1_and_zero_exit_2(capsys, check):
    code, out, _ = run_cli(["schubert", "--n", "2", "--check", check], capsys)
    assert code == 0 and json.loads(out)["result"]["m"] == 1
    _assert_bad_input(["schubert", "--n", "2", "--m", "0", "--check", check], capsys)


def test_depth_point_fixture(capsys, tmp_path):
    tri = write_triangle(tmp_path / "tri.json")
    simplex4 = write_simplex(tmp_path / "simplex4.json", 4)
    for cloud, point, depth in ((tri, "1/3,1/3", "1/3"), (simplex4, "1/5,1/5,1/5,1/5", "1/5")):
        code, out, _ = run_cli(["depth", "--input", cloud, "--point", point], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["depth"] == depth
        assert body["exact"] is True


def test_depth_point_negative_coordinates(capsys, tmp_path):
    cloud = write_triangle(tmp_path / "tri.json")
    code, out, _ = run_cli(
        ["depth", "--input", cloud, "--point", "-1/2,3/4"], capsys
    )
    assert code == 0
    body = json.loads(out)
    assert body["point"] == ["-1/2", "3/4"]
    assert body["depth"] == "0/1"
    _, spelled, _ = run_cli(["depth", "--input", cloud, "--point=-1/2,3/4"], capsys)
    assert spelled == out


def test_abbreviated_option_reads_a_negative_value(capsys, tmp_path):
    tri = write_triangle(tmp_path / "tri.json")
    code, out, err = run_cli(["depth", "--input", tri, "--reg", "-1/3"], capsys)
    assert (code, out) == (2, "")
    assert "error: tau must lie in (0, 1]" in err


def test_depth_point_profile_needs_planar_cloud(capsys, tmp_path):
    profile = tmp_path / "profile.tsv"
    tri = write_triangle(tmp_path / "tri.json")
    code, _, _ = run_cli(
        ["depth", "--input", tri, "--point", "1/3,1/3", "--tsv-out", str(profile)], capsys
    )
    lines = profile.read_text().splitlines()
    assert code == 0 and lines[0] == "angle\tmass" and len(lines) == 361
    profile.unlink()
    cloud = tmp_path / "tetra.json"
    code, _, _ = run_cli(
        ["gen", "--family", "simplex-atoms", "--dim", "3", "--out", str(cloud)], capsys
    )
    assert code == 0
    code, out, err = run_cli(
        ["depth", "--input", str(cloud), "--point", "1/4,1/4,1/4", "--tsv-out", str(profile)],
        capsys,
    )
    assert code == 2 and out == "" and "Traceback" not in err
    assert "error: the --point angle profile (--tsv-out) needs a planar cloud" in err
    assert not profile.exists()


def _assert_bad_input(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in err
    return errors[0]


def test_depth_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "atoms": [')
    _assert_bad_input(["depth", "--input", str(path)], capsys)


def test_depth_atom_coordinates_not_a_list_exit_2(capsys, tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"dim": 1, "atoms": [{"x": 5, "w": "1/1"}]}))
    _assert_bad_input(["depth", "--input", str(path)], capsys)


def test_depth_atom_coordinates_as_a_string_exit_2(capsys, tmp_path):
    # a string is iterable and would load as the point (1, 2)
    path = tmp_path / "string.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [{"x": "12", "w": "1"}]}))
    _assert_bad_input(["depth", "--input", str(path)], capsys)


def test_depth_boolean_coordinate_exit_2(capsys, tmp_path):
    # Python counts true as the integer 1, which would read as the atom (1, 0)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [{"x": [True, 0], "w": "1"}]}))
    _assert_bad_input(["depth", "--input", str(path)], capsys)


@pytest.mark.parametrize("dim", [1.7, 1.0, "1", True])
def test_depth_dim_not_an_integer_exit_2(capsys, tmp_path, dim):
    # each of these used to be read as dim 1
    path = tmp_path / "dim.json"
    atoms = [{"x": ["0"], "w": "1/2"}, {"x": ["1"], "w": "1/2"}]
    path.write_text(json.dumps({"dim": dim, "atoms": atoms}))
    _assert_bad_input(["depth", "--input", str(path)], capsys)


# 10^-4299 has a 4300-digit denominator, the most a literal may have;
# 10^-4300 has 4301 digits, and 10^-1000000000 once took minutes to parse
@pytest.mark.parametrize("literal, code", [("1e-4299", 0), ("1e-4300", 2), ("1e-1000000000", 2)])
@pytest.mark.parametrize("place", ["--region", "--point=", "json", "tsv"])
def test_decimal_literal_digit_limit(capsys, tmp_path, place, literal, code):
    tri = write_triangle(tmp_path / "tri.json")
    if place == "--region":
        args = ["depth", "--input", tri, "--region", literal]
    elif place == "--point=":
        args = ["depth", "--input", tri, "--point=" + literal + ",0"]
    else:
        rows = [["0", "0"], [literal, "0"], ["0", "1"]]
        if place == "json":
            path = tmp_path / "cloud.json"
            path.write_text(json.dumps({"dim": 2, "atoms": [{"x": x, "w": "1/3"} for x in rows]}))
        else:
            path = tmp_path / "cloud.tsv"
            path.write_text("x1\tx2\tweight\n" + "".join("%s\t%s\t1/3\n" % tuple(x) for x in rows))
        args = ["depth", "--input", str(path), "--point=0,0"]
    if code == 2:
        assert "has more than 4300 digits" in _assert_bad_input(args, capsys)
    else:
        assert run_cli(args, capsys)[0] == 0


def test_oversized_report_value_exit_2(capsys, tmp_path):
    # each input literal is within the limit, but the witness direction at
    # this point has integer entries of 8598 and 12897 digits, which no
    # report may hold
    tri = write_triangle(tmp_path / "tri.json")
    error = _assert_bad_input(["depth", "--input", tri, "--point=1e-4299,1e-4299"], capsys)
    assert "more than 4300 digits" in error


def test_frac_str_refuses_what_parse_frac_cannot_read():
    assert parse_frac(frac_str(F(1, 10 ** 4299))) == F(1, 10 ** 4299)
    for value in (F(10 ** 4300), F(-(10 ** 4300)), F(1, 10 ** 4300)):
        with pytest.raises(DomainError, match="more than 4300 digits"):
            frac_str(value)


@pytest.mark.parametrize("literal, value", [
    ("1e4299", F(10 ** 4299)), ("5e-4300", F(1, 2 * 10 ** 4299)), ("0e1000000000", F(0)),
    ("1" * 4300, F(int("1" * 4300))), ("12.500e-2", F(1, 8)), ("-1_0.5e1", F(-105)),
])
def test_parse_frac_at_the_digit_limit(literal, value):
    assert parse_frac(literal) == value


@pytest.mark.parametrize("literal, message", [
    ("1e4300", "more than 4300 digits"), ("1e-4300", "more than 4300 digits"),
    ("5e-4301", "more than 4300 digits"), ("0." + "0" * 4299 + "1", "more than 4300 digits"),
    ("1" * 3000 + "." + "1" * 3000, "more than 4300 digits"),
    # int() refuses a run of more than 4300 digits before any value is formed
    ("1" * 4301, "bad rational literal"), ("1e" + "9" * 5000, "bad rational literal"),
    ("1/" + "1" * 4301, "bad rational literal"),
], ids=["1e4300", "1e-4300", "5e-4301", "0.0...01", "6000-digit numerator", "4301 ones",
        "5000-digit exponent", "4301-digit denominator"])
def test_parse_frac_past_the_digit_limit(literal, message):
    with pytest.raises(DomainError, match=message):
        parse_frac(literal)


def test_depth_measure_and_region(capsys, tmp_path):
    cloud = write_triangle(tmp_path / "tri.json")
    code, out, _ = run_cli(["depth", "--input", cloud], capsys)
    body = json.loads(out)
    assert body["depth_of_measure"] == "1/3"
    assert body["deepest_point"] == ["1/3", "1/3"]
    tsv = tmp_path / "region.tsv"
    code, out, _ = run_cli(
        ["depth", "--input", cloud, "--region", "1/3", "--tsv-out", str(tsv)],
        capsys,
    )
    body = json.loads(out)
    assert body["region"]["kind"] == "polygon"
    lines = tsv.read_text().strip().splitlines()
    assert lines[0] == "x\ty"
    assert len(lines) == 4


def test_depth_point_and_region_exclude_each_other(capsys, tmp_path):
    tri = write_triangle(tmp_path / "tri.json")
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--input", tri, "--point", "1/3,1/3", "--region", "1/3"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_depth_tsv_out_needs_a_mode(capsys, tmp_path):
    tsv = tmp_path / "out.tsv"
    # the option is checked before the cloud loads: a missing file is not reported
    for cloud in (write_triangle(tmp_path / "tri.json"), str(tmp_path / "missing.json")):
        error = _assert_bad_input(["depth", "--input", cloud, "--tsv-out", str(tsv)], capsys)
        assert error == "error: --tsv-out needs --point or --region"
    assert not tsv.exists()


def test_center_fixture(capsys, tmp_path):
    cloud = write_triangle(tmp_path / "tri.json")
    code, out, _ = run_cli(["center", "--input", cloud], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["classification"] == "insufficient"
    assert body["c"] == ["1/3", "1/3"]


def test_simplex_from_vertices(capsys, tmp_path):
    vfile = tmp_path / "verts.json"
    vfile.write_text(json.dumps({"vertices": [[1, 0], [0, 1], [-1, -1]]}))
    code, out, _ = run_cli(["simplex", "--vertices", str(vfile)], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["vertex_source"] == "file"
    deltas = body["placement"]["delta_vertices"]
    assert len(deltas) == 3
    # the placement simplex is regular with unit edges
    import math

    for i in range(3):
        for j in range(i + 1, 3):
            d = math.dist(deltas[i], deltas[j])
            assert abs(d - 1.0) < 1e-9


# json.dumps writes NaN and Infinity, which Python's JSON reader accepts
@pytest.mark.parametrize(
    "vertices",
    [[[1, 0], ["x", 1], [-1, -1]], 5,
     [[1, 0], [float("nan"), 1], [-1, -1]], [[1, 0], [float("inf"), 1], [-1, -1]]],
)
def test_simplex_malformed_vertices_exit_2(capsys, tmp_path, vertices):
    vfile = tmp_path / "verts.json"
    vfile.write_text(json.dumps({"vertices": vertices}))
    _assert_bad_input(["simplex", "--vertices", str(vfile)], capsys)


def test_simplex_sufficient_cloud_names_force_flag(capsys, tmp_path):
    # one atom has depth 1: its measure is sufficient, so no surrogate
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"dim": 2, "atoms": [{"x": ["0", "0"], "w": "1"}]}))
    error = _assert_bad_input(["simplex", "--input", str(path)], capsys)
    assert "--force" in error
    code, out, _ = run_cli(["simplex", "--input", str(path), "--force"], capsys)
    assert code == 2 and out == ""  # one atom spans no sector: still no tuple


def test_simplex_takes_exactly_one_source(capsys, tmp_path):
    vfile = tmp_path / "verts.json"
    vfile.write_text(json.dumps({"vertices": [[1, 0], [0, 1], [-1, -1]]}))
    both = ["--input", write_triangle(tmp_path / "tri.json"), "--vertices", str(vfile)]
    for sources, message in (([], "one of the arguments"), (both, "not allowed with argument")):
        with pytest.raises(SystemExit) as exc:
            main(["simplex"] + sources)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    # an empty path is a source too, and names no file
    _assert_bad_input(["simplex", "--vertices", ""], capsys)


def test_simplex_surrogate_from_cloud(capsys, tmp_path):
    code, out, _ = run_cli(
        [
            "gen", "--family", "adversarial-three-cluster", "--seed", "5",
            "--atoms", "9", "--dim", "2", "--out", str(tmp_path / "adv.json"),
        ],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["simplex", "--input", str(tmp_path / "adv.json")], capsys
    )
    assert code == 0
    assert json.loads(out)["vertex_source"] == "surrogate-sector-barycenter"


def test_gen_deterministic_and_classify(capsys, tmp_path):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    for path in (a1, a2):
        code, _, err = run_cli(
            [
                "gen", "--family", "adversarial-three-cluster", "--seed", "9",
                "--atoms", "9", "--dim", "2", "--classify", "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        assert "classification: insufficient" in err
    assert a1.read_bytes() == a2.read_bytes()


def test_gen_simplex_atoms_is_triangle_fixture(capsys):
    code, out, _ = run_cli(
        ["gen", "--family", "simplex-atoms", "--dim", "2"], capsys
    )
    body = json.loads(out)
    assert body["dim"] == 2
    assert {tuple(a["x"]) for a in body["atoms"]} == {
        ("0/1", "0/1"),
        ("1/1", "0/1"),
        ("0/1", "1/1"),
    }
    assert all(a["w"] == "1/3" for a in body["atoms"])


def test_gen_unknown_family_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("option", ["--atoms", "--denominator"])
def test_gen_zero_count_exit_2(capsys, option):
    _assert_bad_input(["gen", "--family", "gaussian-quantized", option, "0"], capsys)


@pytest.mark.parametrize(
    "family, ambient",
    [
        ("coplanar", "0"),
        ("adversarial-three-cluster", "0"),
        ("adversarial-three-cluster", "1"),
        # these families have no ambient apart from --dim
        ("gaussian-quantized", "5"),
        ("uniform-ball", "5"),
        ("simplex-atoms", "5"),
    ],
    ids=[
        "coplanar",
        "adversarial-three-cluster",
        "adversarial-three-cluster-1",
        "gaussian-quantized",
        "uniform-ball",
        "simplex-atoms",
    ],
)
def test_gen_zero_ambient_exit_2(capsys, family, ambient):
    error = _assert_bad_input(
        ["gen", "--family", family, "--ambient", ambient, "--atoms", "4"], capsys
    )
    assert "ambient" in error


@pytest.mark.parametrize("spread", ["nan", "inf"])
def test_gen_non_finite_spread_exit_2(capsys, spread):
    # the cluster jitter would be NaN or infinite, which round() cannot take
    _assert_bad_input(["gen", "--family", "adversarial-three-cluster", "--spread", spread],
                      capsys)


@pytest.mark.parametrize("family", ["uniform-ball", "gaussian-quantized", "simplex-atoms",
                                    "coplanar"])
def test_gen_spread_only_for_the_cluster_family(capsys, family):
    error = _assert_bad_input(["gen", "--family", family, "--spread", "5"], capsys)
    assert "takes no spread" in error


def test_gen_default_spread_is_the_cluster_jitter(capsys):
    argv = ["gen", "--family", "adversarial-three-cluster", "--atoms", "6", "--seed", "4"]
    code, default, _ = run_cli(argv, capsys)
    assert code == 0
    code, explicit, _ = run_cli(argv + ["--spread", "0.05"], capsys)
    assert code == 0 and explicit == default
    code, wider, _ = run_cli(argv + ["--spread", "0.5"], capsys)
    assert code == 0 and wider != default


def test_gen_planar_family_dim_1_exit_2(capsys):
    error = _assert_bad_input(
        ["gen", "--family", "adversarial-three-cluster", "--dim", "1", "--atoms", "4"], capsys
    )
    assert "ambient >= 2" in error


def test_transversal_cli_success_and_rerun_identical(capsys, tmp_path):
    cloud = tmp_path / "c.json"
    code, _, _ = run_cli(
        ["gen", "--family", "gaussian-quantized", "--seed", "3", "--atoms", "15",
         "--dim", "3", "--out", str(cloud)],
        capsys,
    )
    assert code == 0
    out_a = tmp_path / "rep_a.json"
    out_b = tmp_path / "rep_b.json"
    for path in (out_a, out_b):
        code, _, _ = run_cli(
            ["transversal", "--input", str(cloud), "--n", "2", "--seed", "11",
             "--restarts", "8", "--local-steps", "6", "--output", str(path)],
            capsys,
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    body = json.loads(out_a.read_text())
    assert body["success"] is True
    assert F(*map(int, body["objective"].split("/"))) >= F(28, 81)
    assert body["manifest"]["subcommand"] == "transversal"


def test_transversal_cli_failed_target_exit_1(capsys, tmp_path):
    cloud = tmp_path / "c.json"
    run_cli(
        ["gen", "--family", "gaussian-quantized", "--seed", "4", "--atoms", "8",
         "--dim", "3", "--out", str(cloud)],
        capsys,
    )
    code, out, _ = run_cli(
        ["transversal", "--input", str(cloud), "--n", "2", "--seed", "1",
         "--restarts", "2", "--local-steps", "2", "--target", "99/100"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["success"] is False


def test_transversal_takes_a_huge_restart_budget(capsys, tmp_path, recwarn):
    # restart 0 reaches the triangle's depth 1/3, and the restarts after it
    # get no seed (spawning them all up front overflowed)
    tri = write_triangle(tmp_path / "tri.json")
    code, out, _ = run_cli(
        ["transversal", "--input", tri, "--restarts", "99999999999999999999999",
         "--local-steps", "0", "--target", "1/3"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["success"] and report["restart_index"] == 0


def test_transversal_below_the_bound_warns_in_one_line(capsys, tmp_path, recwarn):
    tri = write_triangle(tmp_path / "tri.json")
    code, out, err = run_cli(
        ["transversal", "--input", tri, "--restarts", "1", "--local-steps", "0"], capsys
    )
    assert code == 1  # the triangle's depth 1/3 is below the improved bound
    assert json.loads(out)["success"] is False
    assert err.splitlines()[0] == (
        "warning: ambient dimension 2 is below the guaranteed bound 3 for m=1, n=2"
    )
    assert len(err.splitlines()) == 2  # and the timing line
    assert "UserWarning" not in err
    assert not recwarn.list  # printed, not passed on as a Python warning


@pytest.mark.parametrize(
    "frame",
    [{"rows": [["a"]]}, {"rows": [[1, 0], [0, 1]], "tolerance": "x"}, {"rows": 5},
     {"rows": [[1, 0], [0, float("nan")]]}, {"rows": [[1, 0], [0, float("inf")]]},
     # a rank-1 frame: only a finite tolerance catches its Gram defect of 1
     {"rows": [[1, 0], [1, 0]], "tolerance": float("nan")},
     {"rows": [[1, 0], [1, 0]], "tolerance": float("inf")},
     {"rows": [[True, 0], [0, 1]]},
     # finite entries whose Gram sums leave the float range
     {"rows": [[1e200, 1e200], [1e200, -1e200]]}, {"rows": [[1e154, 1e154], [0, 1]]}],
    ids=["entry", "tolerance", "rows", "nan entry", "infinite entry",
         "nan tolerance", "infinite tolerance", "boolean entry", "inf - inf", "sum overflow"],
)
def test_transversal_malformed_frame_exit_2(capsys, tmp_path, frame):
    cloud = write_triangle(tmp_path / "tri.json")
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame))
    _assert_bad_input(["transversal", "--input", cloud, "--frame", str(path)], capsys)


def test_transversal_n_must_fit_the_input(capsys, tmp_path):
    tri = write_triangle(tmp_path / "tri.json")
    tet = write_simplex(tmp_path / "tet.json", 3)
    _assert_bad_input(["transversal", "--input", tet, "--n", "4", "--restarts", "1"], capsys)
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"rows": [[1, 0], [0, 1]]}))
    _assert_bad_input(["transversal", "--input", tri, "--frame", str(frame), "--n", "3"], capsys)


@pytest.mark.parametrize("body", [[1], "x"], ids=["list", "string"])
@pytest.mark.parametrize("option", ["--input", "--frame", "--vertices"])
def test_json_top_level_not_an_object_exit_2(capsys, tmp_path, option, body):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(body))
    cloud = write_triangle(tmp_path / "tri.json")
    args = {
        "--input": ["depth", "--input", str(path)],
        "--frame": ["transversal", "--input", cloud, "--frame", str(path)],
        "--vertices": ["simplex", "--vertices", str(path)],
    }[option]
    _assert_bad_input(args, capsys)


UNDECODABLE = {
    "not-utf8.json": b'{"dim": 2, "atoms": [\xff]}',
    "nested.json": b"[" * 100000 + b"]" * 100000,
    # past Python's 4300-digit limit on integer strings
    "long-number.json": b"1" * 5000,
    "not-utf8.tsv": b"x1\tx2\tweight\n\xff\t0\t1\n",
}


@pytest.mark.parametrize(
    "option, name",
    [(option, name) for name in UNDECODABLE if name.endswith(".json")
     for option in ("--input", "--frame", "--vertices")]
    + [("--input", "not-utf8.tsv")],
)
def test_undecodable_input_file_exit_2(capsys, tmp_path, option, name):
    path = tmp_path / name
    path.write_bytes(UNDECODABLE[name])
    cloud = write_triangle(tmp_path / "tri.json")
    args = {
        "--input": ["depth", "--input", str(path)],
        "--frame": ["transversal", "--input", cloud, "--frame", str(path)],
        "--vertices": ["simplex", "--vertices", str(path)],
    }[option]
    _assert_bad_input(args, capsys)


# runs one CLI command in a fresh interpreter and names the package
# modules (without the "centertrans." prefix) and numpy it left loaded
_LOADED_AFTER_MAIN = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import centertrans
    code = None
else:
    from centertrans.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv) if argv else None
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("centertrans."))
print(json.dumps({"code": code, "loaded": loaded, "numpy": "numpy" in sys.modules}))
"""

CLI_CORE = ["cli", "errors", "serialize"]
DEPTH_KERNEL = CLI_CORE + ["bounds", "cloud", "depth", "polygon"]


def test_exact_subcommands_do_not_import_numpy(tmp_path):
    tri = write_triangle(tmp_path / "tri.json")
    tet = write_simplex(tmp_path / "tet.json", 3)
    simplex4 = write_simplex(tmp_path / "simplex4.json", 4)
    broken = tmp_path / "broken.json"
    broken.write_text('{"dim": 2, "atoms": [')
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"ambient": 2, "rows": [[0.6, 0.8], [-0.8, 0.6]]}))
    # (argv, exit code, modules loaded); None imports only the package and
    # [] only the CLI module
    cases = [
        (None, None, []),
        ([], None, CLI_CORE),
        (["bounds", "--m", "2", "--n", "2"], 0, CLI_CORE + ["bounds"]),
        (["schubert", "--n", "2", "--m", "2", "--check", "main-obstruction"], 0,
         CLI_CORE + ["bounds", "schubert"]),
        (["schubert", "--n", "3", "--codim", "4", "--check", "whitney"], 0,
         CLI_CORE + ["bounds", "schubert"]),
        (["schubert", "--n", "2", "--codim", "5", "--exponents", "2,3"], 0,
         CLI_CORE + ["bounds", "schubert"]),
        (["depth", "--input", tri, "--point", "1/3,1/3"], 0, DEPTH_KERNEL),
        (["depth", "--input", tet, "--point", "1/4,1/4,1/4"], 0, DEPTH_KERNEL),
        (["depth", "--input", simplex4, "--point", "1/5,1/5,1/5,1/5"], 0, DEPTH_KERNEL),
        (["depth", "--input", tri, "--region", "1/3"], 0, DEPTH_KERNEL),
        (["depth", "--input", tri], 0, DEPTH_KERNEL),
        (["center", "--input", tri], 0, DEPTH_KERNEL + ["centers"]),
        # verifying a given frame draws nothing
        (["transversal", "--input", tri, "--frame", str(plane)], 1,
         DEPTH_KERNEL + ["centers", "transversal"]),
        # bad input exits before the depth kernel is imported
        (["depth", "--input", str(broken)], 2, CLI_CORE + ["cloud"]),
        (["center", "--input", str(broken)], 2, CLI_CORE + ["cloud"]),
        (["depth", "--input", tri, "--point", "1/3,x"], 2, CLI_CORE + ["cloud"]),
    ]
    for argv, code, modules in cases:
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_AFTER_MAIN, json.dumps(argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "code": code, "loaded": sorted(modules), "numpy": False
        }, argv


def test_closed_forms_have_one_home():
    from centertrans import bounds, depth, schubert, transversal

    assert depth.thresholds is bounds.thresholds is transversal.thresholds
    assert schubert.min_dimension is bounds.min_dimension is transversal.min_dimension
    assert schubert.is_power_of_two is bounds.is_power_of_two


def test_lazy_reexports_are_the_module_objects():
    import centertrans
    from centertrans import search, simplex, transversal

    assert search is transversal.search
    for name, module in centertrans._LAZY.items():
        assert getattr(centertrans, name) is getattr(getattr(centertrans, module), name)
    assert centertrans.VertexTuple is simplex.VertexTuple
    with pytest.raises(AttributeError):
        centertrans.no_such_name


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "centertrans.cli", "bounds", "--m", "1", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N_min"] == 3
    assert "finished in" in proc.stderr
