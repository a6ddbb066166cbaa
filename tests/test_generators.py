"""Generated instances: the coplanar family, the unrotated embedding, the
families whose weights are fixed, and the keywords each family reads."""

import json

import pytest

from centertrans.cli import main
from centertrans.cloud import WeightedPointCloud
from centertrans.errors import DomainError
from centertrans.generators import READS, generate_cloud


def _rank(rows):
    """Exact rank of rational rows, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _gen(capsys, tmp_path, *argv):
    path = tmp_path / "cloud.json"
    assert main(["gen", *argv, "--out", str(path)]) == 0
    capsys.readouterr()
    return WeightedPointCloud.from_dict(json.loads(path.read_text()))


def _gram(cloud):
    return [[sum(x * y for x, y in zip(p, q)) for q in cloud.points()] for p in cloud.points()]


def _differences(cloud):
    pts = cloud.points()
    return [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]


def test_coplanar_atoms_span_a_plane(capsys, tmp_path):
    # rotated into R^5, every three atom differences stay linearly dependent
    cloud = _gen(capsys, tmp_path, "--family", "coplanar", "--seed", "2", "--atoms", "8",
                 "--ambient", "5")
    assert cloud.dim == 5 and len(cloud.atoms) == 8
    assert any(p[2:] != (0, 0, 0) for p in cloud.points())
    assert _rank(_differences(cloud)) == 2


@pytest.mark.parametrize("family", ["coplanar", "adversarial-three-cluster"])
def test_no_rotate_keeps_the_plane_on_the_first_axes(capsys, tmp_path, family):
    argv = ("--family", family, "--seed", "3", "--atoms", "6", "--ambient", "4")
    flat = _gen(capsys, tmp_path, *argv, "--no-rotate")
    assert all(p[2:] == (0, 0) for p in flat.points())
    # the rotated cloud is the same planar sample under an exact rotation
    turned = _gen(capsys, tmp_path, *argv)
    assert turned.points() != flat.points() and _gram(turned) == _gram(flat)


@pytest.mark.parametrize("family, refused", [("simplex-atoms", "atoms or weight_mode"),
                                             ("adversarial-three-cluster", "weight_mode")],
                         ids=["simplex-atoms", "adversarial-three-cluster"])
def test_fixed_weight_families_refuse_random_weights(capsys, family, refused):
    # their weights are equal by construction; random ones were ignored
    message = "%s takes no %s" % (family, refused)
    with pytest.raises(DomainError, match="^%s$" % message):
        generate_cloud(family, atoms=6, weight_mode="random")
    code = main(["gen", "--family", family, "--atoms", "6", "--weights", "random"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: " + message


@pytest.mark.parametrize("family", ["uniform-ball", "gaussian-quantized", "coplanar"])
def test_sampled_families_take_random_weights(family):
    weights = generate_cloud(family, seed=1, atoms=9, weight_mode="random").weights()
    assert sum(weights) == 1 and len(set(weights)) > 1


# a second value of every generate_cloud keyword
SECOND = {"seed": 1, "atoms": 5, "dim": 4, "ambient": 4, "denominator": 7,
          "weight_mode": "random", "spread": 0.5, "rotate": False}


@pytest.mark.parametrize("keyword", SECOND)
@pytest.mark.parametrize("family", READS)
def test_every_keyword_changes_the_cloud_or_is_refused(family, keyword):
    # a keyword the family reads changes its cloud; any other is refused,
    # and so is rotate where the default ambient 2 embeds nothing
    embeds = family == "coplanar" or keyword != "rotate"
    if keyword in READS[family] and embeds:
        assert generate_cloud(family, **{keyword: SECOND[keyword]}) != generate_cloud(family)
    else:
        with pytest.raises(DomainError, match="takes no %s$" % keyword):
            generate_cloud(family, **{keyword: SECOND[keyword]})


@pytest.mark.parametrize("family, keywords, message", [
    ("simplex-atoms", {"dim": 2, "atoms": 50, "denominator": 7},
     "simplex-atoms takes no atoms or denominator"),
    ("simplex-atoms", {"dim": 2, "seed": 5}, "simplex-atoms takes no seed"),
    ("gaussian-quantized", {"dim": 2, "atoms": 4, "rotate": False},
     "gaussian-quantized takes no rotate"),
    ("adversarial-three-cluster", {"ambient": 2, "atoms": 4, "rotate": False},
     "adversarial-three-cluster embeds nothing at ambient 2: it takes no rotate"),
    ("coplanar", {"dim": 5, "ambient": 4}, "coplanar takes dim or ambient, not both"),
    ("adversarial-three-cluster", {"dim": 5, "ambient": 4},
     "adversarial-three-cluster takes dim or ambient, not both"),
], ids=["simplex-atoms atoms", "simplex-atoms seed", "gaussian rotate", "cluster rotate",
        "coplanar dim", "cluster dim"])
def test_ignored_keywords_are_refused(family, keywords, message):
    # each of these wrote the cloud without the keyword and exited 0
    with pytest.raises(DomainError, match="^%s$" % message):
        generate_cloud(family, **keywords)


def test_embedded_families_read_dim_as_their_ambient():
    assert generate_cloud("coplanar", dim=4) == generate_cloud("coplanar", ambient=4)
    assert generate_cloud("coplanar", dim=2) == generate_cloud("coplanar", ambient=2)
    cluster = generate_cloud("adversarial-three-cluster", dim=4)
    assert cluster == generate_cloud("adversarial-three-cluster", ambient=4)
