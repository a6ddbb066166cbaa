"""Generated instances: the coplanar family, the unrotated embedding and
the families whose weights are fixed."""

import json

import pytest

from centertrans.cli import main
from centertrans.cloud import WeightedPointCloud
from centertrans.errors import DomainError
from centertrans.generators import generate_cloud


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


@pytest.mark.parametrize("family", ["simplex-atoms", "adversarial-three-cluster"])
def test_fixed_weight_families_refuse_random_weights(capsys, family):
    # their weights are equal by construction; random ones were ignored
    with pytest.raises(DomainError, match="fixed equal weights"):
        generate_cloud(family, atoms=6, weight_mode="random")
    code = main(["gen", "--family", family, "--atoms", "6", "--weights", "random"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "error: %s has fixed equal weights" % family in err


@pytest.mark.parametrize("family", ["uniform-ball", "gaussian-quantized", "coplanar"])
def test_sampled_families_take_random_weights(family):
    weights = generate_cloud(family, seed=1, atoms=9, weight_mode="random").weights()
    assert sum(weights) == 1 and len(set(weights)) > 1
