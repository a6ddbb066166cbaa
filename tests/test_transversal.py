from fractions import Fraction

import numpy as np
import pytest

from centertrans import transversal
from centertrans.centers import center_point
from centertrans.cloud import OrthoFrame, WeightedPointCloud, quantize_entry
from centertrans.depth import depth_of_measure, marginal, tukey_depth
from centertrans.errors import DomainError
from centertrans.generators import generate_cloud
from centertrans.serialize import dump_json
from centertrans.transversal import (
    SearchConfig,
    _objective_parts,
    random_frame,
    search,
    verify,
)

F = Fraction


def planar_cloud(seed=3, atoms=10):
    return generate_cloud("gaussian-quantized", seed=seed, atoms=atoms, dim=2)


def embedded(cloud2, ambient=3):
    atoms = [
        (tuple(p) + (F(0),) * (ambient - 2), w) for p, w in cloud2.atoms
    ]
    return WeightedPointCloud(ambient, atoms)


def axis_frame(ambient):
    rows = [[0] * ambient, [0] * ambient]
    rows[0][0] = 1
    rows[1][1] = 1
    return OrthoFrame(rows)


def test_random_frame_determinism_and_gram():
    f1 = random_frame(5, 2, 42)
    f2 = random_frame(5, 2, 42)
    assert f1.rows == f2.rows
    assert random_frame(5, 2, 43).rows != f1.rows
    for seed in range(100):
        f = random_frame(6, 3, seed)
        g = np.array(f.rows)
        assert np.max(np.abs(g @ g.T - np.eye(3))) <= 1e-12


def test_random_frame_full_basis_and_errors():
    f = random_frame(3, 3, 0)
    g = np.array(f.rows)
    assert np.max(np.abs(g @ g.T - np.eye(3))) <= 1e-12
    with pytest.raises(DomainError):
        random_frame(2, 3, 0)


def test_search_config_fields():
    # the move schedule is fixed, not a setting
    assert tuple(SearchConfig.__dataclass_fields__) == (
        "restarts", "local_steps", "master_seed", "target")


@pytest.mark.parametrize("call", [
    lambda: SearchConfig(master_seed=-1),
    lambda: random_frame(3, 2, -1),
    lambda: generate_cloud("gaussian-quantized", seed=-1),
    lambda: generate_cloud("adversarial-three-cluster", seed=-7, ambient=7),
], ids=["search-config", "random-frame", "gaussian", "cluster"])
def test_library_rejects_negative_seeds(call):
    # numpy raises a plain ValueError on a negative seed
    with pytest.raises(DomainError, match="seed must be >= 0"):
        call()


def test_objective_single_measure_reduces_to_depth():
    c2 = planar_cloud()
    c3 = embedded(c2)
    frame = axis_frame(3)
    value = verify(frame, [c3], 2).objective
    dm, _ = depth_of_measure(c2)
    assert value == dm.value
    assert set(marginal(c3, frame).atoms) == set(c2.atoms)


def test_objective_coplanar_support_matches_in_plane():
    a2 = planar_cloud(seed=5)
    b2 = planar_cloud(seed=6)
    frame = axis_frame(4)
    a4, b4 = embedded(a2, 4), embedded(b2, 4)
    value = verify(frame, [a4, b4], 2).objective
    # recompute entirely in the plane
    from centertrans.depth import _DirectionTable
    from centertrans.transversal import _common_level

    level, w2 = _common_level([_DirectionTable(a2), _DirectionTable(b2)], [a2, b2])
    from centertrans.depth import tukey_depth

    in_plane = min(tukey_depth(a2, w2).value, tukey_depth(b2, w2).value)
    assert value == in_plane


def test_objective_monotone_infeasible_target():
    c = embedded(planar_cloud(seed=9))
    frame = axis_frame(3)
    value = verify(frame, [c], 2).objective
    assert value < 1  # tau = 1 is infeasible for a spread-out cloud


@pytest.mark.parametrize("call", [verify, _objective_parts], ids=["verify", "objective"])
@pytest.mark.parametrize("ambient", [2, 4])
def test_frame_of_another_ambient_dimension_is_refused(call, ambient):
    # depth._images checks the frame's ambient dimension on every projection
    cloud = embedded(planar_cloud())
    frame = axis_frame(ambient)
    with pytest.raises(DomainError, match="frame ambient %d does not match cloud dim 3" % ambient):
        call(frame, [cloud, cloud], 2)


def test_search_degenerate_config_is_single_frame():
    c = embedded(planar_cloud(seed=11))
    cfg = SearchConfig(restarts=1, local_steps=0, master_seed=7, target=F(1))
    rep = search([c], 2, cfg)
    seed = np.random.SeedSequence(7).spawn(1)[0]
    rng = np.random.default_rng(seed)
    from centertrans.transversal import _orthonormalize

    frame = OrthoFrame(_orthonormalize(rng.standard_normal((2, 3))))
    assert rep.objective == verify(frame, [c], 2).objective
    assert rep.restart_index == 0
    assert not rep.success


def test_search_hexagon_plane():
    pts = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    hexagon = WeightedPointCloud(
        2, [(tuple(map(F, p)), F(1, 6)) for p in pts]
    )
    c3 = embedded(hexagon)
    rep = search([c3], 2, SearchConfig(restarts=20, local_steps=15, master_seed=1))
    assert rep.success and rep.objective >= F(28, 81)
    # the plane itself certainly works
    direct = verify(axis_frame(3), [c3], 2)
    assert direct.objective == F(1, 2)
    assert direct.success


def test_verify_identical_clouds_zero_spread():
    c = embedded(planar_cloud(seed=13))
    rep = verify(axis_frame(3), [c, c], 2)
    assert rep.c_spread == 0.0
    assert rep.per_measure_depths[0] == rep.per_measure_depths[1]
    assert len(rep.c_points) == 2 and rep.c_points[0] == rep.c_points[1]


def test_verify_failing_index_identified():
    near = embedded(planar_cloud(seed=15))
    far2 = planar_cloud(seed=16)
    far = WeightedPointCloud(
        3, [((p[0] + 1000, p[1], F(0)), w) for p, w in far2.atoms]
    )
    rep = verify(axis_frame(3), [near, far], 2)
    assert not rep.success
    assert len(rep.failing_measures) >= 1
    assert rep.objective == min(rep.per_measure_depths)


def test_verify_objective_recompute_exact():
    c = embedded(planar_cloud(seed=17))
    rep = verify(axis_frame(3), [c], 2)
    from centertrans.depth import tukey_depth

    m = marginal(c, rep.frame)
    assert tukey_depth(m, rep.witness_point).value == rep.per_measure_depths[0]
    assert rep.objective == min(rep.per_measure_depths)


def test_orthogonal_equivariance_of_objective():
    c2 = planar_cloud(seed=19, atoms=8)
    c3 = embedded(c2)
    frame = random_frame(3, 2, 5)
    value = verify(frame, [c3], 2).objective
    # rotate cloud and frame by an exact rational orthogonal map
    q = [
        [F(3, 5), F(-4, 5), F(0)],
        [F(4, 5), F(3, 5), F(0)],
        [F(0), F(0), F(1)],
    ]
    from centertrans.cloud import apply_affine

    c3q = apply_affine(c3, q)
    rows = [[quantize_entry(x) for x in r] for r in frame.rows]
    rot_rows = [
        tuple(sum(q[i][j] * r[j] for j in range(3)) for i in range(3)) for r in rows
    ]
    frame_q = OrthoFrame(rot_rows)
    value_q = verify(frame_q, [c3q], 2).objective
    assert value_q == value


def test_search_determinism_cold_and_warm_cache():
    c = embedded(planar_cloud(seed=21, atoms=9))
    cfg = SearchConfig(restarts=6, local_steps=5, master_seed=3)
    # a fresh copy starts with an empty direction-table cache
    rep1 = search([WeightedPointCloud(c.dim, c.atoms)], 2, cfg)
    rep2 = search([c], 2, cfg)
    rep3 = search([c], 2, cfg)
    assert dump_json(rep1.to_dict()) == dump_json(rep2.to_dict())
    assert dump_json(rep2.to_dict()) == dump_json(rep3.to_dict())


def test_search_warns_below_guaranteed_dimension():
    c = planar_cloud(seed=23)  # ambient 2 < 2m+n-1 = 3
    with pytest.warns(UserWarning):
        search([c], 2, SearchConfig(restarts=1, local_steps=0, master_seed=0))


def test_report_serialization_shape():
    c = embedded(planar_cloud(seed=25))
    rep = verify(axis_frame(3), [c], 2)
    d = rep.to_dict()
    assert set(d) >= {
        "frame_rows",
        "projector",
        "objective",
        "per_measure_depths",
        "witness_point",
        "c_points",
        "c_spread",
        "success",
        "target",
        "failing_measures",
    }
    assert len(d["projector"]) == 3


def test_monotone_feasibility_of_levels():
    a2, b2 = planar_cloud(seed=31), planar_cloud(seed=32)
    from centertrans.depth import _DirectionTable, depth_region
    from centertrans.transversal import _common_level

    level, witness = _common_level([_DirectionTable(a2), _DirectionTable(b2)], [a2, b2])
    assert level > 0
    for frac in (F(1, 2), F(3, 4)):
        lower = level * frac
        for cloud in (a2, b2):
            assert depth_region(cloud, lower).contains(witness)


def test_search_trajectory_lists_every_restart_run():
    c = embedded(planar_cloud(seed=27))
    cfg = SearchConfig(restarts=5, local_steps=3, master_seed=9, target=F(1))
    rep = search([c], 2, cfg)  # unreachable target: all restarts recorded
    indices = [row[0] for row in rep.trajectory]
    assert indices == list(range(5))
    assert rep.restart_index in indices
    easy = search([c], 2, SearchConfig(restarts=5, local_steps=3, master_seed=9))
    # the search stops at the first restart that reaches the target
    assert easy.success
    assert [row[0] for row in easy.trajectory] == list(range(easy.restart_index + 1))


def brute_common_level(marginals):
    """Largest least depth over the line marginals, tried at every atom and
    between neighbouring atoms, where the least depth is constant."""
    xs = sorted({x for m in marginals for (x,), _ in m.atoms})
    probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    return max(min(tukey_depth(m, (x,)).value for m in marginals) for x in probes)


def test_transversal_n1_is_exact():
    # n = 1 runs the level search on the marginals read as the x axis
    a = generate_cloud("gaussian-quantized", seed=1, atoms=6, dim=3)
    b = generate_cloud("gaussian-quantized", seed=2, atoms=6, dim=3)

    def run():
        checked = verify(random_frame(3, 1, 0), [a, b], 1)
        found = search([a, b], 1, SearchConfig(restarts=2, local_steps=1, master_seed=4))
        return checked, found

    reports = run()
    for rep in reports:
        marginals = [marginal(c, rep.frame) for c in (a, b)]
        assert rep.exact
        assert rep.objective == min(rep.per_measure_depths) == brute_common_level(marginals)
        assert rep.c_points == tuple(center_point(m, 1).c for m in marginals)
    assert [dump_json(r.to_dict()) for r in run()] == [dump_json(r.to_dict()) for r in reports]
    # the triangle's x marginal has depth 2/3 only at the atom x = 0
    tri = WeightedPointCloud(2, [((F(0), F(0)), F(1, 3)), ((F(1), F(0)), F(1, 3)),
                                 ((F(0), F(1)), F(1, 3))])
    rep = verify(OrthoFrame([[1.0, 0.0]]), [tri], 1)
    assert rep.exact and rep.success
    assert rep.objective == F(2, 3)
    assert rep.witness_point == (F(0),) and rep.c_points == ((F(0),),)


@pytest.mark.parametrize("master", [0, 7, 2005])
def test_restart_seeds_are_the_spawned_children(monkeypatch, master):
    """Restart i's seed, made when it starts, draws as the i-th child that
    SeedSequence(master).spawn(restarts) would give."""
    seeds = []
    run_restart = transversal._run_restart

    def recording(index, seed, *args):
        seeds.append(seed)
        return run_restart(index, seed, *args)

    monkeypatch.setattr(transversal, "_run_restart", recording)
    c = embedded(planar_cloud(seed=11))
    search([c], 2, SearchConfig(restarts=6, local_steps=1, master_seed=master, target=F(1)))
    children = np.random.SeedSequence(master).spawn(6)
    assert len(seeds) == 6
    for seed, child in zip(seeds, children):
        assert seed.generate_state(8).tolist() == child.generate_state(8).tolist()
        assert (np.random.default_rng(seed).standard_normal(5).tolist()
                == np.random.default_rng(child).standard_normal(5).tolist())


def test_search_with_a_huge_restart_budget_stops_at_restart_0():
    # every 2-D marginal of a planar cloud reaches 1/3 (Rado), so restart 0
    # succeeds; no seed is made for the restarts that do not run
    c = embedded(planar_cloud(seed=11))
    rep = search([c], 2, SearchConfig(restarts=10 ** 23, local_steps=0, target=F(1, 3)))
    assert rep.success and rep.restart_index == 0
    assert rep.trajectory == ((0, float(rep.objective), True),)
