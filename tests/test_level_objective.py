"""For n = 2 the search objective is the common level of the marginals.

``_run_restart`` compares levels alone and builds no witness; ``verify``
builds the witness and checks that its least depth is the level.  The
oracle below is the restart loop that evaluated the whole objective
(witness and exact depths) at every move; the level-only loop, whose
moves search only above the best level so far, must make the same
accept decisions and reach the same objectives, for n = 1 too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from centertrans import depth, transversal
from centertrans.cloud import OrthoFrame, WeightedPointCloud, dot
from centertrans.depth import _deepest_common_region, _DirectionTable, marginal
from centertrans.errors import InternalConsistencyError
from centertrans.generators import generate_cloud, maintheorem_suite
from centertrans.transversal import (
    SearchConfig, _objective_parts, _orthonormalize, _run_restart, random_frame, search, verify,
)

F = Fraction


def _pairs():
    near = generate_cloud("gaussian-quantized", seed=41, atoms=9, dim=7)
    far = generate_cloud("gaussian-quantized", seed=42, atoms=9, dim=7)
    # every atom of the second cloud moved far along the first axis: the
    # axis-frame marginals have disjoint hulls, so no level meets
    far = WeightedPointCloud(7, [((p[0] + 1000,) + p[1:], w) for p, w in far.atoms])
    return {"criterion-9 pair 1": maintheorem_suite(count=2)[1], "far apart": (near, far)}


def _axis_frame(ambient):
    return OrthoFrame([[int(j == i) for j in range(ambient)] for i in range(2)])


def _level(frame, clouds):
    return _deepest_common_region([_DirectionTable(marginal(c, frame)) for c in clouds])[0]


@pytest.mark.parametrize("name", ["criterion-9 pair 1", "far apart"])
def test_level_equals_objective(name):
    clouds = _pairs()[name]
    frames = [random_frame(7, 2, seed) for seed in range(6)] + [_axis_frame(7)]
    levels = []
    for frame in frames:
        level = _level(frame, clouds)
        assert level == _objective_parts(frame, clouds, 2)[0]
        levels.append(level)
    if name == "far apart":
        assert levels[-1] == 0
    else:
        assert min(levels) > 0


def _oracle_restart(seed, clouds, n, target, config):
    """The restart loop as it was: the full objective at every move."""
    rng = np.random.default_rng(seed)
    ambient = clouds[0].dim
    frame = OrthoFrame(_orthonormalize(rng.standard_normal((n, ambient))))
    best_val = _objective_parts(frame, clouds, n)[0]
    angle = transversal._INITIAL_ANGLE
    step = accepted = 0
    while step < config.local_steps and best_val < target:
        step += 1
        rows = [list(r) for r in frame.rows]
        row = int(rng.integers(n))
        d = rng.standard_normal(ambient).tolist()
        coeffs = [dot(r, d) for r in rows]
        d = [x - dot(coeffs, [r[k] for r in rows]) for k, x in enumerate(d)]
        nrm = math.sqrt(dot(d, d))
        if nrm < 1e-9:
            continue
        d = [x / nrm for x in d]
        rows[row] = [math.cos(angle) * a + math.sin(angle) * b for a, b in zip(rows[row], d)]
        nrm = math.sqrt(dot(rows[row], rows[row]))
        rows[row] = [x / nrm for x in rows[row]]
        cand = OrthoFrame(tuple(tuple(r) for r in rows))
        val = _objective_parts(cand, clouds, n)[0]
        if val > best_val:
            frame, best_val = cand, val
            angle = transversal._INITIAL_ANGLE
            accepted += 1
        else:
            angle *= transversal._DECAY
    return best_val, frame, accepted


def _adversarial_pair():
    # planar three-cluster clouds embedded in R^7: their marginals stay near
    # depth 1/3, so the improved bound 28/81 is out of reach (ROADMAP item 2)
    return tuple(generate_cloud("adversarial-three-cluster", seed=s, atoms=9, ambient=7)
                 for s in (51, 52))


def _unequal_pair():
    # random weights: the common level of line marginals moves with the frame
    return tuple(generate_cloud("gaussian-quantized", seed=s, atoms=9, dim=7,
                                weight_mode="random") for s in (31, 32))


def test_restart_matches_full_objective_oracle():
    # targets out of reach: every restart runs all its moves.  The loops
    # agree on accepted moves, not only on rejections; on the adversarial
    # pair the level stays at 1/3 and every move is rejected
    cases = [
        (_pairs()["criterion-9 pair 1"], 2, F(1), True),
        (_unequal_pair(), 1, F(1), True),
        (_adversarial_pair(), 2, F(28, 81), False),
    ]
    config = SearchConfig(restarts=4, local_steps=10, master_seed=5)
    for clouds, n, target, accepts in cases:
        accepted = 0
        for index, seed in enumerate(np.random.SeedSequence(5).spawn(4)):
            want, frame, moves = _oracle_restart(seed, clouds, n, target, config)
            got = _run_restart(index, seed, clouds, n, target, config)
            assert got.objective == want
            assert got.frame.rows == frame.rows
            assert not got.success
            accepted += moves
        assert (accepted > 0) == accepts


@pytest.mark.parametrize("name", ["criterion-9 pair 1", "adversarial"])
def test_rejected_moves_build_one_region(monkeypatch, name):
    """A move passes the best level as the floor of its level search, and a
    move the floor rejects builds at most one region: the probe just above
    the floor.  Only a restart's first frame searches without a floor."""
    clouds = _adversarial_pair() if name == "adversarial" else _pairs()[name]
    builds = []
    calls = []  # (floor, regions built, level) per level search
    region = depth._region_vertices
    level_search = transversal._deepest_common_region

    def counting(tables, tau):
        builds.append(tau)
        return region(tables, tau)

    def recording(tables, floor=None):
        before = len(builds)
        got = level_search(tables, floor)
        calls.append((floor, len(builds) - before, got[0]))
        return got

    monkeypatch.setattr(depth, "_region_vertices", counting)
    monkeypatch.setattr(transversal, "_deepest_common_region", recording)
    config = SearchConfig(restarts=3, local_steps=25, master_seed=7)
    rejected = 0
    for index, seed in enumerate(np.random.SeedSequence(7).spawn(3)):
        calls.clear()
        _run_restart(index, seed, clouds, 2, F(1), config)
        assert calls[0][0] is None
        assert len(calls) == 1 + config.local_steps
        best = calls[0][2]
        for floor, built, level in calls[1:]:
            assert floor == best
            if level > floor:
                best = level
            else:
                assert built <= 1
                rejected += 1
    assert rejected > 0


def test_verify_raises_when_least_depth_is_not_the_level(monkeypatch):
    clouds = _pairs()["criterion-9 pair 1"]
    frame = random_frame(7, 2, 0)
    assert verify(frame, clouds, 2).objective == _level(frame, clouds)
    common_level = transversal._common_level

    def off_by_one_step(tables, marginals):
        level, witness = common_level(tables, marginals)
        return level + F(1, 10 ** 6), witness

    monkeypatch.setattr(transversal, "_common_level", off_by_one_step)
    with pytest.raises(InternalConsistencyError):
        verify(frame, clouds, 2)


def _report_cases():
    """(clouds, n, config, restart index of the report) per case."""
    suite = maintheorem_suite(count=6)
    cases = {
        "criterion-9 pair %d" % i: (suite[i], 2, SearchConfig(
            restarts=120, local_steps=25, master_seed=2000 + i), index)
        for i, index in ((1, 0), (2, 0), (5, 1))
    }
    cases["n = 1"] = (_unequal_pair(), 1, SearchConfig(restarts=3, local_steps=10, master_seed=5),
                      None)
    cases["zero level"] = (_pairs()["far apart"], 2, SearchConfig(restarts=2, local_steps=3),
                           None)
    return cases


@pytest.mark.parametrize("name", sorted(_report_cases()))
def test_search_report_is_verify_of_its_frame(name):
    """The report of a search is verify's of its frame: both read the same
    integer images, the restart through its floored level search and
    verify through the full one, and only the search record differs."""
    clouds, n, config, index = _report_cases()[name]
    report = search(list(clouds), n, config)
    if index is not None:
        assert report.success and report.restart_index == index
    if name == "zero level":
        assert report.objective == 0
    else:
        assert report.objective > 0
    # the restart's level, from image tables, is the report's objective
    assert report.trajectory[report.restart_index][1] == float(report.objective)
    got = report.to_dict()
    want = verify(report.frame, list(clouds), n).to_dict()
    for key in ("restart_index", "config", "trajectory"):
        del got[key], want[key]
    assert got == want
