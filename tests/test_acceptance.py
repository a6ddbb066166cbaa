"""Acceptance gate: every criterion prints one pass/fail line (run with -s).

Criteria 8 and 9 use the fixed seeded suites from centertrans.generators
and documented budgets well inside the allowed caps (200/500 restarts,
500 local steps).  Criterion 10 reruns both suites and demands
byte-identical reports.
"""

import hashlib
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from centertrans.cloud import WeightedPointCloud
from centertrans.depth import (
    depth_of_measure,
    halfspace_mass,
    thresholds,
    tukey_depth,
)
from centertrans.generators import centerline_suite, maintheorem_suite
from centertrans.schubert import (
    Cochain,
    GrassmannContext,
    height_w1,
    min_dimension,
    monomial,
    pieri_dual,
    pieri_special,
    whitney_defect,
    wn_power,
)
from centertrans.serialize import dump_json
from centertrans.simplex import (
    VertexTuple,
    delta_of_vertices,
    positive_dependence,
)
from centertrans.transversal import SearchConfig, search
from centertrans.errors import DegeneracyError, OriginNotInteriorError

F = Fraction

CENTERLINE_CONFIG = dict(restarts=40, local_steps=25)  # caps: 200 / 500
MAINTHEOREM_CONFIG = dict(restarts=120, local_steps=25)  # cap: 500 restarts


def _report(num, name, ok, detail=""):
    line = "ACCEPTANCE %2d %-24s %s  %s" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_golden_chain():
    started = time.perf_counter()
    ok = True
    for m in range(1, 5):
        for n in range(2, 6):
            ctx = GrassmannContext(n, 3 * m - 1)
            exps = [0] * n
            exps[0] = m
            exps[n - 1] += 2 * m - 1
            cls = monomial(ctx, exps)
            target = (2 * m - 1,) * (n - 1) + (3 * m - 1,)
            ok = ok and not cls.is_zero() and target in cls.support
    special = monomial(GrassmannContext(2, 5), (2, 3))
    ok = ok and special.support == frozenset({(3, 5), (4, 4)})
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10
    _report(1, "golden-chain", ok, "m<=4, n<=5; m=2,n=2 support exact; %.2fs" % elapsed)


def test_criterion_02_wn_height():
    started = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for codim in range(1, 9):
            ctx = GrassmannContext(n, codim)
            ok = ok and not wn_power(ctx, codim).is_zero()
            ok = ok and wn_power(ctx, codim + 1).is_zero()
            # the closed form must agree with iterated vertical strips
            acc = Cochain(ctx, [(0,) * n])
            for k in range(1, codim + 2):
                acc = pieri_dual(acc, n)
                ok = ok and acc == wn_power(ctx, k)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5
    _report(2, "wn-height", ok, "n<=5, codim<=8; %.2fs" % elapsed)


def test_criterion_03_w1_heights():
    started = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for codim in range(1, 9):
            h = height_w1(GrassmannContext(n, codim))
            ok = ok and h >= codim
            if n == 1:
                ok = ok and h == codim
    for ambient in range(3, 17):
        codim = ambient - 2
        h = height_w1(GrassmannContext(2, codim))
        s = 1
        while 2 ** s < ambient:
            s += 1
        ok = ok and h == 2 ** s - 2
    for n in (2, 4):  # N = 2n a power of two
        ambient = 2 * n
        s = ambient.bit_length() - 1
        ctx = GrassmannContext(n, n)
        exps = [0] * n
        exps[0] = 2 ** (s - 1)
        ok = ok and not monomial(ctx, exps).is_zero()
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30
    _report(3, "w1-heights", ok, "lemma clauses incl. n=2, N<=16; %.2fs" % elapsed)


def test_criterion_04_whitney():
    started = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for codim in range(0, 7):
            ctx = GrassmannContext(n, codim)
            for d in range(1, n + codim + 1):
                ok = ok and whitney_defect(ctx, d).is_zero()
    rng = np.random.default_rng(20250801)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        codim = int(rng.integers(1, 7))
        ctx = GrassmannContext(n, codim)
        support = set()
        for _ in range(int(rng.integers(0, 5))):
            support.add(tuple(sorted(int(rng.integers(0, codim + 1)) for _ in range(n))))
        c = Cochain(ctx, support)
        ok = ok and pieri_dual(c, 1) == pieri_special(c, 1)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10
    _report(4, "whitney-identity", ok, "all contexts n<=4, codim<=6; %.2fs" % elapsed)


def _rado_cloud(rng):
    n_atoms = int(rng.integers(5, 16))
    pts = rng.integers(-100, 101, size=(n_atoms, 2))
    raw = rng.integers(1, 12, size=n_atoms)
    total = int(raw.sum())
    atoms = [
        (tuple(F(int(c), 100) for c in p), F(int(w), total))
        for p, w in zip(pts, raw)
    ]
    return WeightedPointCloud(2, atoms)


def _rado_probes(rng, cloud, count=50):
    pts = cloud.points()
    probes = []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            i, j = rng.integers(0, len(pts), 2)
            probes.append(
                tuple((a + b) / 2 for a, b in zip(pts[int(i)], pts[int(j)]))
            )
        elif kind == 1:
            i, j, l = rng.integers(0, len(pts), 3)
            wa, wb, wc = (int(v) for v in rng.integers(1, 5, 3))
            tot = wa + wb + wc
            probes.append(
                tuple(
                    (wa * a + wb * b + wc * c) / tot
                    for a, b, c in zip(pts[int(i)], pts[int(j)], pts[int(l)])
                )
            )
        else:
            probes.append(
                (F(int(rng.integers(-150, 151)), 100), F(int(rng.integers(-150, 151)), 100))
            )
    return probes


def test_criterion_05_rado_property():
    started = time.perf_counter()
    seeds = np.random.SeedSequence(20250805).spawn(200)
    rado = F(1, 3)
    ok = True
    for seq in seeds:
        rng = np.random.default_rng(seq)
        cloud = _rado_cloud(rng)
        dv, point = depth_of_measure(cloud)
        ok = ok and dv.value >= rado
        ok = ok and tukey_depth(cloud, point).value == dv.value
        pts = np.array([[float(x) for x in p] for p in cloud.points()])
        ws = np.array([float(w) for w in cloud.weights()])
        dirs = rng.standard_normal((1000, 2))
        for probe in _rado_probes(rng, cloud):
            dval = tukey_depth(cloud, probe)
            if dval.witness_direction is None:
                ok = ok and dval.value == 1
            else:
                level = sum(p * v for p, v in zip(probe, dval.witness_direction))
                achieved = halfspace_mass(cloud, dval.witness_direction, level)
                ok = ok and achieved == dval.value
            rel = pts - np.array([float(x) for x in probe])
            masses = (ws * ((dirs @ rel.T) >= -1e-12)).sum(axis=1)
            ok = ok and float(dval.value) <= float(masses.min()) + 1e-9
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60
    _report(5, "rado-property", ok, "200 clouds, 50 probes each; %.2fs" % elapsed)


def test_criterion_06_threshold_tables():
    ok = thresholds(2) == (F(1, 3), F(28, 81))
    ok = ok and thresholds(3) == (F(1, 4), F(49, 192))
    ok = ok and min_dimension(1, 2) == 3
    ok = ok and min_dimension(1, 3) == 5
    ok = ok and min_dimension(2, 2) == 5
    ok = ok and min_dimension(2, 3) == 8
    _report(6, "threshold-tables", ok, "exact rational matches")


def _random_tuple(rng, n):
    while True:
        v = rng.standard_normal((n + 1, n))
        v -= v.mean(axis=0)
        tup = VertexTuple.of(v)
        try:
            positive_dependence(tup)
            return tup
        except (DegeneracyError, OriginNotInteriorError):
            continue


def _hausdorff(a, b):
    d = np.linalg.norm(np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_criterion_07_simplex_pipeline():
    started = time.perf_counter()
    rng = np.random.default_rng(20250807)
    ok = True
    for trial in range(100):
        n = 2 if trial % 2 == 0 else 3
        tup = _random_tuple(rng, n)
        pl = delta_of_vertices(tup)
        eye = np.eye(n)
        ok = ok and float(np.max(np.abs(pl.factor_r @ pl.factor_r.T - eye))) <= 1e-9
        ok = ok and float(np.max(np.abs(pl.factor_s @ pl.factor_r - pl.map_a))) <= 1e-9
        verts = pl.delta_vertices
        for i, j in combinations(range(n + 1), 2):
            ok = ok and abs(float(np.linalg.norm(verts[i] - verts[j])) - 1.0) <= 1e-9
        ok = ok and float(np.max(np.abs(verts.mean(axis=0)))) <= 1e-9
        perm = rng.permutation(n + 1)
        pl_perm = delta_of_vertices(VertexTuple.of(tup.as_array()[perm]))
        ok = ok and _hausdorff(verts, pl_perm.delta_vertices) <= 1e-8
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        pl_rot = delta_of_vertices(VertexTuple.of(tup.as_array() @ q.T))
        ok = ok and _hausdorff(verts @ q.T, pl_rot.delta_vertices) <= 1e-8
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10
    _report(7, "simplex-pipeline", ok, "100 seeded tuples, n in {2,3}; %.2fs" % elapsed)


def _run_centerline():
    target = F(28, 81)
    reports = []
    started = time.perf_counter()
    for i, cloud in enumerate(centerline_suite()):
        cfg = SearchConfig(master_seed=1000 + i, **CENTERLINE_CONFIG)
        reports.append(search([cloud], 2, cfg))
    elapsed = time.perf_counter() - started
    wins = sum(1 for r in reports if r.success and r.objective >= target)
    return reports, wins, elapsed


def _run_maintheorem():
    target = F(28, 81)
    reports = []
    started = time.perf_counter()
    for i, (c1, c2) in enumerate(maintheorem_suite()):
        cfg = SearchConfig(master_seed=2000 + i, **MAINTHEOREM_CONFIG)
        reports.append(search([c1, c2], 2, cfg))
    elapsed = time.perf_counter() - started
    wins = sum(
        1
        for r in reports
        if r.success and all(v >= target for v in r.per_measure_depths)
    )
    return reports, wins, elapsed


@pytest.fixture(scope="module")
def centerline_run():
    return _run_centerline()


@pytest.fixture(scope="module")
def maintheorem_run():
    return _run_maintheorem()


def test_criterion_08_centerline(centerline_run):
    reports, wins, elapsed = centerline_run
    ok = wins >= 18 and elapsed < 60
    _report(8, "centerline-m1-N3", ok, "%d/20 instances, %.1fs" % (wins, elapsed))


def test_criterion_09_maintheorem(maintheorem_run):
    reports, wins, elapsed = maintheorem_run
    ok = wins >= 8 and elapsed < 300
    _report(9, "main-theorem-m2-N7", ok, "%d/10 instances, %.1fs" % (wins, elapsed))


def test_criterion_10_determinism(centerline_run, maintheorem_run):
    rerun_center, _, _ = _run_centerline()
    rerun_main, _, _ = _run_maintheorem()
    first_center = [dump_json(r.to_dict()) for r in centerline_run[0]]
    first_main = [dump_json(r.to_dict()) for r in maintheorem_run[0]]
    ok = first_center == [dump_json(r.to_dict()) for r in rerun_center]
    ok = ok and first_main == [dump_json(r.to_dict()) for r in rerun_main]
    _report(10, "determinism", ok, "reruns byte-identical")


# SHA-256 of the concatenated dump_json reports of each suite, in suite
# order: any change to a report shows here.  The frame floats come from
# correctly rounded pure-Python sums, so the digests hold on every BLAS
# kernel; numpy's seeded draws (whose streams NEP 19 lets a numpy release
# change) are their one outside input.
REPORT_DIGESTS = {
    8: "288833a7b52ddae1bde7c3f880c854c86eb3fd5c09c2fa51f0d88db965e51246",
    9: "0c05bfc544501b33e843071543a77a7aa5d3c454aa06fdecce5cb00d16ed82b9",
}


def test_report_digests_pinned(centerline_run, maintheorem_run):
    for num, (reports, _, _) in ((8, centerline_run), (9, maintheorem_run)):
        text = "".join(dump_json(r.to_dict()) for r in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[num], num
