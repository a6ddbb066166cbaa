"""The three benchmark workloads.

Each workload makes its inputs from the seed (``setup``), runs one round
of timed operations (``round``), and checks the round's outputs
(``check``).  A round always attempts the same operations, so the share
of failed operations does not depend on the seed or the run length.
Every timed call into centertrans gets a freshly built cloud object, so
nothing the program caches on a cloud carries over between calls.
A round records the time of each operation under a label, in two
phases, ``main`` and ``aux``; a run reports each phase as its mean time
per round over the whole run.  FIGURES
names the two phases as README.md does.

Inputs are fixed base instances moved by an exact rational translation
drawn from the seed.  Depth, depth regions, marginals and the search's
accept/reject decisions are all translation-equivariant, so every seed
does the same exact work on different coordinates.  Drawing a fresh
instance per seed instead moved the round time by 15-30% from seed to
seed (the depth search visits a different number of feasible levels),
on top of the host's own timing noise.
"""

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

import catalog
import oracles

IMPROVED = Fraction(28, 81)
RADO = Fraction(1, 3)


def shift(seed, stream, dim):
    """Seeded translation vector, entries in [-2, 2] with denominator 10^4."""
    rng = np.random.default_rng([seed, stream])
    return tuple(Fraction(int(v), 10000) for v in rng.integers(-20000, 20001, dim))


def translate(cloud, t):
    from centertrans.cloud import WeightedPointCloud

    return WeightedPointCloud(
        cloud.dim, [(tuple(c + s for c, s in zip(p, t)), w) for p, w in cloud.atoms]
    )


def fresh(cloud):
    """A new cloud object with the same atoms (no cached tables)."""
    from centertrans.cloud import WeightedPointCloud

    return WeightedPointCloud(cloud.dim, cloud.atoms)


class RoundResult:
    def __init__(self):
        self.main = []  # (operation label, seconds)
        self.aux = []
        self.outputs = []  # canonical text of every output, compared across rounds
        self.checks = []  # (description, ok) pairs, from the oracle checks
        self.attempted = 0
        self.failed = 0
        self.pending = None  # raw outputs kept for check()
        self.wall = 0.0  # wall time of the whole round

    def expect(self, what, ok):
        self.checks.append((what, bool(ok)))


def _timed(fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


# --------------------------------------------------------------------------
# search-m2


class SearchM2:
    """Search and --frame re-verification of three criterion-9 pairs.

    Pairs 1 and 2 are solved at restart 0 (after 2 and 5 objective
    evaluations), pair 5 at restart 1 (28 evaluations), so parallel
    restarts can gain on one and not on the others.  Both clouds of a
    pair move by the same translation, which moves every marginal, and
    so the common region, by one vector.
    """

    INSTANCES = (1, 2, 5)
    FIGURES = ("search_s", "verify_s")

    def setup(self, seed, workdir):
        from centertrans.generators import maintheorem_suite

        data = catalog.load()
        entries = {e["index"]: e for e in data["instances"]}
        suite = maintheorem_suite(count=max(self.INSTANCES) + 1)
        t = shift(seed, 1, suite[0][0].dim)
        instances = []
        for i in self.INSTANCES:
            if not entries[i]["solved"]:
                raise RuntimeError("catalogue says pair %d is not solved" % i)
            instances.append((entries[i], tuple(translate(c, t) for c in suite[i])))
        return {"search": data["search"], "instances": instances}

    def round(self, inputs, res):
        from centertrans.serialize import dump_json
        from centertrans.transversal import SearchConfig, search, verify

        res.pending = []
        for entry, clouds in inputs["instances"]:
            cfg = SearchConfig(master_seed=catalog.master_seed(entry["index"]), **inputs["search"])
            res.attempted += 2
            rep, dt = _timed(search, [fresh(c) for c in clouds], 2, cfg)
            res.main.append(("search pair %d" % entry["index"], dt))
            again, dt = _timed(verify, rep.frame, [fresh(c) for c in clouds], 2)
            res.aux.append(("verify pair %d" % entry["index"], dt))
            res.failed += (not rep.success) + (not again.success)
            res.outputs.append(dump_json(rep.to_dict()) + dump_json(again.to_dict()))
            res.pending.append((entry, clouds, rep, again))

    def check(self, inputs, res):
        from centertrans.serialize import frac_str

        for entry, clouds, rep, again in res.pending:
            tag = "pair %d" % entry["index"]
            res.expect(tag + " restart index as catalogued",
                       rep.restart_index == entry["restart_index"])
            res.expect(tag + " objective as catalogued", frac_str(rep.objective) == entry["objective"])
            res.expect(tag + " depths as catalogued",
                       [frac_str(v) for v in rep.per_measure_depths] == entry["per_measure_depths"])
            for label, r in (("search", rep), ("verify", again)):
                rows = np.array([[float(x) for x in row] for row in r.frame.rows])
                gram = rows @ rows.T
                res.expect("%s %s rows orthonormal" % (tag, label),
                           float(np.max(np.abs(gram - np.eye(len(rows))))) <= 1e-9)
                per = [
                    oracles.planar_depth(oracles.quantized_marginal(c.atoms, r.frame.rows),
                                         r.witness_point)
                    for c in clouds
                ]
                res.expect("%s %s depths match the oracle" % (tag, label),
                           per == list(r.per_measure_depths))
                res.expect("%s %s objective is the least depth" % (tag, label),
                           r.objective == min(r.per_measure_depths))
                if r.success:
                    res.expect("%s %s reaches 28/81" % (tag, label),
                               all(v >= IMPROVED for v in r.per_measure_depths))
            res.expect(tag + " verify agrees with search",
                       again.per_measure_depths == rep.per_measure_depths)


# --------------------------------------------------------------------------
# deepest-point


class DeepestPoint:
    """depth_of_measure and center_point over a ladder of planar clouds.

    Gaussian clouds of 25 and 50 atoms (sufficient depth) and an
    adversarial three-cluster cloud of 24 atoms (depth exactly 1/3,
    insufficient): a round of about 5 s.  The 100-atom Gaussian cloud
    (about 19 s for the pair of calls) and the 48- and 99-atom
    adversarial clouds would leave one or two rounds per run, too few to
    average out the host's speed episodes.
    """

    LADDER = (  # family, atoms, generator seed of the base cloud
        ("gaussian-quantized", 25, 101),
        ("gaussian-quantized", 50, 102),
        ("adversarial-three-cluster", 25, 104),
    )
    VERTEX_SAMPLES = 20
    FIGURES = ("measure_depth_s", "center_s")

    def setup(self, seed, workdir):
        from centertrans.generators import generate_cloud

        return [
            translate(generate_cloud(family, seed=base, atoms=k, dim=2), shift(seed, 10 + i, 2))
            for i, (family, k, base) in enumerate(self.LADDER)
        ]

    def round(self, inputs, res):
        from centertrans.centers import center_point
        from centertrans.depth import depth_of_measure

        res.pending = []
        for cloud, (family, _, _) in zip(inputs, self.LADDER):
            label = "%s %d" % (family, len(cloud))
            res.attempted += 2
            (dv, point), dt = _timed(depth_of_measure, fresh(cloud))
            res.main.append(("depth_of_measure " + label, dt))
            rep, dt = _timed(center_point, fresh(cloud), 2)
            res.aux.append(("center_point " + label, dt))
            res.outputs.append("%s %s %s" % (dv.value, point, json.dumps(rep.to_dict(), sort_keys=True)))
            res.pending.append((cloud, dv, point, rep))

    def check(self, inputs, res):
        from centertrans.centers import INSUFFICIENT, SUFFICIENT

        rng = np.random.default_rng(0)
        for cloud, dv, point, rep in res.pending:
            tag = "%d atoms" % len(cloud)
            atoms = cloud.atoms
            dm = dv.value
            res.expect(tag + " depth at least 1/3", dm >= RADO)
            res.expect(tag + " depth attained at the point", oracles.planar_depth(atoms, point) == dm)
            res.expect(tag + " no atom deeper",
                       all(oracles.planar_depth(atoms, p) <= dm for p, _ in atoms))
            pts = [p for p, _ in atoms]
            deeper = False
            for _ in range(self.VERTEX_SAMPLES):
                a, b, c, d = (pts[int(i)] for i in rng.choice(len(pts), 4, replace=False))
                v = _line_intersection(a, b, c, d)
                if v is not None and oracles.planar_depth(atoms, v) > dm:
                    deeper = True
            res.expect(tag + " no sampled arrangement vertex deeper", not deeper)
            want = INSUFFICIENT if dm < IMPROVED else SUFFICIENT
            level = dm if want == INSUFFICIENT else IMPROVED
            res.expect(tag + " classification", rep.classification == want)
            res.expect(tag + " center report depth", rep.depth_of_measure == dm)
            res.expect(tag + " c reaches its level", oracles.planar_depth(atoms, rep.c) >= level)


def _line_intersection(a, b, c, d):
    """Exact intersection of lines ab and cd, or None when parallel."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    den = r[0] * s[1] - r[1] * s[0]
    if den == 0:
        return None
    t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / den
    return (a[0] + t * r[0], a[1] + t * r[1])


# --------------------------------------------------------------------------
# cli-session


REPORTS = ("gen", "point", "point-3d", "region", "measure", "center", "simplex", "obstruction",
           "whitney", "heights", "bounds", "search-1", "search-2", "frame-report")


class CliSession:
    """A scripted sequence of centertrans processes, one at a time.

    Three bad-input commands end the script; each should exit 2.  The
    malformed JSON file and the atom whose "x" is not a list exit 1 with
    a traceback today, so they count as failed operations; the missing
    file exits 2 and shows that the exit-code check itself works.  The
    aux phase is the median of five `centertrans bounds` processes.
    """

    BOUNDS_RUNS = 5
    DIRECTIONS = 1000
    FIGURES = ("cli_session_s", "cli_start_s")
    SEARCH_PAIR = 1  # solved at restart 0 after 2 evaluations

    def __init__(self, launch):
        self.launch = launch

    def setup(self, seed, workdir):
        from centertrans.generators import generate_cloud, maintheorem_suite

        rng = np.random.default_rng([seed, 30])
        planar = translate(generate_cloud("gaussian-quantized", seed=301, atoms=20, dim=2),
                           shift(seed, 31, 2))
        adversarial = translate(
            generate_cloud("adversarial-three-cluster", seed=302, atoms=15, dim=2), shift(seed, 32, 2)
        )
        spatial = translate(generate_cloud("gaussian-quantized", seed=303, atoms=30, dim=3),
                            shift(seed, 34, 3))
        pair = maintheorem_suite(count=self.SEARCH_PAIR + 1)[self.SEARCH_PAIR]
        t = shift(seed, 33, pair[0].dim)
        files = {
            "planar.json": planar.to_dict(),
            "adversarial.json": adversarial.to_dict(),
            "spatial.json": spatial.to_dict(),
            "m2a.json": translate(pair[0], t).to_dict(),
            "m2b.json": translate(pair[1], t).to_dict(),
            "bad-x.json": {"dim": 2, "atoms": [{"x": 5, "w": "1/1"}]},
        }
        for name, body in files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump(body, fh)
        with open(os.path.join(workdir, "bad-json.json"), "w") as fh:
            fh.write('{"dim": 2, "atoms": [{"x": ["1/2", ')
        pts = planar.points()
        s3 = spatial.points()
        dirs = rng.integers(-1000, 1001, size=(self.DIRECTIONS, 3))
        return {
            "dir": workdir,
            "gen_seed": int(rng.integers(2 ** 31)),
            "planar": planar,
            "probe": tuple((a + b) / 2 for a, b in zip(pts[3], pts[11])),
            "spatial": spatial,
            "probe_3d": tuple((a + 2 * b + c) / 4 for a, b, c in zip(s3[2], s3[5], s3[17])),
            "directions": [tuple(int(c) for c in v) for v in dirs if any(v)],
            "codim": int(rng.integers(3, 10)),
        }

    def _script(self, inp):
        d = inp["dir"]
        p = lambda name: os.path.join(d, name)  # noqa: E731
        probe, probe_3d = (",".join("%d/%d" % (c.numerator, c.denominator) for c in x)
                           for x in (inp["probe"], inp["probe_3d"]))
        search = ["transversal", "--input", p("m2a.json"), p("m2b.json"), "--n", "2",
                  "--seed", str(catalog.master_seed(self.SEARCH_PAIR)),
                  "--restarts", str(catalog.SEARCH["restarts"]),
                  "--local-steps", str(catalog.SEARCH["local_steps"])]
        return [
            ("gen", ["gen", "--family", "gaussian-quantized", "--dim", "2", "--atoms", "20",
                     "--seed", str(inp["gen_seed"]), "--out", p("gen.json")], 0),
            ("depth-point", ["depth", "--input", p("planar.json"), "--point=" + probe,
                             "--output", p("point.json")], 0),
            ("depth-point-3d", ["depth", "--input", p("spatial.json"), "--point=" + probe_3d,
                                "--output", p("point-3d.json")], 0),
            ("depth-region", ["depth", "--input", p("planar.json"), "--region", "1/3",
                              "--output", p("region.json")], 0),
            ("depth-measure", ["depth", "--input", p("planar.json"), "--output", p("measure.json")], 0),
            ("center", ["center", "--input", p("planar.json"), "--output", p("center.json")], 0),
            ("simplex", ["simplex", "--input", p("adversarial.json"), "--output", p("simplex.json")], 0),
            ("main-obstruction", ["schubert", "--n", "2", "--m", "2", "--check", "main-obstruction",
                                  "--output", p("obstruction.json")], 0),
            ("whitney", ["schubert", "--n", "3", "--codim", "4", "--check", "whitney",
                         "--output", p("whitney.json")], 0),
            ("heights", ["schubert", "--n", "2", "--codim", str(inp["codim"]), "--check", "heights",
                         "--output", p("heights.json")], 0),
            ("bounds", ["bounds", "--m", "2", "--n", "2", "--output", p("bounds.json")], 0),
            ("search", search + ["--output", p("search-1.json")], 0),
            ("search-again", search + ["--output", p("search-2.json")], 0),
            ("frame", None, None),
            ("verify-frame", ["transversal", "--input", p("m2a.json"), p("m2b.json"), "--n", "2",
                              "--frame", p("frame.json"), "--output", p("frame-report.json")], 0),
            ("malformed-json", ["depth", "--input", p("bad-json.json")], 2),
            ("x-not-a-list", ["depth", "--input", p("bad-x.json")], 2),
            ("missing-file", ["depth", "--input", p("no-such-cloud.json")], 2),
        ]

    def round(self, inputs, res):
        d = inputs["dir"]
        codes = {}
        for name, argv, want in self._script(inputs):
            if argv is None:
                _write_frame(os.path.join(d, "search-1.json"), os.path.join(d, "frame.json"))
                continue
            code, dt = _timed(self.launch, argv)
            res.main.append((name, dt))
            codes[name] = code
            res.attempted += 1
            res.failed += code != want
        starts = []
        for _ in range(self.BOUNDS_RUNS):
            code, dt = _timed(self.launch, ["bounds", "--m", "1", "--n", "2"])
            starts.append(dt)
            res.attempted += 1
            res.failed += code != 0
        res.aux.append(("bounds process", statistics.median(starts)))
        reports = {}
        for name in REPORTS + ("frame",):
            path = os.path.join(d, name + ".json")
            try:
                with open(path) as fh:
                    reports[name] = fh.read()
                os.remove(path)
            except FileNotFoundError:
                reports[name] = None
        for name in REPORTS:
            if name in ("gen", "search-2", "frame-report") or reports[name] is None:
                res.outputs.append(reports[name])
            else:
                res.outputs.append(_without_manifest(reports[name]))
        res.pending = (codes, reports)

    def check(self, inputs, res):
        from centertrans.cloud import WeightedPointCloud
        from centertrans.generators import generate_cloud
        from centertrans.serialize import parse_frac as fr

        codes, reports = res.pending
        missing = [name for name in REPORTS if reports[name] is None]
        for name in missing:
            res.expect("%s report written" % name, False)
        if missing:
            return
        r = {k: json.loads(v) for k, v in reports.items() if v is not None}
        atoms = inputs["planar"].atoms
        res.expect("gen writes the seeded cloud",
                   WeightedPointCloud.from_dict(r["gen"])
                   == generate_cloud("gaussian-quantized", seed=inputs["gen_seed"], atoms=20, dim=2))
        res.expect("depth --point matches the oracle",
                   fr(r["point"]["depth"]) == oracles.planar_depth(atoms, inputs["probe"]))
        spatial, x3 = inputs["spatial"].atoms, inputs["probe_3d"]
        d3 = fr(r["point-3d"]["depth"])
        w3 = [fr(c) for c in r["point-3d"]["witness_direction"]]
        res.expect("3-D witness attains the depth", oracles.halfspace_mass(spatial, w3, x3) == d3)
        res.expect("3-D depth below sampled directions",
                   d3 <= oracles.min_mass_over_directions(spatial, x3, inputs["directions"]))
        region = [tuple(fr(c) for c in v) for v in r["region"]["region"]["vertices"]]
        res.expect("depth --region 1/3 is not empty", bool(region))
        res.expect("region vertices reach 1/3",
                   all(oracles.planar_depth(atoms, v) >= RADO for v in region))
        dm = fr(r["measure"]["depth_of_measure"])
        deepest = tuple(fr(c) for c in r["measure"]["deepest_point"])
        res.expect("measure depth at least 1/3", dm >= RADO)
        res.expect("deepest point attains the depth", oracles.planar_depth(atoms, deepest) == dm)
        sufficient = dm >= IMPROVED
        res.expect("center classification",
                   r["center"]["classification"] == ("sufficient" if sufficient else "insufficient"))
        c = tuple(fr(x) for x in r["center"]["c"])
        res.expect("c reaches its level",
                   oracles.planar_depth(atoms, c) >= (IMPROVED if sufficient else dm))
        delta = np.array(r["simplex"]["placement"]["delta_vertices"])
        edges = [np.linalg.norm(a - b) for a, b in combinations(delta, 2)]
        res.expect("simplex edges are unit", max(abs(e - 1.0) for e in edges) <= 1e-9)
        res.expect("simplex centroid is 0", float(np.abs(delta.mean(axis=0)).max()) <= 1e-9)
        ob = r["obstruction"]["result"]
        res.expect("main obstruction holds", codes["main-obstruction"] == 0 and ob["ok"])
        res.expect("support holds the target cocycle", ob["target_cocycle"] in ob["support"])
        res.expect("Whitney defect is zero",
                   codes["whitney"] == 0 and r["whitney"]["result"]["failing_degrees"] == [])
        ambient = 2 + inputs["codim"]
        s = max(1, math.ceil(math.log2(ambient)))
        res.expect("height of w1 is 2^s - 2", r["heights"]["result"]["height_w1"] == 2 ** s - 2)
        b = r["bounds"]
        res.expect("bounds for m=2, n=2", (b["N_min"], b["improved_threshold"]) == (5, "28/81"))
        res.expect("search reruns byte-identically", reports["search-1"] == reports["search-2"])
        s1, fv = r["search-1"], r["frame-report"]
        res.expect("search succeeds", codes["search"] == 0 and s1["success"])
        res.expect("search depths reach 28/81",
                   all(fr(v) >= IMPROVED for v in s1["per_measure_depths"]))
        res.expect("--frame re-verification agrees",
                   codes["verify-frame"] == 0 and fv["per_measure_depths"] == s1["per_measure_depths"])


def _write_frame(report_path, frame_path):
    """The frame the first search chose, as a --frame file."""
    try:
        with open(report_path) as fh:
            rows = json.load(fh)["frame_rows"]
    except FileNotFoundError:
        return
    with open(frame_path, "w") as fh:
        json.dump({"rows": rows}, fh)


def _without_manifest(text):
    body = json.loads(text)
    body.pop("manifest", None)
    return json.dumps(body, sort_keys=True)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def run_child(cmd, env, cwd, timeout=150):
    """Run cmd to completion; return (exit code, standard output).

    The wait blocks in waitpid, so the measured time ends when the child
    does: subprocess's own timeout polls with sleeps of up to 50 ms,
    which showed up as 50 ms steps in the timings.  SIGALRM bounds it.
    """
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(timeout)
    try:
        out = proc.stdout.read()
        return proc.wait(), out
    except ChildTimeout:
        proc.kill()
        proc.wait()
        raise RuntimeError("%s did not finish within %d s" % (" ".join(cmd), timeout))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()


def launcher(root, tracing, summaries):
    """Runs `centertrans ARGV` as a child process and returns its exit code.

    Traced children start through cli_child.py, which installs the span
    wrappers and leaves its summary in a file collected in summaries.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

    def launch(argv):
        if tracing:
            out = os.path.join(summaries["dir"], "span-%d.json" % len(summaries["files"]))
            cmd = [sys.executable, child, out] + list(argv)
            summaries["files"].append(out)
        else:
            cmd = [sys.executable, "-m", "centertrans.cli"] + list(argv)
        return run_child(cmd, env, root)[0]

    return launch
