"""centertrans benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Set-up is repeated SETUPS times and its median reported; then
whole rounds of the workload run, at least one, ending at the round
boundary nearest to S seconds, and each phase is reported as its mean
time per round over the whole run.  Every round's outputs are checked:
the first round against the exact oracles and the properties the method
must have, later rounds for equality with the first.  Untraced runs
report the end-to-end metrics; ``--trace 1`` wraps the layers' entry
points (spans.py) and reports per-layer metrics per round instead.  The
last line of standard output is the JSON result; the lines before it
give the named figures of README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 7

# (metric, unit, how it is read from the merged span summary); the traced
# run adds cli.import_s and trace.round_s, which it measures itself
PER_LAYER = (
    ("polygon.clip_many.calls", "count", ("calls", "polygon.clip_many")),
    ("polygon.clip_many.halfplanes", "count", ("count", "polygon.clip_many.halfplanes")),
    ("polygon.clip_many.self_s", "s", ("self", "polygon.clip_many")),
    ("polygon.centroid.calls", "count", ("calls", "polygon.centroid")),
    ("polygon.intersect.calls", "count", ("calls", "polygon.intersect")),
    ("polygon.intersect.self_s", "s", ("self", "polygon.intersect")),
    ("depth.region.calls", "count", ("calls", "depth.region")),
    ("depth.region.nonempty_ratio", "ratio", ("ratio", "depth.region.nonempty", "depth.region")),
    ("depth.region.self_s", "s", ("self", "depth.region")),
    ("depth.table.builds", "count", ("calls", "depth.table")),
    ("depth.table.directions", "count", ("count", "depth.table.directions")),
    ("depth.table.self_s", "s", ("self", "depth.table")),
    ("depth.tukey_depth.2d.calls", "count", ("calls", "depth.tukey_depth.2d")),
    ("depth.tukey_depth.2d.self_s", "s", ("self", "depth.tukey_depth.2d")),
    ("depth.tukey_depth.3d.calls", "count", ("calls", "depth.tukey_depth.3d")),
    ("depth.tukey_depth.3d.self_s", "s", ("self", "depth.tukey_depth.3d")),
    ("depth.marginal.calls", "count", ("calls", "depth.marginal")),
    ("depth.marginal.self_s", "s", ("self", "depth.marginal")),
    ("depth.depth_of_measure.calls", "count", ("calls", "depth.depth_of_measure")),
    ("depth.depth_of_measure.in_center_point", "count",
     ("count", "depth.depth_of_measure.in_center_point")),
    ("depth.depth_of_measure.self_s", "s", ("self", "depth.depth_of_measure")),
    ("transversal.restarts", "count", ("calls", "transversal.restart")),
    ("transversal.objective.calls", "count", ("calls", "transversal.objective")),
    ("transversal.moves_accepted", "count", ("count", "transversal.moves_accepted")),
    ("transversal.accept_ratio", "ratio", ("ratio", "transversal.moves_accepted", "transversal.moves")),
    ("transversal.common_level.calls", "count", ("calls", "transversal.common_level")),
    ("transversal.common_level.region_builds", "count",
     ("count", "transversal.common_level.region_builds")),
    ("transversal.common_level.self_s", "s", ("self", "transversal.common_level")),
    ("transversal.objective_above_level", "count", ("count", "transversal.objective_above_level")),
    ("transversal.verify.self_s", "s", ("self", "transversal.verify")),
    ("centers.center_point.calls", "count", ("calls", "centers.center_point")),
    ("centers.center_point.self_s", "s", ("self", "centers.center_point")),
    ("simplex.witness_vertices.self_s", "s", ("self", "simplex.witness_vertices")),
    ("simplex.delta_of_vertices.self_s", "s", ("self", "simplex.delta_of_vertices")),
    ("schubert.pieri.calls", "count", ("calls", "schubert.pieri")),
    ("schubert.pieri.self_s", "s", ("self", "schubert.pieri")),
    ("serialize.dump_json.self_s", "s", ("self", "serialize.dump_json")),
    ("serialize.load_json.self_s", "s", ("self", "serialize.load_json")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
)


def _import_seconds(env):
    """Import time of centertrans.cli in a fresh interpreter."""
    from workloads import run_child

    code = ("import time; t = time.perf_counter(); import centertrans.cli; "
            "print(time.perf_counter() - t)")
    status, out = run_child([sys.executable, "-c", code], env, ROOT)
    if status != 0:
        raise RuntimeError("importing centertrans.cli failed with exit code %d" % status)
    return float(out.strip())


def _layer_value(summary, how, rounds):
    kind, key = how[0], how[1]
    spans, counts = summary["spans"], summary["counts"]
    if kind == "calls":
        return spans.get(key, [0, 0.0, 0.0])[0] / rounds
    if kind == "self":
        return spans.get(key, [0, 0.0, 0.0])[2] / rounds
    if kind == "count":
        return counts.get(key, 0) / rounds
    den = counts.get(how[2], 0) if how[2] in counts else spans.get(how[2], [0])[0]
    return counts.get(key, 0) / den if den else 0.0


def _op_times(results, phase):
    """Mean of each labelled operation's time across the run's rounds.

    The host's speed drifts in episodes (a fixed loop's time moves by up
    to a quarter for 2-10 s at a time); the mean over every
    round of the run averages those episodes out, where a median or a
    quartile of a few rounds reads whichever state happened to dominate.
    """
    per_round = [dict(getattr(r, phase)) for r in results]
    return {label: statistics.fmean(times[label] for times in per_round)
            for label, _ in getattr(results[0], phase)}


def run(args):
    import oracles
    import spans
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CENTERTRANS_THREADS", None)
    os.environ.pop("CENTERTRANS_THREADS", None)
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(os.path.join(workdir, "spans"))
    summaries = {"dir": os.path.join(workdir, "spans"), "files": []}
    tracing = bool(args.trace)
    try:
        wl = {
            "search-m2": workloads.SearchM2,
            "deepest-point": workloads.DeepestPoint,
            "cli-session": lambda: workloads.CliSession(workloads.launcher(ROOT, tracing, summaries)),
        }[args.workload]()
        problems = ["oracle self-check: " + name for name in oracles.self_check()]

        setup_times, import_times = [], []
        for _ in range(SETUPS):
            started = time.perf_counter()
            import_times.append(_import_seconds(env))
            inputs = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - started)

        tracer = spans.Tracer() if tracing else None
        results = []
        first_outputs = None
        attempted = failed = 0
        began = time.perf_counter()
        # stop at the whole-round boundary nearest to S seconds
        while not results or (time.perf_counter() - began
                              + statistics.fmean(r.wall for r in results) / 2 < args.seconds):
            res = workloads.RoundResult()
            uninstall = spans.install(tracer) if tracing else None
            started = time.perf_counter()
            try:
                wl.round(inputs, res)
            finally:
                res.wall = time.perf_counter() - started
                if uninstall:
                    uninstall()
            attempted += res.attempted
            failed += res.failed
            if first_outputs is None:
                first_outputs = res.outputs
                wl.check(inputs, res)
                problems += [what for what, ok in res.checks if not ok]
            elif res.outputs != first_outputs:
                problems.append("round %d outputs differ from round 1" % (len(results) + 1))
            results.append(res)
        children = []
        for path in summaries["files"]:
            with open(path) as fh:
                children.append(json.load(fh))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    rounds = len(results)
    phases = [_op_times(results, "main"), _op_times(results, "aux")]
    for name, ops in zip(wl.FIGURES, phases):
        print("%s %.6g s (sum of %d per-operation means over %d rounds)"
              % (name, sum(ops.values()), len(ops), rounds))
        if len(ops) <= 20:
            for label, value in ops.items():
                print("    %s %.6g s" % (label, value))
    for what in problems:
        print("CHECK FAILED: " + what)

    if tracing:
        summary = tracer.summary()
        child_imports = []
        for part in children:
            child_imports.append(part.pop("import_s"))
            spans.merge(summary, part)
        metrics = {
            name: {"value": _layer_value(summary, how, rounds), "unit": unit}
            for name, unit, how in PER_LAYER
        }
        metrics["cli.import_s"] = {"value": statistics.median(import_times + child_imports),
                                   "unit": "s"}
        metrics["trace.round_s"] = {"value": statistics.median(r.wall for r in results), "unit": "s"}
    else:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024.0, "unit": "MB"},
            "main_s": {"value": sum(phases[0].values()), "unit": "s"},
            "aux_s": {"value": sum(phases[1].values()), "unit": "s"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search-m2", "deepest-point", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "centertrans", "__init__.py")):
        sys.stderr.write("error: no centertrans sources under %s; run from a source checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
