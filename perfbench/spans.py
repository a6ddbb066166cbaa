"""Span tracing of centertrans layers, installed from outside the package.

``install`` wraps the entry points of each layer and rebinds every name
under which a ``centertrans`` module holds them (``transversal`` imports
``tukey_depth`` and ``_region_vertices`` from ``depth`` by name, for
example), so no file of the package changes.  Each call records a span
(name, start, end, parent) in memory; ``Tracer.summary`` turns the spans
into call counts and self times, where a span's self time is its
duration minus the time covered by its child spans.
"""

import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.restart_values = []  # objective values of each restart, in order
        self.last_level = None

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def span(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def summary(self):
        """{span name: [calls, total seconds, self seconds]} plus counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        moves = accepted = 0
        for values in self.restart_values:
            best = None
            for v in values:
                if best is not None:
                    moves += 1
                    if v > best:
                        accepted += 1
                if best is None or v > best:
                    best = v
        counts = dict(self.counts)
        counts["transversal.moves"] = moves
        counts["transversal.moves_accepted"] = accepted
        return {"spans": out, "counts": counts}


def _rebind(original, replacement):
    """Point every centertrans name bound to original at replacement."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "centertrans" or mod_name.startswith("centertrans.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def install(tracer):
    """Wrap every traced entry point; returns a function that unwraps them."""
    from centertrans import (
        centers, cli, depth, polygon, schubert, serialize, simplex, transversal,
    )

    t = tracer
    undo = []

    def plain(name):
        def make(fn):
            return lambda *a, **k: t.span(name, fn, a, k)
        return make

    def clip_many(fn):
        def wrapper(vertices, halfplanes, *a, **k):
            t.count("polygon.clip_many.halfplanes", len(halfplanes))
            return t.span("polygon.clip_many", fn, (vertices, halfplanes) + a, k)
        return wrapper

    def region(fn):
        def wrapper(*a, **k):
            if t.inside("transversal.common_level"):
                t.count("transversal.common_level.region_builds")
            verts = t.span("depth.region", fn, a, k)
            if verts:
                t.count("depth.region.nonempty")
            return verts
        return wrapper

    def table(cls):
        def wrapper(cloud):
            tab = t.span("depth.table", cls, (cloud,), {})
            t.count("depth.table.directions", len(tab.directions))
            return tab
        return wrapper

    def tukey(fn):
        def wrapper(cloud, x):
            return t.span("depth.tukey_depth.%dd" % cloud.dim, fn, (cloud, x), {})
        return wrapper

    def dom(fn):
        def wrapper(*a, **k):
            if t.inside("centers.center_point"):
                t.count("depth.depth_of_measure.in_center_point")
            return t.span("depth.depth_of_measure", fn, a, k)
        return wrapper

    def restart(fn):
        def wrapper(*a, **k):
            t.restart_values.append([])
            return t.span("transversal.restart", fn, a, k)
        return wrapper

    def common_level(fn):
        def wrapper(*a, **k):
            level, witness = t.span("transversal.common_level", fn, a, k)
            t.last_level = level
            return level, witness
        return wrapper

    def objective(fn):
        def wrapper(*a, **k):
            t.last_level = None
            parts = t.span("transversal.objective", fn, a, k)
            if t.inside("transversal.restart"):
                t.restart_values[-1].append(parts[0])
            if t.last_level is not None and parts[0] > t.last_level:
                t.count("transversal.objective_above_level")
            return parts
        return wrapper

    targets = [
        (polygon, "clip_many", clip_many),
        (polygon, "intersect", plain("polygon.intersect")),
        (polygon, "centroid", plain("polygon.centroid")),
        (depth, "_region_vertices", region),
        (depth, "_DirectionTable", table),
        (depth, "tukey_depth", tukey),
        (depth, "marginal", plain("depth.marginal")),
        (depth, "depth_of_measure", dom),
        (transversal, "search", plain("transversal.search")),
        (transversal, "_run_restart", restart),
        (transversal, "_objective_parts", objective),
        (transversal, "_common_level", common_level),
        (transversal, "verify", plain("transversal.verify")),
        (centers, "center_point", plain("centers.center_point")),
        (simplex, "witness_vertices", plain("simplex.witness_vertices")),
        (simplex, "delta_of_vertices", plain("simplex.delta_of_vertices")),
        (schubert, "pieri_dual", plain("schubert.pieri")),
        (schubert, "pieri_special", plain("schubert.pieri")),
        (serialize, "dump_json", plain("serialize.dump_json")),
        (serialize, "load_json", plain("serialize.load_json")),
        (cli, "main", plain("cli.main")),
    ]
    for mod, attr, make in targets:
        original = getattr(mod, attr)
        undo.extend(_rebind(original, make(original)))

    def uninstall():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return uninstall


def merge(total, part):
    """Add one summary into another (for summaries of child processes)."""
    for name, row in part["spans"].items():
        acc = total["spans"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += row[i]
    for key, value in part["counts"].items():
        total["counts"][key] = total["counts"].get(key, 0) + value
    return total
