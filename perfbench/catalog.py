"""Catalogue of main-theorem search instances, with their expected reports.

Instance i is pair i of ``generators.maintheorem_suite`` searched with
master seed 2000 + i, restarts=120 and local_steps=25: the ten pairs and
the configuration of acceptance criterion 9.  For each pair the
catalogue records whether it is solved within the first ``RESTART_CAP``
restarts and, if so, the chosen restart, the exact objective and
per-measure depths, the number of objective evaluations and the number
of halfplanes handed to ``polygon.clip_many``.  Restarts are seeded
independently of the restart count, so a search capped at
``RESTART_CAP`` restarts reports the same frame as the full
configuration whenever it succeeds within the cap.

Regenerate with ``python3 perfbench/catalog.py`` (about a minute); it
rewrites ``perfbench/catalog.json``.
"""

import json
import os
import sys
import time

POOL = 10
RESTART_CAP = 3
SEARCH = {"restarts": 120, "local_steps": 25}
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.json")


def master_seed(index):
    return 2000 + index


def load():
    with open(PATH) as fh:
        return json.load(fh)


def build():
    from centertrans.generators import maintheorem_suite
    from centertrans.serialize import frac_str
    from centertrans.transversal import SearchConfig, search

    from spans import Tracer, install

    entries = []
    for i, (c1, c2) in enumerate(maintheorem_suite(count=POOL)):
        cfg = SearchConfig(
            master_seed=master_seed(i), restarts=RESTART_CAP,
            local_steps=SEARCH["local_steps"],
        )
        tracer = Tracer()
        uninstall = install(tracer)
        started = time.perf_counter()
        try:
            rep = search([c1, c2], 2, cfg)
        finally:
            uninstall()
        seconds = time.perf_counter() - started
        summary = tracer.summary()
        entry = {
            "index": i,
            "atoms": [len(c1), len(c2)],
            "solved": rep.success,
            "restart_index": rep.restart_index if rep.success else None,
            "objective": frac_str(rep.objective),
            "per_measure_depths": [frac_str(v) for v in rep.per_measure_depths],
            "evaluations": summary["spans"]["transversal.objective"][0],
            "halfplanes": summary["counts"].get("polygon.clip_many.halfplanes", 0),
            "seconds": round(seconds, 2),
        }
        entries.append(entry)
        print(json.dumps(entry), file=sys.stderr, flush=True)
    return {"search": SEARCH, "restart_cap": RESTART_CAP, "instances": entries}


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    data = build()
    with open(PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
