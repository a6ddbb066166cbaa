"""Pin of the seeded ascent: the witness of the transversal objective for
n >= 3 only (n <= 2 runs the exact level search).

The result is heuristic and flagged approximate, so no exact oracle
checks it; the digest holds it fixed instead.  A change to the ascent's
start point, radius, step count, shrink factor, denominator bound or seed
shows here.  Frames and steps start from numpy's seeded draws, so a numpy
release that changes those streams may need the digest recomputed.
"""

import hashlib

import pytest

from centertrans.generators import generate_cloud
from centertrans.serialize import dump_json
from centertrans.transversal import SearchConfig, random_frame, search, verify

DIGESTS = {
    "transversal-n3": "4449996390e9f918efcc94fef42e21167a4ed8893811895777bc598f5ce3482e",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_transversal_n3_pinned():
    a = generate_cloud("gaussian-quantized", seed=1, atoms=7, dim=5)
    b = generate_cloud("gaussian-quantized", seed=2, atoms=7, dim=5)
    checked = verify(random_frame(5, 3, 0), [a, b], 3)
    with pytest.warns(UserWarning):  # ambient 5 is below the bound 8 for m=2, n=3
        found = search([a, b], 3, SearchConfig(restarts=2, local_steps=1, master_seed=4))
    for rep in (checked, found):
        assert not rep.exact and rep.c_points == ()
        assert rep.objective == min(rep.per_measure_depths)
    text = dump_json(checked.to_dict()) + dump_json(found.to_dict())
    assert _digest(text) == DIGESTS["transversal-n3"]

