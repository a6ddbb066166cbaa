"""Pins of the seeded ascent: the witness of the transversal objective for
n >= 3 and depth_of_measure beyond the plane (allow_approximate=True).

Both results are heuristic and flagged approximate, so no exact oracle
checks them; the digests hold them fixed instead.  A change to the
ascent's start point, radius, step count, shrink factor, denominator bound
or seed shows here.  Frames and steps come from numpy's generators, so
another numpy build may need the digests recomputed.
"""

import hashlib

import pytest

from centertrans.depth import depth_of_measure, tukey_depth
from centertrans.generators import generate_cloud
from centertrans.serialize import dump_json, frac_str
from centertrans.transversal import SearchConfig, random_frame, search, verify

DIGESTS = {
    "transversal-n3": "d8af1a8e60c32e10630abd9175386adb6e1b7a392c0a8331b5bd115b44e34461",
    "measure-3d": "5c12ff2faf2cb4c92179eddffc95fb80bebebb601a137e963082feb1478d7e0b",
    "measure-4d": "7a7d2ae22d7c9ed7c96fbf3887b2748f9b8cb95944eb6e949a61a2c6b2110e50",
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


@pytest.mark.parametrize("dim,atoms", [(3, 8), (4, 4)])
def test_depth_of_measure_ascent_pinned(dim, atoms):
    cloud = generate_cloud("gaussian-quantized", seed=dim, atoms=atoms, dim=dim)
    depth, point = depth_of_measure(cloud, allow_approximate=True)
    assert not depth.exact
    assert depth.value == tukey_depth(cloud, point).value
    text = dump_json({
        "value": frac_str(depth.value),
        "direction": [frac_str(c) for c in depth.witness_direction],
        "point": [frac_str(c) for c in point],
    })
    assert _digest(text) == DIGESTS["measure-%dd" % dim]
