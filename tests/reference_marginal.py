"""The Fraction projection that depth.marginal's integer projection replaced.

Each image coordinate is a sum of Fraction products of a frame row,
quantized by ``quantize_entry``, with an atom; coincident images merge
with summed weights and the atoms come out sorted.  The tests use it as
the oracle for the integer images over ``row_scale * coord_scale``.
"""

from fractions import Fraction

from centertrans.cloud import WeightedPointCloud, quantize_entry


def reference_marginal(cloud, frame):
    rows = [[quantize_entry(x) for x in row] for row in frame.rows]
    merged = {}
    for p, w in cloud.atoms:
        y = tuple(sum(rc * pc for rc, pc in zip(row, p)) for row in rows)
        merged[y] = merged.get(y, Fraction(0)) + w
    atoms = [(y, merged[y]) for y in sorted(merged)]
    return WeightedPointCloud(frame.n, atoms)
