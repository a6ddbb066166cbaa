"""The Fraction projection that depth.marginal's integer projection replaced.

Each image coordinate is a sum of Fraction products of a quantized frame
row with an atom; coincident images merge with summed weights and the
atoms come out sorted.  The tests use it as the oracle for the integer
images over ``row_scale * coord_scale``.
"""

from fractions import Fraction

from centertrans.cloud import WeightedPointCloud


def reference_marginal(cloud, frame, digits=None):
    rows = frame.quantized_rows() if digits is None else frame.quantized_rows(digits)
    merged = {}
    for p, w in cloud.atoms:
        y = tuple(sum(rc * pc for rc, pc in zip(row, p)) for row in rows)
        merged[y] = merged.get(y, Fraction(0)) + w
    atoms = [(y, merged[y]) for y in sorted(merged)]
    return WeightedPointCloud(frame.n, atoms)
