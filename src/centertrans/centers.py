"""Canonical associated point of a measure and the depth classification.

A measure is "insufficient" when its maximal point depth falls strictly
below the improved bound 1/(n+1) + 1/(3(n+1)^3).  The associated point
c is the barycenter of the superlevel region: at the improved bound in
the sufficient case, at the achieved maximum in the insufficient case.
For atomic measures the deepest point is generally a region rather than
a point, so the region centroid is an explicit convention of this
artifact (reports carry the label); it coincides with the deepest point
whenever that point is unique.  Equality with the bound routes to the
sufficient branch, where the region is achieved and full rank.

The depth of the measure and its region come from one level search in
``depth``, which reads a measure on the line as its atoms on the x axis
of the plane; only the sufficient case builds a second region, at the
bound, from the same direction table.  Both come back as raw clip
loops, and the report's DepthRegion puts the one it keeps in canonical
form.  On the line c is its first coordinate and no region is reported.

``transversal.verify`` needs only c of each marginal, whose depth is at
least the marginals' common level: once that level reaches the bound, c
is the centroid of one region probe at the bound, with no level search.
polygon.centroid gives the same exact point for a raw clip loop as for
its canonical form.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import polygon
from .bounds import thresholds
from .depth import (
    DepthRegion,
    _DirectionTable,
    _deepest_common_region,
    _region_vertices,
    depth_of_measure,
)
from .errors import DomainError, InternalConsistencyError
from .serialize import frac_str

SUFFICIENT = "sufficient"
INSUFFICIENT = "insufficient"
C_CONVENTION = "region-centroid"


@dataclass(frozen=True)
class CenterReport:
    depth_of_measure: Fraction
    threshold: Fraction
    classification: str
    c: tuple
    region: DepthRegion = None
    convention: str = C_CONVENTION

    def to_dict(self):
        return {
            "depth_of_measure": frac_str(self.depth_of_measure),
            "threshold": frac_str(self.threshold),
            "classification": self.classification,
            "c": [frac_str(x) for x in self.c],
            "region": self.region.to_dict() if self.region is not None else None,
            "convention": self.convention,
        }


def _check_exact_dim(cloud, n):
    if cloud.dim != int(n):
        raise DomainError("cloud dim %d does not match n=%s" % (cloud.dim, n))
    if cloud.dim > 2:
        raise DomainError("exact classification is available for n <= 2 only")


def classify(cloud, n):
    """'insufficient' iff max depth < improved bound, by exact comparison."""
    _check_exact_dim(cloud, n)
    dm, _ = depth_of_measure(cloud)
    improved = thresholds(n)[1]
    return INSUFFICIENT if dm.value < improved else SUFFICIENT


def center_point(cloud, n):
    """Associated point c of the measure, with its region and classification."""
    _check_exact_dim(cloud, n)
    n = cloud.dim
    table = _DirectionTable(cloud)
    improved = thresholds(n)[1]
    dm, verts = _deepest_common_region([table])
    if dm >= improved:
        verts = _region_vertices([table], improved)
    level = min(dm, improved)
    if not verts:
        raise InternalConsistencyError("superlevel region empty at an achieved level %s" % level)
    region = DepthRegion(verts, tau=level)
    return CenterReport(
        depth_of_measure=dm,
        threshold=improved,
        classification=INSUFFICIENT if dm < improved else SUFFICIENT,
        c=region.centroid()[:n],
        region=region if n == 2 else None,
    )


def _c_point(table, n, level):
    """center_point's c for the n-dimensional cloud whose direction table
    this is, given a level its depth reaches; the level search runs only
    when that level is below the improved bound."""
    improved = thresholds(n)[1]
    if level < improved:
        level, verts = _deepest_common_region([table])
    if level >= improved:
        level, verts = improved, _region_vertices([table], improved)
    if not verts:
        raise InternalConsistencyError("superlevel region empty at an achieved level %s" % level)
    return polygon.centroid(verts)[:n]
