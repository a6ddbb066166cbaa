"""Exact depth geometry, mod-2 Schubert calculus, and deep-projection search."""

__version__ = "0.1.0"

import importlib

from .centers import CenterReport, center_point, classify
from .cloud import OrthoFrame, WeightedPointCloud, apply_affine
from .depth import (
    DepthRegion,
    DepthValue,
    depth_of_measure,
    depth_region,
    halfspace_mass,
    marginal,
    thresholds,
    tukey_depth,
)
from .schubert import (
    Cochain,
    GrassmannContext,
    height_w1,
    min_dimension,
    monomial,
    obstruction_main,
    obstruction_power2free,
    pieri_dual,
    pieri_special,
    special_class,
    wn_power,
)
# simplex and transversal compute in floats and import numpy; the exact
# modules above do not.  Their names resolve on first access (PEP 562), so
# an exact computation never pays for importing numpy.
_LAZY = {
    "RegularSimplexPlacement": "simplex",
    "VertexTuple": "simplex",
    "delta_of_vertices": "simplex",
    "jacobi_eigh": "simplex",
    "normalize_volume": "simplex",
    "polar_decompose": "simplex",
    "positive_dependence": "simplex",
    "reference_simplex": "simplex",
    "simplex_map": "simplex",
    "witness_vertices": "simplex",
    "SearchConfig": "transversal",
    "TransversalReport": "transversal",
    "objective": "transversal",
    "random_frame": "transversal",
    "search": "transversal",
    "verify": "transversal",
}


def __getattr__(name):
    if name in _LAZY.values():
        return importlib.import_module("." + name, __name__)
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value
