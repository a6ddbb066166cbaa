"""Exact depth geometry, mod-2 Schubert calculus, and deep-projection search."""

__version__ = "0.1.0"

import importlib

# Every re-exported name and the module it lives in.  Importing the
# package loads none of them: a name, or a module named here, resolves on
# first access (PEP 562), so a process pays only for the modules it uses
# (simplex imports numpy, and transversal only when it draws frames).
_LAZY = {
    "thresholds": "bounds",
    "min_dimension": "bounds",
    "CenterReport": "centers",
    "center_point": "centers",
    "classify": "centers",
    "OrthoFrame": "cloud",
    "WeightedPointCloud": "cloud",
    "apply_affine": "cloud",
    "DepthRegion": "depth",
    "DepthValue": "depth",
    "depth_of_measure": "depth",
    "depth_region": "depth",
    "halfspace_mass": "depth",
    "marginal": "depth",
    "tukey_depth": "depth",
    "Cochain": "schubert",
    "GrassmannContext": "schubert",
    "height_w1": "schubert",
    "monomial": "schubert",
    "obstruction_main": "schubert",
    "obstruction_power2free": "schubert",
    "pieri_dual": "schubert",
    "pieri_special": "schubert",
    "special_class": "schubert",
    "wn_power": "schubert",
    "RegularSimplexPlacement": "simplex",
    "VertexTuple": "simplex",
    "delta_of_vertices": "simplex",
    "jacobi_eigh": "simplex",
    "polar_decompose": "simplex",
    "positive_dependence": "simplex",
    "reference_simplex": "simplex",
    "simplex_map": "simplex",
    "witness_vertices": "simplex",
    "SearchConfig": "transversal",
    "TransversalReport": "transversal",
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
