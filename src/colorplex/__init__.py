"""colorplex: forced colorings and color holonomy of triangulated complexes.

The top cells of a complex dual to a triangulation meet n+1 at a dual vertex,
so a coloring there is forced outward edge by edge; transporting it around
loops measures the obstruction to a global coloring as permutations of the
colors.  This package computes that machinery for triangulations of closed
pseudomanifolds, for layered arc systems on the circle with their product
cell complexes, and for 4-edge-colored graph encodings of 3-complexes, with
brute-force cross-checks at desk scale.

``import colorplex`` loads only ``errors``, ``triangulation`` and
``homology``, which the command line imports at start-up.  Every other public
name (the ``builders``, ``circles``, ``gamma``, ``gems``, ``holonomy`` and
``perms`` modules and the names they export) is imported on first access
through the module ``__getattr__`` of PEP 562, then kept in this namespace.

``colorplex.homology`` is the function, which shadows its submodule; use
``importlib.import_module("colorplex.homology")`` to reach the module.  It
stays the function whatever is imported later because the submodule is
loaded here, eagerly: the import system binds a submodule onto its package
only when it first loads it.
"""

__version__ = "0.1.0"

from .errors import BudgetError, FormatError
from .homology import HomologyProfile, homology, smith_invariant_factors
from .triangulation import (
    DualGraph,
    FaceCensus,
    Triangulation,
    ValidationReport,
    dual_graph,
    euler_characteristic,
    face_census,
    is_even_cyclic,
    orientability,
    parse_triangulation,
    triangulation_to_text,
    validate,
)

# submodule -> the names it exports here, imported on first access
_LAZY = {
    "builders": (
        "barycentric_subdivide",
        "circle",
        "cross_polytope_boundary",
        "example",
        "rp2_6",
        "simplex_boundary",
        "torus7",
    ),
    "circles": (
        "CircleLayers",
        "brute_force_circle_colorable",
        "circle_colorable",
        "circle_holonomy",
        "circle_intersections",
        "parse_circle_layers",
        "verify_circle_coloring",
    ),
    "gamma": (
        "GammaComplex",
        "LayeredIntersectionData",
        "gamma_complex",
        "gamma_coloring_transfer",
        "intersection_data_from_json",
    ),
    "gems": (
        "Gem",
        "GemError",
        "GemReport",
        "bicolored_cycles",
        "export_dot",
        "gem_from_coloring",
        "gem_report",
        "gem_to_text",
        "is_planar_multigraph",
        "parse_gem",
    ),
    "holonomy": (
        "DefectGraphs",
        "HolonomyData",
        "brute_force_colorable",
        "defect_free_four_coloring",
        "defect_graphs",
        "hol_generators",
        "holonomy_invariants",
        "is_colorable",
        "is_locally_colorable",
        "link_loop_permutation",
        "verify_coloring",
    ),
    "perms": ("Permutation", "subgroup_closure"),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in (module, *names)}

# the public names bound above (the eager submodules among them), then the lazy ones
__all__ = [name for name in globals() if not name.startswith("_")] + list(_SOURCE)


def __getattr__(name):
    module_name = _SOURCE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
