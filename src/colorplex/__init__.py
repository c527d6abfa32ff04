"""colorplex: forced colorings and color holonomy of triangulated complexes.

The top cells of a complex dual to a triangulation meet n+1 at a dual vertex,
so a coloring there is forced outward edge by edge; transporting it around
loops measures the obstruction to a global coloring as permutations of the
colors.  This package computes that machinery for triangulations of closed
pseudomanifolds, for layered arc systems on the circle with their product
cell complexes, and for 4-edge-colored graph encodings of 3-complexes, with
brute-force cross-checks at desk scale.

``colorplex.homology`` is the function, which shadows its submodule; use
``importlib.import_module("colorplex.homology")`` to reach the module.
"""

__version__ = "0.1.0"

from .builders import (
    barycentric_subdivide,
    circle,
    cross_polytope_boundary,
    example,
    example_names,
    rp2_6,
    simplex_boundary,
    torus7,
)
from .circles import (
    Arc,
    CircleLayers,
    LayerState,
    brute_force_circle_colorable,
    circle_colorable,
    circle_holonomy,
    circle_intersections,
    circle_layers_to_text,
    parse_circle_layers,
    sweep,
    verify_circle_coloring,
)
from .errors import BudgetError, FormatError
from .gamma import (
    GammaComplex,
    LayeredIntersectionData,
    gamma_complex,
    gamma_coloring_transfer,
    intersection_data_from_json,
)
from .gems import (
    Gem,
    GemError,
    GemReport,
    bicolored_cycles,
    export_dot,
    gem_from_coloring,
    gem_from_dot_comments,
    gem_report,
    gem_to_text,
    is_planar_multigraph,
    parse_gem,
)
from .holonomy import (
    DefectGraphs,
    HolonomyData,
    SimplexLabeling,
    base_labeling,
    brute_force_colorable,
    defect_free_four_coloring,
    defect_graphs,
    hol_generators,
    holonomy_invariants,
    is_colorable,
    is_locally_colorable,
    link_loop_permutation,
    path_permutation,
    propagate,
    verify_coloring,
)
from .homology import HomologyProfile, homology, smith_invariant_factors
from .perms import Permutation, compose, cycle_type, identity, invert, subgroup_closure
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
