"""Exact combinatorial maps of good drawings of complete graphs.

The package represents a drawing of K_n as its planarized map (crossings
become degree-4 nodes), computes k-edge statistics and the crossing
number identities they satisfy, and decides shellability and
bishellability with machine-checkable witnesses.
"""

from .geom import Point, circle_point, orient, point, proper_intersection
from .drawing import (
    DeletionView,
    Drawing,
    NotGoodDrawing,
    build_drawing,
    rotation_key,
    rotation_system,
    subdrawing,
)
from .planarize import DegenerateInput, planarize_points
from .kedges import (
    CumulativeSums,
    KEdgeVector,
    crossings_from_cumulative,
    crossings_from_k_edges,
    cumulative_sums,
    double_cumulative_bound_holds,
    hill_number,
    k_edge_vector,
    k_value,
    right_mask,
    side_of,
)
from .shelling import (
    BishellWitness,
    InvariantEdgeReport,
    ShellWitness,
    WitnessInvalid,
    check_bishellable,
    check_s_shellable,
    first_shell_witness,
    invariant_edge_report,
    is_bishellable,
    is_shellable,
    shell_to_bishell,
    sufficient_conditions,
    truncate_bishell,
    verify_bishell_witness,
    verify_shell_witness,
)
from .generators import gen_convex, gen_cylindrical, gen_random_points, gen_twopage, TwoPageSpec
from .io import ParseError, export_svg, parse, parse_witness, serialize, serialize_witness

__all__ = [
    "BishellWitness", "CumulativeSums", "DegenerateInput", "DeletionView",
    "Drawing", "InvariantEdgeReport", "KEdgeVector", "NotGoodDrawing",
    "ParseError", "Point", "ShellWitness", "TwoPageSpec", "WitnessInvalid",
    "build_drawing", "check_bishellable", "check_s_shellable", "circle_point",
    "crossings_from_cumulative", "crossings_from_k_edges", "cumulative_sums",
    "double_cumulative_bound_holds", "export_svg",
    "first_shell_witness", "gen_convex",
    "gen_cylindrical", "gen_random_points", "gen_twopage", "hill_number",
    "invariant_edge_report", "is_bishellable", "is_shellable",
    "k_edge_vector", "k_value", "orient", "parse", "parse_witness",
    "planarize_points", "point", "proper_intersection",
    "right_mask", "rotation_key", "rotation_system", "serialize",
    "serialize_witness", "shell_to_bishell", "side_of", "subdrawing",
    "sufficient_conditions", "truncate_bishell",
    "verify_bishell_witness", "verify_shell_witness",
]
