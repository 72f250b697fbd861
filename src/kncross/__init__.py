"""Exact combinatorial maps of good drawings of complete graphs.

The package represents a drawing of K_n as its planarized map (crossings
become degree-4 nodes), computes k-edge statistics and the crossing
number identities they satisfy, and decides shellability and
bishellability with machine-checkable witnesses.
"""

from .geom import Point, circle_point, point, proper_intersection
from .drawing import (
    DeletionView,
    Drawing,
    NotGoodDrawing,
    build_drawing,
    rotation_key,
    subdrawing,
)
from .planarize import DegenerateInput, planarize_points
from .kedges import (
    crossings_from_cumulative,
    crossings_from_k_edges,
    cumulative_sums,
    double_cumulative_bound_holds,
    hill_number,
    k_edge_vector,
    k_value,
    right_mask,
)
from .shelling import (
    BishellWitness,
    InvariantEdgeReport,
    ShellWitness,
    WitnessInvalid,
    bishell_witness_violation,
    check_bishellable,
    check_s_shellable,
    invariant_edge_report,
    shell_to_bishell,
    shell_witness_violation,
    sufficient_conditions,
    truncate_bishell,
)
from .generators import gen_convex, gen_cylindrical, gen_random_points, gen_twopage, TwoPageSpec
from .io import ParseError, parse, parse_witness, serialize, serialize_witness, svg_document

__all__ = [
    "BishellWitness", "DegenerateInput", "DeletionView",
    "Drawing", "InvariantEdgeReport", "NotGoodDrawing",
    "ParseError", "Point", "ShellWitness", "TwoPageSpec", "WitnessInvalid",
    "bishell_witness_violation", "build_drawing", "check_bishellable",
    "check_s_shellable", "circle_point",
    "crossings_from_cumulative", "crossings_from_k_edges", "cumulative_sums",
    "double_cumulative_bound_holds", "gen_convex",
    "gen_cylindrical", "gen_random_points", "gen_twopage", "hill_number",
    "invariant_edge_report", "k_edge_vector", "k_value", "parse", "parse_witness",
    "planarize_points", "point", "proper_intersection",
    "right_mask", "rotation_key", "serialize", "serialize_witness",
    "shell_to_bishell", "shell_witness_violation", "subdrawing",
    "sufficient_conditions", "svg_document", "truncate_bishell",
]
