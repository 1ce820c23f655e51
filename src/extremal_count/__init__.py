"""Exact counting of bipartite-pattern embeddings in triangle-free graphs,
blow-up weight optimization, and inequality certificates.

The names below are imported from their submodules on first access
(PEP 562), so `import extremal_count` loads no submodule and each command
of the CLI loads only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "_kernels": ("BACKEND",),
    "blowup": ("SaturationReport", "optimize_weights", "saturation_check",
               "saturation_converges"),
    "bounds": ("Theorem2Certificate", "Theorem2Params",
               "solve_theorem2_params", "theorem2_end_to_end"),
    "embeddings": ("HDegreeReport", "clone_move", "count_automorphisms",
                   "count_copies", "count_embeddings", "h_degrees"),
    "families": ("build_blowup", "build_gps_example1", "build_theorem2_H",
                 "build_turan2", "complete_bipartite", "complete_graph",
                 "cycle_graph", "path_graph", "star_graph"),
    "graphs": ("BudgetExceededError", "DegreeStats", "EdgeBoundReport",
               "Graph", "GraphFormatError", "connected_components",
               "degree_stats", "disjoint_union", "edge_bound_check",
               "is_bipartite", "is_complete_bipartite", "is_triangle_free",
               "read_graph_file", "read_graph_text", "write_graph_file",
               "write_graph_text"),
    "homsum": ("LeadingCoefficient", "WeightedPattern", "leading_coefficient",
               "weighted_hom_sum"),
    "matchings": ("HypothesisVerdict", "MatchingReport", "NotBipartiteError",
                  "check_theorem1_hypothesis", "maximum_matching"),
    "oracle": ("MaximizerReport", "canonical_form", "enumerate_triangle_free",
               "find_maximizers", "graph_from_canonical_mask", "is_isomorphic",
               "triangle_free_masks"),
    "thm1": ("ChainReport", "SweepReport", "Theorem1Coefficient",
             "optimal_Delta_fraction", "thm1_chain_check", "thm1_coefficient",
             "thm1_sweep"),
}

# exported name -> defining submodule
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
