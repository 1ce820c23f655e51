"""Exact counting of bipartite-pattern embeddings in triangle-free graphs,
blow-up weight optimization, and inequality certificates."""

from ._kernels import BACKEND, HAS_FAST
from .blowup import (LeadingCoefficient, SaturationReport, WeightedPattern,
                     leading_coefficient, optimize_weights, saturation_check,
                     saturation_converges, weighted_hom_sum)
from .bounds import (ChainReport, EdgeBoundReport, SweepReport,
                     Theorem1Coefficient, Theorem2Certificate, Theorem2Params,
                     edge_bound_check, optimal_Delta_fraction,
                     solve_theorem2_params, theorem2_end_to_end,
                     thm1_chain_check, thm1_coefficient, thm1_sweep)
from .embeddings import (HDegreeReport, clone_move, count_automorphisms,
                         count_copies, count_embeddings, h_degrees)
from .graphs import (DegreeStats, Graph, GraphFormatError, build_blowup,
                     build_gps_example1, build_theorem2_H, build_turan2,
                     complete_bipartite, complete_graph, connected_components,
                     cycle_graph, degree_stats, disjoint_union, is_bipartite,
                     is_complete_bipartite, is_triangle_free, path_graph,
                     read_graph_file, read_graph_text, star_graph,
                     write_graph_file, write_graph_text)
from .matchings import (HypothesisVerdict, MatchingReport, NotBipartiteError,
                        check_theorem1_hypothesis, maximum_matching,
                        remove_isolated_vertices)
from .oracle import (BudgetExceededError, MaximizerReport, canonical_form,
                     enumerate_triangle_free, find_maximizers,
                     graph_from_canonical_mask, is_isomorphic,
                     triangle_free_masks)

__version__ = "0.1.0"
