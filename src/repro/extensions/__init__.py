"""Extensions beyond the paper, each labelled as such in its module.

None of these is one of the paper's algorithms; they sit on the same
solvers and serve its related work, future work and examples:

* :func:`greedy_pp_densest` -- Greedy++ iterated peeling (Boob et al.),
  converging to the exact EDS;
* :func:`densest_at_least` / :func:`densest_at_most` -- greedy
  heuristics for the size-constrained variants the conclusion names as
  future work;
* :func:`streaming_densest` -- the Bahmani–Kumar–Vassilvitskii batch
  peel, a ``1/(2+2ε)``-approximation in O(log n / ε) passes;
* :func:`top_k_densest` -- k pairwise-disjoint dense subgraphs by
  repeated extraction.
"""

from .greedy_pp import greedy_pp_densest
from .size_constrained import densest_at_least, densest_at_most
from .streaming import streaming_densest
from .topk import top_k_densest

__all__ = [
    "densest_at_least",
    "densest_at_most",
    "greedy_pp_densest",
    "streaming_densest",
    "top_k_densest",
]
