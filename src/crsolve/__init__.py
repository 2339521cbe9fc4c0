"""crsolve: c-representations of conditional knowledge bases.

Parse a knowledge base of default rules, compile the constraint system
whose solutions are the rule-impact vectors, enumerate or minimize those
solutions under several orderings, and answer belief queries against the
induced ranking functions.
"""

from .bench import BenchRecord, SyntheticSpec, gen_synthetic, run_bench, write_csv
from .csp import (
    CRProblem,
    InfeasibleError,
    KappaVector,
    SolutionOrdering,
    SolutionSet,
    SolveTimeout,
    all_min_sum,
    build_problem,
    check_solution,
    enumerate_solutions,
    iter_solutions,
    ocf_min,
    pareto_min,
    solve_min_sum,
)
from .kb import (
    Atom,
    Conditional,
    Formula,
    KBSyntaxError,
    KnowledgeBase,
    Term,
    parse_conditional,
    parse_kb,
    render_formula,
    render_kb,
)
from .ocf import (
    INFINITY,
    Rank,
    RankingFunction,
    acceptance_ranks,
    accepts,
    induced_ocf,
    render_table,
)
from .worlds import WorldSet, build_partitions

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BenchRecord",
    "Conditional",
    "CRProblem",
    "Formula",
    "INFINITY",
    "InfeasibleError",
    "KBSyntaxError",
    "KappaVector",
    "KnowledgeBase",
    "Rank",
    "RankingFunction",
    "SolutionOrdering",
    "SolutionSet",
    "SolveTimeout",
    "SyntheticSpec",
    "Term",
    "WorldSet",
    "acceptance_ranks",
    "accepts",
    "all_min_sum",
    "build_partitions",
    "build_problem",
    "check_solution",
    "enumerate_solutions",
    "gen_synthetic",
    "induced_ocf",
    "iter_solutions",
    "ocf_min",
    "parse_conditional",
    "parse_kb",
    "pareto_min",
    "render_formula",
    "render_kb",
    "render_table",
    "run_bench",
    "solve_min_sum",
    "write_csv",
    "__version__",
]
