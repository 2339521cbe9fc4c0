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
    parse_formula,
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
    ocf_records,
    rank_conditional,
    rank_formula,
    render_table,
)
from .worlds import (
    FalsificationMatrix,
    WorldSet,
    build_partitions,
    formula_worlds,
    world_names,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BenchRecord",
    "Conditional",
    "CRProblem",
    "FalsificationMatrix",
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
    "formula_worlds",
    "gen_synthetic",
    "induced_ocf",
    "ocf_min",
    "ocf_records",
    "parse_conditional",
    "parse_formula",
    "parse_kb",
    "pareto_min",
    "rank_conditional",
    "rank_formula",
    "render_formula",
    "render_kb",
    "render_table",
    "run_bench",
    "solve_min_sum",
    "world_names",
    "write_csv",
    "__version__",
]
