"""The package's public names: ``__all__`` lists only what the package
binds, and the public records keep their contract."""

import pytest

import crsolve
from crsolve import (
    Atom,
    BenchRecord,
    Conditional,
    CRProblem,
    Formula,
    KnowledgeBase,
    RankingFunction,
    SolutionOrdering,
    SolutionSet,
    SyntheticSpec,
    Term,
)


def test_every_exported_name_exists():
    missing = [name for name in crsolve.__all__ if not hasattr(crsolve, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(crsolve.__all__) == len(set(crsolve.__all__))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from crsolve import *", namespace)
    assert set(crsolve.__all__) <= namespace.keys()


def test_no_dense_world_space():
    # Every rank is read from a table over the atoms that the rules mention,
    # so neither a rank table over all 2**m worlds (RankingFunction.ranks)
    # nor labels by world index (world_names) is public.  __all__ is pinned
    # whole, so no other name leaves it unnoticed.
    assert set(crsolve.__all__) == {
        "Atom", "BenchRecord", "Conditional", "CRProblem", "Formula", "INFINITY",
        "InfeasibleError", "KBSyntaxError", "KappaVector", "KnowledgeBase", "Rank",
        "RankingFunction", "SolutionOrdering", "SolutionSet", "SolveTimeout",
        "SyntheticSpec", "Term", "WorldSet", "acceptance_ranks", "accepts", "all_min_sum",
        "build_partitions", "build_problem", "check_solution", "enumerate_solutions",
        "gen_synthetic", "induced_ocf", "iter_solutions", "ocf_min", "parse_conditional",
        "parse_kb", "pareto_min", "render_formula", "render_kb", "render_table", "run_bench",
        "solve_min_sum", "write_csv", "__version__",
    }
    assert not hasattr(crsolve, "world_names")
    assert not hasattr(RankingFunction, "ranks")


_T = Term(2, 2, 0)
_KB = KnowledgeBase((Atom("p", 1),), ())
RECORDS = [
    (Atom("p", 1), "Atom(name='p', index=1)"),
    (_T, "Term(width=2, pos=2, neg=0)"),
    (Formula((_T,)), "Formula(terms=(Term(width=2, pos=2, neg=0),))"),
    (
        Conditional(1, Formula((_T,)), Formula((_T,)), "r1"),
        "Conditional(id=1, antecedent=Formula(terms=(Term(width=2, pos=2, neg=0),)), "
        "consequent=Formula(terms=(Term(width=2, pos=2, neg=0),)), label='r1')",
    ),
    (_KB, "KnowledgeBase(atoms=(Atom(name='p', index=1),), conditionals=())"),
    (
        SolutionSet(SolutionOrdering.SUM, 3, ((1, 0),), 1),
        "SolutionSet(ordering=<SolutionOrdering.SUM: 'sum'>, bound=3, vectors=((1, 0),), minimal_sum=1)",
    ),
    (
        CRProblem(1, (0, 1), (((),),), (((0,),),)),
        "CRProblem(bound=1, world_sigs=(0, 1), verifying_sigs=(((),),), falsifying_sigs=(((0,),),))",
    ),
    (
        RankingFunction(_KB, ()),
        "RankingFunction(kb=KnowledgeBase(atoms=(Atom(name='p', index=1),), conditionals=()), vector=())",
    ),
    (SyntheticSpec(3), "SyntheticSpec(n=3, j=0)"),
    (
        BenchRecord("kb(3,5)", 4, 5, "min-all", 0.5, None),
        "BenchRecord(kb_name='kb(3,5)', variables=4, conditionals=5, operation='min-all', "
        "wall_time_s=0.5, solutions_found=None, timed_out=False)",
    ),
]


def test_record_contract():
    """Each public record cannot be assigned to, is equal (and hashes
    equal) to a record exactly when their fields are, and prints as the
    frozen dataclass it once was.  It is also, by design, the plain tuple
    of its fields, and so equal to that tuple and hashed alike."""
    assert {type(record).__name__ for record, _ in RECORDS} == {
        "Atom", "Term", "Formula", "Conditional", "KnowledgeBase",
        "SolutionSet", "CRProblem", "RankingFunction", "SyntheticSpec", "BenchRecord",
    }
    for record, text in RECORDS:
        fields = tuple(getattr(record, name) for name in record._fields)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        twin = type(record)(*fields)
        assert twin == record and hash(twin) == hash(record)
        for i in range(len(fields)):
            assert type(record)(*fields[:i], object(), *fields[i + 1 :]) != record
        assert repr(record) == text
        assert record == fields and hash(record) == hash(fields)
