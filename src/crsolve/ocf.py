"""Ranking functions induced by solution vectors, and belief queries.

A vector v over the rules of a knowledge base induces the ranking function

    rank(w) = sum of v[i] over all rules i that world w falsifies,

a map from worlds to naturals where higher means more surprising.  When v
solves the constraint system, the induced ranking accepts every rule and
reaches rank 0 on at least one world.

Formulas rank at the minimum over their worlds, unsatisfiable ones at
INFINITY; a conditional (B|A) is accepted iff A-and-B ranks strictly below
A-and-not-B.  INFINITY is an explicit value, not a sentinel number, and
compares greater than every natural (never greater than itself).

RankingFunction is immutable; all queries are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add

from .csp import KappaVector
from .kb import Conditional, Formula, KnowledgeBase
from .worlds import (
    build_partitions,
    formula_worlds,
    full_set,
    selector,
    signature_columns,
    world_names,
)


class _Infinity:
    """The rank of the unsatisfiable; orders above every natural number."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INFINITY

    def __hash__(self):
        return hash("crsolve.INFINITY")

    def __sub__(self, other):
        return INFINITY

    def __add__(self, other):
        return INFINITY

    __radd__ = __add__

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()

Rank = int | _Infinity


@dataclass(frozen=True)
class RankingFunction:
    """Dense rank table over all 2**m worlds, indexed by world."""

    ranks: tuple[int, ...]
    kb: KnowledgeBase


def _subset_sums(values: KappaVector) -> list[int]:
    # Entry s is the sum of values[k] over the set bits k of s.
    sums = [0]
    for x in values:
        sums += [s + x for s in sums]
    return sums


def induced_ocf(kb: KnowledgeBase, v: KappaVector) -> RankingFunction:
    """Materialize the ranking induced by v: each world's rank is the sum
    of v[i] over the rules it falsifies.  v need not be a solution, but its
    components must be natural numbers."""
    if len(v) != kb.n:
        raise ValueError(f"vector has length {len(v)}, expected {kb.n}")
    if v and min(v) < 0:
        raise ValueError(f"vector has a negative component: {min(v)}")
    # Byte w of column g holds the rules 8g..8g+7 that world w falsifies,
    # so the rank of w sums one subset sum per column.
    ranks = repeat(0, 1 << kb.m)
    for g, column in enumerate(signature_columns(build_partitions(kb).falsifying, kb.m)):
        sums = _subset_sums(v[8 * g : 8 * g + 8])
        ranks = map(add, ranks, map(sums.__getitem__, column))
    return RankingFunction(tuple(ranks), kb)


def _rank_of_set(r: RankingFunction, ws: int) -> Rank:
    if not ws:
        return INFINITY
    return min(compress(r.ranks, selector(ws)))


def rank_formula(r: RankingFunction, f: Formula) -> Rank:
    """Minimum rank over the formula's worlds; INFINITY if unsatisfiable."""
    return _rank_of_set(r, formula_worlds(f))


def acceptance_ranks(r: RankingFunction, c: Conditional) -> tuple[Rank, Rank]:
    """(rank of A-and-B, rank of A-and-not-B) for conditional (B|A)."""
    wa = formula_worlds(c.antecedent)
    wb = formula_worlds(c.consequent)
    full = full_set(r.kb.m)
    return _rank_of_set(r, wa & wb), _rank_of_set(r, wa & (full ^ wb))


def rank_conditional(r: RankingFunction, c: Conditional) -> Rank:
    """Rank of (B|A): rank(A-and-B) minus rank(A), INFINITY when the
    antecedent is unsatisfiable.  Never negative."""
    wa = formula_worlds(c.antecedent)
    antecedent_rank = _rank_of_set(r, wa)
    if antecedent_rank is INFINITY:
        return INFINITY
    verified_rank = _rank_of_set(r, wa & formula_worlds(c.consequent))
    return verified_rank - antecedent_rank


def accepts(r: RankingFunction, c: Conditional) -> bool:
    """True iff verifying the conditional is strictly less surprising than
    falsifying it (INFINITY is never strictly below INFINITY)."""
    verified, falsified = acceptance_ranks(r, c)
    return verified < falsified


def render_table(r: RankingFunction) -> str:
    """Two-column text table, one world per line in truth-table order
    (all-true world first)."""
    names = world_names(r.kb.atoms, " ")
    row = f"{{:<{max(map(len, names))}}}  {{}}\n".format
    return "".join(map(row, reversed(names), reversed(r.ranks)))


def ocf_records(r: RankingFunction) -> list[dict]:
    """JSON-ready records ``{"world": ..., "rank": ...}`` in table order."""
    names = world_names(r.kb.atoms, "")
    return [
        {"world": s, "rank": rank} for s, rank in zip(reversed(names), reversed(r.ranks))
    ]
