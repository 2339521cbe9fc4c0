"""Ranking functions induced by solution vectors, and belief queries.

A vector v over the rules of a knowledge base induces the ranking function

    rank(w) = sum of v[i] over all rules i that world w falsifies,

a map from worlds to naturals where higher means more surprising.  When v
solves the constraint system, the induced ranking accepts every rule and
reaches rank 0 on at least one world.

Formulas rank at the minimum over their worlds, unsatisfiable ones at
INFINITY; a conditional (B|A) is accepted iff A-and-B ranks strictly below
A-and-not-B.  INFINITY is ``math.inf``: it compares greater than every
natural and prints as ``inf``.  Ranks are only compared, except for the one
subtraction in ``rank_conditional``, which is guarded so that it never
computes ``inf - inf``.

World sets, per-world sums and world labels all come from ``worlds``.
RankingFunction is immutable; all queries are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from .csp import KappaVector
from .kb import Conditional, Formula, KnowledgeBase
from .worlds import (
    build_partitions,
    conditional_worlds,
    formula_worlds,
    selector,
    world_names,
    world_sums,
)


INFINITY = math.inf

Rank = int | float


@dataclass(frozen=True)
class RankingFunction:
    """Dense rank table over all 2**m worlds, indexed by world."""

    ranks: tuple[int, ...]
    kb: KnowledgeBase


def induced_ocf(kb: KnowledgeBase, v: KappaVector) -> RankingFunction:
    """Materialize the ranking induced by v: each world's rank is the sum
    of v[i] over the rules it falsifies.  v need not be a solution, but its
    components must be natural numbers."""
    if len(v) != kb.n:
        raise ValueError(f"vector has length {len(v)}, expected {kb.n}")
    if v and min(v) < 0:
        raise ValueError(f"vector has a negative component: {min(v)}")
    return RankingFunction(world_sums(build_partitions(kb)[1], v, kb.m), kb)


def _rank_of_set(r: RankingFunction, ws: int) -> Rank:
    return min(compress(r.ranks, selector(ws)), default=INFINITY)


def rank_formula(r: RankingFunction, f: Formula) -> Rank:
    """Minimum rank over the formula's worlds; INFINITY if unsatisfiable."""
    return _rank_of_set(r, formula_worlds(f))


def acceptance_ranks(r: RankingFunction, c: Conditional) -> tuple[Rank, Rank]:
    """(rank of A-and-B, rank of A-and-not-B) for conditional (B|A)."""
    verifying, falsifying = conditional_worlds(c)
    return _rank_of_set(r, verifying), _rank_of_set(r, falsifying)


def rank_conditional(r: RankingFunction, c: Conditional) -> Rank:
    """Rank of (B|A): rank(A-and-B) minus rank(A), INFINITY when the
    antecedent is unsatisfiable.  Never negative."""
    verified, falsified = acceptance_ranks(r, c)
    # rank(A) is the lesser of the two.  An infinite A-and-B side is
    # returned as is: inf - inf would be NaN.
    if verified == INFINITY:
        return INFINITY
    return verified - min(verified, falsified)


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
