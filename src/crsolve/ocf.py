"""Ranking functions induced by solution vectors, and belief queries.

A vector v over the rules of a knowledge base induces the ranking function

    rank(w) = sum of v[i] over all rules i that world w falsifies,

a map from worlds to naturals where higher means more surprising.  When v
solves the constraint system, the induced ranking accepts every rule and
reaches rank 0 on at least one world.

A set of worlds ranks at the minimum over its members, the empty set at
INFINITY; a conditional (B|A) is accepted iff A-and-B ranks strictly below
A-and-not-B.  INFINITY is ``math.inf``: it compares greater than every
natural and prints as ``inf``.  Ranks are only ever compared.

A query ranks over the worlds of only the atoms U that the rules or the
query mention: a world's rank and its membership in A-and-B and A-and-not-B
depend on its restriction to U alone, and restriction maps all 2**m worlds
onto the 2**|U| worlds over U (the argument of the ``csp`` docstring, with
U widened by the query's atoms), so both minima are the same in either
space.

World sets, per-world sums and world labels all come from ``worlds``.
RankingFunction is immutable and all queries are pure; its dense table
``ranks`` is built on first read, for the table outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .csp import KappaVector
from .kb import Conditional, KnowledgeBase
from .worlds import build_partitions, rule_partitions, selector, world_names, world_sums


INFINITY = math.inf

Rank = int | float


@dataclass(frozen=True)
class RankingFunction:
    """The ranking that ``vector``, one natural per rule, induces on ``kb``."""

    kb: KnowledgeBase
    vector: KappaVector

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Dense rank table over all 2**m worlds, indexed by world."""
        return world_sums(build_partitions(self.kb)[1], self.vector, self.kb.m)


def induced_ocf(kb: KnowledgeBase, v: KappaVector) -> RankingFunction:
    """The ranking induced by v: each world's rank is the sum of v[i] over
    the rules it falsifies.  v need not be a solution, but its components
    must be natural numbers."""
    if len(v) != kb.n:
        raise ValueError(f"vector has length {len(v)}, expected {kb.n}")
    if v and min(v) < 0:
        raise ValueError(f"vector has a negative component: {min(v)}")
    return RankingFunction(kb, tuple(v))


def _rank_of_set(ranks: tuple[int, ...], ws: int) -> Rank:
    return min(compress(ranks, selector(ws)), default=INFINITY)


def acceptance_ranks(r: RankingFunction, c: Conditional) -> tuple[Rank, Rank]:
    """(rank of A-and-B, rank of A-and-not-B) for conditional (B|A), over
    the worlds of the atoms that the rules or c mention."""
    m, verifying, falsifying = rule_partitions(r.kb, (c,))
    ranks = world_sums(falsifying[:-1], r.vector, m)
    return _rank_of_set(ranks, verifying[-1]), _rank_of_set(ranks, falsifying[-1])


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
