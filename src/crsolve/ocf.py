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

The table outputs (``render_table`` and the text and JSON chunks that
``show-ocf`` writes) rank over the atoms U that the rules mention in the
same way: one table of 2**|U| ranks, from one ``world_sums``, and each
of the 2**m worlds reads its rank there through its restriction r(w) to U.
They list the worlds in table order, one chunk per world of the high half
of the atoms (the first m // 2), so a chunk holds 2**(m - m // 2) rows and
no output is ever built whole unless the caller joins it.

World sets, per-world sums, world labels and table order all come from
``worlds``.  RankingFunction is immutable and all queries are pure; it
holds only the KB and the vector, and every rank is read from one of the
tables above.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import add
from typing import Iterator, NamedTuple

from .csp import KappaVector
from .kb import Conditional, KnowledgeBase
from .worlds import rule_partitions, selector, table_labels, table_partitions, world_sums


INFINITY = math.inf

Rank = int | float


class RankingFunction(NamedTuple):
    """The ranking that ``vector``, one natural per rule, induces on ``kb``."""

    kb: KnowledgeBase
    vector: KappaVector


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


def _chunk_ranks(r: RankingFunction) -> Iterator[Iterator[str]]:
    # Per world h of the high half in table order, the ranks of the worlds
    # that extend h, in table order, as strings: one table over the
    # mentioned atoms, read through each world's restriction to them
    # (``worlds.table_partitions``).
    m, falsifying, s, high, low = table_partitions(r.kb)
    sums = world_sums(falsifying, r.vector, m)
    # One formatting call and one split: faster than str() per entry.
    table = ("%d " * len(sums) % sums).split()
    for h in high:
        part = table[h << s : (h + 1) << s]
        yield map(part.__getitem__, low)


def table_chunks(r: RankingFunction) -> Iterator[str]:
    """The lines of ``render_table``, one string per world of the high
    half of the atoms.  Every row is the world's label, padded by its
    count of true atoms to the width of the all-false label, two spaces
    and the rank.  A chunk's rows share their high label and its space as
    a prefix, and each low label with its padding and the two spaces is
    one cell, built once per count of true atoms in the high half."""
    atoms = r.kb.atoms
    high, low = table_labels([a.name for a in atoms], " ")
    space = " " if len(atoms) > 1 else ""
    # The all-false labels come last and are the longest; a label falls
    # short of them by its count of true atoms.
    top, width = len(high[-1]), len(low[-1]) + 2
    cells = [list(map(str.ljust, low, repeat(width + k))) for k in range(len(atoms) // 2 + 1)]
    for label, ranks in zip(high, _chunk_ranks(r)):
        prefix = label + space
        yield prefix + ("\n" + prefix).join(map(add, cells[top - len(label)], ranks)) + "\n"


def render_table(r: RankingFunction) -> str:
    """Two-column text table, one world per line in truth-table order
    (all-true world first)."""
    return "".join(table_chunks(r))


def json_chunks(r: RankingFunction) -> Iterator[str]:
    """A JSON list of ``{"world": label, "rank": rank}`` in table order and
    a newline, where a label is the world's literals with no separator
    (``pb-fwk``), with the separators of ``json.dumps``, as one string per
    world of the high half of the atoms."""
    # Imported here, not with the module: json adds about a millisecond
    # to every import of the package, and only this writer needs it.
    import json

    high, low = table_labels([json.dumps(a.name)[1:-1] for a in r.kb.atoms], "")
    cells = [label + '", "rank": ' for label in low]
    lead = "["
    for label, ranks in zip(high, _chunk_ranks(r)):
        prefix = '{"world": "' + label
        yield lead + prefix + ("}, " + prefix).join(map(add, cells, ranks))
        lead = "}, "
    yield "}]\n"
