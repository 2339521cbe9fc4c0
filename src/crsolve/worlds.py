"""World semantics: formula evaluation over all 2**m interpretations.

This module alone knows how worlds, world sets and per-world tables are
encoded; the compiler and the ranking layer ask it, never decode them.

Worlds are dense integers in ``[0, 2**m)``.  The atom with index i occupies
bit (m - i) of the world index, so the first declared atom is the most
significant bit and descending index order is conventional truth-table
reading order (the all-true world first).

Sets of worlds are plain ints used as bitsets: bit w is set iff world w is
in the set.  Every pass over the members of a set starts from its binary
digits translated to one byte per world (``selector``,
``_signature_columns``): time linear in 2**m, spent in C (``bin`` and
``bytes.translate``), never in a Python loop over the bits of a 2**m-bit
int.

A DNF term's models are the world of its positive literals completed by
every assignment to the atoms the term leaves free: starting from the
set {0}, each free bit doubles the set by a shift and an OR, and the
result is shifted onto the positive literals.  Nothing is cached between
calls; every function here is pure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress, count, product, repeat
from operator import add
from typing import Iterator, Sequence

from .kb import Atom, Conditional, Formula, KnowledgeBase

WorldSet = int


# Translations of bin() digits to bytes: 0/1 for selectors, and 0/(1 << k)
# for bit k of the bytes of signature columns.
_SELECT = bytes.maketrans(b"01", b"\x00\x01")
_BIT_OF_BYTE = tuple(bytes.maketrans(b"01", bytes((0, 1 << k))) for k in range(8))


def selector(bits: int) -> bytes:
    """One byte per position, 1 where ``bits`` has a set bit and 0 where it
    has not, lowest position first, up to the highest set bit (``b"\\x00"``
    for 0).  Feed it to ``itertools.compress`` to pick the entries of a
    per-world table that belong to a world set, in time linear in 2**m."""
    # bin(bits)[:1:-1] is the binary digits, least significant first.
    return bin(bits)[:1:-1].encode().translate(_SELECT)


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the positions of set bits, ascending."""
    return compress(count(), selector(bits))


def _signature_columns(sets: Sequence[WorldSet], m: int) -> list[bytes]:
    """Membership of the 2**m worlds in ``sets``, eight sets to a column:
    bit k of byte w of column g is set iff world w is in sets[8 * g + k].

    No Python code runs per world: each set's binary digits (most
    significant first, as ``bin`` writes them) are translated to bytes 0 or
    1 << k and read as a big-endian int, so world w lands in byte w from
    the low end; the eight ints of a group are OR-ed together.
    """
    columns = []
    for group in range(0, len(sets), 8):
        column = 0
        for k, ws in enumerate(sets[group : group + 8]):
            column |= int.from_bytes(bin(ws)[2:].encode().translate(_BIT_OF_BYTE[k]), "big")
        columns.append(column.to_bytes(1 << m, "little"))
    return columns


def world_sums(sets: Sequence[WorldSet], weights: Sequence[int], m: int) -> tuple[int, ...]:
    """Per world w of 2**m, the sum of weights[j] over the sets j that hold w.

    Byte w of signature column g names the sets 8g..8g+7 that hold w, so
    each column adds one entry of the subset sums of its eight weights."""
    sums = repeat(0, 1 << m)
    for g, column in enumerate(_signature_columns(sets, m)):
        table = [0]
        for x in weights[8 * g : 8 * g + 8]:
            table += [s + x for s in table]
        sums = map(add, sums, map(table.__getitem__, column))
    return tuple(sums)


def world_signatures(sets: Sequence[WorldSet], m: int) -> tuple[int, ...]:
    """Per world w of 2**m, the bitmask of the indices j with w in sets[j],
    for at most 64 sets.  The signature columns are interleaved into an
    array of 1, 2, 4 or 8 bytes per world and read back as native ints."""
    columns = _signature_columns(sets, m)
    width = 1
    while width < len(columns):
        width *= 2
    table = bytearray((1 << m) * width)
    for g, column in enumerate(columns):
        table[(g if sys.byteorder == "little" else width - 1 - g) :: width] = column
    return tuple(memoryview(table).cast("BHIQ"[width.bit_length() - 1]))


def formula_worlds(f: Formula) -> WorldSet:
    """The set of worlds satisfying the formula (union over DNF terms)."""
    ws = 0
    for t in f.terms:
        if t.pos & t.neg:
            continue
        # The subset sums of the free bits, one doubling per free bit.
        sums = 1
        free = ((1 << t.width) - 1) & ~(t.pos | t.neg)
        while free:
            low = free & -free
            sums |= sums << low
            free ^= low
        ws |= sums << t.pos
    return ws


@dataclass(frozen=True)
class FalsificationMatrix:
    """Per-rule verifying and falsifying world sets.

    Row i holds the worlds verifying rule i+1 (antecedent and consequent
    both hold) and the worlds falsifying it (antecedent holds, consequent
    fails); the two sets are disjoint by construction.
    """

    verifying: tuple[WorldSet, ...]
    falsifying: tuple[WorldSet, ...]


def conditional_worlds(c: Conditional) -> tuple[WorldSet, WorldSet]:
    """The worlds verifying (B|A), A-and-B, and falsifying it, A-and-not-B."""
    wa = formula_worlds(c.antecedent)
    wb = formula_worlds(c.consequent)
    return wa & wb, wa & ~wb


def build_partitions(kb: KnowledgeBase) -> FalsificationMatrix:
    """Compute each rule's verifying/falsifying world sets."""
    splits = [conditional_worlds(c) for c in kb.conditionals]
    return FalsificationMatrix(tuple(v for v, _ in splits), tuple(f for _, f in splits))


def _literal_names(atoms: tuple[Atom, ...], sep: str) -> list[str]:
    # Indexed by the worlds over just these atoms, first atom most significant.
    return [sep.join(t) for t in product(*(("-" + a.name, a.name) for a in atoms))]


def world_names(atoms: tuple[Atom, ...], sep: str) -> list[str]:
    """Every world's label, indexed by world: its literals, negated atoms
    marked "-", joined by sep (``p b -f w k`` for sep " ", the compact
    JSON form ``pb-fwk`` for sep "").  Each label is one concatenation of
    two entries from tables over the high and the low half of the atoms."""
    half = len(atoms) // 2
    low = _literal_names(atoms[half:], sep)
    if not half:
        return low
    high = _literal_names(atoms[:half], sep)
    return [h + sep + lo for h in high for lo in low]
