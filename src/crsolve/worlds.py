"""World semantics: formula evaluation over all 2**m interpretations.

Worlds are dense integers in ``[0, 2**m)``.  The atom with index i occupies
bit (m - i) of the world index, so the first declared atom is the most
significant bit and descending index order is conventional truth-table
reading order (the all-true world first).

Sets of worlds are plain ints used as bitsets: bit w is set iff world w is
in the set.  Every pass over the members of a set starts from its binary
digits translated to one byte per world (``selector``,
``signature_columns``): time linear in 2**m, spent in C (``bin`` and
``bytes.translate``), never in a Python loop over the bits of a 2**m-bit
int.
Everything here is pure and immutable once built.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, product
from typing import Iterator, Sequence

from .kb import Atom, Formula, KnowledgeBase, Term

WorldSet = int


def full_set(m: int) -> WorldSet:
    """The set of all 2**m worlds."""
    return (1 << (1 << m)) - 1


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


def signature_columns(sets: Sequence[WorldSet], m: int) -> list[bytes]:
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


def world_signatures(sets: Sequence[WorldSet], m: int) -> tuple[int, ...]:
    """Per world w of 2**m, the bitmask of the indices j with w in sets[j],
    for at most 64 sets.  The signature columns are interleaved into an
    array of 1, 2, 4 or 8 bytes per world and read back as native ints."""
    columns = signature_columns(sets, m)
    width = 1
    while width < len(columns):
        width *= 2
    table = bytearray((1 << m) * width)
    for g, column in enumerate(columns):
        table[(g if sys.byteorder == "little" else width - 1 - g) :: width] = column
    return tuple(memoryview(table).cast("BHIQ"[width.bit_length() - 1]))


@lru_cache(maxsize=None)
def _bit_column(m: int, k: int) -> WorldSet:
    # Worlds whose index has bit k set: blocks of 2**k clear then 2**k set,
    # replicated across all 2**m worlds by doubling.
    block = 1 << k
    pattern = ((1 << block) - 1) << block
    span = 2 * block
    total = 1 << m
    while span < total:
        pattern |= pattern << span
        span *= 2
    return pattern


def term_worlds(t: Term) -> WorldSet:
    if t.pos & t.neg:
        return 0
    m = t.width
    ws = full_set(m)
    for k in range((t.pos | t.neg).bit_length()):
        if (t.pos >> k) & 1:
            ws &= _bit_column(m, k)
        elif (t.neg >> k) & 1:
            ws &= ~_bit_column(m, k)
    return ws


def formula_worlds(f: Formula) -> WorldSet:
    """The set of worlds satisfying the formula (union over DNF terms)."""
    ws = 0
    for t in f.terms:
        ws |= term_worlds(t)
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


def build_partitions(kb: KnowledgeBase) -> FalsificationMatrix:
    """Compute each rule's verifying/falsifying world sets."""
    full = full_set(kb.m)
    verifying = []
    falsifying = []
    for c in kb.conditionals:
        wa = formula_worlds(c.antecedent)
        wb = formula_worlds(c.consequent)
        verifying.append(wa & wb)
        falsifying.append(wa & (full ^ wb))
    return FalsificationMatrix(tuple(verifying), tuple(falsifying))


def world_str(atoms: tuple[Atom, ...], w: int) -> str:
    """Render a world as space-separated literals, e.g. ``p b -f w -k``."""
    m = len(atoms)
    return " ".join(
        a.name if w & (1 << (m - a.index)) else "-" + a.name for a in atoms
    )


def _literal_names(atoms: tuple[Atom, ...], sep: str) -> list[str]:
    # Indexed by the worlds over just these atoms, first atom most significant.
    return [sep.join(t) for t in product(*(("-" + a.name, a.name) for a in atoms))]


def world_names(atoms: tuple[Atom, ...], sep: str) -> list[str]:
    """Every world's label, indexed by world: ``world_str`` for sep " ",
    the compact JSON form (``pbfwk``, ``p-bfwk``) for sep "".  Each label is
    one concatenation of two entries from tables over the high and the low
    half of the atoms."""
    half = len(atoms) // 2
    low = _literal_names(atoms[half:], sep)
    if not half:
        return low
    high = _literal_names(atoms[:half], sep)
    return [h + sep + lo for h in high for lo in low]
