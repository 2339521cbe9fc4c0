"""World semantics: the world sets of rules and queries, and per-world
tables over them.

This module alone builds world sets and reads worlds as atoms; the others
only pick table entries with ``selector`` and slice by ``table_partitions``.

Worlds are dense integers in ``[0, 2**m)``.  The atom with index i occupies
bit (m - i) of the world index, so the first declared atom is the most
significant bit and descending index order is conventional truth-table
reading order (the all-true world first).  ``rule_partitions`` numbers
the worlds over only the atoms that a KB's rules, and a query if given,
mention the same way; every table the package builds, and so every rank,
is over those worlds.  ``build_partitions``, the sets over all 2**m
worlds, has no caller in the package.

Sets of worlds are plain ints used as bitsets: bit w is set iff world w is
in the set.  Every pass over the members of a set starts from its binary
digits translated to one byte per world (``selector``,
``_signature_columns``): time linear in 2**m, spent in C (``bin`` and
``bytes.translate``), never in a Python loop over the bits of a 2**m-bit
int.

Per-world sums of weights over sets (``world_sums``) are computed in lanes:
each world owns ``width`` bytes of one big int, the least width of 1, 2, 4
or 8 bytes that holds the sum of all the weights.  Each signature column is
translated into those lanes one byte plane at a time and added to the
total as one int; since no world's sum exceeds the sum of all the weights,
no lane carries into the next.  Weights that sum to 2**64 or more are
split at bit 32, each part is summed apart (the high part split again
while it needs to be) and the two tables are joined per world.

Every world set is built by one term loop (``_models``).  A DNF term's
models are the world of its positive literals completed by every
assignment to the atoms the term leaves free: starting from the set {0},
each free bit doubles the set by a shift and an OR (the run of free
bits from bit 0 up all at once), and the result is shifted onto the
positive literals.  To number worlds over fewer atoms, the loop first
squeezes the dropped atoms' bits out of the positive and free masks, one
bit at a time, highest first, which leaves every lower position where it
was; dropping none gives the worlds over all atoms.
Nothing is cached between calls; every function here is pure.

Tables of all 2**m worlds are written in table order, the all-true world
first, as one run of worlds of the low half of the atoms per world of the
high half (the first m // 2 atoms).  ``table_partitions`` gives each
half's worlds in that order together with their restrictions to the atoms
that the rules mention, so a table over those atoms is read per run
without ever listing the 2**m worlds; ``table_labels`` gives their labels.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress, count, product, repeat
from operator import lshift, or_
from typing import Iterator, Sequence

from .kb import Conditional, Formula, KnowledgeBase

WorldSet = int


# Translations of bin() digits to bytes 0 or 1 << k, for bit k of the bytes
# of signature columns; k = 0 gives the 0/1 bytes of selectors.
_BIT_OF_BYTE = tuple(bytes.maketrans(b"01", bytes((0, 1 << k))) for k in range(8))


def selector(bits: int) -> bytes:
    """One byte per position, 1 where ``bits`` has a set bit and 0 where it
    has not, lowest position first, up to the highest set bit (``b"\\x00"``
    for 0).  Feed it to ``itertools.compress`` to pick the entries of a
    per-world table that belong to a world set, in time linear in 2**m."""
    # bin(bits)[:1:-1] is the binary digits, least significant first.
    return bin(bits)[:1:-1].encode().translate(_BIT_OF_BYTE[0])


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
    """Per world w of 2**m, the sum of the nonnegative weights[j] over the
    sets j that hold w.

    Byte w of signature column g names the sets 8g..8g+7 that hold w, so
    the column adds entry column[w] of the 256 subset sums of its eight
    weights.  Each world owns a lane of ``width`` bytes, bytes w*width to
    w*width + width-1 of one int, where width is the least of 1, 2, 4 and 8
    with sum(weights) < 256**width.  The subset sums are packed as native
    ints of width bytes; byte o of every entry forms plane o, the column
    translated through plane o is written to byte o of every lane, and
    all-zero planes are skipped.  So each lane holds its world's subset
    sum as a native int, and the lanes, read as one int in the machine's
    byte order, are added to a running total.  A lane never exceeds
    sum(weights), so no addition carries from one lane into the next, and
    every add is one big-int add in C.  The total is decoded once, as an
    array of native ints of width bytes.

    When sum(weights) >= 2**64, no width fits.  Each weight is split into
    x >> 32 and x & 0xFFFFFFFF, each part is summed from the same columns
    (the high part split again while its weights still sum to 2**64 or
    more), and one Python pass over the worlds joins the two tables."""
    return _lane_sums(_signature_columns(sets, m), weights, m)


def _lane_sums(columns: list[bytes], weights: Sequence[int], m: int) -> tuple[int, ...]:
    top = sum(weights)
    if top >> 64:
        high = _lane_sums(columns, [x >> 32 for x in weights], m)
        low = _lane_sums(columns, [x & 0xFFFFFFFF for x in weights], m)
        return tuple((h << 32) + lo for h, lo in zip(high, low))
    width = 1
    while top >> (8 * width):
        width *= 2
    code = "BHIQ"[width.bit_length() - 1]
    size = width << m
    total = 0
    for g, column in enumerate(columns):
        table = [0]
        for x in weights[8 * g : 8 * g + 8]:
            table += [s + x for s in table]
        # A last group of k < 8 sets has 2**k subset sums; translate needs 256.
        packed = array(code, table).tobytes().ljust(width << 8, b"\0")
        lanes = bytearray(size)
        for o in range(width):
            plane = packed[o::width]
            if plane.strip(b"\0"):
                lanes[o::width] = column.translate(plane)
        total += int.from_bytes(lanes, sys.byteorder)
    return tuple(memoryview(total.to_bytes(size, sys.byteorder)).cast(code))


def world_signatures(sets: Sequence[WorldSet], m: int) -> tuple[int, ...]:
    """Per world w of 2**m, the bitmask of the indices j with w in sets[j].
    The signature columns are interleaved into an array of 2**k bytes per
    world, the least that holds them.  Lanes of 1, 2, 4 or 8 bytes are read
    back as native ints; a wider lane, for more than 64 sets, is read as
    its 8-byte words, each shifted to its place and OR-ed together in C."""
    columns = _signature_columns(sets, m)
    if len(columns) == 1:
        # One column is already the table of 1-byte lanes.
        return tuple(columns[0])
    width = 1
    while width < len(columns):
        width *= 2
    table = bytearray((1 << m) * width)
    little = sys.byteorder == "little"
    for g, column in enumerate(columns):
        table[(g if little else width - 1 - g) :: width] = column
    if width <= 8:
        return tuple(memoryview(table).cast("BHIQ"[width.bit_length() - 1]))
    words = memoryview(table).cast("Q")
    per = width // 8
    keys: Iterator[int] = iter(words[0 if little else per - 1 :: per])
    for k in range(1, per):
        high = words[k if little else per - 1 - k :: per]
        keys = map(or_, keys, map(lshift, high, repeat(64 * k)))
    return tuple(keys)


def _models(f: Formula, drop: Sequence[int]) -> WorldSet:
    """The worlds satisfying f over the atoms left once the bit positions
    in ``drop``, highest first, are squeezed out; ``()`` keeps all atoms."""
    ws = 0
    for t in f.terms:
        pos, neg = t.pos, t.neg
        if pos & neg:
            continue
        free = ((1 << t.width) - 1) & ~(pos | neg)
        for b in drop:
            below = (1 << b) - 1
            pos = pos >> 1 & ~below | pos & below
            free = free >> 1 & ~below | free & below
        # The subset sums of the free bits: the run of free bits from bit 0
        # up gives every sum below 2**k at once, k its length, and each
        # other free bit doubles the set.
        run = (free + 1) & ~free
        sums = (1 << run) - 1
        free ^= run - 1
        while free:
            low = free & -free
            sums |= sums << low
            free ^= low
        ws |= sums << pos
    return ws


def _partitions(
    conditionals: Sequence[Conditional], drop: Sequence[int]
) -> tuple[tuple[WorldSet, ...], tuple[WorldSet, ...]]:
    verifying, falsifying = [], []
    for c in conditionals:
        wa = _models(c.antecedent, drop)
        wb = _models(c.consequent, drop)
        verifying.append(wa & wb)
        falsifying.append(wa & ~wb)
    return tuple(verifying), tuple(falsifying)


def build_partitions(kb: KnowledgeBase) -> tuple[tuple[WorldSet, ...], tuple[WorldSet, ...]]:
    """The pair (verifying, falsifying): entry i of each is the set of
    worlds of all 2**m verifying, resp. falsifying, rule i+1.  The two sets
    of a rule are disjoint; a KB without rules gives ``((), ())``.

    Nothing in the package calls it: every table is built over the
    mentioned atoms by ``rule_partitions``.  It stays public only because
    the perfbench harness times it as a probe."""
    return _partitions(kb.conditionals, ())


def _dropped(conditionals: Sequence[Conditional], m: int) -> tuple[int, list[int]]:
    # The bits of the atoms that some term of some conditional has in its
    # masks, and the other bits of [0, m), highest first.
    used = 0
    for c in conditionals:
        for t in c.antecedent.terms + c.consequent.terms:
            used |= t.pos | t.neg
    return used, [b for b in range(m - 1, -1, -1) if not used >> b & 1]


def rule_partitions(
    kb: KnowledgeBase, extra: Sequence[Conditional] = ()
) -> tuple[int, tuple[WorldSet, ...], tuple[WorldSet, ...]]:
    """``build_partitions`` of the rules followed by the conditionals in
    ``extra``, over only the atoms that they mention: the triple (m',
    verifying, falsifying), where the sets hold worlds of [0, 2**m') over
    those m' atoms, kept in declared order.

    An atom is mentioned when some term of some conditional has it in its
    masks; ``top`` mentions none, and ``bot``'s term (first atom and its
    negation) mentions the first declared atom.  World u over the m' atoms
    stands for every world over all m atoms whose mentioned atoms take the
    values of u, and such a world is in a set exactly when u is.  The sets
    come from the builder of ``build_partitions``, told to squeeze out the
    unmentioned atoms' bits; when every atom is mentioned it squeezes out
    nothing, so m' = m and the sets are those of ``build_partitions``."""
    conditionals = kb.conditionals + tuple(extra)
    _, drop = _dropped(conditionals, kb.m)
    return kb.m - len(drop), *_partitions(conditionals, drop)


def _restrictions(used: int, n: int) -> Sequence[int]:
    # Per world over n bits in table order, its bits at the set bits of
    # used, squeezed together: each used bit doubles the list into its
    # 1 and its 0 branch, each other bit repeats every entry.  With every
    # bit used that is the worlds themselves.
    if used == (1 << n) - 1:
        return range(used, -1, -1)
    out = [0]
    for b in range(n - 1, -1, -1):
        if used >> b & 1:
            out = [y for x in out for y in (x + x + 1, x + x)]
        else:
            out = [y for x in out for y in (x, x)]
    return out


def table_partitions(
    kb: KnowledgeBase,
) -> tuple[int, tuple[WorldSet, ...], int, Sequence[int], Sequence[int]]:
    """The falsifying sets of ``rule_partitions(kb)``, and how the worlds
    over all m atoms, in table order, read a per-world table over them.

    Table order splits the atoms into a high half, the first m // 2, and a
    low half, the rest: it runs over the worlds h of the high half, all-true
    first, and for each h over the worlds l of the low half, all-true
    first.  Returns (m', falsifying, s, high, low): the world of the i-th h
    and the j-th l restricts to world (high[i] << s) + low[j] over the m'
    mentioned atoms, where s is the number of them in the low half."""
    m = kb.m
    used, drop = _dropped(kb.conditionals, m)
    n_low = m - m // 2
    low_used = used & ((1 << n_low) - 1)
    return (
        m - len(drop),
        _partitions(kb.conditionals, drop)[1],
        low_used.bit_count(),
        _restrictions(used >> n_low, m // 2),
        _restrictions(low_used, n_low),
    )


def table_labels(names: Sequence[str], sep: str) -> tuple[list[str], list[str]]:
    """The labels of the worlds of the high half and of the low half of the
    atoms named ``names``, in the table order of ``table_partitions``:
    their literals, negated atoms marked "-", joined by sep.  A world's
    label is its high label, sep, and its low label; with one atom or none
    the high half is empty and its one label is ""."""
    high, low = names[: len(names) // 2], names[len(names) // 2 :]
    return (
        [sep.join(t) for t in product(*[(a, "-" + a) for a in high])],
        [sep.join(t) for t in product(*[(a, "-" + a) for a in low])],
    )
