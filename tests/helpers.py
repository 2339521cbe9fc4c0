"""Shared fixtures data and reference oracles.

The reference implementations here deliberately avoid the package's bitset
machinery: worlds are sets of true atom names, formulas are evaluated per
term through literal lists, and the constraint check follows the textbook
min-of-sums definition directly.  They are slow and only meant to
cross-check the real code on small inputs.
"""

from __future__ import annotations

import itertools
import random
import re

from crsolve import (
    Atom,
    Conditional,
    Formula,
    KBSyntaxError,
    KnowledgeBase,
    RankingFunction,
    Term,
    build_partitions,
    parse_conditional,
    parse_kb,
    render_table,
)
from crsolve.kb import MAX_ATOMS, MAX_RULES

BIRDS_TEXT = """\
# birds fly, birds are animals, flying birds are animals
vars: b, f, a
rule r1: (f | b)
rule r2: (a | b)
rule r3: (a | f, b)
"""

PENGUINS_TEXT = """\
# penguins, birds, flying, winged, kiwis
vars: p, b, f, w, k
rule r1: (f | b)
rule r2: (b | p)
rule r3: (!f | p)
rule r4: (w | b)
rule r5: (b | k)
"""

# Ranking induced by (1, 2, 2, 1, 1) on the penguins KB, indexed by world
# (p most significant bit, k least); the textbook ranking for this scenario.
PENGUINS_RANKS = (
    0, 1, 0, 1, 0, 1, 0, 1,
    2, 2, 1, 1, 1, 1, 0, 0,
    2, 3, 2, 3, 4, 5, 4, 5,
    2, 2, 1, 1, 3, 3, 2, 2,
)


def birds_kb() -> KnowledgeBase:
    return parse_kb(BIRDS_TEXT)


def penguins_kb() -> KnowledgeBase:
    return parse_kb(PENGUINS_TEXT)


def full_set(m: int) -> int:
    """The set of all 2**m worlds, as a bitset."""
    return (1 << (1 << m)) - 1


def formula_set(atoms, text: str) -> int:
    """The worlds over ``atoms`` that satisfy the formula ``text``: the
    verifying set of the one rule (text | top), from ``build_partitions``."""
    rule = parse_conditional(f"({text} | top)", atoms)
    return build_partitions(KnowledgeBase(atoms, (rule,)))[0][0]


def true_atoms(kb: KnowledgeBase, w: int) -> set[str]:
    m = kb.m
    return {a.name for a in kb.atoms if (w >> (m - a.index)) & 1}


def eval_term(t: Term, w: int) -> bool:
    """True iff every positive bit of the term is 1 and every negative bit
    is 0 in world ``w``; unconstrained atoms are free."""
    return (w & t.pos) == t.pos and (w & t.neg) == 0


def eval_formula_ref(f: Formula, kb: KnowledgeBase, w: int) -> bool:
    atoms = true_atoms(kb, w)
    names = {a.index: a.name for a in kb.atoms}
    for term in f.terms:
        ok = True
        for index, positive in term.literals():
            if (names[index] in atoms) != positive:
                ok = False
                break
        if ok:
            return True
    return False


def indicator_ref(c: Conditional, kb: KnowledgeBase, w: int) -> str:
    """'v' verifies, 'f' falsifies, 'n' not applicable."""
    if not eval_formula_ref(c.antecedent, kb, w):
        return "n"
    return "v" if eval_formula_ref(c.consequent, kb, w) else "f"


def partitions_ref(kb: KnowledgeBase) -> tuple[list[list[int]], list[list[int]]]:
    verifying: list[list[int]] = []
    falsifying: list[list[int]] = []
    for c in kb.conditionals:
        vs, fs = [], []
        for w in range(2**kb.m):
            status = indicator_ref(c, kb, w)
            if status == "v":
                vs.append(w)
            elif status == "f":
                fs.append(w)
        verifying.append(vs)
        falsifying.append(fs)
    return verifying, falsifying


def compile_ref(kb: KnowledgeBase) -> tuple[list[list[int]], list[set[int]]]:
    """Precomputed (verifying world lists, falsifying world sets)."""
    verifying, falsifying = partitions_ref(kb)
    return verifying, [set(ws) for ws in falsifying]


def minimal_sigs_ref(kb: KnowledgeBase) -> tuple[list[set[tuple[int, ...]]], list[set[tuple[int, ...]]]]:
    """Per rule i, the subset-minimal sets of other rules falsified together
    at a world verifying rule i, and at a world falsifying it; each set is
    an ascending tuple of 0-based rule indices.  Built world by world from
    ``partitions_ref``, minimality by comparing every pair of candidates."""
    verifying, falsifying = partitions_ref(kb)
    fsets = [set(ws) for ws in falsifying]

    def minimal(i: int, worlds: list[int]) -> set[tuple[int, ...]]:
        candidates = {
            frozenset(j for j in range(kb.n) if j != i and w in fsets[j]) for w in worlds
        }
        return {tuple(sorted(c)) for c in candidates if not any(d < c for d in candidates)}

    return (
        [minimal(i, ws) for i, ws in enumerate(verifying)],
        [minimal(i, ws) for i, ws in enumerate(falsifying)],
    )


def check_ref(kb, v, compiled=None) -> bool:
    """Textbook constraint check: for every rule i, v[i] must exceed the
    difference of the two minima of other-rule falsification sums."""
    if any(x < 0 for x in v):
        return False
    verifying, fsets = compiled if compiled is not None else compile_ref(kb)
    n = kb.n

    def other_sum(i: int, w: int) -> int:
        return sum(v[j] for j in range(n) if j != i and w in fsets[j])

    for i in range(n):
        if not verifying[i]:
            return False
        vmin = min(other_sum(i, w) for w in verifying[i])
        if not fsets[i]:
            continue
        fmin = min(other_sum(i, w) for w in fsets[i])
        if not v[i] > vmin - fmin:
            return False
    return True


def propagate_ref(kb, lo, hi, compiled=None) -> list[int] | None:
    """Least fixpoint of the lower bounds in the box [lo, hi], or None when
    none fits under hi.  Textbook bounds: rule i needs v[i] above its
    verifying minimum at lo minus its falsifying minimum at hi, both as
    world-level sums of the other rules' bounds; a rule with no verifying
    world fits no box.  Jacobi iteration: every floor of a sweep is read
    from the same lower bounds."""
    verifying, fsets = compiled if compiled is not None else compile_ref(kb)
    if not all(verifying):
        return None
    n = kb.n
    lo = list(lo)

    def other_sum(i: int, w: int, values) -> int:
        return sum(values[j] for j in range(n) if j != i and w in fsets[j])

    while True:
        floors = [
            max(
                lo[i],
                min(other_sum(i, w, lo) for w in verifying[i])
                - min(other_sum(i, w, hi) for w in fsets[i])
                + 1,
            )
            if fsets[i]
            else lo[i]
            for i in range(n)
        ]
        if any(f > h for f, h in zip(floors, hi)):
            return None
        if floors == lo:
            return lo
        lo = floors


def falsified_sum(kb: KnowledgeBase, i: int, w: int, v: tuple[int, ...]) -> int:
    """Sum of v[j] over rules j != i (1-based ids) falsified at world w of
    all 2**m, read from the falsifying worlds of ``partitions_ref``."""
    if not 1 <= i <= kb.n:
        raise ValueError(f"rule id {i} out of range 1..{kb.n}")
    if not 0 <= w < 1 << kb.m:
        raise ValueError(f"world index {w} out of range")
    if len(v) != kb.n:
        raise ValueError(f"vector has length {len(v)}, expected {kb.n}")
    _, falsifying = partitions_ref(kb)
    return sum(v[j] for j in range(kb.n) if j != i - 1 and w in falsifying[j])


def brute_solutions(kb: KnowledgeBase, bound: int | None = None) -> list[tuple[int, ...]]:
    """All solutions in the box, by scanning every vector; lexicographic."""
    if bound is None:
        bound = kb.n
    compiled = compile_ref(kb)
    return [
        v
        for v in itertools.product(range(bound + 1), repeat=kb.n)
        if check_ref(kb, v, compiled)
    ]


def non_dominated_ref(vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Quadratic componentwise dominance filter."""
    out = []
    for v in vectors:
        dominated = any(
            u != v and all(u[i] <= v[i] for i in range(len(v))) for u in vectors
        )
        if not dominated:
            out.append(v)
    return sorted(out)


def induced_ranks_ref(kb: KnowledgeBase, v: tuple[int, ...]) -> list[int]:
    """Rank of every world of all 2**m, indexed by world: v summed over the
    rules whose falsifying worlds from ``partitions_ref`` hold it."""
    _, falsifying = partitions_ref(kb)
    fsets = [set(ws) for ws in falsifying]
    return [sum(v[i] for i in range(kb.n) if w in fsets[i]) for w in range(2**kb.m)]


def ocf_min_ref(kb: KnowledgeBase, bound: int | None = None) -> list[tuple[int, ...]]:
    """Box solutions whose induced ranking is not pointwise dominated by the
    ranking of another box solution; lexicographic."""
    solutions = brute_solutions(kb, bound)
    ranks = {v: tuple(induced_ranks_ref(kb, v)) for v in solutions}
    distinct = set(ranks.values())

    def dominated(r: tuple[int, ...]) -> bool:
        return any(s != r and all(a <= b for a, b in zip(s, r)) for s in distinct)

    return [v for v in solutions if not dominated(ranks[v])]


def rank_at_ref(kb: KnowledgeBase, v: tuple[int, ...], w: int) -> int:
    """Rank of one world: v summed over the rules it falsifies, evaluated
    at that world alone, so it stays cheap at 20 atoms."""
    return sum(v[i] for i, c in enumerate(kb.conditionals) if indicator_ref(c, kb, w) == "f")


def bits_ref(x: int) -> list[int]:
    """Positions of the set bits of x, ascending, by testing each bit of
    each byte of its little-endian encoding."""
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return [8 * i + b for i, byte in enumerate(data) for b in range(8) if (byte >> b) & 1]


def render_table_ref(r: RankingFunction) -> str:
    """The show-ocf table built world by world with ``world_str`` and
    ``rank_at_ref``."""
    rows = [
        (world_str(r.kb.atoms, w), rank_at_ref(r.kb, r.vector, w)) for w in reversed(range(2**r.kb.m))
    ]
    width = max(len(s) for s, _ in rows)
    return "\n".join(f"{s:<{width}}  {rank}" for s, rank in rows) + "\n"


def table_ranks(r: RankingFunction) -> list[int]:
    """The ranks that the rows of ``render_table`` show, indexed by world:
    the rows run in table order, all-true world first, and each ends in
    its rank."""
    return [int(row.split()[-1]) for row in reversed(render_table(r).splitlines())]


def world_str(atoms, w: int, sep: str = " ") -> str:
    """A world as literals joined by sep, e.g. ``p b -f w -k``, tested
    atom by atom against the world's bits."""
    m = len(atoms)
    return sep.join(a.name if w & (1 << (m - a.index)) else "-" + a.name for a in atoms)


def world_str_compact(atoms, w: int) -> str:
    """A world as unseparated literals, e.g. ``pbfwk`` or ``p-bfwk``."""
    return world_str(atoms, w, "")


def ocf_records_ref(r: RankingFunction) -> list[dict]:
    """The show-ocf JSON records built world by world with
    ``world_str_compact`` and ``rank_at_ref``."""
    return [
        {"world": world_str_compact(r.kb.atoms, w), "rank": rank_at_ref(r.kb, r.vector, w)}
        for w in reversed(range(2**r.kb.m))
    ]


def random_formula_text(rng: random.Random, names: list[str]) -> str:
    roll = rng.random()
    if roll < 0.04:
        return "bot"
    if roll < 0.10:
        return "top"
    parts = []
    for _ in range(rng.choice((1, 1, 1, 2))):
        picked = rng.sample(names, rng.randint(1, min(2, len(names))))
        parts.append(", ".join(("!" if rng.random() < 0.5 else "") + a for a in picked))
    return " ; ".join(parts)


def random_kb_text(rng: random.Random, max_atoms: int = 4, max_rules: int = 3) -> str:
    m = rng.randint(1, max_atoms)
    names = ["a", "b", "c", "d"][:m]
    lines = ["vars: " + ", ".join(names)]
    for _ in range(rng.randint(0, max_rules)):
        cons = random_formula_text(rng, names)
        ant = random_formula_text(rng, names)
        lines.append(f"rule: ({cons} | {ant})")
    return "\n".join(lines) + "\n"


def many_rules_kb_text(rng: random.Random, m: int, n: int) -> str:
    """KB text over the first m <= 5 of the atoms a..e with n >= 4 random
    rules, among them, at random places, one that no world verifies
    (``bot`` as its consequent), one that no world falsifies (``top`` as
    its consequent), one over ``top`` alone and one whose antecedent is
    ``bot``, which no world verifies or falsifies."""
    names = ["a", "b", "c", "d", "e"][:m]
    rules = [
        f"({random_formula_text(rng, names)} | {random_formula_text(rng, names)})"
        for _ in range(n - 4)
    ]
    for rule in (
        f"(bot | {random_formula_text(rng, names)})",
        f"(top | {random_formula_text(rng, names)})",
        "(top | top)",
        f"({random_formula_text(rng, names)} | bot)",
    ):
        rules.insert(rng.randint(0, len(rules)), rule)
    return "vars: " + ", ".join(names) + "\n" + "".join(f"rule: {r}\n" for r in rules)


def world_sigs_ref(kb: KnowledgeBase) -> tuple[int, ...]:
    """The distinct falsification signatures over every world of the KB,
    ascending: bit j of a world's signature is set when the world
    falsifies rule j.  Built world by world from ``partitions_ref``."""
    _, falsifying = partitions_ref(kb)
    fsets = [set(ws) for ws in falsifying]
    return tuple(sorted({sum(1 << j for j in range(kb.n) if w in fsets[j]) for w in range(1 << kb.m)}))


def with_unused_atoms(text: str, rng: random.Random, count: int) -> str:
    """KB text with ``count`` atoms that no rule mentions, u0, u1, ...,
    inserted at random places of its ``vars:`` line."""
    head, _, rules = text.partition("\n")
    names = head[len("vars: ") :].split(", ")
    for k in range(count):
        names.insert(rng.randint(0, len(names)), f"u{k}")
    return "vars: " + ", ".join(names) + "\n" + rules


# A character-at-a-time recursive-descent parser of the same format, the
# reference of the differential parser test (tests/test_kb.py): on every
# text whose lines split the same under both line rules, parse_kb must
# give the same KnowledgeBase, or the same message, line and column.
# Unlike parse_kb, parse_kb_ref splits lines with str.splitlines().

_RESERVED_REF = ("top", "bot")
_IDENT_RE_REF = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VARS_RE_REF = re.compile(r"(\s*)vars\s*:")
_RULE_RE_REF = re.compile(r"(\s*)rule(?:\s+([A-Za-z_][A-Za-z0-9_]*))?\s*:\s*")


def _atom_bit(width: int, index: int) -> int:
    return 1 << (width - index)


def _free_term(width: int) -> Term:
    return Term(width, 0, 0)


def _bot_term(width: int) -> Term:
    bit = _atom_bit(width, 1)
    return Term(width, bit, bit)


def _merge(a: Term, b: Term) -> Term:
    return Term(a.width, a.pos | b.pos, a.neg | b.neg)


class _FormulaParser:
    """Recursive-descent parser over a single-line formula fragment.

    ``col0`` is the absolute 1-based column of ``text[0]`` in the enclosing
    line, so error positions point into the original file.
    """

    def __init__(self, text: str, line: int, col0: int, atom_index: dict[str, int]):
        self.text = text
        self.line = line
        self.col0 = col0
        self.atom_index = atom_index
        self.width = len(atom_index)
        self.i = 0

    def fail(self, message: str, at: int | None = None):
        pos = self.i if at is None else at
        raise KBSyntaxError(message, self.line, self.col0 + pos)

    def _skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t":
            self.i += 1

    def _peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self) -> tuple[Term, ...]:
        terms = self._formula()
        self._skip_ws()
        if self.i < len(self.text):
            self.fail(f"unexpected character {self.text[self.i]!r}")
        return tuple(terms)

    def _formula(self) -> list[Term]:
        terms = self._conj()
        while True:
            self._skip_ws()
            if self._peek() != ";":
                return terms
            self.i += 1
            terms = terms + self._conj()

    def _conj(self) -> list[Term]:
        terms = self._lit()
        while True:
            self._skip_ws()
            if self._peek() != ",":
                return terms
            self.i += 1
            rhs = self._lit()
            terms = [_merge(a, b) for a in terms for b in rhs]

    def _lit(self) -> list[Term]:
        self._skip_ws()
        c = self._peek()
        if c == "!":
            bang = self.i
            self.i += 1
            self._skip_ws()
            if self._peek() == "(":
                self.fail("negation applies only to atoms, 'top' and 'bot'", at=bang)
            return [self._name_term(negated=True)]
        if c == "(":
            self.i += 1
            terms = self._formula()
            self._skip_ws()
            if self._peek() != ")":
                self.fail("expected ')'")
            self.i += 1
            return terms
        return [self._name_term(negated=False)]

    def _name_term(self, negated: bool) -> Term:
        self._skip_ws()
        m = _IDENT_RE_REF.match(self.text, self.i)
        if not m:
            self.fail("expected an atom, 'top', 'bot', '!' or '('")
        name = m.group()
        at = self.i
        self.i = m.end()
        if name == "top":
            return _bot_term(self.width) if negated else _free_term(self.width)
        if name == "bot":
            return _free_term(self.width) if negated else _bot_term(self.width)
        index = self.atom_index.get(name)
        if index is None:
            self.fail(f"unknown atom {name!r}", at=at)
        bit = _atom_bit(self.width, index)
        return Term(self.width, 0, bit) if negated else Term(self.width, bit, 0)


def _index_of(atoms: tuple[Atom, ...]) -> dict[str, int]:
    return {a.name: a.index for a in atoms}


def _parse_conditional_body(
    line: str, start: int, lineno: int, atom_index: dict[str, int]
) -> tuple[Formula, Formula]:
    """Parse ``( CONSEQUENT | ANTECEDENT )`` starting at ``line[start]``."""
    i = start
    while i < len(line) and line[i] in " \t":
        i += 1
    if i >= len(line) or line[i] != "(":
        raise KBSyntaxError("expected '(' opening the conditional", lineno, i + 1)
    lpar = i
    rpar = line.rfind(")")
    if rpar <= lpar:
        raise KBSyntaxError("expected ')' closing the conditional", lineno, len(line) + 1)
    tail = line[rpar + 1 :].strip()
    if tail:
        raise KBSyntaxError(
            "unexpected text after the conditional", lineno, rpar + 2 + line[rpar + 1 :].index(tail[0])
        )
    inner = line[lpar + 1 : rpar]
    bars = inner.count("|")
    if bars == 0:
        raise KBSyntaxError("missing '|' between consequent and antecedent", lineno, rpar + 1)
    if bars > 1:
        second = lpar + 1 + inner.index("|", inner.index("|") + 1)
        raise KBSyntaxError("more than one '|' in conditional", lineno, second + 1)
    bar = lpar + 1 + inner.index("|")
    cons_text = line[lpar + 1 : bar]
    ant_text = line[bar + 1 : rpar]
    if not cons_text.strip():
        raise KBSyntaxError("empty consequent", lineno, lpar + 2)
    if not ant_text.strip():
        raise KBSyntaxError("empty antecedent", lineno, bar + 2)
    consequent = Formula(_FormulaParser(cons_text, lineno, lpar + 2, atom_index).parse())
    antecedent = Formula(_FormulaParser(ant_text, lineno, bar + 2, atom_index).parse())
    return consequent, antecedent


def parse_conditional_ref(text: str, atoms: tuple[Atom, ...]) -> Conditional:
    """Parse an ad-hoc ``(B | A)`` query conditional (id 0, no label)."""
    consequent, antecedent = _parse_conditional_body(text.rstrip(), 0, 1, _index_of(atoms))
    return Conditional(0, antecedent, consequent)


def _parse_vars(line: str, lineno: int, start: int) -> tuple[Atom, ...]:
    rest = line[start:]
    if not rest.strip():
        raise KBSyntaxError("empty vars declaration", lineno, start + 1)
    atoms: list[Atom] = []
    seen: set[str] = set()
    offset = start
    for piece in rest.split(","):
        col = offset + (len(piece) - len(piece.lstrip())) + 1
        offset += len(piece) + 1
        name = piece.strip()
        if not name:
            raise KBSyntaxError("empty atom name in vars declaration", lineno, col)
        if not _IDENT_RE_REF.fullmatch(name):
            raise KBSyntaxError(f"invalid atom name {name!r}", lineno, col)
        if name in _RESERVED_REF:
            raise KBSyntaxError(f"{name!r} is reserved and cannot name an atom", lineno, col)
        if name in seen:
            raise KBSyntaxError(f"duplicate atom {name!r}", lineno, col)
        if len(atoms) == MAX_ATOMS:
            raise KBSyntaxError(f"too many atoms (limit {MAX_ATOMS})", lineno, col)
        seen.add(name)
        atoms.append(Atom(name, len(atoms) + 1))
    return tuple(atoms)


def parse_kb_ref(text: str) -> KnowledgeBase:
    """Parse knowledge-base text into a validated :class:`KnowledgeBase`.

    Atom order is declaration order; conditional ids follow file order.
    One leading U+FEFF (a byte-order mark) is dropped before parsing.
    Raises :class:`KBSyntaxError` (with line and column) on any rejection.
    """
    text = text.removeprefix("\ufeff")
    atoms: tuple[Atom, ...] | None = None
    atom_index: dict[str, int] = {}
    conditionals: list[Conditional] = []
    lineno = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m_vars = _VARS_RE_REF.match(line)
        if m_vars:
            if atoms is not None:
                raise KBSyntaxError("duplicate vars declaration", lineno, len(m_vars.group(1)) + 1)
            atoms = _parse_vars(line, lineno, m_vars.end())
            atom_index = _index_of(atoms)
            continue
        m_rule = _RULE_RE_REF.match(line)
        if m_rule:
            if atoms is None:
                raise KBSyntaxError(
                    "rules must come after the vars declaration", lineno, len(m_rule.group(1)) + 1
                )
            if len(conditionals) == MAX_RULES:
                raise KBSyntaxError(f"too many rules (limit {MAX_RULES})", lineno, 1)
            consequent, antecedent = _parse_conditional_body(
                line.rstrip(), m_rule.end(), lineno, atom_index
            )
            conditionals.append(
                Conditional(len(conditionals) + 1, antecedent, consequent, m_rule.group(2))
            )
            continue
        col = len(line) - len(line.lstrip()) + 1
        raise KBSyntaxError("expected a 'vars:' or 'rule' declaration", lineno, col)
    if atoms is None:
        raise KBSyntaxError("missing vars declaration", lineno + 1, 1)
    return KnowledgeBase(atoms, tuple(conditionals))
