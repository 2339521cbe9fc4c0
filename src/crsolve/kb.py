"""Knowledge-base model and text format.

A knowledge base is a finite list of default rules ("conditionals") over a
fixed, ordered alphabet of propositional atoms.  The rule ``(B | A)`` reads
"if A then normally B".  The on-disk format is UTF-8 and line based:

    # penguins, birds, and kiwis
    vars: p, b, f, w, k
    rule r1: (f | b)
    rule: (b | p)

``vars:`` declares the atom alphabet and its order; it must appear exactly
once, before any rule.  Each ``rule`` line holds one conditional written
``(CONSEQUENT | ANTECEDENT)``, optionally labelled; rule ids are assigned
1..n in file order.  Formula syntax:

    formula := conj (';' conj)*
    conj    := lit (',' lit)*
    lit     := ['!'] (atom | 'top' | 'bot') | '(' formula ')'

``,`` is conjunction, ``;`` is disjunction (``|`` is reserved for the
conditional bar).  Formulas are stored in disjunctive normal form as a
nonempty tuple of terms.  ``bot`` keeps the tuple nonempty by becoming the
single contradictory term ``a1, !a1`` over the first declared atom, which
no world satisfies.

Limits: at most 20 atoms and 64 rules per knowledge base (world sets are
enumerated exhaustively, so the alphabet is deliberately desk-scale).

Everything in this module is immutable; parsing is a pure function of the
input text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MAX_ATOMS = 20
MAX_RULES = 64

_RESERVED = ("top", "bot")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VARS_RE = re.compile(r"(\s*)vars\s*:")
_RULE_RE = re.compile(r"(\s*)rule(?:\s+([A-Za-z_][A-Za-z0-9_]*))?\s*:\s*")


class KBSyntaxError(ValueError):
    """Rejected knowledge-base or formula text; carries a 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Atom:
    """A propositional atom: its name and 1-based position in the alphabet."""

    name: str
    index: int


@dataclass(frozen=True)
class Term:
    """One DNF term, as positive/negative literal masks over ``width`` atoms.

    Bit layout matches world indices: the atom with index i sits at bit
    (width - i), so the first declared atom is the most significant bit.
    An atom present in both masks makes the term unsatisfiable; only the
    ``bot`` encoding produces such terms.
    """

    width: int
    pos: int
    neg: int

    def literals(self) -> list[tuple[int, bool]]:
        """(atom index, positive?) pairs in alphabet order; both polarities
        of the same atom appear adjacently for contradictory terms."""
        out = []
        for i in range(1, self.width + 1):
            bit = 1 << (self.width - i)
            if self.pos & bit:
                out.append((i, True))
            if self.neg & bit:
                out.append((i, False))
        return out


@dataclass(frozen=True)
class Formula:
    """A propositional formula in DNF."""

    terms: tuple[Term, ...]


@dataclass(frozen=True)
class Conditional:
    """A default rule (consequent | antecedent) with its 1-based id.

    Rules parsed from a knowledge base carry ids 1..n in file order; ad-hoc
    query conditionals (see :func:`parse_conditional`) carry id 0.
    """

    id: int
    antecedent: Formula
    consequent: Formula
    label: str | None = None


@dataclass(frozen=True)
class KnowledgeBase:
    atoms: tuple[Atom, ...]
    conditionals: tuple[Conditional, ...]

    @property
    def m(self) -> int:
        """Number of atoms."""
        return len(self.atoms)

    @property
    def n(self) -> int:
        """Number of conditionals."""
        return len(self.conditionals)

    def atom_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.atoms)


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
        m = _IDENT_RE.match(self.text, self.i)
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


def parse_formula(text: str, atoms: tuple[Atom, ...]) -> Formula:
    """Parse a standalone formula over the given alphabet into DNF."""
    parser = _FormulaParser(text, 1, 1, _index_of(atoms))
    return Formula(parser.parse())


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


def parse_conditional(text: str, atoms: tuple[Atom, ...]) -> Conditional:
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
        if not _IDENT_RE.fullmatch(name):
            raise KBSyntaxError(f"invalid atom name {name!r}", lineno, col)
        if name in _RESERVED:
            raise KBSyntaxError(f"{name!r} is reserved and cannot name an atom", lineno, col)
        if name in seen:
            raise KBSyntaxError(f"duplicate atom {name!r}", lineno, col)
        if len(atoms) == MAX_ATOMS:
            raise KBSyntaxError(f"too many atoms (limit {MAX_ATOMS})", lineno, col)
        seen.add(name)
        atoms.append(Atom(name, len(atoms) + 1))
    return tuple(atoms)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse knowledge-base text into a validated :class:`KnowledgeBase`.

    Atom order is declaration order; conditional ids follow file order.
    Raises :class:`KBSyntaxError` (with line and column) on any rejection.
    """
    atoms: tuple[Atom, ...] | None = None
    atom_index: dict[str, int] = {}
    conditionals: list[Conditional] = []
    lineno = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m_vars = _VARS_RE.match(line)
        if m_vars:
            if atoms is not None:
                raise KBSyntaxError("duplicate vars declaration", lineno, len(m_vars.group(1)) + 1)
            atoms = _parse_vars(line, lineno, m_vars.end())
            atom_index = _index_of(atoms)
            continue
        m_rule = _RULE_RE.match(line)
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


def render_formula(f: Formula, atoms: tuple[Atom, ...]) -> str:
    """Render a DNF formula back into the textual grammar."""
    parts = []
    for term in f.terms:
        lits = [
            ("" if positive else "!") + atoms[i - 1].name for i, positive in term.literals()
        ]
        parts.append(", ".join(lits) if lits else "top")
    return " ; ".join(parts)


def render_kb(kb: KnowledgeBase) -> str:
    """Render a knowledge base as text that reparses to an equal KB."""
    lines = ["vars: " + ", ".join(kb.atom_names())]
    for c in kb.conditionals:
        head = f"rule {c.label}:" if c.label else "rule:"
        cons = render_formula(c.consequent, kb.atoms)
        ant = render_formula(c.antecedent, kb.atoms)
        lines.append(f"{head} ({cons} | {ant})")
    return "\n".join(lines) + "\n"
