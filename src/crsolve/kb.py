"""Knowledge-base model and text format.

A knowledge base is a finite list of default rules ("conditionals") over a
fixed, ordered alphabet of propositional atoms.  The rule ``(B | A)`` reads
"if A then normally B".  The on-disk format is UTF-8 and line based (one
leading byte-order mark is ignored).  Lines end at ``\\n``, ``\\r\\n`` and
``\\r`` only; the other characters that ``str.splitlines`` breaks at (VT,
FF, FS, GS, RS, NEL, U+2028, U+2029) stay inside a comment's text, and a
declaration that holds one is rejected:

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
no world satisfies; with no atom declared, ``bot`` and ``!top`` are errors.

Limits: at most 20 atoms and 64 rules per knowledge base (world sets are
enumerated exhaustively, so the alphabet is deliberately desk-scale).

Everything in this module is immutable; parsing is a pure function of the
input text.
"""

from __future__ import annotations

import re
from typing import NamedTuple

MAX_ATOMS = 20
MAX_RULES = 64

_RESERVED = frozenset(("top", "bot"))
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# The characters that str.splitlines() ends lines at, besides \n and \r.
_BREAKS = "\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
# The head of a vars (group 2) or rule line (label: group 3) that holds no
# character of _BREAKS.
_DECL_RE = re.compile(rf"(?=[^{_BREAKS}]*\Z)(\s*)(?:(vars)\s*:|rule(?:\s+({_NAME}))?\s*:\s*)")
# A whole valid atom list, in one match.
_ATOM_LIST_RE = re.compile(rf"\s*{_NAME}\s*(?:,\s*{_NAME}\s*)*")
# A conditional whose parentheses and one bar are in place, in one match.
_CONDITIONAL_RE = re.compile(r"\(([^|]*)\|([^|]*)\)\s*")
# Splits formula text into blank runs (even indices) and tokens (odd
# indices): a name or any other single character but a blank.
_TOKEN_RE = re.compile(rf"({_NAME}|[^ \t])")


class KBSyntaxError(ValueError):
    """Rejected knowledge-base or formula text; carries a 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Atom(NamedTuple):
    """A propositional atom: its name and 1-based position in the alphabet."""

    name: str
    index: int


class Term(NamedTuple):
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


class Formula(NamedTuple):
    """A propositional formula in DNF."""

    terms: tuple[Term, ...]


class Conditional(NamedTuple):
    """A default rule (consequent | antecedent) with its 1-based id.

    Rules parsed from a knowledge base carry ids 1..n in file order; ad-hoc
    query conditionals (see :func:`parse_conditional`) carry id 0.
    """

    id: int
    antecedent: Formula
    consequent: Formula
    label: str | None = None


class KnowledgeBase(NamedTuple):
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


class _Fault(Exception):
    """A formula error at a token: (message, token index)."""


def _dnf(
    toks: list[str], k: int, bits: dict[str, int], width: int
) -> tuple[list[tuple[int, int]], int]:
    """The terms, as (pos, neg) mask pairs, of the formula whose first token
    is ``toks[k]``, and the index of the first token after it.

    ``toks`` is ``_TOKEN_RE.split`` of the text with "" appended as the
    end, so the tokens sit at the odd indices.  Faults raise ``_Fault``.
    """
    terms = []
    while True:  # one conjunction per pass: its literals' masks, then its groups
        pos = neg = 0
        group = None
        while True:
            tok = toks[k]
            if tok == "(":
                sub, k = _dnf(toks, k + 2, bits, width)
                if toks[k] != ")":
                    raise _Fault("expected ')'", k)
                group = sub if group is None else [(p | q, n | r) for p, n in group for q, r in sub]
            else:
                negated = tok == "!"
                if negated:
                    k += 2
                    tok = toks[k]
                    if tok == "(":
                        raise _Fault("negation applies only to atoms, 'top' and 'bot'", k - 2)
                bit = bits.get(tok)
                if bit is None:
                    if tok not in _RESERVED:
                        if _NAME_RE.match(tok):
                            raise _Fault(f"unknown atom {tok!r}", k)
                        raise _Fault("expected an atom, 'top', 'bot', '!' or '('", k)
                    # bot, and !top, is the one contradictory term over the first atom.
                    if (tok == "bot") != negated:
                        if not width:
                            raise _Fault(f"{tok!r} needs at least one declared atom", k)
                        pos |= 1 << (width - 1)
                        neg |= 1 << (width - 1)
                elif negated:
                    neg |= bit
                else:
                    pos |= bit
            k += 2
            if toks[k] != ",":
                break
            k += 2
        terms += [(pos, neg)] if group is None else [(p | pos, n | neg) for p, n in group]
        if toks[k] != ";":
            return terms, k
        k += 2


def _formula(
    text: str, lineno: int, col0: int, bits: dict[str, int], width: int, memo: dict[str, Formula]
) -> Formula:
    """The formula ``text``, whose first character sits at column ``col0``.

    ``memo`` maps the formulas already parsed in this call, blanks
    stripped, to their :class:`Formula`.
    """
    key = text.strip(" \t")
    f = memo.get(key)
    if f is None:
        toks = _TOKEN_RE.split(text)
        toks.append("")  # the end
        try:
            terms, k = _dnf(toks, 1, bits, width)
            if toks[k]:
                raise _Fault(f"unexpected character {toks[k][0]!r}", k)
        except _Fault as fault:
            message, k = fault.args
            raise KBSyntaxError(message, lineno, col0 + sum(map(len, toks[:k]))) from None
        f = memo[key] = Formula(tuple([Term(width, p, n) for p, n in terms]))
    return f


def _conditional(
    line: str, lpar: int, lineno: int, bits: dict[str, int], width: int, memo: dict[str, Formula]
) -> tuple[Formula, Formula]:
    """Parse ``( CONSEQUENT | ANTECEDENT )`` with its '(' due at ``line[lpar]``;
    ``line`` may end in whitespace."""
    m = _CONDITIONAL_RE.fullmatch(line, lpar)
    if m is None:
        raise _conditional_fault(line.rstrip(), lpar, lineno)
    cons_text, ant_text = m.groups()
    bar = m.end(1)
    if not cons_text.strip():
        raise KBSyntaxError("empty consequent", lineno, lpar + 2)
    if not ant_text.strip():
        raise KBSyntaxError("empty antecedent", lineno, bar + 2)
    consequent = _formula(cons_text, lineno, lpar + 2, bits, width, memo)
    return consequent, _formula(ant_text, lineno, bar + 2, bits, width, memo)


def _conditional_fault(line: str, lpar: int, lineno: int) -> KBSyntaxError:
    """The first fault of a conditional that ``_CONDITIONAL_RE`` rejects;
    ``line`` ends in no whitespace."""
    if line[lpar : lpar + 1] != "(":
        return KBSyntaxError("expected '(' opening the conditional", lineno, lpar + 1)
    rpar = line.rfind(")")
    if rpar <= lpar:
        return KBSyntaxError("expected ')' closing the conditional", lineno, len(line) + 1)
    tail = line[rpar + 1 :]
    if tail:
        col = rpar + 2 + len(tail) - len(tail.lstrip())
        return KBSyntaxError("unexpected text after the conditional", lineno, col)
    bar = line.find("|", lpar, rpar)
    if bar < 0:
        return KBSyntaxError("missing '|' between consequent and antecedent", lineno, rpar + 1)
    return KBSyntaxError("more than one '|' in conditional", lineno, line.find("|", bar + 1, rpar) + 1)


def _bits(atoms: tuple[Atom, ...]) -> dict[str, int]:
    return {a.name: 1 << (len(atoms) - a.index) for a in atoms}


def parse_conditional(text: str, atoms: tuple[Atom, ...]) -> Conditional:
    """Parse an ad-hoc ``(B | A)`` query conditional (id 0, no label)."""
    line = text.rstrip()
    lpar = len(line) - len(line.lstrip(" \t"))
    consequent, antecedent = _conditional(line, lpar, 1, _bits(atoms), len(atoms), {})
    return Conditional(0, antecedent, consequent)


def _parse_vars(line: str, lineno: int, start: int) -> tuple[Atom, ...]:
    rest = line[start:]
    if _ATOM_LIST_RE.fullmatch(rest):
        names = _NAME_RE.findall(rest)
        if len(names) <= MAX_ATOMS and len(set(names) - _RESERVED) == len(names):
            return tuple(map(Atom, names, range(1, len(names) + 1)))
    # Invalid: walk the names in order to report the first fault.
    if not rest.strip():
        raise KBSyntaxError("empty vars declaration", lineno, start + 1)
    seen: set[str] = set()
    offset = start
    for piece in rest.split(","):
        col = offset + (len(piece) - len(piece.lstrip())) + 1
        offset += len(piece) + 1
        name = piece.strip()
        if not name:
            raise KBSyntaxError("empty atom name in vars declaration", lineno, col)
        if not _NAME_RE.fullmatch(name):
            raise KBSyntaxError(f"invalid atom name {name!r}", lineno, col)
        if name in _RESERVED:
            raise KBSyntaxError(f"{name!r} is reserved and cannot name an atom", lineno, col)
        if name in seen:
            raise KBSyntaxError(f"duplicate atom {name!r}", lineno, col)
        if len(seen) == MAX_ATOMS:
            raise KBSyntaxError(f"too many atoms (limit {MAX_ATOMS})", lineno, col)
        seen.add(name)
    raise AssertionError("no fault in an atom list that failed to match")


def _line_fault(line: str, lineno: int) -> KBSyntaxError:
    """The fault of a line that is neither blank, a comment nor a declaration."""
    m = re.search(f"[{_BREAKS}]", line)
    if m:
        message = f"character {m.group()!r} inside a declaration; lines end only at \\n, \\r\\n or \\r"
        return KBSyntaxError(message, lineno, m.start() + 1)
    col = len(line) - len(line.lstrip()) + 1
    return KBSyntaxError("expected a 'vars:' or 'rule' declaration", lineno, col)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse knowledge-base text into a validated :class:`KnowledgeBase`.

    Atom order is declaration order; conditional ids follow file order.
    One leading U+FEFF (a byte-order mark) is dropped before parsing.
    Lines end at \\n, \\r\\n and \\r only.
    Raises :class:`KBSyntaxError` (with line and column) on any rejection.
    """
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # a final line end starts no line
    atoms: tuple[Atom, ...] | None = None
    bits: dict[str, int] = {}
    memo: dict[str, Formula] = {}
    conditionals: list[Conditional] = []
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        m = _DECL_RE.match(line)
        if m is None:
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            raise _line_fault(line, lineno)
        if m.group(2):
            if atoms is not None:
                raise KBSyntaxError("duplicate vars declaration", lineno, len(m.group(1)) + 1)
            atoms = _parse_vars(line, lineno, m.end())
            bits = _bits(atoms)
            continue
        if atoms is None:
            col = len(m.group(1)) + 1
            raise KBSyntaxError("rules must come after the vars declaration", lineno, col)
        if len(conditionals) == MAX_RULES:
            raise KBSyntaxError(f"too many rules (limit {MAX_RULES})", lineno, 1)
        consequent, antecedent = _conditional(line, m.end(), lineno, bits, len(atoms), memo)
        conditionals.append(Conditional(len(conditionals) + 1, antecedent, consequent, m.group(3)))
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
