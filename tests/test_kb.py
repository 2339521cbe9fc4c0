import random

import pytest

from crsolve import (
    KBSyntaxError,
    parse_conditional,
    parse_kb,
    render_formula,
    render_kb,
)
from crsolve.cli import main
from crsolve.kb import Term

from tests.helpers import (
    BIRDS_TEXT,
    PENGUINS_TEXT,
    parse_conditional_ref,
    parse_kb_ref,
    random_kb_text,
)


def bit(m, index):
    return 1 << (m - index)


def formula(text, atoms):
    """The formula ``text``, parsed as the consequent of (text | top)."""
    return parse_conditional(f"({text} | top)", atoms).consequent


class TestParseKB:
    def test_penguins_shape(self, penguins):
        assert penguins.m == 5
        assert penguins.n == 5
        assert penguins.atom_names() == ("p", "b", "f", "w", "k")
        assert [c.id for c in penguins.conditionals] == [1, 2, 3, 4, 5]
        assert [c.label for c in penguins.conditionals] == ["r1", "r2", "r3", "r4", "r5"]

    def test_penguins_rule3_is_not_f_given_p(self, penguins):
        c3 = penguins.conditionals[2]
        # antecedent p: positive literal on atom 1 only
        assert c3.antecedent.terms == (Term(5, bit(5, 1), 0),)
        # consequent !f: negative literal on atom 3 only
        assert c3.consequent.terms == (Term(5, 0, bit(5, 3)),)

    def test_top_antecedent(self):
        kb = parse_kb("vars: a\nrule: (a | top)")
        assert kb.m == 1
        assert kb.n == 1
        assert kb.conditionals[0].antecedent.terms == (Term(1, 0, 0),)
        assert kb.conditionals[0].label is None

    def test_two_rules_same_antecedent(self):
        kb = parse_kb("vars: b, f\nrule r1: (f | b)\nrule r2: (!f | b)")
        assert kb.n == 2
        for c in kb.conditionals:
            assert c.antecedent.terms == (Term(2, bit(2, 1), 0),)
        assert kb.conditionals[0].consequent.terms == (Term(2, bit(2, 2), 0),)
        assert kb.conditionals[1].consequent.terms == (Term(2, 0, bit(2, 2)),)

    def test_comments_and_blank_lines_ignored(self):
        kb = parse_kb("# header\n\nvars: a, b\n  # indented comment\nrule: (b | a)\n")
        assert kb.n == 1

    def test_rules_may_be_absent(self):
        kb = parse_kb("vars: x, y\n")
        assert kb.n == 0
        assert kb.m == 2


class TestParseKBErrors:
    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("vars: a\nvars: b", 2, "duplicate vars"),
            ("rule: (a | top)\nvars: a", 1, "after the vars"),
            ("vars:\nrule: (a | top)", 1, "empty vars"),
            ("vars: a, a", 1, "duplicate atom"),
            ("vars: a, 1b", 1, "invalid atom name"),
            ("vars: a, top", 1, "reserved"),
            ("vars: a,", 1, "empty atom name"),
            ("vars: a\nrule: (c | top)", 2, "unknown atom 'c'"),
            ("vars: a\nrule: a | top", 2, "expected '('"),
            ("vars: a\nrule: (a, top)", 2, "missing '|'"),
            ("vars: a\nrule: (a | a | a)", 2, "more than one '|'"),
            ("vars: a\nrule: (a | top) junk", 2, "after the conditional"),
            ("vars: a\nrule: ( | a)", 2, "empty consequent"),
            ("vars: a\nrule: (a | )", 2, "empty antecedent"),
            ("vars: a\nrule: (!(a) | top)", 2, "negation applies only"),
            ("vars: a\nrule: ((a, | top)", 2, "expected an atom"),
            ("vars: a\nrule: ((a | top)", 2, "expected ')'"),
            ("vars: a\nrule: (a | top", 2, "expected ')' closing the conditional"),
            ("vars: a\nwhat is this", 2, "expected a 'vars:' or 'rule'"),
            ("# only a comment\n", 2, "missing vars"),
        ],
    )
    def test_rejections_carry_positions(self, text, line, fragment):
        with pytest.raises(KBSyntaxError) as err:
            parse_kb(text)
        assert err.value.line == line
        assert err.value.column >= 1
        assert fragment in str(err.value)

    def test_unknown_atom_column_points_at_atom(self):
        with pytest.raises(KBSyntaxError) as err:
            parse_kb("vars: ab\nrule: (ab | cd)")
        assert (err.value.line, err.value.column) == (2, 13)

    def test_one_leading_byte_order_mark_is_dropped(self):
        for text in (BIRDS_TEXT, PENGUINS_TEXT, "vars: a\n"):
            assert parse_kb("\ufeff" + text) == parse_kb(text)
        for text in ("vars: a, a", "vars: a, 1b", "  what is this"):
            with pytest.raises(KBSyntaxError) as plain:
                parse_kb(text)
            with pytest.raises(KBSyntaxError) as bom:
                parse_kb("\ufeff" + text)
            assert plain.value.line == bom.value.line == 1
            assert plain.value.column == bom.value.column
        # Only one mark, and only at the very start.
        for text in (
            "\ufeff\ufeffvars: a",
            "vars: a\n\ufeffrule: (a | top)",
            "vars: a\ufeff",
            "vars: a\nrule: (a | \ufefftop)",
        ):
            with pytest.raises(KBSyntaxError):
                parse_kb(text)

    def test_atom_cap(self):
        names = ", ".join(f"x{i}" for i in range(21))
        with pytest.raises(KBSyntaxError, match="too many atoms"):
            parse_kb(f"vars: {names}")

    def test_rule_cap(self):
        lines = ["vars: a"] + ["rule: (a | top)"] * 65
        with pytest.raises(KBSyntaxError, match="too many rules"):
            parse_kb("\n".join(lines))


class TestParseFormula:
    def test_single_literal(self, penguins):
        f = formula("b", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 2), 0),)

    def test_literal_conjunction(self, penguins):
        f = formula("p, !f", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 1), bit(5, 3)),)

    def test_disjunction_splits_terms(self, penguins):
        f = formula("b ; k", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 2), 0), Term(5, 0 | bit(5, 5), 0))

    def test_bot_is_one_contradictory_term(self, penguins):
        f = formula("bot", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 1), bit(5, 1)),)

    def test_negated_constants(self, penguins):
        assert formula("!top", penguins.atoms).terms == formula("bot", penguins.atoms).terms
        assert formula("!bot", penguins.atoms).terms == formula("top", penguins.atoms).terms

    def test_parenthesized_disjunction_distributes(self, penguins):
        f = formula("p, (b ; k)", penguins.atoms)
        assert f.terms == (
            Term(5, bit(5, 1) | bit(5, 2), 0),
            Term(5, bit(5, 1) | bit(5, 5), 0),
        )

    def test_contradictory_conjunction_allowed(self, penguins):
        f = formula("p, !p", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 1), bit(5, 1)),)

    def test_source_ignored_by_equality(self, penguins):
        assert formula("b", penguins.atoms) == formula("  b ", penguins.atoms)

    def test_never_empty_term_list(self, penguins):
        for text in ["bot", "top", "p", "!p", "bot ; bot", "p, bot"]:
            assert len(formula(text, penguins.atoms).terms) >= 1

    def test_unknown_atom(self, penguins):
        with pytest.raises(KBSyntaxError, match="unknown atom"):
            formula("q", penguins.atoms)

    def test_trailing_garbage(self, penguins):
        with pytest.raises(KBSyntaxError, match="unexpected character"):
            formula("p !f", penguins.atoms)


class TestParseConditional:
    def test_query_conditional(self, penguins):
        c = parse_conditional("(w | k)", penguins.atoms)
        assert c.id == 0
        assert c.consequent.terms == (Term(5, bit(5, 4), 0),)
        assert c.antecedent.terms == (Term(5, 0 | bit(5, 5), 0),)

    def test_leading_blanks_ignored(self, penguins):
        assert parse_conditional(" \t (w | k)", penguins.atoms) == parse_conditional("(w | k)", penguins.atoms)

    @pytest.mark.parametrize("text, name, column", [("(bot | top)", "bot", 2), ("(!top | top)", "top", 3)])
    def test_contradiction_needs_an_atom(self, text, name, column):
        # bot and !top are the contradictory term over the first atom,
        # which an empty alphabet lacks.
        with pytest.raises(KBSyntaxError, match=f"'{name}' needs at least one declared atom") as err:
            parse_conditional(text, ())
        assert (err.value.line, err.value.column) == (1, column)

    def test_top_needs_no_atom(self):
        c = parse_conditional("(top | top)", ())
        assert c.consequent.terms == c.antecedent.terms == (Term(0, 0, 0),)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [BIRDS_TEXT, PENGUINS_TEXT])
    def test_fixture_round_trip(self, text):
        kb = parse_kb(text)
        assert parse_kb(render_kb(kb)) == kb

    def test_bot_round_trip(self):
        kb = parse_kb("vars: a, b\nrule neg: (a | bot)\nrule: (!b | a ; !a, b)")
        rendered = render_kb(kb)
        assert parse_kb(rendered) == kb
        assert "a, !a" in rendered

    def test_render_formula_spells_top(self, penguins):
        f = formula("top", penguins.atoms)
        assert render_formula(f, penguins.atoms) == "top"


# The characters that str.splitlines() ends lines at besides \n and \r:
# VT, FF, FS, GS, RS, NEL, U+2028 and U+2029.
LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestLineEnds:
    """Lines end at \\n, \\r\\n and \\r only: the line ends that
    Path.read_text normalises."""

    @pytest.mark.parametrize("ch", LINE_BREAKS)
    def test_break_in_comment_is_comment_text(self, ch, tmp_path, capsys):
        # Were the comment split, its tail would be a rule that changes the answer.
        path = tmp_path / "birds.kb"
        path.write_text(BIRDS_TEXT.replace("vars:", f"# note{ch}rule: (!a | b)\nvars:"), encoding="utf-8")
        assert main(["solve", "--mode", "min-all", str(path)]) == 0
        assert capsys.readouterr().out == "1 0 1\n1 1 0\n"

    @pytest.mark.parametrize("ch", LINE_BREAKS)
    @pytest.mark.parametrize("after", ["rule: (!f | b)", ""])
    def test_break_in_rule_line_is_rejected(self, ch, after, tmp_path, capsys):
        # An editor shows one line here, not two rules; and a trailing break
        # is no trailing blank.
        path = tmp_path / "birds.kb"
        path.write_text(BIRDS_TEXT.replace("(a | f, b)", f"(a | f, b){ch}{after}"), encoding="utf-8")
        assert main(["solve", "--mode", "min-all", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: line 5, column {len('rule r3: (a | f, b)') + 1}: character {ch!r}")

    @pytest.mark.parametrize("ch", LINE_BREAKS)
    def test_break_in_vars_line_is_rejected(self, ch, tmp_path, capsys):
        path = tmp_path / "birds.kb"
        path.write_text(BIRDS_TEXT.replace("vars: b, f, a", f"vars: b, f,{ch} a"), encoding="utf-8")
        assert main(["solve", "--mode", "min-all", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line 2, column 12: character {ch!r}")

    @pytest.mark.parametrize("ch", LINE_BREAKS)
    def test_break_alone_is_a_blank_line(self, ch):
        assert parse_kb(BIRDS_TEXT.replace("vars:", f"{ch}\n \t{ch}\nvars:")) == parse_kb(BIRDS_TEXT)


NAMES = ["a", "b", "c2", "_d", "long_name", "x"]
# Mutations insert or replace one of these; the characters of LINE_BREAKS
# are left out, since there the two parsers split lines differently.
MUTATION_ALPHABET = "()|,;!#:_ \t\n\r01abcx" + "\x1f\xa0\u3000\ufeff\xe9" + "topbotvarsrule"


def _blank(rng):
    return rng.choice(("", "", "", " ", " ", "  ", "\t", " \t"))


def _formula_text(rng, names, depth=0):
    """A formula of the whole grammar: groups up to two deep, '!', top and
    bot, and blanks and tabs between tokens."""

    def literal():
        if depth < 2 and rng.random() < 0.2:
            return "(" + _blank(rng) + _formula_text(rng, names, depth + 1) + _blank(rng) + ")"
        name = rng.choice(("top", "bot")) if rng.random() < 0.1 else rng.choice(names)
        return ("!" + _blank(rng) if rng.random() < 0.35 else "") + name

    def conj():
        return (_blank(rng) + "," + _blank(rng)).join(literal() for _ in range(rng.randint(1, 3)))

    return (_blank(rng) + ";" + _blank(rng)).join(conj() for _ in range(rng.choice((1, 1, 2, 3))))


def _conditional_text(rng, names):
    def b():
        return _blank(rng)

    return f"({b()}{_formula_text(rng, names)}{b()}|{b()}{_formula_text(rng, names)}{b()})"


def _valid_kb_text(rng):
    """Seeded KB text that parses: random_kb_text, or a KB with labels,
    comments, blank lines, tabs, CR LF line ends and a byte-order mark."""
    if rng.random() < 0.25:
        return random_kb_text(rng, 4, 4)
    names = rng.sample(NAMES, rng.randint(1, len(NAMES)))

    def b():
        return _blank(rng)

    lines = [f"{b()}vars{b()}:{b()}" + (b() + "," + b()).join(names) + b()]
    for k in range(rng.randint(0, 5)):
        label = f" r{k}" if rng.random() < 0.5 else ""
        lines.append(f"{b()}rule{label}{b()}:{b()}{_conditional_text(rng, names)}{b()}")
    for _ in range(rng.randint(0, 3)):
        extra = rng.choice(("", b(), f"{b()}# comment | ( {b()}", "#"))
        lines.insert(rng.randint(0, len(lines)), extra)
    end = rng.choice(("\n", "\n", "\r\n"))
    text = end.join(lines) + rng.choice(("", end))
    return "\ufeff" + text if rng.random() < 0.15 else text


def _mutated(rng, text):
    """``text`` with one character inserted, deleted or replaced."""
    at = rng.randrange(len(text) + 1)
    how = rng.choice(("insert", "delete", "replace"))
    if how == "insert" or at == len(text):
        return text[:at] + rng.choice(MUTATION_ALPHABET) + text[at:]
    if how == "delete":
        return text[:at] + text[at + 1 :]
    return text[:at] + rng.choice(MUTATION_ALPHABET) + text[at + 1 :]


def _outcome(parse, *args):
    try:
        return parse(*args)
    except KBSyntaxError as err:
        return ("rejected", str(err), err.line, err.column)


EDGE_TEXTS = [
    "",
    "\ufeff",
    "\n",
    "# c",
    "# c\r\n",
    "# c\n\n",
    "# c\r\r\n",
    "vars:",
    "vars: a\nvars: a",
    "  vars: a\n \t vars : b",
    "rule: (a | a)\nvars: a",
    "vars: a, top",
    "vars: bot",
    "vars: a, b, a, top",
    "vars: a,, b",
    "vars: a, b c",
    "vars: " + ", ".join(f"x{i}" for i in range(20)),
    "vars: " + ", ".join(f"x{i}" for i in range(21)),
    "vars: " + ", ".join(f"x{i}" for i in range(21)) + ", x0",
    "vars: a\n" + "rule: (a | top)\n" * 64,
    "vars: a\n" + "rule: (a | top)\n" * 65,
    "vars: a\n" + "rule: (a | top)\n" * 64 + "rule: (q | top)",
    "vars: a\xa0,\u3000b\x1f",
    "\xa0vars\xa0:\xa0a\nrule\xa0r\xa0:\xa0(a | a)\xa0\nrule:(a|a)\u3000",
    "vars: a\nrule: (a | a)\xa0x",
    "vars: a\nrule: (a\xa0| a)",
    "vars: a\nrule: (\xa0| a)",
    "vars: a\nrule: ( \t | \xa0 ) junk",
    "vars: a\nrule:   ",
    "vars: a\nrule: ",
    "vars: a\nrule r1 r2: (a | a)",
    "vars: a\nrules: (a | a)",
    "vars: a\nrule 1: (a | a)",
    "vars: a\nrule: (a | a))",
    "vars: a\nrule: ((a | a)",
    "vars: a\nrule: (a) | (a)",
    "vars: a\nrule: ((a) | (a))",
    "vars: a\nrule: (a | a | a) )",
    "vars: a\nrule: (!!a | a)",
    "vars: a\nrule: (! (a) | a)",
    "vars: a\nrule: (!top, !bot ; bot | !\ttop)",
    "vars: a\nrule: (a,a;a | ((a;a),(a;a)))",
    "vars: a\nrule: (a b | a)",
    "vars: a\nrule: (1a | a)",
    "vars: a\nrule: (a1 | a)",
    "vars: a\nrule: (é | a)",
    "vars: a\nrule: (aé | a)",
    "vars: a\nrule: (a, | a)",
    "vars: a\nrule: (a; | a)",
    "vars: a\nrule: (a | (a, (a ; a)",
    "vars: a\n# comment\n  \t\n\t# x\nrule: (a | a)\n\n",
    "vars: a\r\nrule: (a | a)\r\n",
    "vars: a\rrule: (a | a)\r",
    "vars: a\n\ufeffrule: (a | a)",
]


class TestDifferential:
    """parse_kb and parse_conditional against the character-at-a-time
    parser they replaced (tests/helpers.py): an equal result, or an equal
    message, line and column."""

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_edge_texts(self, text):
        assert _outcome(parse_kb, text) == _outcome(parse_kb_ref, text)
        atoms = parse_kb("vars: a, b").atoms
        for line in text.split("\n"):
            body = line.partition(":")[2]
            assert _outcome(parse_conditional, body, atoms) == _outcome(parse_conditional_ref, body, atoms)

    def test_kb_texts(self):
        rng = random.Random(2011)
        rejected = 0
        for _ in range(2500):
            text = _valid_kb_text(rng)
            assert not any(ch in text for ch in LINE_BREAKS)
            kb = parse_kb_ref(text)
            assert parse_kb(text) == kb, text
            for _ in range(2):
                bad = _mutated(rng, text)
                want = _outcome(parse_kb_ref, bad)
                assert _outcome(parse_kb, bad) == want, bad
                rejected += want[0] == "rejected"
        # Most mutations are errors, and some are still valid text.
        assert 2500 < rejected < 4900

    def test_conditional_texts(self):
        rng = random.Random(2016)
        rejected = 0
        for _ in range(2500):
            names = rng.sample(NAMES, rng.randint(1, len(NAMES)))
            atoms = parse_kb("vars: " + ", ".join(names)).atoms
            text = _blank(rng) + _conditional_text(rng, names) + _blank(rng)
            assert parse_conditional(text, atoms) == parse_conditional_ref(text, atoms), text
            for _ in range(2):
                bad = _mutated(rng, text)
                want = _outcome(parse_conditional_ref, bad, atoms)
                assert _outcome(parse_conditional, bad, atoms) == want, bad
                rejected += want[0] == "rejected"
        assert 2500 < rejected < 4900
