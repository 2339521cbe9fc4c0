import pytest

from crsolve import (
    KBSyntaxError,
    parse_conditional,
    parse_formula,
    parse_kb,
    render_formula,
    render_kb,
)
from crsolve.kb import Term

from tests.helpers import BIRDS_TEXT, PENGUINS_TEXT


def bit(m, index):
    return 1 << (m - index)


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
        f = parse_formula("b", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 2), 0),)

    def test_literal_conjunction(self, penguins):
        f = parse_formula("p, !f", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 1), bit(5, 3)),)

    def test_disjunction_splits_terms(self, penguins):
        f = parse_formula("b ; k", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 2), 0), Term(5, 0 | bit(5, 5), 0))

    def test_bot_is_one_contradictory_term(self, penguins):
        f = parse_formula("bot", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 1), bit(5, 1)),)

    def test_negated_constants(self, penguins):
        assert parse_formula("!top", penguins.atoms).terms == parse_formula("bot", penguins.atoms).terms
        assert parse_formula("!bot", penguins.atoms).terms == parse_formula("top", penguins.atoms).terms

    def test_parenthesized_disjunction_distributes(self, penguins):
        f = parse_formula("p, (b ; k)", penguins.atoms)
        assert f.terms == (
            Term(5, bit(5, 1) | bit(5, 2), 0),
            Term(5, bit(5, 1) | bit(5, 5), 0),
        )

    def test_contradictory_conjunction_allowed(self, penguins):
        f = parse_formula("p, !p", penguins.atoms)
        assert f.terms == (Term(5, bit(5, 1), bit(5, 1)),)

    def test_source_ignored_by_equality(self, penguins):
        assert parse_formula("b", penguins.atoms) == parse_formula("  b ", penguins.atoms)

    def test_never_empty_term_list(self, penguins):
        for text in ["bot", "top", "p", "!p", "bot ; bot", "p, bot"]:
            assert len(parse_formula(text, penguins.atoms).terms) >= 1

    def test_unknown_atom(self, penguins):
        with pytest.raises(KBSyntaxError, match="unknown atom"):
            parse_formula("q", penguins.atoms)

    def test_trailing_garbage(self, penguins):
        with pytest.raises(KBSyntaxError, match="unexpected character"):
            parse_formula("p !f", penguins.atoms)


class TestParseConditional:
    def test_query_conditional(self, penguins):
        c = parse_conditional("(w | k)", penguins.atoms)
        assert c.id == 0
        assert c.consequent.terms == (Term(5, bit(5, 4), 0),)
        assert c.antecedent.terms == (Term(5, 0 | bit(5, 5), 0),)

    def test_leading_blanks_ignored(self, penguins):
        assert parse_conditional(" \t (w | k)", penguins.atoms) == parse_conditional("(w | k)", penguins.atoms)


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
        f = parse_formula("top", penguins.atoms)
        assert render_formula(f, penguins.atoms) == "top"
