import pytest

from crsolve import (
    atom_worlds,
    build_partitions,
    formula_worlds,
    parse_formula,
    parse_kb,
    world_str,
    world_str_compact,
)
from crsolve.kb import Term
from crsolve.worlds import full_set, iter_bits

from tests.helpers import eval_formula_ref, eval_term, indicator_ref, true_atoms

# Penguin worlds by name, p most significant.
PBFWK = 0b11111
NOT_P_BFWK = 0b01111
P_B_NOTF_WK = 0b11011
NOT_P_NOT_B_FWK = 0b00111


class TestEvalTerm:
    def test_positive_literal_holds(self):
        assert eval_term(Term(5, 0b01000, 0), PBFWK) is True

    def test_positive_literal_fails(self):
        # term p, !f against a world without p
        assert eval_term(Term(5, 0b10000, 0b00100), NOT_P_BFWK) is False

    def test_all_free_matches_everything(self):
        t = Term(5, 0, 0)
        assert all(eval_term(t, w) for w in range(32))

    def test_negative_literal(self):
        t = Term(5, 0, 0b00100)  # !f
        assert eval_term(t, P_B_NOTF_WK) is True
        assert eval_term(t, PBFWK) is False

    def test_contradictory_term_matches_nothing(self):
        t = Term(5, 0b10000, 0b10000)
        assert not any(eval_term(t, w) for w in range(32))


class TestFormulaWorlds:
    def test_single_literal_has_half_the_worlds(self, penguins):
        ws = formula_worlds(parse_formula("b", penguins.atoms))
        assert ws.bit_count() == 16
        assert ws == atom_worlds(5, 2)

    def test_top_is_all_worlds(self, penguins):
        assert formula_worlds(parse_formula("top", penguins.atoms)) == full_set(5)

    def test_bot_is_empty(self, penguins):
        assert formula_worlds(parse_formula("bot", penguins.atoms)) == 0

    def test_conjunction_against_brute_force(self, penguins):
        f = parse_formula("p, !f", penguins.atoms)
        expected = 0
        for w in range(32):
            if eval_formula_ref(f, penguins, w):
                expected |= 1 << w
        ws = formula_worlds(f)
        assert ws == expected
        assert ws.bit_count() == 8

    def test_matches_set_based_evaluation(self, penguins):
        for text in ["p", "!k", "b, w", "p ; k", "b, (w ; !k)", "bot", "top", "p, !p"]:
            f = parse_formula(text, penguins.atoms)
            for w in range(32):
                names = true_atoms(penguins, w)
                by_sets = any(
                    all((penguins.atoms[i - 1].name in names) == positive for i, positive in t.literals())
                    for t in f.terms
                )
                assert bool(ws_member(formula_worlds(f), w)) == by_sets, (text, w)

    def test_disjunction_is_union(self, penguins):
        f1 = parse_formula("b", penguins.atoms)
        f2 = parse_formula("k", penguins.atoms)
        both = parse_formula("b ; k", penguins.atoms)
        assert formula_worlds(both) == formula_worlds(f1) | formula_worlds(f2)


def ws_member(ws, w):
    return (ws >> w) & 1


class TestIndicator:
    def test_verifies(self, penguins):
        r1 = penguins.conditionals[0]  # (f | b)
        assert indicator_ref(r1, penguins, NOT_P_BFWK) == "v"

    def test_falsifies(self, penguins):
        r1 = penguins.conditionals[0]
        assert indicator_ref(r1, penguins, P_B_NOTF_WK) == "f"

    def test_not_applicable(self, penguins):
        r1 = penguins.conditionals[0]
        assert indicator_ref(r1, penguins, NOT_P_NOT_B_FWK) == "n"


class TestBuildPartitions:
    def test_penguins_rule3_counts(self, penguins):
        parts = build_partitions(penguins)
        assert parts.verifying[2].bit_count() == 8
        assert parts.falsifying[2].bit_count() == 8

    def test_penguins_rule1_sets(self, penguins):
        parts = build_partitions(penguins)
        b_and_f = formula_worlds(parse_formula("b, f", penguins.atoms))
        b_not_f = formula_worlds(parse_formula("b, !f", penguins.atoms))
        assert parts.verifying[0] == b_and_f
        assert parts.falsifying[0] == b_not_f
        assert parts.verifying[0].bit_count() == 8
        assert parts.falsifying[0].bit_count() == 8

    def test_unsatisfiable_antecedent(self):
        kb = parse_kb("vars: a\nrule: (a | bot)")
        parts = build_partitions(kb)
        assert parts.verifying == (0,)
        assert parts.falsifying == (0,)

    def test_tri_partition(self, penguins, birds):
        for kb in (penguins, birds):
            parts = build_partitions(kb)
            full = full_set(kb.m)
            for i, c in enumerate(kb.conditionals):
                v, f = parts.verifying[i], parts.falsifying[i]
                assert v & f == 0
                not_applicable = full ^ (v | f)
                for w in range(2**kb.m):
                    hits = sum((ws_member(v, w), ws_member(f, w), ws_member(not_applicable, w)))
                    assert hits == 1

    def test_agrees_with_pointwise_indicator(self, penguins):
        parts = build_partitions(penguins)
        for i, c in enumerate(penguins.conditionals):
            for w in range(32):
                status = indicator_ref(c, penguins, w)
                assert ws_member(parts.verifying[i], w) == (status == "v")
                assert ws_member(parts.falsifying[i], w) == (status == "f")


class TestRendering:
    def test_world_str(self, penguins):
        assert world_str(penguins.atoms, PBFWK) == "p b f w k"
        assert world_str(penguins.atoms, P_B_NOTF_WK) == "p b -f w k"
        assert world_str(penguins.atoms, 0) == "-p -b -f -w -k"

    def test_world_str_compact(self, penguins):
        assert world_str_compact(penguins.atoms, PBFWK) == "pbfwk"
        assert world_str_compact(penguins.atoms, 0b10111) == "p-bfwk"


class TestBitHelpers:
    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_atom_worlds_against_brute_force(self, m):
        for index in range(1, m + 1):
            expected = 0
            for w in range(2**m):
                if (w >> (m - index)) & 1:
                    expected |= 1 << w
            assert atom_worlds(m, index) == expected
