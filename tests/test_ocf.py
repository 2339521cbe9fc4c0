import random

import pytest

from crsolve import (
    INFINITY,
    acceptance_ranks,
    accepts,
    all_min_sum,
    build_problem,
    induced_ocf,
    ocf_records,
    parse_conditional,
    parse_formula,
    parse_kb,
    rank_conditional,
    rank_formula,
    render_table,
)

from tests.helpers import (
    PENGUINS_RANKS,
    eval_formula_ref,
    induced_ranks_ref,
    random_formula_text,
    random_kb_text,
)

VECTOR = (1, 2, 2, 1, 1)


@pytest.fixture(scope="module")
def penguin_ocf(penguins):
    return induced_ocf(penguins, VECTOR)


class TestInducedOcf:
    def test_full_reference_table(self, penguin_ocf):
        assert penguin_ocf.ranks == PENGUINS_RANKS

    def test_spot_values(self, penguin_ocf):
        assert penguin_ocf.ranks[0b11111] == 2  # p b f w k
        assert penguin_ocf.ranks[0b10111] == 5  # p -b f w k
        assert penguin_ocf.ranks[0b01111] == 0  # -p b f w k
        assert penguin_ocf.ranks[0b00111] == 1  # -p -b f w k
        assert penguin_ocf.ranks[0b11011] == 1  # p b -f w k
        assert penguin_ocf.ranks[0b00000] == 0

    def test_matches_reference(self, penguins, birds):
        assert list(induced_ocf(penguins, VECTOR).ranks) == induced_ranks_ref(penguins, VECTOR)
        assert list(induced_ocf(birds, (1, 1, 0)).ranks) == induced_ranks_ref(birds, (1, 1, 0))

    def test_zero_vector_is_zero_everywhere(self, penguins):
        assert set(induced_ocf(penguins, (0,) * 5).ranks) == {0}

    def test_non_solution_vectors_allowed(self, penguins):
        r = induced_ocf(penguins, (0, 0, 0, 0, 3))
        assert r.ranks[0b00001] == 3  # -p -b -f -w k falsifies rule 5 only

    def test_length_mismatch(self, penguins):
        with pytest.raises(ValueError):
            induced_ocf(penguins, (1, 2, 2, 1))

    def test_negative_component(self, penguins):
        with pytest.raises(ValueError, match="negative"):
            induced_ocf(penguins, (-5, 0, 0, 0, 0))


class TestRankFormula:
    def test_reference_query_ranks(self, penguins, penguin_ocf):
        assert rank_formula(penguin_ocf, parse_formula("p, f", penguins.atoms)) == 2
        assert rank_formula(penguin_ocf, parse_formula("p, !f", penguins.atoms)) == 1
        assert rank_formula(penguin_ocf, parse_formula("k, w", penguins.atoms)) == 0
        assert rank_formula(penguin_ocf, parse_formula("k, !w", penguins.atoms)) == 1

    def test_unsatisfiable_formula_is_infinite(self, penguins, penguin_ocf):
        assert rank_formula(penguin_ocf, parse_formula("bot", penguins.atoms)) is INFINITY
        assert rank_formula(penguin_ocf, parse_formula("p, !p", penguins.atoms)) is INFINITY

    def test_tautology_ranks_zero(self, penguins, penguin_ocf):
        assert rank_formula(penguin_ocf, parse_formula("top", penguins.atoms)) == 0


class TestRankConditional:
    def test_flying_penguins(self, penguins, penguin_ocf):
        c = parse_conditional("(f | p)", penguins.atoms)
        assert rank_conditional(penguin_ocf, c) == 1  # rank(pf)=2 minus rank(p)=1

    def test_self_conditional_is_zero(self, penguins, penguin_ocf):
        c = parse_conditional("(w, k | w, k)", penguins.atoms)
        assert rank_conditional(penguin_ocf, c) == 0

    def test_unsatisfiable_antecedent(self, penguins, penguin_ocf):
        c = parse_conditional("(p | bot)", penguins.atoms)
        assert rank_conditional(penguin_ocf, c) is INFINITY

    def test_unsatisfiable_consequent_under_satisfiable_antecedent(self, penguins, penguin_ocf):
        c = parse_conditional("(bot | p)", penguins.atoms)
        assert rank_conditional(penguin_ocf, c) is INFINITY

    def test_nonnegative_for_rules(self, penguins, penguin_ocf):
        for c in penguins.conditionals:
            assert rank_conditional(penguin_ocf, c) >= 0


class TestAccepts:
    def test_flying_penguins_rejected(self, penguins, penguin_ocf):
        c = parse_conditional("(f | p)", penguins.atoms)
        assert accepts(penguin_ocf, c) is False
        assert acceptance_ranks(penguin_ocf, c) == (2, 1)

    def test_winged_kiwis_accepted(self, penguins, penguin_ocf):
        c = parse_conditional("(w | k)", penguins.atoms)
        assert accepts(penguin_ocf, c) is True
        assert acceptance_ranks(penguin_ocf, c) == (0, 1)

    def test_all_rules_accepted(self, penguins, penguin_ocf):
        assert all(accepts(penguin_ocf, c) for c in penguins.conditionals)

    def test_unsatisfiable_antecedent_never_accepted(self, penguins, penguin_ocf):
        c = parse_conditional("(p | bot)", penguins.atoms)
        assert accepts(penguin_ocf, c) is False

    def test_agrees_with_conditional_rank_comparison(self, penguins, penguin_ocf):
        # Acceptance compares the two sides directly; shifting both by the
        # antecedent rank must agree whenever that rank is finite.
        pairs = [("(f | p)", "(!f | p)"), ("(w | k)", "(!w | k)"), ("(f | b)", "(!f | b)")]
        for pos_text, neg_text in pairs:
            pos = parse_conditional(pos_text, penguins.atoms)
            neg = parse_conditional(neg_text, penguins.atoms)
            via_ranks = rank_conditional(penguin_ocf, pos) < rank_conditional(penguin_ocf, neg)
            assert accepts(penguin_ocf, pos) == via_ranks


class TestConditionalRanksReference:
    def test_random_queries(self):
        # kappa(AB), kappa(A-not-B) and kappa(AB) - kappa(A), each a minimum
        # over the reference ranks of the worlds that pass eval_formula_ref.
        rng = random.Random(20261018)
        infinite = 0
        for _ in range(300):
            kb = parse_kb(random_kb_text(rng, 4, 5))
            names = list(kb.atom_names())
            v = tuple(rng.randint(0, 4) for _ in range(kb.n))
            ranks = induced_ranks_ref(kb, v)
            r = induced_ocf(kb, v)
            sides = [(random_formula_text(rng, names), random_formula_text(rng, names)) for _ in range(3)]
            sides += [("bot", random_formula_text(rng, names)), (random_formula_text(rng, names), "bot")]
            for ant, cons in sides:
                c = parse_conditional(f"({cons} | {ant})", kb.atoms)

                def kappa(want_consequent):
                    return min(
                        (
                            rank
                            for w, rank in enumerate(ranks)
                            if eval_formula_ref(c.antecedent, kb, w)
                            and want_consequent in (None, eval_formula_ref(c.consequent, kb, w))
                        ),
                        default=INFINITY,
                    )

                verified, falsified, antecedent = kappa(True), kappa(False), kappa(None)
                assert acceptance_ranks(r, c) == (verified, falsified)
                if antecedent is INFINITY:
                    infinite += 1
                    assert rank_conditional(r, c) is INFINITY
                else:
                    assert rank_conditional(r, c) == verified - antecedent
        assert infinite >= 300


class TestSolutionProperties:
    def test_solutions_induce_accepting_normalized_rankings(self, birds, penguins):
        for kb in (birds, penguins):
            for v in all_min_sum(build_problem(kb)).vectors:
                r = induced_ocf(kb, v)
                assert min(r.ranks) == 0
                assert all(accepts(r, c) for c in kb.conditionals)


class TestInfinity:
    def test_ordering_against_ints(self):
        assert 5 < INFINITY
        assert not INFINITY < 5
        assert not INFINITY < INFINITY
        assert INFINITY > 10**9
        assert INFINITY >= INFINITY
        assert INFINITY <= INFINITY
        assert not INFINITY <= 5

    def test_equality(self):
        assert INFINITY == INFINITY
        assert INFINITY != 7
        assert 7 != INFINITY

    def test_hashable_in_rank_tuples(self):
        assert hash(INFINITY) == hash(INFINITY)
        assert len({(0, INFINITY), (0, INFINITY), (INFINITY, 0)}) == 2

    def test_arithmetic(self):
        assert INFINITY - 3 is INFINITY
        assert INFINITY + 3 is INFINITY

    def test_rendering(self):
        assert str(INFINITY) == "inf"
        assert repr(INFINITY) == "INFINITY"


class TestTableExport:
    def test_render_table_layout(self, penguin_ocf):
        lines = render_table(penguin_ocf).splitlines()
        assert len(lines) == 32
        assert lines[0].startswith("p b f w k")
        assert lines[0].endswith(" 2")
        assert lines[-1].startswith("-p -b -f -w -k")
        assert lines[-1].endswith(" 0")

    def test_records_in_table_order(self, penguin_ocf):
        records = ocf_records(penguin_ocf)
        assert records[0] == {"world": "pbfwk", "rank": 2}
        assert records[8] == {"world": "p-bfwk", "rank": 5}
        assert records[-1] == {"world": "-p-b-f-w-k", "rank": 0}
        assert len(records) == 32
