import json
import math
import random

import pytest

from crsolve import (
    INFINITY,
    acceptance_ranks,
    accepts,
    all_min_sum,
    build_problem,
    induced_ocf,
    parse_conditional,
    parse_kb,
    render_table,
)
from crsolve.ocf import json_chunks

from tests.helpers import (
    PENGUINS_RANKS,
    eval_formula_ref,
    induced_ranks_ref,
    random_formula_text,
    random_kb_text,
    with_unused_atoms,
)

VECTOR = (1, 2, 2, 1, 1)


@pytest.fixture(scope="module")
def penguin_ocf(penguins):
    return induced_ocf(penguins, VECTOR)


def rank_formula(r, text):
    """The rank of a formula: the A-and-B side of (text | top)."""
    return acceptance_ranks(r, parse_conditional(f"({text} | top)", r.kb.atoms))[0]


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
    def test_reference_query_ranks(self, penguin_ocf):
        assert rank_formula(penguin_ocf, "p, f") == 2
        assert rank_formula(penguin_ocf, "p, !f") == 1
        assert rank_formula(penguin_ocf, "k, w") == 0
        assert rank_formula(penguin_ocf, "k, !w") == 1

    def test_unsatisfiable_formula_is_infinite(self, penguin_ocf):
        assert rank_formula(penguin_ocf, "bot") is INFINITY
        assert rank_formula(penguin_ocf, "p, !p") is INFINITY

    def test_tautology_ranks_zero(self, penguin_ocf):
        assert rank_formula(penguin_ocf, "top") == 0


class TestRankConditional:
    def test_self_conditional_is_zero(self, penguins, penguin_ocf):
        c = parse_conditional("(w, k | w, k)", penguins.atoms)
        assert acceptance_ranks(penguin_ocf, c) == (0, INFINITY)

    def test_unsatisfiable_antecedent(self, penguins, penguin_ocf):
        c = parse_conditional("(p | bot)", penguins.atoms)
        assert acceptance_ranks(penguin_ocf, c) == (INFINITY, INFINITY)

    def test_unsatisfiable_consequent_under_satisfiable_antecedent(self, penguins, penguin_ocf):
        c = parse_conditional("(bot | p)", penguins.atoms)
        assert acceptance_ranks(penguin_ocf, c) == (INFINITY, 1)


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


class TestConditionalRanksReference:
    def test_random_queries(self):
        # kappa(AB) and kappa(A-not-B), each a minimum over the reference
        # ranks of all 2**m worlds that pass eval_formula_ref.  Most KBs
        # declare atoms u0, u1, ... that no rule mentions, and the queries
        # draw from every declared atom, so acceptance_ranks must widen its
        # world space by the query's atoms.
        rng = random.Random(20261018)
        infinite = unused = 0
        for _ in range(300):
            kb = parse_kb(with_unused_atoms(random_kb_text(rng, 4, 5), rng, rng.randint(0, 3)))
            names = list(kb.atom_names())
            top = rng.choice((4, 300))
            v = tuple(rng.randint(0, top) for _ in range(kb.n))
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
                            and eval_formula_ref(c.consequent, kb, w) == want_consequent
                        ),
                        default=INFINITY,
                    )

                verified, falsified = kappa(True), kappa(False)
                assert acceptance_ranks(r, c) == (verified, falsified)
                infinite += INFINITY in (verified, falsified)
                unused += "u" in ant + cons
        assert infinite >= 300
        assert unused >= 300


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
        assert INFINITY == math.inf

    def test_hashable_in_rank_tuples(self):
        assert hash(INFINITY) == hash(INFINITY)
        assert len({(0, INFINITY), (0, INFINITY), (INFINITY, 0)}) == 2

    def test_rendering(self):
        assert str(INFINITY) == "inf"


class TestTableExport:
    def test_render_table_layout(self, penguin_ocf):
        lines = render_table(penguin_ocf).splitlines()
        assert len(lines) == 32
        assert lines[0].startswith("p b f w k")
        assert lines[0].endswith(" 2")
        assert lines[-1].startswith("-p -b -f -w -k")
        assert lines[-1].endswith(" 0")

    def test_records_in_table_order(self, penguin_ocf):
        records = json.loads("".join(json_chunks(penguin_ocf)))
        assert records[0] == {"world": "pbfwk", "rank": 2}
        assert records[8] == {"world": "p-bfwk", "rank": 5}
        assert records[-1] == {"world": "-p-b-f-w-k", "rank": 0}
        assert len(records) == 32
