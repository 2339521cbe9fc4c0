import random

import pytest

from crsolve import (
    KnowledgeBase,
    build_partitions,
    gen_synthetic,
    parse_conditional,
    parse_kb,
    world_names,
)
from crsolve.kb import Atom, Term
from crsolve.worlds import iter_bits, rule_partitions

from tests.helpers import (
    eval_formula_ref,
    eval_term,
    formula_set,
    full_set,
    indicator_ref,
    partitions_ref,
    random_formula_text,
    random_kb_text,
    true_atoms,
    with_unused_atoms,
)

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
        ws = formula_set(penguins.atoms, "b")
        assert ws.bit_count() == 16
        assert ws == sum(1 << w for w in range(32) if w & 0b01000)

    def test_top_is_all_worlds(self, penguins):
        assert formula_set(penguins.atoms, "top") == full_set(5)

    def test_bot_is_empty(self, penguins):
        assert formula_set(penguins.atoms, "bot") == 0

    def test_conjunction_against_brute_force(self, penguins):
        f = parse_conditional("(p, !f | top)", penguins.atoms).consequent
        expected = 0
        for w in range(32):
            if eval_formula_ref(f, penguins, w):
                expected |= 1 << w
        ws = formula_set(penguins.atoms, "p, !f")
        assert ws == expected
        assert ws.bit_count() == 8

    @pytest.mark.parametrize("m", range(6, 21))
    def test_matches_reference_up_to_twenty_atoms(self, m):
        # Every world up to m = 10; above, the extreme worlds and a sample.
        rng = random.Random(m)
        names = [f"x{i}" for i in range(m)]
        kb = parse_kb("vars: " + ", ".join(names) + "\n")
        texts = [
            "top",
            "bot",
            "!top ; !bot",
            f"x0, !x0 ; x{m - 1}",
            "x3, !x5, x3, !x3",
            f"x1, !x2 ; !x1, x{m - 2}, x{m - 1} ; x4",
        ]
        for _ in range(6):
            terms = []
            for _ in range(rng.randint(1, 3)):
                lits = rng.sample(names, rng.randint(1, 4))
                terms.append(", ".join(("!" if rng.random() < 0.5 else "") + a for a in lits))
            texts.append(" ; ".join(terms))
        top = (1 << m) - 1
        worlds = range(1 << m) if m <= 10 else [0, top, *rng.sample(range(1, top), 200)]
        for text in texts:
            f = parse_conditional(f"({text} | top)", kb.atoms).consequent
            ws = formula_set(kb.atoms, text)
            assert ws >> (1 << m) == 0, text
            for w in worlds:
                assert (ws >> w) & 1 == eval_formula_ref(f, kb, w), (text, w)

    def test_matches_set_based_evaluation(self, penguins):
        for text in ["p", "!k", "b, w", "p ; k", "b, (w ; !k)", "bot", "top", "p, !p"]:
            f = parse_conditional(f"({text} | top)", penguins.atoms).consequent
            for w in range(32):
                names = true_atoms(penguins, w)
                by_sets = any(
                    all((penguins.atoms[i - 1].name in names) == positive for i, positive in t.literals())
                    for t in f.terms
                )
                assert bool(ws_member(formula_set(penguins.atoms, text), w)) == by_sets, (text, w)

    def test_disjunction_is_union(self, penguins):
        both = formula_set(penguins.atoms, "b ; k")
        assert both == formula_set(penguins.atoms, "b") | formula_set(penguins.atoms, "k")


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
        verifying, falsifying = build_partitions(penguins)
        assert verifying[2].bit_count() == 8
        assert falsifying[2].bit_count() == 8

    def test_penguins_rule1_sets(self, penguins):
        verifying, falsifying = build_partitions(penguins)
        b_and_f = formula_set(penguins.atoms, "b, f")
        b_not_f = formula_set(penguins.atoms, "b, !f")
        assert verifying[0] == b_and_f
        assert falsifying[0] == b_not_f
        assert verifying[0].bit_count() == 8
        assert falsifying[0].bit_count() == 8

    def test_unsatisfiable_antecedent(self):
        kb = parse_kb("vars: a\nrule: (a | bot)")
        verifying, falsifying = build_partitions(kb)
        assert verifying == (0,)
        assert falsifying == (0,)

    def test_tri_partition(self, penguins, birds):
        for kb in (penguins, birds):
            verifying, falsifying = build_partitions(kb)
            full = full_set(kb.m)
            for i, c in enumerate(kb.conditionals):
                v, f = verifying[i], falsifying[i]
                assert v & f == 0
                not_applicable = full ^ (v | f)
                for w in range(2**kb.m):
                    hits = sum((ws_member(v, w), ws_member(f, w), ws_member(not_applicable, w)))
                    assert hits == 1

    def test_agrees_with_pointwise_indicator(self, penguins):
        verifying, falsifying = build_partitions(penguins)
        for i, c in enumerate(penguins.conditionals):
            for w in range(32):
                status = indicator_ref(c, penguins, w)
                assert ws_member(verifying[i], w) == (status == "v")
                assert ws_member(falsifying[i], w) == (status == "f")


def mentioned_atoms(kb):
    """The indices of the atoms that some term of some rule has in its masks."""
    terms = [t for c in kb.conditionals for f in (c.antecedent, c.consequent) for t in f.terms]
    return sorted({i for t in terms for i, _ in t.literals()})


class TestRulePartitions:
    def test_every_atom_mentioned(self, penguins, birds):
        # Squeezing out no atom must give build_partitions exactly.
        kbs = [penguins, birds, gen_synthetic(5)]
        kbs += [parse_kb("vars: a, b\nrule: (a | b)\nrule: (top | top)\n")]
        kbs += [parse_kb("vars: a, b\nrule: (bot | b)\n"), parse_kb("vars: a\nrule: (a | bot)\n")]
        rng = random.Random(20261019)
        while len(kbs) < 60:
            kb = parse_kb(random_kb_text(rng, 4, 4))
            if len(mentioned_atoms(kb)) == kb.m:
                kbs.append(kb)
        for kb in kbs:
            assert rule_partitions(kb) == (kb.m, *build_partitions(kb))

    def test_sets_over_the_mentioned_atoms(self):
        # World w over all atoms is in a set exactly when its values on the
        # mentioned atoms, read as a world over just those, are.  Every
        # other KB also passes a query over any declared atom as ``extra``,
        # whose sets come last and whose atoms count as mentioned.
        rng = random.Random(20261022)
        texts = ["vars: a, b\n", "vars: a, b\nrule: (top | top)\n", "vars: a, b\nrule: (bot | b)\n"]
        texts += [random_kb_text(rng, 4, 4) for _ in range(60)]
        for case, text in enumerate(texts):
            kb = parse_kb(with_unused_atoms(text, rng, rng.randint(0, 4)))
            names = list(kb.atom_names())
            extra = ()
            if case % 2:
                q = f"({random_formula_text(rng, names)} | {random_formula_text(rng, names)})"
                extra = (parse_conditional(q, kb.atoms),)
            m, verifying, falsifying = rule_partitions(kb, extra)
            kb = KnowledgeBase(kb.atoms, kb.conditionals + extra)
            mentioned = mentioned_atoms(kb)
            assert m == len(mentioned)
            ref_v, ref_f = partitions_ref(kb)
            for w in range(2**kb.m):
                atoms = true_atoms(kb, w)
                u = sum(
                    1 << (m - 1 - k) for k, i in enumerate(mentioned) if kb.atoms[i - 1].name in atoms
                )
                for i in range(kb.n):
                    assert ws_member(verifying[i], u) == (w in ref_v[i]), text
                    assert ws_member(falsifying[i], u) == (w in ref_f[i]), text
            for sets in (verifying, falsifying):
                assert all(ws < 1 << (1 << m) for ws in sets)


class TestRendering:
    def test_world_str(self, penguins):
        names = world_names(penguins.atoms, " ")
        assert names[PBFWK] == "p b f w k"
        assert names[P_B_NOTF_WK] == "p b -f w k"
        assert names[0] == "-p -b -f -w -k"

    def test_world_str_compact(self, penguins):
        names = world_names(penguins.atoms, "")
        assert names[PBFWK] == "pbfwk"
        assert names[0b10111] == "p-bfwk"


class TestBitHelpers:
    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_atom_worlds_against_brute_force(self, m):
        atoms = tuple(Atom(f"a{i}", i) for i in range(1, m + 1))
        for a in atoms:
            expected = 0
            for w in range(2**m):
                if (w >> (m - a.index)) & 1:
                    expected |= 1 << w
            assert formula_set(atoms, a.name) == expected
