"""Metamorphic relations: two runs of the solver whose answers must agree.

The brute-force oracles in ``tests.helpers`` enumerate the whole box, so
they stop at a few rules; a relation between two runs holds for any KB the
solver finishes.  Every generator is seeded.
"""

import random

import pytest

from crsolve import (
    InfeasibleError,
    acceptance_ranks,
    all_min_sum,
    build_problem,
    enumerate_solutions,
    induced_ocf,
    ocf_min,
    parse_conditional,
    parse_kb,
    pareto_min,
    solve_min_sum,
)
from crsolve.cli import main

from tests.helpers import BIRDS_TEXT, random_formula_text, random_kb_text, with_unused_atoms

SOLVERS = {"all": enumerate_solutions, "min-all": all_min_sum, "pareto": pareto_min, "ocf-min": ocf_min}


def outcome(solve, kb):
    """solve(build_problem(kb)), or None where it finds no solution."""
    try:
        return solve(build_problem(kb))
    except InfeasibleError:
        return None


def answers(kb):
    """Each set-valued solver's vectors on kb, None where it finds no
    solution."""
    out = {}
    for name, solve in SOLVERS.items():
        result = outcome(solve, kb)
        out[name] = None if result is None else list(result.vectors)
    return out


def permuted(text, order):
    """KB text with its rule lines in the given order of their indices."""
    head, *rules = text.splitlines()
    return "\n".join([head] + [rules[i] for i in order]) + "\n"


def random_order(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def query_min(path, conditional, capsys):
    code = main(["query", "--min", conditional, str(path)])
    return code, capsys.readouterr().out


class TestRulePermutation:
    def test_answer_sets_map_back(self):
        # Vector u over the permuted rules gives rule order[k] the value
        # u[k]; read back in the original rule order, every answer set of
        # the four set-valued modes is the original one.
        rng = random.Random(20261101)
        compared = 0
        for _ in range(300):
            text = random_kb_text(rng, 4, 6)
            kb = parse_kb(text)
            order = random_order(rng, kb.n)
            want = answers(kb)
            for mode, vectors in answers(parse_kb(permuted(text, order))).items():
                if vectors is not None:
                    vectors = sorted(tuple(u[order.index(i)] for i in range(kb.n)) for u in vectors)
                    compared += 1
                assert vectors == want[mode], (text, order, mode)
        assert compared >= 600

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_birds_query_min_in_either_rule_order(self, order, tmp_path, capsys):
        # The two sum-minimal vectors (1,0,1) and (1,1,0) disagree on the
        # query, so the verdict names the split and the falsifying rank is
        # a range, whatever the rule order.
        path = tmp_path / "birds.kb"
        path.write_text(permuted(BIRDS_TEXT.split("\n", 1)[1], order))
        assert query_min(path, "(a | b, !f)", capsys) == (
            0,
            "UNDECIDED: accepted by 1 of 2 sum-minimal solutions\nverifying rank: 1\nfalsifying rank: 1..2\n",
        )

    def test_query_min_stdout_is_invariant(self, tmp_path, capsys):
        rng = random.Random(20261102)
        verdicts = set()
        for k in range(120):
            text = random_kb_text(rng, 4, 5)
            kb = parse_kb(text)
            names = list(kb.atom_names())
            queries = [f"({random_formula_text(rng, names)} | {random_formula_text(rng, names)})" for _ in range(2)]
            original = tmp_path / f"kb{k}.kb"
            original.write_text(text)
            shuffled = tmp_path / f"kb{k}-permuted.kb"
            shuffled.write_text(permuted(text, random_order(rng, kb.n)))
            for q in queries:
                code, out = query_min(original, q, capsys)
                assert query_min(shuffled, q, capsys) == (code, out), (text, q)
                verdicts.add(out.partition("\n")[0].partition(":")[0])
        assert {"ACCEPTED", "REJECTED"} <= verdicts


class TestUnusedAtoms:
    def test_answers_unchanged(self):
        # Declared atoms that no formula mentions, inserted anywhere in
        # vars:, change no solve answer and no acceptance rank.
        rng = random.Random(20261103)
        for _ in range(200):
            text = random_kb_text(rng, 4, 4)
            kb = parse_kb(text)
            wide = parse_kb(with_unused_atoms(text, rng, rng.randint(1, 4)))
            assert answers(wide) == answers(kb), text
            assert outcome(solve_min_sum, wide) == outcome(solve_min_sum, kb), text
            names = list(kb.atom_names())
            v = tuple(rng.randint(0, 6) for _ in range(kb.n))
            for _ in range(3):
                q = f"({random_formula_text(rng, names)} | {random_formula_text(rng, names)})"
                got = acceptance_ranks(induced_ocf(wide, v), parse_conditional(q, wide.atoms))
                assert got == acceptance_ranks(induced_ocf(kb, v), parse_conditional(q, kb.atoms)), (text, q)
