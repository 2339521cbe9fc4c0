"""Metamorphic relations: two runs of the solver whose answers must agree.

The brute-force oracles in ``tests.helpers`` enumerate the whole box, so
they stop at a few rules; a relation between two runs holds for any KB the
solver finishes.  Every generator is seeded.
"""

import random
import re

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
    render_kb,
    render_table,
    solve_min_sum,
)
from crsolve.cli import main

from tests.helpers import BIRDS_TEXT, random_formula_text, random_kb_text, with_unused_atoms

SOLVERS = {"all": enumerate_solutions, "min-all": all_min_sum, "pareto": pareto_min, "ocf-min": ocf_min}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def outcome(solve, kb, bound=None):
    """solve(build_problem(kb, bound)), or None where it finds no solution."""
    try:
        return solve(build_problem(kb, bound))
    except InfeasibleError:
        return None


def answers(kb, bound=None):
    """Each set-valued solver's vectors on kb, None where it finds no
    solution."""
    out = {}
    for name, solve in SOLVERS.items():
        result = outcome(solve, kb, bound)
        out[name] = None if result is None else list(result.vectors)
    return out


def renamed(text, mapping):
    """Text with every identifier that ``mapping`` holds replaced."""
    return IDENTIFIER.sub(lambda m: mapping.get(m[0], m[0]), text)


def disjoint_union(left, right):
    """KB text of two KBs with their atoms renamed apart (suffixes _l and
    _r): the vars of both, then the left rules and the right rules."""
    heads, bodies = [], []
    for text, suffix in ((left, "_l"), (right, "_r")):
        kb = parse_kb(text)
        head, body = renamed(render_kb(kb), {a: a + suffix for a in kb.atom_names()}).split("\n", 1)
        heads.append(head[len("vars: ") :])
        bodies.append(body)
    return "vars: " + ", ".join(heads) + "\n" + "".join(bodies)


def table_ranks(kb, v, back):
    """The rows of ``render_table`` as a map from each world's set of true
    atoms, named back through ``back``, to its rank."""
    ranks = {}
    for row in render_table(induced_ocf(kb, v)).splitlines():
        *literals, rank = row.split()
        ranks[frozenset(back[x] for x in literals if not x.startswith("-"))] = int(rank)
    assert len(ranks) == 2**kb.m
    return ranks


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


class TestAtomRenaming:
    NAMES = ["p", "qq", "rrr", "ssss", "t_5", "Uvwxy"]

    def test_answers_and_tables_unchanged(self):
        # Renaming the atoms to names of unequal length and permuting
        # vars: changes no solve answer, since vectors are indexed by rule,
        # no acceptance rank, and no world's rank in the show-ocf table.
        rng = random.Random(20261104)
        for _ in range(200):
            text = random_kb_text(rng, 4, 5)
            kb = parse_kb(text)
            names = list(kb.atom_names())
            mapping = dict(zip(names, rng.sample(self.NAMES, len(names))))
            vars_line = "vars: " + ", ".join(mapping[names[i]] for i in random_order(rng, len(names)))
            new = parse_kb(vars_line + "\n" + renamed(text.split("\n", 1)[1], mapping))
            assert answers(new) == answers(kb), (text, mapping)
            assert outcome(solve_min_sum, new) == outcome(solve_min_sum, kb), (text, mapping)
            v = tuple(rng.randint(0, 6) for _ in range(kb.n))
            for _ in range(3):
                q = f"({random_formula_text(rng, names)} | {random_formula_text(rng, names)})"
                got = acceptance_ranks(induced_ocf(new, v), parse_conditional(renamed(q, mapping), new.atoms))
                assert got == acceptance_ranks(induced_ocf(kb, v), parse_conditional(q, kb.atoms)), (text, q)
            back = {b: a for a, b in mapping.items()}
            assert table_ranks(new, v, back) == table_ranks(kb, v, dict(zip(names, names))), (text, mapping)


class TestDisjointUnion:
    # One explicit bound for the parts and the union: the default bound n
    # differs between them, so mode all would compare different boxes.
    BOUND = 3

    def test_answer_sets_are_products(self):
        # CR(R1 + R2) is the product of CR(R1) and CR(R2).  The minimal
        # sets are products too, ocf-min's as well: solution rankings reach
        # 0, so a union ranking dominates another exactly when each part's
        # ranking does.
        rng = random.Random(20261105)
        compared = 0
        for _ in range(300):
            left, right = random_kb_text(rng, 3, 4), random_kb_text(rng, 3, 4)
            union = parse_kb(disjoint_union(left, right))
            parts = [parse_kb(left), parse_kb(right)]
            got = answers(union, self.BOUND)
            for mode, (a, b) in zip(got, zip(*(answers(kb, self.BOUND).values() for kb in parts))):
                want = None if a is None or b is None else sorted(u + w for u in a for w in b)
                assert got[mode] == want, (left, right, mode)
                compared += bool(want)
            sums = [outcome(solve_min_sum, kb, self.BOUND) for kb in parts]
            want = None if None in sums else (sums[0][0] + sums[1][0], sums[0][1] + sums[1][1])
            assert outcome(solve_min_sum, union, self.BOUND) == want, (left, right)
        assert compared >= 250

    def test_birds_with_birds(self):
        result = all_min_sum(build_problem(parse_kb(disjoint_union(BIRDS_TEXT, BIRDS_TEXT))))
        assert result.minimal_sum == 4
        assert result.vectors == ((1, 0, 1, 1, 0, 1), (1, 0, 1, 1, 1, 0), (1, 1, 0, 1, 0, 1), (1, 1, 0, 1, 1, 0))
