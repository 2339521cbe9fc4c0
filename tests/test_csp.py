import hashlib
import itertools
import random
from collections import deque
from operator import le
from pathlib import Path
from time import perf_counter

import pytest

from crsolve import (
    InfeasibleError,
    SolutionOrdering,
    SolveTimeout,
    all_min_sum,
    build_problem,
    check_solution,
    enumerate_solutions,
    gen_synthetic,
    iter_solutions,
    ocf_min,
    parse_kb,
    pareto_min,
    render_kb,
    solve_min_sum,
)
from crsolve import csp
from crsolve.csp import _Box, _entailment, _propagate_box
from crsolve.worlds import rule_partitions, world_signatures

from tests.helpers import (
    BIRDS_TEXT,
    brute_solutions,
    check_ref,
    compile_ref,
    exception_first_kb_text,
    falsified_sum,
    many_rules_kb_text,
    minimal_sigs_ref,
    non_dominated_ref,
    ocf_min_ref,
    propagate_ref,
    random_formula_text,
    random_kb_text,
    with_unused_atoms,
    world_sigs_ref,
)

CONTRADICTORY_TEXT = "vars: a\nrule: (a | top)\nrule: (!a | top)\n"
DEGENERATE_TEXT = "vars: a\nrule: (a | bot)\n"
EMPTY_TEXT = "vars: a\n"
FREE3_TEXT = "vars: a, b, c\nrule: (top | a)\nrule: (top | b)\nrule: (top | c)\n"
# The random KB rand(4,5) of perfbench's box-filter workload: rule 1 holds
# only where k_1 > k_5, an exception written before the rule it overrides.
RAND45_TEXT = (
    "vars: y8, h4, k4, h0\n"
    "rule: (k4 | !h0, h4)\n"
    "rule: (!k4 | !y8)\n"
    "rule: (!h0 | y8)\n"
    "rule: (!y8 | !k4)\n"
    "rule: (!k4 | h4)\n"
)
GOLDEN = Path(__file__).resolve().parent / "golden"
# SHA-256 of repr(build_problem(gen_synthetic(17, 0))), recorded from the
# compile that filtered each rule's candidates from the sorted signatures.
KB17_SHA256 = "f30e2a2d64ed876e1466c5d325c51370d2b3d7a1349ca3a906cc168ce0dc150b"


@pytest.fixture(scope="module")
def birds_problem(birds):
    return build_problem(birds)


@pytest.fixture(scope="module")
def penguins_problem(penguins):
    return build_problem(penguins)


class TestBuildProblem:
    def test_birds_domains(self, birds_problem):
        assert (birds_problem.bound, birds_problem.n) == (3, 3)

    def test_penguins_domains(self, penguins_problem):
        assert (penguins_problem.bound, penguins_problem.n) == (5, 5)

    def test_empty_kb(self):
        p = build_problem(parse_kb(EMPTY_TEXT))
        assert (p.bound, p.n) == (0, 0)

    def test_bound_override(self, birds):
        p = build_problem(birds, bound=7)
        assert (p.bound, p.n) == (7, 3)
        with pytest.raises(ValueError):
            build_problem(birds, bound=-1)

    def test_degenerate_rules_detected(self):
        p = build_problem(parse_kb(DEGENERATE_TEXT))
        assert p.degenerate_rules == (1,)


class TestMinimalSignatures:
    def test_antichains_match_brute_force(self):
        rng = random.Random(31337)
        kbs = [parse_kb(random_kb_text(rng, 4, 6)) for _ in range(120)]
        kbs += [parse_kb(BIRDS_TEXT)] + [gen_synthetic(n, 0) for n in range(2, 9)]
        for kb in kbs:
            problem = build_problem(kb)
            ref_v, ref_f = minimal_sigs_ref(kb)
            for got, want in zip(problem.verifying_sigs + problem.falsifying_sigs, ref_v + ref_f):
                assert len(got) == len(set(got))
                assert set(got) == want, render_kb(kb)
                # An antichain: no member is contained in another.
                assert not any(a != b and set(a) <= set(b) for a in got for b in got)

    def test_antichains_past_64_key_bits(self):
        # 33 to 64 rules: a world's key, the rules it falsifies and those
        # it verifies, takes 66 to 128 bits.
        rng = random.Random(6464)
        for _ in range(30):
            kb = parse_kb(many_rules_kb_text(rng, rng.randint(1, 5), rng.randint(33, 64)))
            problem = build_problem(kb)
            ref_v, ref_f = minimal_sigs_ref(kb)
            assert [set(s) for s in problem.verifying_sigs] == ref_v, render_kb(kb)
            assert [set(s) for s in problem.falsifying_sigs] == ref_f, render_kb(kb)
            assert problem.world_sigs == world_sigs_ref(kb), render_kb(kb)

    def test_kb17_matches_recorded_compile(self):
        # kb(17,33) is the first chain whose key passes 64 bits, and its
        # 2**18 worlds are grouped in four chunks.  Its world signatures
        # must be those of the falsifying sets alone, 33 sets in one lane
        # of 8 bytes, and the whole problem the one that the compile with
        # a candidate filter per rule gave (SHA-256 of its repr).
        kb = gen_synthetic(17, 0)
        problem = build_problem(kb)
        m, _, falsifying = rule_partitions(kb)
        assert problem.world_sigs == tuple(sorted(set(world_signatures(falsifying, m))))
        assert hashlib.sha256(repr(problem).encode()).hexdigest() == KB17_SHA256


class TestFalsifiedSum:
    def test_world_verifying_everything(self, birds):
        # b f a verifies all three rules, so nothing contributes
        assert falsified_sum(birds, 2, 0b111, (1, 0, 1)) == 0
        assert falsified_sum(birds, 2, 0b111, (3, 3, 3)) == 0

    def test_world_falsifying_rule1_only(self, birds):
        # b !f a falsifies rule 1 only
        assert falsified_sum(birds, 2, 0b101, (1, 0, 1)) == 1

    def test_excludes_own_rule(self, penguins):
        # p b f w k falsifies only rule 3, which is excluded for i=3
        assert falsified_sum(penguins, 3, 0b11111, (1, 2, 2, 1, 1)) == 0

    def test_validation(self, birds):
        with pytest.raises(ValueError):
            falsified_sum(birds, 0, 0, (1, 0, 1))
        with pytest.raises(ValueError):
            falsified_sum(birds, 1, 8, (1, 0, 1))
        with pytest.raises(ValueError):
            falsified_sum(birds, 1, 0, (1, 0))


class TestCheckSolution:
    def test_birds_known_solution(self, birds_problem):
        assert check_solution(birds_problem, (1, 0, 1)) is True

    def test_birds_zero_vector(self, birds_problem):
        assert check_solution(birds_problem, (0, 0, 0)) is False

    def test_penguins_known_solution(self, penguins_problem):
        assert check_solution(penguins_problem, (1, 2, 2, 1, 1)) is True

    def test_negative_component(self, birds_problem):
        assert check_solution(birds_problem, (-1, 0, 1)) is False

    def test_degenerate_rule_never_satisfiable(self):
        p = build_problem(parse_kb(DEGENERATE_TEXT))
        assert not any(check_solution(p, (x,)) for x in range(5))

    def test_empty_kb(self):
        p = build_problem(parse_kb(EMPTY_TEXT))
        assert check_solution(p, ()) is True

    def test_length_mismatch(self, birds_problem):
        with pytest.raises(ValueError):
            check_solution(birds_problem, (1, 0))

    def test_agrees_with_reference_on_birds_box(self, birds, birds_problem):
        compiled = compile_ref(birds)
        for v in itertools.product(range(4), repeat=3):
            assert check_solution(birds_problem, v) == check_ref(birds, v, compiled)

    def test_agrees_with_reference_on_random_kbs(self):
        # Components run past the box on both sides, so evaluating anywhere
        # but at v itself (say, at the box corners) shows up.
        rng = random.Random(5021)
        for _ in range(150):
            kb = parse_kb(random_kb_text(rng, max_atoms=4, max_rules=5))
            p = build_problem(kb)
            compiled = compile_ref(kb)
            values = range(-1, p.bound + 4)
            if len(values) ** p.n <= 600:
                vectors = list(itertools.product(values, repeat=p.n))
            else:
                vectors = [tuple(rng.choice(values) for _ in range(p.n)) for _ in range(300)]
                # Solutions and their neighbours sit on the constraint boundary.
                for v in enumerate_solutions(p, limit=20).vectors:
                    vectors.append(v)
                    for i in range(p.n):
                        vectors.append(v[:i] + (v[i] - 1,) + v[i + 1 :])
            for v in vectors:
                assert check_solution(p, v) == check_ref(kb, v, compiled), (kb, v)
        # The chains kb(4,7) .. kb(8,15) have more rules.  Their sum-minimal
        # solutions sit on the boundary: one with a positive component
        # lowered by one would be a solution with a smaller sum, so it must
        # be invalid.
        for n in range(4, 9):
            kb = gen_synthetic(n)
            p = build_problem(kb)
            compiled = compile_ref(kb)
            for v in all_min_sum(p).vectors:
                assert check_solution(p, v) and check_ref(kb, v, compiled), (n, v)
                for i in range(p.n):
                    for d in (-1, 1) if v[i] > 0 else (1,):
                        u = v[:i] + (v[i] + d,) + v[i + 1 :]
                        valid = check_solution(p, u)
                        assert valid == check_ref(kb, u, compiled), (n, u)
                        assert d > 0 or not valid, (n, u)


def exception_first_texts(rng, count):
    """KB texts of penguins' exception (!y | x, z) before its default
    (y | x), over atoms a, b, c in a random role each, with up to two
    random rules between them: ``count`` of them, after those of
    ``exception_first_kb_text`` with 2, 3 and 4 rules."""
    names = ["a", "b", "c"]
    texts = [exception_first_kb_text(n) for n in (2, 3, 4)]
    for _ in range(count):
        x, y, z = rng.sample(names, 3)
        rules = [
            f"({random_formula_text(rng, names)} | {random_formula_text(rng, names)})"
            for _ in range(rng.choice((0, 1, 1, 2)))
        ]
        rules = [f"(!{y} | {x}, {z})", *rules, f"({y} | {x})"]
        texts.append("vars: a, b, c\n" + "".join(f"rule: {r}\n" for r in rules))
    return texts


def propagate_box(p, lo=None, hi=None, queue=None):
    """(feasible, lo, hi) after propagating the box, or the given bounds,
    from every rule queued or only from ``queue``."""
    box = _Box(p, [0] * p.n if lo is None else lo, [p.bound] * p.n if hi is None else hi)
    queue = range(p.n) if queue is None else queue
    return _propagate_box(box, queue), box.lo, box.hi


def nodes_of(monkeypatch, run):
    """The result of ``run()`` and its number of search nodes: the calls of
    the module's ``_propagate_box``, counted by a wrapper."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _propagate_box(*args)

    with monkeypatch.context() as patch:
        patch.setattr(csp, "_propagate_box", counting)
        result = run()
    return result, calls


def assert_sums_fresh(box, p, context):
    """Every stored sum of every rule's V-signatures equals the sum
    recomputed from lo, and every stored sum of its F-signatures the sum
    recomputed from hi."""
    stored = [box.sums[s] for ids in box.vsig_ids for s in ids]
    fresh = [sum(box.lo[j] for j in sig) for vs in p.verifying_sigs for sig in vs]
    assert stored == fresh, context
    stored = [box.fsums[t] for ids in box.fsig_ids for t in ids]
    fresh = [sum(box.hi[j] for j in sig) for fs in p.falsifying_sigs for sig in fs]
    assert stored == fresh, context


def search_checking_nodes(kb, p, compiled, rng, monkeypatch, ceiling=None):
    """Run the search with a random cut, or with a sum ceiling, so that it
    walks random labelling paths and backtracks through its one box, and
    check every node as it is propagated.  On entry a child must hold its
    parent's fixpoint with only the labelled variable moved, and a right
    branch of the node labelling k, which every return to that label
    enters, that node's fixpoint with only lo_k raised and hi_k = bound;
    after propagation the bounds must equal the reference fixpoint.  The
    first node entered after each solution must be a right branch.  Every
    stored sum must equal its sum recomputed from the bounds on entry,
    after propagation, and at every cut, which the search also asks on a
    right branch's raised copy before it enters it.

    With a ``ceiling``, the search gets a sum ceiling in place of the
    random cut.  It starts at ``ceiling`` and, after each solution, drops
    to the solution's sum or one less, as the sum solvers' ceilings do.
    A node must then be feasible exactly when the reference fixpoint
    exists and its sum is at most the ceiling; propagation stops early at
    the other nodes that have a fixpoint.  The sums are also checked each
    time the search asks the ceiling.  At every node the box's lo and sums
    must be the root's list objects, since the search writes each node's
    copy into them in place; once the search is done, hi must be the
    bound everywhere and the sums fresh.  Returns the depths of the
    feasible nodes, right branches included, the number of early stops
    and the number of right branches."""
    n = p.n
    fixpoints = []  # (lo, hi) of the feasible node at each depth on the path
    depths = []
    boxes = []
    lists = []  # (lo, sums) of the box at each node
    limit = ceiling
    stops = rights = 0
    returning = False  # a solution was yielded and no node entered since

    def checking(box, queue):
        nonlocal stops, rights, returning
        assert not returning or any(rules is queue for rules in box.raised_by), render_kb(kb)
        returning = False
        boxes.append(box)
        lists.append((box.lo, box.sums))
        # The root queues every rule, a child the rules that mention the
        # variable it labelled, a right branch the rules whose V-signatures
        # mention the variable whose lo it raised.  A right branch replaces
        # its node's fixpoint when it holds.
        if isinstance(queue, range):
            depth, want_lo, want_hi = 0, [0] * n, [p.bound] * n
        elif any(rules is queue for rules in box.touched_by):
            k = next(j for j, rules in enumerate(box.touched_by) if rules is queue)
            depth = k + 1
            want_lo, want_hi = (list(b) for b in fixpoints[k])
            assert want_lo[k] <= box.lo[k] == box.hi[k] <= want_hi[k], render_kb(kb)
            want_lo[k] = want_hi[k] = box.lo[k]
        else:
            k = next(j for j, rules in enumerate(box.raised_by) if rules is queue)
            depth = k
            rights += 1
            want_lo, want_hi = (list(b) for b in fixpoints[k])
            assert want_lo[k] < box.lo[k] <= box.hi[k] == want_hi[k] == p.bound, render_kb(kb)
            want_lo[k] = box.lo[k]
        assert (box.lo, box.hi) == (want_lo, want_hi), render_kb(kb)
        assert_sums_fresh(box, p, render_kb(kb))
        want = propagate_ref(kb, box.lo, box.hi, compiled)
        fits = want is not None and (limit is None or sum(want) <= limit)
        feasible = _propagate_box(box, queue)
        assert feasible == fits, (render_kb(kb), want_lo, want_hi, limit)
        stops += want is not None and not fits
        assert_sums_fresh(box, p, render_kb(kb))
        if feasible:
            assert (box.lo, box.hi) == (want, want_hi), (render_kb(kb), want_lo, want_hi)
            del fixpoints[depth:]
            fixpoints.append((box.lo.copy(), box.hi.copy()))
            depths.append(depth)
        return feasible

    def cut(lo):
        assert_sums_fresh(boxes[-1], p, render_kb(kb))
        # Past 60 feasible nodes every node is cut, so the search winds up.
        return len(depths) > 60 or (ceiling is None and rng.random() < 0.3)

    def current_ceiling():
        if boxes:
            assert_sums_fresh(boxes[-1], p, render_kb(kb))
        return limit

    with monkeypatch.context() as patch:
        patch.setattr(csp, "_propagate_box", checking)
        search = csp._search(p, cut, ceiling=None if ceiling is None else current_ceiling)
        for v in search:
            returning = True
            if ceiling is not None:
                assert sum(v) <= limit, render_kb(kb)
                limit = sum(v) - rng.randint(0, 1)
    assert all(box is boxes[0] for box in boxes)
    box = boxes[0]
    assert box.hi == [p.bound] * n, render_kb(kb)
    assert_sums_fresh(box, p, render_kb(kb))
    assert all(lo is lists[0][0] and sums is lists[0][1] for lo, sums in lists), render_kb(kb)
    return depths, stops, rights


class TestPropagate:
    def test_birds_fixpoint(self, birds_problem):
        assert propagate_box(birds_problem) == (True, [1, 0, 0], [3, 3, 3])

    def test_contradictory_defaults_infeasible(self):
        p = build_problem(parse_kb(CONTRADICTORY_TEXT))
        assert propagate_box(p)[0] is False
        assert brute_solutions(parse_kb(CONTRADICTORY_TEXT)) == []

    def test_empty_kb_feasible(self):
        p = build_problem(parse_kb(EMPTY_TEXT))
        assert propagate_box(p)[0] is True

    def test_idempotent(self, birds_problem, penguins_problem):
        for p in (birds_problem, penguins_problem):
            once = propagate_box(p)
            assert propagate_box(p, once[1], once[2]) == once

    def test_domains_only_shrink(self, birds_problem, penguins_problem):
        for p in (birds_problem, penguins_problem):
            _, lo, hi = propagate_box(p)
            assert all(x >= 0 for x in lo)
            assert all(x <= p.bound for x in hi)

    def test_least_fixpoint_matches_reference(self, monkeypatch):
        # Search-shaped boxes: a random prefix of the variables is fixed
        # (lo = hi), the rest spans [0, bound].  A propagator that stops
        # short of the fixpoint leaves some lower bound below the reference.
        rng = random.Random(4711)
        labels = random.Random(4712)
        kbs = [parse_kb(random_kb_text(rng, 4, 6)) for _ in range(150)]
        kbs += [gen_synthetic(n, j) for n in range(2, 9) for j in (0, 2) if j <= 2 * n - 2]
        walks = random.Random(4713)
        deep_nodes = rights = 0
        for kb in kbs:
            p = build_problem(kb)
            compiled = compile_ref(kb)
            touched_by = _Box(p, [0] * p.n, [p.bound] * p.n).touched_by
            # Carried state: labelling paths with backtracks through one box.
            depths, _, right = search_checking_nodes(kb, p, compiled, walks, monkeypatch)
            deep_nodes += sum(d >= 3 for d in depths)
            rights += right
            for _ in range(6 if kb.m <= 5 else 3):
                k = rng.randint(0, p.n)
                prefix = [rng.randint(0, p.bound) for _ in range(k)]
                lo = prefix + [0] * (p.n - k)
                hi = prefix + [p.bound] * (p.n - k)
                want = propagate_ref(kb, lo, hi, compiled)
                feasible, got, _ = propagate_box(p, lo, hi)
                assert feasible == (want is not None), (render_kb(kb), lo, hi)
                if not feasible:
                    continue
                assert got == want, (render_kb(kb), lo, hi)
                if k == p.n:
                    continue
                # A child node: label the next variable inside its
                # propagated range and queue only the rules that mention it,
                # as the search does.
                lo, hi = got.copy(), hi.copy()
                lo[k] = hi[k] = labels.randint(lo[k], hi[k])
                want = propagate_ref(kb, lo, hi, compiled)
                feasible, got, _ = propagate_box(p, lo, hi, touched_by[k])
                assert feasible == (want is not None), (render_kb(kb), lo, hi)
                if feasible:
                    assert got == want, (render_kb(kb), lo, hi)
        assert deep_nodes >= 100
        assert rights >= 40

    def test_ceiling_stops_match_reference(self, monkeypatch):
        # Searches with a sum ceiling, which propagation checks as it
        # raises lo.  A node stopped early leaves its raises of lo in the
        # box; writing a node's copy over them must give back the parent's
        # fixpoint and fresh sums, which the next node's entry and the
        # final box check.  The ceilings start around the minimal sum,
        # where the stops are.
        # Each KB is walked at two ceilings: right branches close the
        # later children of a node, which stopped early one by one before.
        rng = random.Random(4721)
        walks = random.Random(4722)
        kbs = [parse_kb(random_kb_text(rng, 4, 6)) for _ in range(100)]
        kbs += [gen_synthetic(n, j) for n in range(2, 8) for j in (0, 2) if j <= 2 * n - 2]
        stops = deep_nodes = rights = 0
        for kb in kbs:
            p = build_problem(kb)
            for _ in range(2):
                try:
                    ceiling = max(0, all_min_sum(p).minimal_sum + walks.randint(-1, 2))
                except InfeasibleError:
                    ceiling = walks.randint(0, p.n)
                depths, early, right = search_checking_nodes(
                    kb, p, compile_ref(kb), walks, monkeypatch, ceiling
                )
                stops += early
                rights += right
                deep_nodes += sum(d >= 3 for d in depths)
        assert stops >= 100
        assert deep_nodes >= 50
        assert rights >= 50


NODE_COUNTS = [
    (all_min_sum, 9, 110),
    (all_min_sum, 10, 170),
    (all_min_sum, 11, 259),
    (all_min_sum, 12, 397),
    (solve_min_sum, 6, 27),
    (solve_min_sum, 10, 155),
    (solve_min_sum, 12, 366),
    (pareto_min, 6, 518),
    (pareto_min, 7, 2055),
    (pareto_min, 9, 32777),
    (enumerate_solutions, 3, 19),
    (enumerate_solutions, 4, 71),
]


class TestNodeCounts:
    """One propagator call per search node, counted exactly: a search that
    prunes differently fails, and so does one that stops calling the
    module's ``_propagate_box`` at every node.  The ids name the solver
    and the KB only, so a change of count keeps the test's name."""

    @pytest.mark.parametrize(
        "solver, n, nodes",
        [pytest.param(*case, id=f"{case[0].__name__}-{case[1]}") for case in NODE_COUNTS],
    )
    def test_chain_nodes(self, solver, n, nodes, monkeypatch):
        p = build_problem(gen_synthetic(n))
        assert nodes_of(monkeypatch, lambda: solver(p))[1] == nodes

    def test_pareto_cut_seldom_repeats(self, monkeypatch):
        # The search asks the dominance cut on each node's fixpoint and on
        # each right branch's raised copy before it enters it.  Asking it
        # again on the lo it was just asked on, with nothing raised in
        # between, is wasted work.
        dominated = csp._dominated
        calls = repeats = 0
        last = None

        def counting(frontier, lo):
            nonlocal calls, repeats, last
            calls += 1
            repeats += lo == last
            last = lo.copy()
            return dominated(frontier, lo)

        monkeypatch.setattr(csp, "_dominated", counting)
        pareto_min(build_problem(gen_synthetic(9)))
        assert repeats < 100, (repeats, calls)


class TestEnumerate:
    def test_birds_prefix(self, birds_problem):
        assert enumerate_solutions(birds_problem, limit=5).vectors == (
            (1, 0, 1),
            (1, 0, 2),
            (1, 0, 3),
            (1, 1, 0),
            (1, 1, 1),
        )

    def test_penguins_prefix(self, penguins_problem):
        assert enumerate_solutions(penguins_problem, limit=6).vectors == (
            (1, 2, 2, 1, 1),
            (1, 2, 2, 1, 2),
            (1, 2, 2, 1, 3),
            (1, 2, 2, 1, 4),
            (1, 2, 2, 1, 5),
            (1, 2, 2, 2, 1),
        )

    def test_empty_kb_single_empty_vector(self):
        p = build_problem(parse_kb(EMPTY_TEXT))
        result = enumerate_solutions(p)
        assert result.vectors == ((),)
        assert result.ordering is SolutionOrdering.ALL

    def test_degenerate_rule_yields_nothing(self):
        p = build_problem(parse_kb(DEGENERATE_TEXT))
        assert enumerate_solutions(p).vectors == ()

    def test_limit_zero_is_empty(self, birds_problem):
        assert enumerate_solutions(birds_problem, limit=0).vectors == ()

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_limit_pulls_no_solution_past_it(self, birds_problem, monkeypatch, k):
        def search(p, cut=None, deadline=None):
            yield from ((i,) for i in range(k))
            raise AssertionError(f"solution {k + 1} pulled for limit {k}")

        monkeypatch.setattr(csp, "_search", search)
        assert enumerate_solutions(birds_problem, limit=k).vectors == tuple((i,) for i in range(k))

    def test_lexicographic_and_duplicate_free(self, birds_problem):
        vs = enumerate_solutions(birds_problem).vectors
        assert list(vs) == sorted(set(vs))

    def test_every_emitted_vector_checks(self, penguins_problem):
        vs = enumerate_solutions(penguins_problem).vectors
        assert all(check_solution(penguins_problem, v) for v in vs)

    def test_matches_brute_force(self, birds, birds_problem):
        assert list(enumerate_solutions(birds_problem).vectors) == brute_solutions(birds)

    def test_negative_limit_rejected(self, birds_problem):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            enumerate_solutions(birds_problem, limit=-1)


class TestEntailedBoxes:
    """Mode ``all`` yields each box whose every vector is a solution whole,
    in the order labelling would have met its vectors."""

    def test_matches_brute_force_on_random_kbs(self, monkeypatch):
        # The constraints do not depend on the bound, so the solutions at a
        # smaller bound are those at bound 2n with every component in it.
        expanded = nodes = 0

        def counting(box, queue):
            nonlocal nodes
            nodes += 1
            return _propagate_box(box, queue)

        monkeypatch.setattr(csp, "_propagate_box", counting)
        rng = random.Random(26)
        for _ in range(300):
            kb = parse_kb(random_kb_text(rng, max_atoms=4, max_rules=4))
            oracle = brute_solutions(kb, 2 * kb.n)
            for bound in (0, kb.n, 2 * kb.n):
                want = [v for v in oracle if max(v, default=0) <= bound]
                p = build_problem(kb, bound=bound)
                nodes = 0
                assert list(enumerate_solutions(p).vectors) == want, (render_kb(kb), bound)
                expanded += nodes < len(want)
                for limit in (1, 7):
                    got = enumerate_solutions(p, limit=limit).vectors
                    assert list(got) == want[:limit], (render_kb(kb), bound, limit)
                    assert list(iter_solutions(p, limit=limit)) == want[:limit]
        # 141 of the 900 searches take fewer nodes than they find solutions.
        assert expanded >= 100

    def test_exception_first_orders_match_brute_force(self, monkeypatch):
        # Penguins' exception (!y | x, z) before its default (y | x), with
        # up to two random rules between them: the exception holds only
        # below the default's variable, which is labelled after it, and
        # the caps end those searches early.
        capped = 0

        def counting(p, box):
            entailed = _entailment(p, box)

            def counted(d):
                nonlocal capped
                cap = entailed(d)
                capped += cap is not None and cap != box.hi
                return cap

            return counted

        monkeypatch.setattr(csp, "_entailment", counting)
        searches = 0
        for text in exception_first_texts(random.Random(31), 300):
            kb = parse_kb(text)
            oracle = brute_solutions(kb, 2 * kb.n)
            for bound in (0, kb.n, 2 * kb.n):
                want = [v for v in oracle if max(v, default=0) <= bound]
                p = build_problem(kb, bound=bound)
                before = capped
                assert list(enumerate_solutions(p).vectors) == want, (text, bound)
                searches += capped > before
                for limit in (1, 7):
                    got = enumerate_solutions(p, limit=limit).vectors
                    assert list(got) == want[:limit], (text, bound, limit)
                    assert list(iter_solutions(p, limit=limit)) == want[:limit]
        # 426 of the 909 searches yield a box that a cap shortened.
        assert searches >= 300, searches

    def test_caps_bound_every_tested_box(self, monkeypatch):
        # The one test of [lo, cap] decides a node on these facts: lo <=
        # cap <= hi, the labelled variables are capped at their label, and
        # cap = hi wherever [lo, hi] entails the rules tested at the node's
        # depth.  The caps are read from the list that the test of [lo,
        # cap] is built on, whether or not the node's box is entailed.
        entails = csp._entails
        caps = []
        nodes = fell = 0

        def capturing(p, lo, cap):
            caps.append(cap)
            return entails(p, lo, cap)

        def checking(p, box):
            entailed = _entailment(p, box)
            vs, fs = p.verifying_sigs, p.falsifying_sigs

            def checked(d):
                nonlocal nodes, fell
                got = entailed(d)
                lo, hi, cap = box.lo, box.hi, caps[-1]
                assert got is None or got is cap
                assert all(map(le, lo, cap)) and all(map(le, cap, hi)), (render_kb(kb), lo, cap, hi)
                assert cap[:d] == lo[:d] == hi[:d], (render_kb(kb), d, lo, cap, hi)
                tested = [i for i in range(p.n) if fs[i] and any(j >= d for sig in vs[i] + fs[i] for j in sig)]
                if entails(p, lo, hi)(tested):
                    assert cap == hi, (render_kb(kb), d, lo, cap, hi)
                nodes += 1
                fell += cap != hi
                return got

            return checked

        monkeypatch.setattr(csp, "_entails", capturing)
        monkeypatch.setattr(csp, "_entailment", checking)
        rng = random.Random(32)
        texts = [random_kb_text(rng, 4, 6) for _ in range(300)] + exception_first_texts(rng, 100)
        for text in texts:
            kb = parse_kb(text)
            for bound in (kb.n, 2 * kb.n):
                deque(iter_solutions(build_problem(kb, bound=bound)), 0)
        # A cap falls below hi at 31,885 of the 45,613 nodes tested.
        assert fell >= 20000, (fell, nodes)

    @pytest.mark.parametrize(
        "text, nodes, solutions",
        [
            pytest.param(RAND45_TEXT, 7, 1250, id="rand45"),
            pytest.param(exception_first_kb_text(7), 11, 352947, id="exc7"),
        ],
    )
    def test_exception_first_nodes(self, text, nodes, solutions, monkeypatch):
        # Labelled down to every leaf, these take 3,050 and 727,503 nodes.
        p = build_problem(parse_kb(text))
        assert nodes_of(monkeypatch, lambda: sum(1 for _ in iter_solutions(p))) == (solutions, nodes)

    @pytest.mark.parametrize("name", ["norules", "free2", "unsat"])
    def test_edge_kbs_match_brute_force(self, name):
        kb = parse_kb((GOLDEN / f"{name}.kb").read_text(encoding="utf-8"))
        for bound in (0, 1, kb.n, 2 * kb.n + 1):
            assert list(enumerate_solutions(build_problem(kb, bound=bound)).vectors) == brute_solutions(
                kb, bound
            )

    def test_free_rules_are_one_node(self, monkeypatch):
        # No world falsifies these rules: the root box is entailed.
        p = build_problem(parse_kb(FREE3_TEXT), bound=4)
        vectors = tuple(itertools.product(range(5), repeat=3))
        assert nodes_of(monkeypatch, lambda: enumerate_solutions(p).vectors) == (vectors, 1)

    def test_deadline_tested_every_1024_vectors(self, monkeypatch):
        # Clock read k returns k.  The root's entry reads 1 and each 1,024
        # vectors of its box read once more, so a deadline of 2 lets the
        # first 2,048 of the 4,096 vectors through.
        p = build_problem(parse_kb(FREE3_TEXT), bound=15)
        ticks = itertools.count(1)
        monkeypatch.setattr(csp, "perf_counter", lambda: next(ticks))
        got = []
        with pytest.raises(SolveTimeout):
            for v in iter_solutions(p, deadline=2):
                got.append(v)
        assert got == list(itertools.product(range(16), repeat=3))[:2048]

    def test_short_deadline_stops_kb6(self):
        # kb(6,11) has 8,139,125 solutions, streamed without holding them.
        p = build_problem(gen_synthetic(6))
        start = perf_counter()
        with pytest.raises(SolveTimeout):
            deque(iter_solutions(p, deadline=start + 0.05), 0)
        assert perf_counter() - start < 0.5

    def test_sum_and_frontier_solvers_skip_the_test(self, monkeypatch):
        # Under a ceiling or a cut, the search builds no entailment test.
        monkeypatch.setattr(csp, "_entailment", None)
        p = build_problem(gen_synthetic(4))
        assert all_min_sum(p).vectors
        assert solve_min_sum(p)
        assert pareto_min(p).vectors
        assert ocf_min(p).vectors


class TestSolveMinSum:
    def test_birds(self, birds_problem):
        assert solve_min_sum(birds_problem) == (2, (1, 0, 1))

    def test_penguins(self, penguins_problem):
        assert solve_min_sum(penguins_problem) == (7, (1, 2, 2, 1, 1))

    def test_empty_kb(self):
        p = build_problem(parse_kb(EMPTY_TEXT))
        assert solve_min_sum(p) == (0, ())

    def test_infeasible_raises(self):
        p = build_problem(parse_kb(CONTRADICTORY_TEXT))
        with pytest.raises(InfeasibleError):
            solve_min_sum(p)

    def test_degenerate_rule_reported(self):
        p = build_problem(parse_kb(DEGENERATE_TEXT))
        with pytest.raises(InfeasibleError) as err:
            solve_min_sum(p)
        assert err.value.degenerate_rules == (1,)
        assert "degenerate" in str(err.value)


class TestAllMinSum:
    def test_birds_two_minima(self, birds_problem):
        result = all_min_sum(birds_problem)
        assert result.vectors == ((1, 0, 1), (1, 1, 0))
        assert result.minimal_sum == 2
        assert result.ordering is SolutionOrdering.SUM

    def test_penguins_unique_minimum(self, penguins_problem):
        result = all_min_sum(penguins_problem)
        assert result.vectors == ((1, 2, 2, 1, 1),)
        assert result.minimal_sum == 7

    def test_empty_kb(self):
        p = build_problem(parse_kb(EMPTY_TEXT))
        assert all_min_sum(p).vectors == ((),)

    def test_equals_oracle_filter(self, birds, birds_problem):
        oracle = brute_solutions(birds)
        best = min(sum(v) for v in oracle)
        assert list(all_min_sum(birds_problem).vectors) == [v for v in oracle if sum(v) == best]


class TestParetoMin:
    def test_birds(self, birds_problem, birds):
        result = pareto_min(birds_problem)
        assert result.vectors == ((1, 0, 1), (1, 1, 0))
        assert list(result.vectors) == non_dominated_ref(brute_solutions(birds))

    def test_single_rule(self):
        p = build_problem(parse_kb("vars: b, f\nrule: (f | b)"))
        assert pareto_min(p).vectors == ((1,),)

    def test_penguins(self, penguins, penguins_problem):
        result = pareto_min(penguins_problem)
        assert result.vectors == ((1, 2, 2, 1, 1),)
        assert list(result.vectors) == non_dominated_ref(brute_solutions(penguins))

    def test_contains_all_sum_minima(self, birds_problem, penguins_problem):
        for p in (birds_problem, penguins_problem):
            assert set(all_min_sum(p).vectors) <= set(pareto_min(p).vectors)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            pareto_min(build_problem(parse_kb(CONTRADICTORY_TEXT)))
        with pytest.raises(InfeasibleError):
            pareto_min(build_problem(parse_kb(CONTRADICTORY_TEXT)), limit=0)

    def test_limit_stops_the_search(self):
        # The only frontier vector of kb(10,19) comes first; proving that
        # no other exists takes far longer than the deadline.
        p = build_problem(gen_synthetic(10))
        result = pareto_min(p, limit=1, deadline=perf_counter() + 5)
        assert result.vectors == (solve_min_sum(p)[1],)

    def test_limit_gives_a_prefix(self):
        # Repeated rules trade impact between their copies, which widens
        # the frontier.
        rng = random.Random(20261020)
        longer = 0
        for _ in range(80):
            text = random_kb_text(rng, 4, 3)
            rules = [line + "\n" for line in text.splitlines() if line.startswith("rule")]
            text += "".join(rng.choices(rules, k=rng.randint(1, 3))) if rules else ""
            problem = build_problem(parse_kb(text))
            try:
                full = pareto_min(problem).vectors
            except InfeasibleError:
                continue
            for k in (0, 1, 2, 3, len(full)):
                assert pareto_min(problem, limit=k).vectors == full[:k], text
            longer += len(full) > 2
        assert longer >= 5

    def test_negative_limit_rejected(self, birds_problem):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            pareto_min(birds_problem, limit=-1)


class TestOcfMin:
    def test_birds_dominated_minimum_excluded(self, birds_problem):
        # (1,0,1) induces ranks pointwise below those of (1,1,0), so only
        # the former survives; both are sum- and componentwise-minimal.
        result = ocf_min(birds_problem)
        assert result.vectors == ((1, 0, 1),)
        assert result.ordering is SolutionOrdering.INDUCED_OCF

    def test_empty_kb(self):
        p = build_problem(parse_kb(EMPTY_TEXT))
        assert ocf_min(p).vectors == ((),)

    def test_penguins_contains_global_minimum(self, penguins_problem):
        assert (1, 2, 2, 1, 1) in ocf_min(penguins_problem).vectors

    def test_identical_rankings_all_retained(self):
        # A duplicated rule makes (0,1) and (1,0) distinct solutions with
        # the same induced ranking; neither dominates, both stay.
        kb = parse_kb("vars: b, f\nrule: (f | b)\nrule: (f | b)")
        result = ocf_min(build_problem(kb))
        assert result.vectors == ((0, 1), (1, 0))

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            ocf_min(build_problem(parse_kb(CONTRADICTORY_TEXT)))

    def test_limit_stops_the_expansion(self):
        # No world falsifies these rules, so every component is free and
        # the whole result would be all 9**8 vectors of the box.
        text = "vars: " + ", ".join(f"x{i}" for i in range(8)) + "\n"
        text += "".join(f"rule: (top | x{i})\n" for i in range(8))
        result = ocf_min(build_problem(parse_kb(text)), limit=3, deadline=perf_counter() + 5)
        assert result.vectors == ((0,) * 8, (0,) * 7 + (1,), (0,) * 7 + (2,))

    def test_limit_gives_a_prefix(self):
        # Every other KB gets a rule that no world falsifies, whose
        # component the expansion ranges over the box.
        rng = random.Random(20261019)
        longer = 0
        for index in range(80):
            text = random_kb_text(rng, 4, 4) + ("rule: (a | a)\n" if index % 2 else "")
            problem = build_problem(parse_kb(text))
            try:
                full = ocf_min(problem).vectors
            except InfeasibleError:
                continue
            for k in (0, 1, 2, 3, len(full)):
                assert ocf_min(problem, limit=k).vectors == full[:k], text
            longer += len(full) > 3
        assert longer >= 10

    def test_negative_limit_rejected(self, birds_problem):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            ocf_min(birds_problem, limit=-1)


class TestOracleEquivalence:
    def test_random_small_kbs(self, monkeypatch):
        # Each KB also at a small bound, where more children fail.  Few
        # children of these random KBs fail at all; those of kb(3,5) and
        # kb(4,6) at bound 3 do, and there right branches close nodes.
        closed = 0

        def counting(box, queue):
            nonlocal closed
            feasible = _propagate_box(box, queue)
            closed += not feasible and any(rules is queue for rules in box.raised_by)
            return feasible

        monkeypatch.setattr(csp, "_propagate_box", counting)
        rng = random.Random(20250809)
        inputs = []
        for _ in range(40):
            kb = parse_kb(random_kb_text(rng))
            inputs += [(kb, None), (kb, 1)]
        inputs += [(gen_synthetic(3), 3), (gen_synthetic(4, 1), 3)]
        for kb, bound in inputs:
            problem = build_problem(kb, bound=bound)
            oracle = brute_solutions(kb, bound)
            assert list(enumerate_solutions(problem).vectors) == oracle
            if oracle:
                best = min(sum(v) for v in oracle)
                minima = [v for v in oracle if sum(v) == best]
                assert list(all_min_sum(problem).vectors) == minima
                assert solve_min_sum(problem) == (best, minima[0])
                assert list(pareto_min(problem).vectors) == non_dominated_ref(oracle)
                assert list(ocf_min(problem).vectors) == ocf_min_ref(kb, bound)
            else:
                for solver in (solve_min_sum, all_min_sum, pareto_min, ocf_min):
                    with pytest.raises(InfeasibleError):
                        solver(problem)
        assert closed >= 5

    def test_determinism(self, penguins):
        first = enumerate_solutions(build_problem(penguins), limit=20).vectors
        second = enumerate_solutions(build_problem(penguins), limit=20).vectors
        assert first == second


class TestUnusedAtoms:
    """Compilation over only the atoms the rules mention: atoms that no
    rule uses change no signature and no answer."""

    EDGE_TEXTS = [
        "vars: a, b\nrule: (a | top)\n",
        "vars: a, b\nrule: (bot | a)\n",
        "vars: a, b\nrule: (top | top)\n",
        "vars: a, b\nrule: (top | top)\nrule: (a | top)\nrule: (bot | a)\n",
        "vars: a, b\n",
    ]

    @staticmethod
    def answers(p):
        """The answer of every search mode, or the error it raises."""
        out = [enumerate_solutions(p).vectors]
        for solve in (solve_min_sum, all_min_sum, pareto_min, ocf_min):
            try:
                result = solve(p)
            except InfeasibleError as err:
                result = str(err)
            out.append(result)
        return out

    def test_matches_the_kb_without_them_and_the_oracle(self):
        rng = random.Random(20261021)
        texts = self.EDGE_TEXTS + [random_kb_text(rng, 4, 4) for _ in range(40)]
        feasible = 0
        for text in texts:
            padded = with_unused_atoms(text, rng, rng.randint(1, 6))
            kb = parse_kb(padded)
            p, q = build_problem(kb), build_problem(parse_kb(text))
            assert p == q, padded
            # The oracles read every world over all the declared atoms.
            ref_v, ref_f = minimal_sigs_ref(kb)
            assert [set(s) for s in p.verifying_sigs] == ref_v, padded
            assert [set(s) for s in p.falsifying_sigs] == ref_f, padded
            assert p.world_sigs == world_sigs_ref(kb)
            assert self.answers(p) == self.answers(q), padded
            oracle = brute_solutions(kb)
            assert list(enumerate_solutions(p).vectors) == oracle, padded
            if oracle:
                feasible += 1
                best = min(map(sum, oracle))
                minima = [v for v in oracle if sum(v) == best]
                assert solve_min_sum(p) == (best, minima[0])
                assert list(all_min_sum(p).vectors) == minima
                assert list(pareto_min(p).vectors) == non_dominated_ref(oracle)
                assert list(ocf_min(p).vectors) == ocf_min_ref(kb)
            compiled = compile_ref(kb)
            for _ in range(12):
                v = tuple(rng.randint(-1, p.bound + 1) for _ in range(p.n))
                want = check_ref(kb, v, compiled)
                assert check_solution(p, v) == check_solution(q, v) == want, (padded, v)
        assert feasible >= 15

    def test_twenty_declared_atoms(self):
        # Eight rules over six of twenty atoms compile over 2**6 worlds.
        rules = [
            "x5 ; x7 | x2 ; x11 ; x13", "!x5 ; x17 | x7 ; x13 ; x2",
            "x2 ; x17 | x7 ; x11 ; x5", "x11 ; x13 | x7 ; x5 ; x17",
            "!x11 ; x2 | x13 ; x17 ; x7", "x7 ; x5 | x13 ; x17 ; x11",
            "x17 ; !x5 | x13 ; x11 ; x2", "!x2 ; x13 | x17 ; x5 ; x11",
        ]
        body = "".join(f"rule: ({r})\n" for r in rules)
        wide = parse_kb("vars: " + ", ".join(f"x{i}" for i in range(20)) + "\n" + body)
        narrow = parse_kb("vars: x2, x5, x7, x11, x13, x17\n" + body)
        p = build_problem(wide, deadline=perf_counter() + 0.05)
        assert p == build_problem(narrow)
        assert all_min_sum(p).vectors == ((1, 0, 1, 1, 1, 0, 1, 1), (1, 1, 1, 1, 1, 0, 0, 1))


class TestDefaultBox:
    def test_minimal_solutions_fit_the_default_box(self):
        # The default bound n never cuts off a sum- or Pareto-minimal
        # solution: widening the box to 2n + 3 finds the same ones.
        rng = random.Random(20261018)
        feasible = 0
        for _ in range(400):
            kb = parse_kb(random_kb_text(rng, 4, 5))
            default = build_problem(kb)
            wide = build_problem(kb, bound=2 * kb.n + 3)
            for solver in (all_min_sum, pareto_min):
                try:
                    narrow_result = solver(default)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        solver(wide)
                    continue
                wide_result = solver(wide)
                assert narrow_result.vectors == wide_result.vectors, render_kb(kb)
                assert narrow_result.minimal_sum == wide_result.minimal_sum
                feasible += solver is pareto_min
        assert feasible >= 100


class TestDeadline:
    @pytest.mark.parametrize(
        "solver", [enumerate_solutions, solve_min_sum, all_min_sum, pareto_min, ocf_min]
    )
    def test_expired_deadline_times_out(self, solver, penguins_problem):
        with pytest.raises(SolveTimeout):
            solver(penguins_problem, deadline=perf_counter() - 1.0)

    def test_expired_deadline_stops_compilation(self, birds):
        with pytest.raises(SolveTimeout):
            build_problem(birds, deadline=perf_counter() - 1.0)

    def test_deadline_stops_last_peel(self, birds, monkeypatch):
        # Clock read k returns k.  An unbounded compile makes some number
        # of reads; with the deadline one below it, only the last read
        # passes it.  Compilation peels the F-side of the last rule last,
        # and that side is not empty, so the last read is the test before
        # its last peel step, after every pass and every other rule.
        ticks = itertools.count(1)
        monkeypatch.setattr(csp, "perf_counter", lambda: next(ticks))
        p = build_problem(birds, deadline=float("inf"))
        reads = next(ticks) - 1
        # One read before each peel step, which keeps one signature.
        assert reads > sum(map(len, p.verifying_sigs + p.falsifying_sigs))
        assert p.falsifying_sigs[-1]
        ticks = itertools.count(1)
        assert build_problem(birds, deadline=reads) == p
        ticks = itertools.count(1)
        with pytest.raises(SolveTimeout):
            build_problem(birds, deadline=reads - 1)

    def test_deadline_stops_free_rule_expansion(self, monkeypatch):
        # No world falsifies these rules, so ocf_min expands each frontier
        # vector over the whole box after the search.  Clock read k returns
        # k, and the deadline is the number of reads the frontier search
        # makes: only a read during the expansion can pass it.
        problem = build_problem(parse_kb("vars: a, b, c\nrule: (top | a)\nrule: (top | b)\nrule: (top | c)\n"))
        ticks = itertools.count(1)
        monkeypatch.setattr(csp, "perf_counter", lambda: next(ticks))
        pareto_min(problem, deadline=float("inf"))
        searched = next(ticks) - 1
        ticks = itertools.count(1)
        assert pareto_min(problem, deadline=searched).vectors == ((0, 0, 0),)
        ticks = itertools.count(1)
        with pytest.raises(SolveTimeout):
            ocf_min(problem, deadline=searched)


class TestFrontierOracle:
    # Extra rules appended to random KBs: a rule no world falsifies (its
    # component is free in the box) and a degenerate one (nothing verifies
    # it, so the box is empty).
    EXTRAS = ("", "rule: (a | a)\n", "rule: (a | a)\nrule: (a ; !a | top)\n", "rule: (a | bot)\n")

    def test_pareto_and_ocf_match_brute_force(self):
        # Random KBs seldom hold a Pareto-minimal vector whose ranking is
        # dominated, so the birds KB, which does, is checked too: alone and
        # with a free rule.
        rng = random.Random(4099)
        texts = [random_kb_text(rng, max_atoms=3, max_rules=2) for _ in range(48)]
        texts += [BIRDS_TEXT] * 2
        free_nonempty = 0
        for index, text in enumerate(texts):
            text += self.EXTRAS[index % 4]
            kb = parse_kb(text)
            for bound in (max(kb.n - 1, 0), kb.n + 1):
                problem = build_problem(kb, bound=bound)
                oracle = brute_solutions(kb, bound)
                if not oracle:
                    for solver in (solve_min_sum, all_min_sum, pareto_min, ocf_min):
                        with pytest.raises(InfeasibleError):
                            solver(problem)
                    continue
                best = min(sum(v) for v in oracle)
                minima = [v for v in oracle if sum(v) == best]
                assert list(all_min_sum(problem).vectors) == minima, text
                assert solve_min_sum(problem) == (best, minima[0]), text
                assert list(pareto_min(problem).vectors) == non_dominated_ref(oracle), text
                assert list(ocf_min(problem).vectors) == ocf_min_ref(kb, bound), text
                if index % 4 in (1, 2):
                    free_nonempty += 1
        assert free_nonempty >= 10
