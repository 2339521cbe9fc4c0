import itertools
import random
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
    ocf_min,
    parse_kb,
    pareto_min,
    render_kb,
    solve_min_sum,
)
from crsolve import csp
from crsolve.csp import _Box, _propagate_box

from tests.helpers import (
    BIRDS_TEXT,
    brute_solutions,
    check_ref,
    compile_ref,
    falsified_sum,
    minimal_sigs_ref,
    non_dominated_ref,
    ocf_min_ref,
    partitions_ref,
    propagate_ref,
    random_kb_text,
    with_unused_atoms,
)

CONTRADICTORY_TEXT = "vars: a\nrule: (a | top)\nrule: (!a | top)\n"
DEGENERATE_TEXT = "vars: a\nrule: (a | bot)\n"
EMPTY_TEXT = "vars: a\n"


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


def propagate_box(p, lo=None, hi=None, queue=None):
    """(feasible, lo, hi) after propagating the box, or the given bounds,
    from every rule queued or only from ``queue``."""
    box = _Box(p, [0] * p.n if lo is None else lo, [p.bound] * p.n if hi is None else hi)
    queue = range(p.n) if queue is None else queue
    return _propagate_box(box, queue), box.lo, box.hi


def assert_sums_fresh(box, p, context):
    """Every stored sum of every rule's V-signatures equals the sum
    recomputed from lo."""
    stored = [box.sums[s] for ids in box.vsig_ids for s in ids]
    fresh = [sum(box.lo[j] for j in sig) for vs in p.verifying_sigs for sig in vs]
    assert stored == fresh, context


def search_checking_nodes(kb, p, compiled, rng, monkeypatch):
    """Run the search with a random cut, so that it walks random labelling
    paths and backtracks through its one box, and check every node as it
    is propagated.  On entry the box must hold its parent's fixpoint with
    only the labelled variable moved; after propagation its bounds must
    equal the reference fixpoint, and at both points every stored V-sum
    must equal its sum recomputed from lo.  Returns the depths of the
    feasible nodes."""
    n = p.n
    fixpoints = []  # (lo, hi) of the feasible node at each depth on the path
    depths = []

    def checking(box, queue):
        # The root queues every rule, a child the rules that mention the
        # variable it labelled.
        if isinstance(queue, range):
            depth, want_lo, want_hi = 0, [0] * n, [p.bound] * n
        else:
            k = next(j for j, rules in enumerate(box.touched_by) if rules is queue)
            depth = k + 1
            want_lo, want_hi = (list(b) for b in fixpoints[k])
            assert want_lo[k] <= box.lo[k] == box.hi[k] <= want_hi[k], render_kb(kb)
            want_lo[k] = want_hi[k] = box.lo[k]
        assert (box.lo, box.hi) == (want_lo, want_hi), render_kb(kb)
        assert_sums_fresh(box, p, render_kb(kb))
        want = propagate_ref(kb, box.lo, box.hi, compiled)
        feasible = _propagate_box(box, queue)
        assert feasible == (want is not None), (render_kb(kb), want_lo, want_hi)
        assert_sums_fresh(box, p, render_kb(kb))
        if feasible:
            assert (box.lo, box.hi) == (want, want_hi), (render_kb(kb), want_lo, want_hi)
            del fixpoints[depth:]
            fixpoints.append((box.lo.copy(), box.hi.copy()))
            depths.append(depth)
        return feasible

    with monkeypatch.context() as patch:
        patch.setattr(csp, "_propagate_box", checking)
        # Past 60 feasible nodes every node is cut, so the search winds up.
        for _ in csp._search(p, lambda lo: len(depths) > 60 or rng.random() < 0.3):
            pass
    return depths


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
        deep_nodes = 0
        for kb in kbs:
            p = build_problem(kb)
            compiled = compile_ref(kb)
            touched_by = _Box(p, [0] * p.n, [p.bound] * p.n).touched_by
            # Carried state: labelling paths with backtracks through one box.
            depths = search_checking_nodes(kb, p, compiled, walks, monkeypatch)
            deep_nodes += sum(d >= 3 for d in depths)
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


class TestNodeCounts:
    """One propagator call per search node, counted exactly: a search that
    prunes differently fails, and so does one that stops calling the
    module's ``_propagate_box`` at every node."""

    @pytest.mark.parametrize(
        "solver, n, nodes",
        [
            (all_min_sum, 9, 244),
            (all_min_sum, 10, 407),
            (all_min_sum, 11, 678),
            (pareto_min, 6, 785),
            (pareto_min, 7, 4015),
            (solve_min_sum, 6, 45),
        ],
    )
    def test_chain_nodes_at_most(self, solver, n, nodes, monkeypatch):
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return _propagate_box(*args)

        monkeypatch.setattr(csp, "_propagate_box", counting)
        solver(build_problem(gen_synthetic(n)))
        assert calls == nodes


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
    def test_random_small_kbs(self):
        rng = random.Random(20250809)
        checked = 0
        for _ in range(40):
            kb = parse_kb(random_kb_text(rng))
            problem = build_problem(kb)
            oracle = brute_solutions(kb)
            assert list(enumerate_solutions(problem).vectors) == oracle
            if oracle:
                best = min(sum(v) for v in oracle)
                minima = [v for v in oracle if sum(v) == best]
                assert list(all_min_sum(problem).vectors) == minima
                assert solve_min_sum(problem) == (best, minima[0])
                assert list(pareto_min(problem).vectors) == non_dominated_ref(oracle)
            else:
                with pytest.raises(InfeasibleError):
                    all_min_sum(problem)
            checked += 1
        assert checked == 40

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
            _, falsifying = partitions_ref(kb)
            fsets = [set(ws) for ws in falsifying]
            sigs = {sum(1 << j for j in range(kb.n) if w in fsets[j]) for w in range(1 << kb.m)}
            assert p.world_sigs == tuple(sorted(sigs))
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
        # The clock passes the deadline inside the last of the 2n calls,
        # after every check between rules has been made.
        now = [0.0]
        monkeypatch.setattr(csp, "perf_counter", lambda: now[0])
        calls = itertools.count(1)
        peel = csp._minimal_signatures

        def late_peel(masks, *args):
            if next(calls) == 2 * birds.n:
                now[0] = 2.0
            return peel(masks, *args)

        monkeypatch.setattr(csp, "_minimal_signatures", late_peel)
        with pytest.raises(SolveTimeout):
            build_problem(birds, deadline=1.0)

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
