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
from crsolve.csp import _propagate_box

from tests.helpers import (
    BIRDS_TEXT,
    brute_solutions,
    check_ref,
    compile_ref,
    falsified_sum,
    minimal_sigs_ref,
    non_dominated_ref,
    ocf_min_ref,
    propagate_ref,
    random_kb_text,
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
    def test_world_verifying_everything(self, birds_problem):
        # b f a verifies all three rules, so nothing contributes
        assert falsified_sum(birds_problem, 2, 0b111, (1, 0, 1)) == 0
        assert falsified_sum(birds_problem, 2, 0b111, (3, 3, 3)) == 0

    def test_world_falsifying_rule1_only(self, birds_problem):
        # b !f a falsifies rule 1 only
        assert falsified_sum(birds_problem, 2, 0b101, (1, 0, 1)) == 1

    def test_excludes_own_rule(self, penguins_problem):
        # p b f w k falsifies only rule 3, which is excluded for i=3
        assert falsified_sum(penguins_problem, 3, 0b11111, (1, 2, 2, 1, 1)) == 0

    def test_validation(self, birds_problem):
        with pytest.raises(ValueError):
            falsified_sum(birds_problem, 0, 0, (1, 0, 1))
        with pytest.raises(ValueError):
            falsified_sum(birds_problem, 1, 8, (1, 0, 1))
        with pytest.raises(ValueError):
            falsified_sum(birds_problem, 1, 0, (1, 0))


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


def propagate_box(p, lo=None, hi=None):
    """(feasible, lo, hi) after propagating the box, or the given bounds."""
    lo = [0] * p.n if lo is None else list(lo)
    hi = [p.bound] * p.n if hi is None else list(hi)
    return _propagate_box(lo, hi, p.verifying_sigs, p.falsifying_sigs), lo, hi


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

    def test_least_fixpoint_matches_reference(self):
        # Search-shaped boxes: a random prefix of the variables is fixed
        # (lo = hi), the rest spans [0, bound].  A propagator that stops
        # short of the fixpoint leaves some lower bound below the reference.
        rng = random.Random(4711)
        kbs = [parse_kb(random_kb_text(rng, 4, 6)) for _ in range(150)]
        kbs += [gen_synthetic(n, j) for n in range(2, 9) for j in (0, 2) if j <= 2 * n - 2]
        for kb in kbs:
            p = build_problem(kb)
            compiled = compile_ref(kb)
            for _ in range(6 if kb.m <= 5 else 3):
                k = rng.randint(0, p.n)
                prefix = [rng.randint(0, p.bound) for _ in range(k)]
                lo = prefix + [0] * (p.n - k)
                hi = prefix + [p.bound] * (p.n - k)
                want = propagate_ref(kb, lo, hi, compiled)
                feasible, got, _ = propagate_box(p, lo, hi)
                assert feasible == (want is not None), (render_kb(kb), lo, hi)
                if feasible:
                    assert got == want, (render_kb(kb), lo, hi)


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
