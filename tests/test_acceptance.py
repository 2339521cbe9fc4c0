"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import itertools
import random
from time import perf_counter

from crsolve import (
    InfeasibleError,
    SyntheticSpec,
    acceptance_ranks,
    accepts,
    all_min_sum,
    build_problem,
    check_solution,
    enumerate_solutions,
    gen_synthetic,
    induced_ocf,
    ocf_min,
    parse_conditional,
    parse_kb,
    pareto_min,
    render_formula,
    run_bench,
    solve_min_sum,
)

from tests.helpers import (
    PENGUINS_RANKS,
    birds_kb,
    brute_solutions,
    check_ref,
    compile_ref,
    non_dominated_ref,
    penguins_kb,
    random_kb_text,
    rank_at_ref,
)


def report(criterion: int, description: str, ok: bool) -> bool:
    print(f"[criterion {criterion}] {description}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_birds_all_minimal():
    problem = build_problem(birds_kb())
    start = perf_counter()
    result = all_min_sum(problem)
    elapsed = perf_counter() - start
    ok = set(result.vectors) == {(1, 0, 1), (1, 1, 0)} and elapsed < 1.0
    assert report(1, "birds min-all is exactly {(1,0,1),(1,1,0)} in under 1s", ok)


def test_criterion_2_birds_enumeration_prefix():
    result = enumerate_solutions(build_problem(birds_kb()), limit=5)
    ok = result.vectors == ((1, 0, 1), (1, 0, 2), (1, 0, 3), (1, 1, 0), (1, 1, 1))
    assert report(2, "birds first five solutions in lexicographic order", ok)


def test_criterion_3_penguins_unique_minimum():
    problem = build_problem(penguins_kb())
    start = perf_counter()
    minima = all_min_sum(problem)
    prefix = enumerate_solutions(problem, limit=6)
    elapsed = perf_counter() - start
    ok = (
        minima.vectors == ((1, 2, 2, 1, 1),)
        and prefix.vectors
        == (
            (1, 2, 2, 1, 1),
            (1, 2, 2, 1, 2),
            (1, 2, 2, 1, 3),
            (1, 2, 2, 1, 4),
            (1, 2, 2, 1, 5),
            (1, 2, 2, 2, 1),
        )
        and elapsed < 5.0
    )
    assert report(3, "penguins unique minimum and 6-solution prefix in under 5s", ok)


def test_criterion_4_reference_ranking_table():
    ranking = induced_ocf(penguins_kb(), (1, 2, 2, 1, 1))
    spot = (
        ranking.ranks[0b11111] == 2  # p b f w k
        and ranking.ranks[0b10111] == 5  # p -b f w k
        and ranking.ranks[0b00000] == 0  # all negative
    )
    ok = ranking.ranks == PENGUINS_RANKS and spot
    assert report(4, "induced ranking reproduces the full 32-world reference table", ok)


def test_criterion_5_query_semantics():
    kb = penguins_kb()
    ranking = induced_ocf(kb, (1, 2, 2, 1, 1))
    flying_penguins = parse_conditional("(f | p)", kb.atoms)
    winged_kiwis = parse_conditional("(w | k)", kb.atoms)
    ok = (
        not accepts(ranking, flying_penguins)
        and acceptance_ranks(ranking, flying_penguins) == (2, 1)
        and accepts(ranking, winged_kiwis)
        and acceptance_ranks(ranking, winged_kiwis) == (0, 1)
    )
    assert report(5, "(f|p) rejected at ranks (2,1); (w|k) accepted at (0,1)", ok)


def _random_kbs(count: int, seed: int = 8215):
    rng = random.Random(seed)
    return [parse_kb(random_kb_text(rng)) for _ in range(count)]


def test_criterion_6_oracle_equivalence():
    start = perf_counter()
    discrepancies = 0
    kbs = _random_kbs(200)
    for index, kb in enumerate(kbs):
        problem = build_problem(kb)
        oracle = [
            v
            for v in itertools.product(range(kb.n + 1), repeat=kb.n)
            if check_solution(problem, v)
        ]
        if list(enumerate_solutions(problem).vectors) != oracle:
            discrepancies += 1
        if oracle:
            best = min(sum(v) for v in oracle)
            if list(all_min_sum(problem).vectors) != [v for v in oracle if sum(v) == best]:
                discrepancies += 1
            if list(pareto_min(problem).vectors) != non_dominated_ref(oracle):
                discrepancies += 1
        else:
            try:
                all_min_sum(problem)
                discrepancies += 1
            except InfeasibleError:
                pass
        if index % 10 == 0:
            # independent slow-path cross-check of the oracle itself
            compiled = compile_ref(kb)
            if any(check_ref(kb, v, compiled) != (v in set(oracle))
                   for v in itertools.product(range(kb.n + 1), repeat=kb.n)):
                discrepancies += 1
    elapsed = perf_counter() - start
    ok = discrepancies == 0 and len(kbs) >= 200 and elapsed < 60.0
    assert report(
        6,
        f"enumerate/min-all/pareto match brute force on {len(kbs)} random KBs "
        f"({elapsed:.1f}s, {discrepancies} discrepancies)",
        ok,
    )


def test_criterion_7_solutions_accept_their_rules():
    violations = 0
    fixtures = [birds_kb(), penguins_kb(), gen_synthetic(2, 0), gen_synthetic(3, 0)]
    for kb in fixtures + _random_kbs(200):
        problem = build_problem(kb)
        try:
            emitted = set(all_min_sum(problem).vectors)
        except InfeasibleError:
            continue
        emitted.update(enumerate_solutions(problem, limit=10).vectors)
        emitted.add(solve_min_sum(problem)[1])
        for v in emitted:
            ranking = induced_ocf(kb, v)
            if min(ranking.ranks) != 0:
                violations += 1
            if not all(accepts(ranking, c) for c in kb.conditionals):
                violations += 1
    ok = violations == 0
    assert report(7, f"every emitted vector induces an accepting ranking with minimum 0 ({violations} violations)", ok)


def test_criterion_8_synthetic_family_structure():
    kb47 = gen_synthetic(4, 0)
    listed = [
        ("f", "a1"), ("!f", "a2"), ("f", "a3"), ("!f", "a4"),
        ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
    ]
    structural = kb47.atom_names() == ("f", "a1", "a2", "a3", "a4") and [
        (render_formula(c.consequent, kb47.atoms), render_formula(c.antecedent, kb47.atoms))
        for c in kb47.conditionals
    ] == listed
    reach = True
    for n in (2, 3, 4):
        minima = all_min_sum(build_problem(gen_synthetic(n, 0)))
        if not minima.vectors or not all(max(v) >= n for v in minima.vectors):
            reach = False
        if n <= 3:
            kb = gen_synthetic(n, 0)
            oracle = brute_solutions(kb)
            best = min(sum(v) for v in oracle)
            if list(minima.vectors) != [v for v in oracle if sum(v) == best]:
                reach = False
    ok = structural and reach
    assert report(8, "kb(4,7) matches the listed rules; minimal solutions of kb(n,2n-1) reach n", ok)


def test_criterion_9_benchmark_scale(tmp_path):
    import csv as csv_mod
    import io

    from crsolve import write_csv

    start = perf_counter()
    records = run_bench([SyntheticSpec(5, 0)], repetitions=1, timeout_s=120)
    elapsed = perf_counter() - start
    buffer = io.StringIO()
    write_csv(records, buffer)
    rows = list(csv_mod.reader(io.StringIO(buffer.getvalue())))
    well_formed = (
        rows[0] == ["kb_name", "vars", "conditionals", "operation", "wall_time_s", "solutions_found"]
        and len(rows) == 2
        and rows[1][0] == "kb(5,9)"
        and float(rows[1][4]) >= 0.0
        and int(rows[1][5]) >= 1
    )
    ok = elapsed < 120.0 and not records[0].timed_out and well_formed
    assert report(9, f"kb(5,9) min-all completes in {elapsed:.2f}s (<120s) with well-formed CSV", ok)


# 20 atoms, the documented limit.  Rule 2 makes flying penguin-birds more
# surprising than non-flying birds, so the unique minimum is (1, 2).
TWENTY_ATOMS_TEXT = (
    "vars: " + ", ".join(f"x{i}" for i in range(1, 21)) + "\n"
    "rule: (x13 | x7)\n"
    "rule: (!x13 | x19, x7)\n"
)


def test_criterion_10_twenty_atoms():
    kb = parse_kb(TWENTY_ATOMS_TEXT)
    start = perf_counter()
    minima = all_min_sum(build_problem(kb))
    ranking = induced_ocf(kb, minima.vectors[0])
    ranks = acceptance_ranks(ranking, parse_conditional("(!x13 | x19, x7)", kb.atoms))
    elapsed = perf_counter() - start
    rng = random.Random(20)
    sample = [0, 2**20 - 1] + rng.sample(range(2**20), 300)
    table = ranking.ranks
    agree = all(table[w] == rank_at_ref(kb, minima.vectors[0], w) for w in sample)
    ok = minima.vectors == ((1, 2),) and ranks == (1, 2) and agree and elapsed < 2.0
    assert report(
        10,
        f"20-atom KB compiles, solves min-all and answers a query in {elapsed:.2f}s (<2s); "
        f"ranks agree with the pointwise oracle on {len(sample)} worlds",
        ok,
    )


def test_criterion_11_minimal_solutions_without_the_box():
    timings = {}
    sound = True
    for n in (5, 6):
        problem = build_problem(gen_synthetic(n, 0))
        for solver in (pareto_min, ocf_min):
            start = perf_counter()
            result = solver(problem)
            timings[(n, solver.__name__)] = perf_counter() - start
            sound = sound and bool(result.vectors)
            sound = sound and all(check_solution(problem, v) for v in result.vectors)
        sound = sound and set(all_min_sum(problem).vectors) <= set(pareto_min(problem).vectors)
    fast = timings[(5, "pareto_min")] < 0.5 and timings[(5, "ocf_min")] < 0.5
    assert report(
        11,
        f"kb(5,9) pareto/ocf-min in {timings[(5, 'pareto_min')]:.3f}s/{timings[(5, 'ocf_min')]:.3f}s "
        f"(<0.5s each), kb(6,11) in {timings[(6, 'pareto_min')]:.3f}s/{timings[(6, 'ocf_min')]:.3f}s; "
        "every vector checks and the sum minima are Pareto-minimal",
        fast and sound,
    )
