"""Structural invariants checked over randomly generated knowledge bases."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crsolve import (
    InfeasibleError,
    acceptance_ranks,
    accepts,
    all_min_sum,
    build_partitions,
    build_problem,
    check_solution,
    enumerate_solutions,
    induced_ocf,
    parse_conditional,
    parse_kb,
    pareto_min,
    render_kb,
    render_table,
)
from crsolve.csp import _Box, _propagate_box
from crsolve.ocf import json_chunks, table_chunks
from crsolve.worlds import iter_bits, selector, world_signatures, world_sums

from tests.helpers import (
    bits_ref,
    brute_solutions,
    check_ref,
    compile_ref,
    formula_set,
    full_set,
    indicator_ref,
    induced_ranks_ref,
    ocf_records_ref,
    render_table_ref,
    table_ranks,
)

NAMES = ["a", "b", "c", "d"]
UNEQUAL_NAMES = ["a", "bb", "ccc", "dddd"]


@st.composite
def formula_texts(draw, names):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return "bot"
    if kind == 1:
        return "top"
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        count = draw(st.integers(1, min(2, len(names))))
        atoms = draw(st.permutations(names))[:count]
        parts.append(
            ", ".join(("!" if draw(st.booleans()) else "") + a for a in atoms)
        )
    return " ; ".join(parts)


@st.composite
def kb_texts(draw, max_rules=3, pool=NAMES):
    names = pool[: draw(st.integers(1, 4))]
    lines = ["vars: " + ", ".join(names)]
    for _ in range(draw(st.integers(0, max_rules))):
        cons = draw(formula_texts(names))
        ant = draw(formula_texts(names))
        lines.append(f"rule: ({cons} | {ant})")
    return "\n".join(lines) + "\n"


@given(kb_texts())
def test_round_trip(text):
    kb = parse_kb(text)
    assert parse_kb(render_kb(kb)) == kb


@given(kb_texts())
def test_tri_partition_and_indicator_agreement(text):
    kb = parse_kb(text)
    verifying, falsifying = build_partitions(kb)
    full = full_set(kb.m)
    for i, c in enumerate(kb.conditionals):
        v, f = verifying[i], falsifying[i]
        assert v & f == 0
        assert (v | f) & ~full == 0
        for w in range(2**kb.m):
            status = indicator_ref(c, kb, w)
            assert ((v >> w) & 1) == (status == "v")
            assert ((f >> w) & 1) == (status == "f")


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), formula_texts(NAMES[:m]), formula_texts(NAMES[:m]))))
def test_disjunction_is_union_of_world_sets(args):
    m, f1, f2 = args
    atoms = parse_kb("vars: " + ", ".join(NAMES[:m])).atoms
    combined = formula_set(atoms, f"({f1}) ; ({f2})")
    assert combined == formula_set(atoms, f1) | formula_set(atoms, f2)


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), formula_texts(NAMES[:m]), formula_texts(NAMES[:m]))))
def test_conjunction_is_intersection_of_world_sets(args):
    m, f1, f2 = args
    atoms = parse_kb("vars: " + ", ".join(NAMES[:m])).atoms
    combined = formula_set(atoms, f"({f1}), ({f2})")
    assert combined == formula_set(atoms, f1) & formula_set(atoms, f2)


@given(kb_texts())
def test_propagate_shrinks_and_is_idempotent(text):
    problem = build_problem(parse_kb(text))
    box = _Box(problem, [0] * problem.n, [problem.bound] * problem.n)
    lo, hi = box.lo, box.hi
    feasible = _propagate_box(box, range(problem.n))
    assert all(x >= 0 for x in lo)
    assert all(x <= problem.bound for x in hi)
    if feasible:
        box2 = _Box(problem, lo, hi)
        lo2, hi2 = box2.lo, box2.hi
        assert _propagate_box(box2, range(problem.n))
        assert (lo2, hi2) == (lo, hi)


@settings(max_examples=40)
@given(kb_texts())
def test_enumeration_matches_brute_force(text):
    kb = parse_kb(text)
    problem = build_problem(kb)
    assert list(enumerate_solutions(problem).vectors) == brute_solutions(kb)


@settings(max_examples=40)
@given(kb_texts())
def test_emitted_vectors_are_solutions_by_both_checkers(text):
    kb = parse_kb(text)
    problem = build_problem(kb)
    compiled = compile_ref(kb)
    for v in enumerate_solutions(problem).vectors:
        assert check_solution(problem, v)
        assert check_ref(kb, v, compiled)


@settings(max_examples=40)
@given(kb_texts())
def test_sum_minimal_solutions_are_pareto_minimal(text):
    problem = build_problem(parse_kb(text))
    try:
        minima = all_min_sum(problem)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            pareto_min(problem)
        return
    assert set(minima.vectors) <= set(pareto_min(problem).vectors)


@settings(max_examples=40)
@given(kb_texts())
def test_solutions_induce_accepting_normalized_rankings(text):
    kb = parse_kb(text)
    problem = build_problem(kb)
    try:
        minima = all_min_sum(problem)
    except InfeasibleError:
        return
    everything = parse_conditional("(top | top)", kb.atoms)
    for v in minima.vectors:
        ranking = induced_ocf(kb, v)
        assert acceptance_ranks(ranking, everything)[0] == 0
        assert all(accepts(ranking, c) for c in kb.conditionals)


# World sets of up to 2**20 worlds: empty, one top bit, sparse, dense.
MAX_WORLDS = 2**20
world_sets = st.one_of(
    st.just(0),
    st.integers(0, MAX_WORLDS - 1).map(lambda k: 1 << k),
    st.sets(st.integers(0, MAX_WORLDS - 1), max_size=40).map(lambda ks: sum(1 << k for k in ks)),
    st.tuples(
        st.integers(0, 20).flatmap(lambda e: st.integers(1, 2**e)), st.integers(0, 2**32)
    ).map(lambda size_seed: random.Random(size_seed[1]).getrandbits(size_seed[0])),
)


@settings(max_examples=40, deadline=None)
@given(world_sets)
@example(1 << (MAX_WORLDS - 1))
@example((1 << MAX_WORLDS) - 1)
def test_scan_matches_per_bit_test(x):
    positions = bits_ref(x)
    assert list(iter_bits(x)) == positions
    sel = selector(x)
    assert len(sel) == max(1, x.bit_length())
    assert set(sel) <= {0, 1}
    assert [w for w, flag in enumerate(sel) if flag] == positions


def _random_sets(m, count, seed):
    rng = random.Random(seed)
    return m, [rng.getrandbits(2**m) for _ in range(count)]


# Up to 130 sets: past 64 a world's lane is wider than 8 bytes and is read
# as joined words.
@given(
    st.tuples(st.integers(0, 6), st.integers(0, 130)).flatmap(
        lambda mk: st.tuples(
            st.just(mk[0]),
            st.lists(st.integers(0, 2 ** (2 ** mk[0]) - 1), min_size=mk[1], max_size=mk[1]),
        )
    )
)
@example(_random_sets(6, 64, 1))
@example(_random_sets(6, 65, 2))
@example(_random_sets(5, 128, 3))
@example(_random_sets(0, 129, 4))
@example((3, [255] * 130))
def test_world_signatures_match_per_bit_test(args):
    m, sets = args
    expected = [
        sum(1 << j for j, ws in enumerate(sets) if (ws >> w) & 1) for w in range(2**m)
    ]
    assert world_signatures(sets, m) == tuple(expected)


def _lane_edge(total):
    # Ten sets over 2 atoms: world 0 is in all of them, so its sum is total.
    parts = [total // 10] * 9
    return 2, [15] * 9 + [5], parts + [total - sum(parts)]


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(0, 6), st.integers(0, 64), st.integers(0, 72)).flatmap(
        lambda mnb: st.tuples(
            st.just(mnb[0]),
            st.lists(st.integers(0, 2 ** (2 ** mnb[0]) - 1), min_size=mnb[1], max_size=mnb[1]),
            st.lists(
                st.integers(0, mnb[2]).flatmap(lambda b: st.integers(0, 2**b)),
                min_size=mnb[1],
                max_size=mnb[1],
            ),
        )
    )
)
@example((0, [], []))
@example((3, [], []))
@example(_lane_edge(255))
@example(_lane_edge(256))
@example(_lane_edge(2**16 - 1))
@example(_lane_edge(2**16))
@example(_lane_edge(2**32 - 1))
@example(_lane_edge(2**32))
@example(_lane_edge(2**64 - 1))
@example(_lane_edge(2**64))
@example(_lane_edge(2**100 + 2**64 + 2**32 + 1))
def test_world_sums_match_per_bit_sum(args):
    # Each weight has at most a drawn number of bits, up to 72, so the
    # lane widths 1, 2, 4 and 8 and sums of 2**64 or more all occur.
    m, sets, weights = args
    expected = [
        sum(x for ws, x in zip(sets, weights) if (ws >> w) & 1) for w in range(2**m)
    ]
    sums = world_sums(sets, weights, m)
    assert type(sums) is tuple and all(type(x) is int for x in sums)
    assert sums == tuple(expected)


@given(
    st.one_of(kb_texts(), kb_texts(pool=UNEQUAL_NAMES)),
    st.lists(st.integers(0, 12), min_size=3, max_size=3),
)
@example("vars: a, bb, ccc, dddd\nrule: (a | bb)\nrule: (!dddd | ccc)\n", [1, 12, 0])
@example("vars: dddd, a\nrule: (a | dddd)\n", [3, 0, 0])
def test_tables_match_per_world_rendering(text, values):
    kb = parse_kb(text)
    ranking = induced_ocf(kb, tuple(values[: kb.n]))
    assert render_table(ranking) == render_table_ref(ranking)
    records = ocf_records_ref(ranking)
    assert "".join(json_chunks(ranking)) == json.dumps(records) + "\n"


def _chunk_edge_kb(rng: random.Random) -> str:
    """A KB of 1 or 5-9 atoms with names of unequal length, whose rules
    leave out at least one atom of each half (when there are two), with
    ``top`` and ``bot`` among their formulas."""
    m = rng.choice((1, 5, 6, 7, 8, 9))
    names = [rng.choice("pqrs") * rng.randint(1, 3) + str(i) for i in range(m)]
    half = m // 2
    unused = {rng.randrange(half), half + rng.randrange(m - half)} if half else set()
    pool = [a for i, a in enumerate(names) if i not in unused and rng.random() < 0.8] or names[-1:]

    def formula() -> str:
        roll = rng.random()
        if roll < 0.1:
            return rng.choice(("top", "bot"))
        terms = []
        for _ in range(rng.choice((1, 1, 2))):
            picked = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            terms.append(", ".join(("!" if rng.random() < 0.5 else "") + a for a in picked))
        return " ; ".join(terms)

    rules = [f"rule: ({formula()} | {formula()})" for _ in range(rng.randint(0, 5))]
    return "\n".join(["vars: " + ", ".join(names)] + rules) + "\n"


def test_chunked_tables_match_per_world_rendering():
    # show-ocf writes one chunk per world of the high half of the atoms
    # (the first m // 2) and reads each row's rank through the world's
    # restriction to the atoms the rules mention: unused atoms in either
    # half, odd m, one atom (no high half), top/bot rules and ranks of
    # 2**64 or more must all give the per-world rendering.
    rng = random.Random(18)
    for _ in range(150):
        kb = parse_kb(_chunk_edge_kb(rng))
        v = tuple(rng.choice((0, 1, 2, 7, 300, 2**64 - 1, 2**64 + 5, 2**70)) for _ in range(kb.n))
        ranking = induced_ocf(kb, v)
        chunks = list(table_chunks(ranking))
        assert len(chunks) == 2 ** (kb.m // 2)
        assert {c.count("\n") for c in chunks} == {2 ** (kb.m - kb.m // 2)}
        assert "".join(chunks) == render_table(ranking) == render_table_ref(ranking)
        records = ocf_records_ref(ranking)
        assert "".join(json_chunks(ranking)) == json.dumps(records) + "\n"


@settings(max_examples=30)
@given(kb_texts(max_rules=20), st.lists(st.integers(0, 9), min_size=20, max_size=20))
def test_induced_ranks_match_reference_across_signature_columns(text, values):
    kb = parse_kb(text)
    v = tuple(values[: kb.n])
    assert table_ranks(induced_ocf(kb, v)) == induced_ranks_ref(kb, v)
