import io

import pytest

from crsolve import (
    BenchRecord,
    SyntheticSpec,
    all_min_sum,
    build_problem,
    gen_synthetic,
    render_formula,
    run_bench,
    write_csv,
)

from tests.helpers import brute_solutions


def rule_texts(kb):
    return [
        f"({render_formula(c.consequent, kb.atoms)} | {render_formula(c.antecedent, kb.atoms)})"
        for c in kb.conditionals
    ]


class TestGenSynthetic:
    def test_kb_4_7(self):
        kb = gen_synthetic(4, 0)
        assert kb.atom_names() == ("f", "a1", "a2", "a3", "a4")
        assert rule_texts(kb) == [
            "(f | a1)",
            "(!f | a2)",
            "(f | a3)",
            "(!f | a4)",
            "(a1 | a2)",
            "(a2 | a3)",
            "(a3 | a4)",
        ]

    def test_truncation_drops_trailing_rules(self):
        assert rule_texts(gen_synthetic(4, 2)) == rule_texts(gen_synthetic(4, 0))[:5]

    def test_degenerate_chain(self):
        kb = gen_synthetic(1, 0)
        assert kb.atom_names() == ("f", "a1")
        assert rule_texts(kb) == ["(f | a1)"]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_sizes(self, n):
        kb = gen_synthetic(n, 0)
        assert kb.n == 2 * n - 1
        assert kb.m == n + 1

    @pytest.mark.parametrize("n, j", [(0, 0), (-1, 0), (2, -1), (2, 3), (1, 1)])
    def test_out_of_range(self, n, j):
        with pytest.raises(ValueError):
            gen_synthetic(n, j)

    @pytest.mark.parametrize("n", [20, 21])
    def test_too_many_atoms(self, n):
        # kb(n) has n + 1 atoms; the parser's limit would report a column of
        # generated text instead.
        with pytest.raises(ValueError, match=r"^n must be in \[1, 19\]$"):
            gen_synthetic(n)


class TestChainStructure:
    @pytest.mark.parametrize("n", [2, 3])
    def test_minimal_solutions_reach_n_with_oracle(self, n):
        kb = gen_synthetic(n, 0)
        oracle = brute_solutions(kb)
        best = min(sum(v) for v in oracle)
        minima = [v for v in oracle if sum(v) == best]
        assert list(all_min_sum(build_problem(kb)).vectors) == minima
        assert all(max(v) >= n for v in minima)

    def test_minimal_solutions_reach_n_for_4(self):
        result = all_min_sum(build_problem(gen_synthetic(4, 0)))
        assert result.vectors
        assert all(max(v) >= 4 for v in result.vectors)


class TestRunBench:
    def test_single_spec_record(self):
        records = run_bench([SyntheticSpec(3, 0)], repetitions=2)
        assert len(records) == 1
        rec = records[0]
        assert rec.kb_name == "kb(3,5)"
        assert rec.variables == 4
        assert rec.conditionals == 5
        assert rec.operation == "min-all"
        assert rec.wall_time_s >= 0
        assert rec.solutions_found >= 1
        assert not rec.timed_out

    def test_empty_spec_list(self):
        assert run_bench([], repetitions=1) == []

    def test_timeout_flags_record(self):
        records = run_bench([SyntheticSpec(4, 0)], repetitions=3, timeout_s=0.0)
        assert records[0].timed_out
        assert records[0].solutions_found is None

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_bench([], repetitions=0)


class TestCsv:
    def test_columns_and_rows(self):
        import csv

        records = [
            BenchRecord("kb(2,3)", 3, 3, "min-all", 0.0123456, 4),
            BenchRecord("kb(9,17)", 10, 17, "min-all", 1.5, None, timed_out=True),
        ]
        out = io.StringIO()
        write_csv(records, out)
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == ["kb_name", "vars", "conditionals", "operation", "wall_time_s", "solutions_found"]
        assert rows[1] == ["kb(2,3)", "3", "3", "min-all", "0.012346", "4"]
        assert rows[2] == ["kb(9,17)", "10", "17", "min-all", "1.500000", ""]
