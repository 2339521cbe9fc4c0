"""Synthetic chain knowledge bases and a timing harness.

The family kb(n) over atoms f, a1..an stacks a subclass chain (each a_{i+1}
is a kind of a_i) with alternating flying behaviour, so each level is
exceptional to the one below; truncated variants drop the last j rules.
These make minimal solutions grow with n, which is what the harness is for.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import IO, Iterable

from .csp import InfeasibleError, SolveTimeout, all_min_sum, build_problem
from .kb import MAX_ATOMS, KnowledgeBase, parse_kb

CSV_COLUMNS = ("kb_name", "vars", "conditionals", "operation", "wall_time_s", "solutions_found")


@dataclass(frozen=True)
class SyntheticSpec:
    """Chain parameter n and the number j of trailing rules to remove."""

    n: int
    j: int = 0

    @property
    def rule_count(self) -> int:
        return 2 * self.n - 1 - self.j

    @property
    def name(self) -> str:
        return f"kb({self.n},{self.rule_count})"


def gen_synthetic(n: int, j: int = 0) -> KnowledgeBase:
    """Build kb(n) minus its last j rules.

    Atoms are (f, a1, ..., an); rules are (f|a1), (!f|a2), ... alternating
    for i = 1..n, then the chain (a1|a2), ..., (a_{n-1}|a_n).
    """
    if not 1 <= n <= MAX_ATOMS - 1:
        raise ValueError(f"n must be in [1, {MAX_ATOMS - 1}]")
    if not 0 <= j <= 2 * n - 2:
        raise ValueError(f"j must be in [0, {2 * n - 2}] for n={n}")
    lines = ["vars: " + ", ".join(["f"] + [f"a{i}" for i in range(1, n + 1)])]
    rules = [
        f"rule: ({'f' if i % 2 else '!f'} | a{i})" for i in range(1, n + 1)
    ] + [
        f"rule: (a{i} | a{i + 1})" for i in range(1, n)
    ]
    lines.extend(rules[: len(rules) - j] if j else rules)
    return parse_kb("\n".join(lines) + "\n")


@dataclass(frozen=True)
class BenchRecord:
    kb_name: str
    variables: int
    conditionals: int
    operation: str
    wall_time_s: float
    solutions_found: int | None
    timed_out: bool = False


def run_bench(
    specs: Iterable[SyntheticSpec],
    repetitions: int = 3,
    timeout_s: float | None = None,
) -> list[BenchRecord]:
    """Time ``min-all`` on each spec, ``repetitions`` times; the recorded wall
    time is the median over repetitions on a monotonic clock.  A timed-out
    spec yields a flagged record (no solution count) instead of raising.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    records = []
    for spec in specs:
        kb = gen_synthetic(spec.n, spec.j)
        problem = build_problem(kb)
        times: list[float] = []
        count: int | None = None
        timed_out = False
        for _ in range(repetitions):
            start = perf_counter()
            deadline = start + timeout_s if timeout_s is not None else None
            try:
                count = len(all_min_sum(problem, deadline=deadline).vectors)
            except SolveTimeout:
                times = [perf_counter() - start]
                count = None
                timed_out = True
                break
            except InfeasibleError:
                count = 0
            times.append(perf_counter() - start)
        records.append(
            BenchRecord(
                kb_name=spec.name,
                variables=kb.m,
                conditionals=kb.n,
                operation="min-all",
                wall_time_s=statistics.median(times),
                solutions_found=count,
                timed_out=timed_out,
            )
        )
    return records


def write_csv(records: Iterable[BenchRecord], stream: IO[str]) -> None:
    """Emit records as CSV with the fixed column set; timed-out records
    leave solutions_found empty."""
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.kb_name,
                r.variables,
                r.conditionals,
                r.operation,
                f"{r.wall_time_s:.6f}",
                "" if r.solutions_found is None else r.solutions_found,
            ]
        )
