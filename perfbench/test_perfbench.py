"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q

They check that inputs repeat per seed, that the oracle reproduces known
answers and rejects wrong ones, and that the traced counts repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kbgen  # noqa: E402
import run  # noqa: E402
from oracle import Semantics, check_solve, dominated_mask  # noqa: E402


def sum_minima(kb: kbgen.GenKB) -> set[tuple[int, ...]]:
    box = Semantics(kb).box_solutions(len(kb.rules))
    sums = box.sum(axis=1)
    return {tuple(v) for v in box[sums == sums.min()].tolist()}


@pytest.mark.parametrize("name", sorted(kbgen.WORKLOADS))
def test_generator_repeats_per_seed(name):
    make = kbgen.WORKLOADS[name]
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert [kb.text() for kb in first.kbs] == [kb.text() for kb in again.kbs]
    assert [kb.text() for kb in first.kbs] != [kb.text() for kb in other.kbs]


@pytest.mark.parametrize("n,j", [(2, 0), (4, 0), (4, 2), (10, 4)])
def test_chain_matches_crsolve_family(n, j):
    from crsolve import gen_synthetic, parse_kb, render_kb

    ours = parse_kb(kbgen.chain_kb(n, j).text())
    assert render_kb(ours) == render_kb(gen_synthetic(n, j))


def test_oracle_birds_has_two_sum_minima():
    assert sum_minima(kbgen.BIRDS) == {(1, 0, 1), (1, 1, 0)}


def test_oracle_penguins_unique_minimum():
    assert sum_minima(kbgen.PENGUINS) == {(1, 2, 2, 1, 1)}
    assert Semantics(kbgen.PENGUINS).valid((1, 2, 2, 1, 1))
    assert not Semantics(kbgen.PENGUINS).valid((1, 1, 1, 1, 1))


def test_oracle_penguins_query_ranks():
    sem = Semantics(kbgen.PENGUINS)
    fly = kbgen.Cond(kbgen.lit("f"), kbgen.lit("p"))
    not_fly = kbgen.Cond(kbgen.lit("f", False), kbgen.lit("p"))
    assert sem.acceptance((1, 2, 2, 1, 1), not_fly) == (1, 2)
    assert sem.acceptance((1, 2, 2, 1, 1), fly) == (2, 1)
    contradiction = kbgen.Cond(kbgen.lit("f"), kbgen.conj(("f", False), ("p", True)))
    assert sem.acceptance((1, 2, 2, 1, 1), contradiction) == (None, 1)


def test_oracle_rejects_wrong_answers():
    sem = Semantics(kbgen.BIRDS)
    minima = ((1, 0, 1), (1, 1, 0))
    assert check_solve(sem, "min-all", minima, 2) == []
    assert check_solve(sem, "min-all", minima[:1] + ((0, 1, 1),), 2)
    assert check_solve(sem, "min-all", minima + ((1, 1, 1),), 2)
    assert check_solve(sem, "pareto", minima) == []
    assert check_solve(sem, "pareto", minima[:1])
    assert check_solve(sem, "pareto", minima + ((1, 1, 1),))
    full = tuple(map(tuple, sem.box_solutions(3).tolist()))
    assert check_solve(sem, "all", full) == []
    assert check_solve(sem, "all", full[:-1])
    assert check_solve(sem, "min", None)


def test_system_z_consistency():
    rng = kbgen.random.Random(3)
    for _ in range(5):
        sem = Semantics(kbgen._inconsistent_kb(rng, 5, 5))
        assert not sem.consistent()
        assert check_solve(sem, "pareto", None) == []
    assert Semantics(kbgen.PENGUINS).consistent()


def test_dominated_mask():
    pts = np.array([[1, 1], [0, 2], [1, 2], [2, 0], [1, 1]])
    assert dominated_mask(pts).tolist() == [False, False, True, False, False]


def test_tail_level_leaves_ten_samples_beyond():
    for n in (20, 24, 33, 41, 50, 53, 231):
        level = run.tail_level(n)
        assert n * (100 - level) >= 1000 > n * (99 - level)
    assert run.tail_level(33) == 69.0
    assert run.tail_level(12) == 50.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0


def _traced_counts(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chain-search", "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}


def test_count_metrics_repeat_exactly():
    first = _traced_counts(5)
    assert first == _traced_counts(5)
    assert first["ocf.queries"] == 45 and first["worlds.worlds"] > 0
