"""Golden transcripts: CLI runs and demos compared byte for byte.

Each case's exit code, standard output and standard error are stored in
``tests/golden/<case>.txt``.  A change that alters any of them, even by
one byte, fails here.  After a deliberate output change, rewrite the
files from the repository root with ``PYTHONPATH=src python -m
tests.test_golden`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import re
import runpy
import sys
from pathlib import Path

import pytest

from crsolve.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

KBS = {
    "birds": str(ROOT / "kbs" / "birds.kb"),
    "penguins": str(ROOT / "kbs" / "penguins.kb"),
    "free2": str(GOLDEN / "free2.kb"),
    "unsat": str(GOLDEN / "unsat.kb"),
}
NORULES = str(GOLDEN / "norules.kb")
MODES = ("all", "min", "min-all", "pareto", "ocf-min")
SYNTAX_ERRORS = (
    "unknown-atom",
    "missing-bar",
    "unbalanced-paren",
    "duplicate-vars",
    "invalid-atom",
    "trailing-text",
)


def _cli_cases() -> dict[str, list[str]]:
    cases = {}
    for kb, path in KBS.items():
        for mode in MODES:
            limit = ["--limit", "20"] if (kb, mode) == ("penguins", "all") else []
            cases[f"solve-{mode}-{kb}"] = ["solve", "--mode", mode, *limit, path]
            cases[f"solve-{mode}-{kb}-json"] = ["solve", "--mode", mode, *limit, "--json", path]
    cases.update(
        {
            "query-min-accepted": ["query", "--min", "(w | k)", KBS["penguins"]],
            "query-min-rejected": ["query", "--min", "(f | p)", KBS["penguins"]],
            "query-min-several-minima": ["query", "--min", "(f | b)", KBS["birds"]],
            "query-min-free": ["query", "--min", "(b | a)", KBS["free2"]],
            "query-min-unsat": ["query", "--min", "(a | top)", KBS["unsat"]],
            "query-vector-accepted": ["query", "--vector", "1,2,2,1,1", "(w | b)", KBS["penguins"]],
            "query-vector-rejected": ["query", "--vector", "1,1,0", "(a | f)", KBS["birds"]],
            "query-vector-inf-both": ["query", "--vector", "1,2,2,1,1", "(p | bot)", KBS["penguins"]],
            "query-vector-inf-falsifying": ["query", "--vector", "1,3,2", "(top | a)", KBS["free2"]],
            "query-vector-inf-verifying": ["query", "--vector", "1,0,1", "(bot | b)", KBS["birds"]],
            "show-ocf-penguins": ["show-ocf", "--vector", "1,2,2,1,1", KBS["penguins"]],
            "show-ocf-penguins-json": ["show-ocf", "--vector", "1,2,2,1,1", "--json", KBS["penguins"]],
            "show-ocf-birds": ["show-ocf", "--vector", "1,0,1", KBS["birds"]],
            "show-ocf-birds-json": ["show-ocf", "--vector", "1,0,1", "--json", KBS["birds"]],
            "show-ocf-free2": ["show-ocf", "--vector", "1,2,3", KBS["free2"]],
            "show-ocf-unsat-json": ["show-ocf", "--vector", "4", "--json", KBS["unsat"]],
            "show-ocf-wrong-length": ["show-ocf", "--vector", "1,2", KBS["penguins"]],
            "check-valid": ["check", "--vector", "1,2,2,1,1", KBS["penguins"]],
            "check-invalid": ["check", "--vector", "0,0,0,0,0", KBS["penguins"]],
            "check-valid-free2": ["check", "--vector", "1,0,7", KBS["free2"]],
            "check-invalid-unsat": ["check", "--vector", "0", KBS["unsat"]],
            "check-empty-vector-norules": ["check", "--vector", "", NORULES],
            "show-ocf-empty-vector-norules": ["show-ocf", "--vector", "", NORULES],
        }
    )
    for mode in MODES[1:]:
        cases[f"solve-{mode}-birds-limit1"] = ["solve", "--mode", mode, "--limit", "1", KBS["birds"]]
    # Rejected text: exit code 2 and the position on stderr.
    for name in SYNTAX_ERRORS:
        cases[f"syntax-{name}"] = ["solve", "--mode", "min", str(GOLDEN / f"syntax-{name}.kb")]
    cases["syntax-query-unbalanced-paren"] = ["query", "--min", "(a | b, (f ; !a)", KBS["birds"]]
    return cases


CLI_CASES = _cli_cases()
DEMOS = ("minimality_orderings", "penguins_walkthrough", "scaling_run")


def _transcript(code: int, out: str, err: str) -> str:
    return f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _transcript(code, out.getvalue(), err.getvalue())


def _run_demo(name: str) -> str:
    path = ROOT / "demos" / f"{name}.py"
    out, err = io.StringIO(), io.StringIO()
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    # The timing sweep's wall_time_s column differs on every run.
    stdout = re.sub(r'^("kb\(\d+,\d+\)",\d+,\d+,[\w-]+,)[^,]+,', r"\1<time>,", out.getvalue(), flags=re.M)
    return _transcript(0, stdout, err.getvalue())


def _actual(case: str) -> str:
    if case.startswith("demo-"):
        return _run_demo(case.removeprefix("demo-"))
    return _run_cli(CLI_CASES[case])


CASES = [*CLI_CASES, *(f"demo-{name}" for name in DEMOS)]


@pytest.mark.parametrize("case", CASES)
def test_transcript(case):
    expected = (GOLDEN / f"{case}.txt").read_bytes().decode("utf-8")
    assert _actual(case) == expected


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_bytes(_actual(case).encode("utf-8"))
