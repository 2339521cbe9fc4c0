"""The README's documented usage, run as written."""

import ast
import shlex
from pathlib import Path

import pytest

from crsolve import parse_kb
from crsolve.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_stdout(case: str) -> str:
    """The stdout section of a golden transcript."""
    text = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    return text.split("--- stdout\n", 1)[1].rsplit("--- stderr\n", 1)[0]


def test_quick_start_accepts():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = ast.parse(block).body
    assert isinstance(last, ast.Expr), "the quick start should end on the accepts(...) call"
    namespace: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), str(README), "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), str(README), "eval"), namespace) is True


def test_format_example_parses():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Knowledge-base format", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    kb = parse_kb(block)
    assert kb.atom_names() == ("p", "b", "f", "w", "k")
    assert kb.n == 2


@pytest.mark.parametrize(
    "command, expected",
    [
        ("crsolve solve --mode min-all kbs/birds.kb", "1 0 1\n1 1 0\n"),
        (
            'crsolve query --min "(w | k)" kbs/penguins.kb',
            "ACCEPTED\nverifying rank: 0\nfalsifying rank: 1\n",
        ),
        ("crsolve show-ocf --vector 1,2,2,1,1 kbs/penguins.kb", golden_stdout("show-ocf-penguins")),
    ],
    ids=["solve", "query", "show-ocf"],
)
def test_cli_example(command, expected, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("Example, using the bundled", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert command in [line.split("#", 1)[0].strip() for line in block.splitlines()]
    monkeypatch.chdir(README.parent)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected
