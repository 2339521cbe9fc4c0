"""The README's documented usage, run as written."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_accepts():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = ast.parse(block).body
    assert isinstance(last, ast.Expr), "the quick start should end on the accepts(...) call"
    namespace: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), str(README), "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), str(README), "eval"), namespace) is True
