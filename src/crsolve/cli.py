"""Command-line front end.

Exit codes: 0 on success, 1 when no solution exists within the search box
(or a checked vector is not a solution), 2 on usage, file, or syntax
errors, 3 when ``--timeout`` expires, 141 when the reader closes standard
output early (as ``| head`` does).  Results go to standard output,
diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

from .bench import SyntheticSpec, run_bench, write_csv
from .csp import (
    InfeasibleError,
    SolutionOrdering,
    SolutionSet,
    SolveTimeout,
    all_min_sum,
    build_problem,
    check_solution,
    enumerate_solutions,
    iter_solutions,
    ocf_min,
    pareto_min,
    solve_min_sum,
)
from .kb import KnowledgeBase, parse_conditional, parse_kb
from .ocf import acceptance_ranks, induced_ocf, json_chunks, table_chunks


def _load_kb(path: str) -> KnowledgeBase:
    return parse_kb(Path(path).read_text(encoding="utf-8"))


def _parse_vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            values.append(int(piece))
        except ValueError:
            raise ValueError(f"invalid vector component {piece!r}")
    return tuple(values)


def _deadline(args: argparse.Namespace) -> float | None:
    """The ``perf_counter`` deadline of ``--timeout``, or None without it."""
    if args.timeout is None:
        return None
    if not args.timeout > 0:
        raise ValueError(f"--timeout must be positive, got {args.timeout}")
    return perf_counter() + args.timeout


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be positive, got {args.limit}")
    deadline = _deadline(args)
    kb = _load_kb(args.file)
    problem = build_problem(kb, bound=args.bound, deadline=deadline)
    if args.mode == "all" and not args.json:
        # Each line is written as the search finds its vector, so the
        # listing is never held; a timeout keeps the lines written so far.
        found = False
        for v in iter_solutions(problem, limit=args.limit, deadline=deadline):
            print(" ".join(map(str, v)))
            found = True
        if not found:
            raise InfeasibleError(problem.bound, problem.degenerate_rules)
        return 0
    if args.mode == "all":
        result = enumerate_solutions(problem, limit=args.limit, deadline=deadline)
    elif args.mode == "min":
        minimal, vector = solve_min_sum(problem, deadline=deadline)
        result = SolutionSet(SolutionOrdering.SUM, problem.bound, (vector,), minimal_sum=minimal)
    elif args.mode == "min-all":
        result = all_min_sum(problem, deadline=deadline)
        result = result._replace(vectors=result.vectors[: args.limit])
    elif args.mode == "pareto":
        result = pareto_min(problem, limit=args.limit, deadline=deadline)
    else:
        result = ocf_min(problem, limit=args.limit, deadline=deadline)
    if args.json:
        # Imported here, as in ``ocf.json_chunks``: only --json needs it.
        import json

        print(json.dumps(result.as_dict()))
    else:
        for v in result.vectors:
            print(" ".join(str(x) for x in v))
    if not result.vectors:
        raise InfeasibleError(problem.bound, problem.degenerate_rules)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    deadline = _deadline(args)
    kb = _load_kb(args.file)
    conditional = parse_conditional(args.conditional, kb.atoms)
    if args.vector is not None:
        vectors = (_parse_vector(args.vector),)
    else:
        vectors = all_min_sum(build_problem(kb, deadline=deadline), deadline=deadline).vectors
        if len(vectors) > 1:
            print(
                f"note: {len(vectors)} sum-minimal solutions exist; deciding over all of them",
                file=sys.stderr,
            )
    answers = [acceptance_ranks(induced_ocf(kb, v), conditional) for v in vectors]
    accepted = sum(verified < falsified for verified, falsified in answers)
    if accepted == len(answers):
        print("ACCEPTED")
    elif not accepted:
        print("REJECTED")
    else:
        print(f"UNDECIDED: accepted by {accepted} of {len(answers)} sum-minimal solutions")
    for side, ranks in zip(("verifying", "falsifying"), zip(*answers)):
        lo, hi = min(ranks), max(ranks)
        print(f"{side} rank: {lo}" if lo == hi else f"{side} rank: {lo}..{hi}")
    return 0


def _cmd_show_ocf(args: argparse.Namespace) -> int:
    kb = _load_kb(args.file)
    ranking = induced_ocf(kb, _parse_vector(args.vector))
    # Written one chunk at a time, so the whole table is never held.
    sys.stdout.writelines(json_chunks(ranking) if args.json else table_chunks(ranking))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    deadline = _deadline(args)
    kb = _load_kb(args.file)
    problem = build_problem(kb, deadline=deadline)
    if check_solution(problem, _parse_vector(args.vector)):
        print("valid")
        return 0
    print("invalid")
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.n_from < 1 or args.n_to < args.n_from:
        raise ValueError("need 1 <= --n-from <= --n-to")
    specs = [SyntheticSpec(n, args.j) for n in range(args.n_from, args.n_to + 1)]
    records = run_bench(specs, repetitions=args.reps)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as out:
            write_csv(records, out)
    else:
        write_csv(records, sys.stdout)
    return 0


def _add_timeout(parser: argparse.ArgumentParser, checked: str) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=f"give up after SECONDS (exit 3); checked after {checked}",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crsolve",
        description="Solve conditional knowledge bases and query the induced rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate or minimize solution vectors")
    solve.add_argument("--mode", required=True, choices=["all", "min", "min-all", "pareto", "ocf-min"])
    solve.add_argument("--limit", type=int, default=None, help="truncate the listing")
    solve.add_argument("--bound", type=int, default=None, help="override the per-variable upper bound")
    _add_timeout(
        solve,
        "every compile pass and peel step, at every search node, every 1,024 vectors"
        " of a box that mode all yields whole and every vector ocf-min expands",
    )
    solve.add_argument("--json", action="store_true")
    solve.add_argument("file")
    solve.set_defaults(func=_cmd_solve)

    query = sub.add_parser("query", help="test whether a conditional is accepted")
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument("--min", action="store_true", help="decide over every sum-minimal solution")
    source.add_argument("--vector", help="comma-separated solution vector")
    _add_timeout(query, "every compile pass and peel step and at every node of the --min search")
    query.add_argument("conditional", help='query conditional, e.g. "(w | k)"')
    query.add_argument("file")
    query.set_defaults(func=_cmd_query, vector=None)

    show = sub.add_parser("show-ocf", help="print the ranking induced by a vector")
    show.add_argument("--vector", required=True)
    show.add_argument("--json", action="store_true")
    show.add_argument("file")
    show.set_defaults(func=_cmd_show_ocf)

    check = sub.add_parser("check", help="verify a vector against the constraints")
    check.add_argument("--vector", required=True)
    _add_timeout(check, "every compile pass and peel step")
    check.add_argument("file")
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench", help="time solving on synthetic chain KBs")
    bench.add_argument("--n-from", type=int, required=True)
    bench.add_argument("--n-to", type=int, required=True)
    bench.add_argument("--j", type=int, default=0, help="trailing rules to remove")
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _vector_hint(argv: list[str]) -> str | None:
    """A hint for ``--vector -1,0,1``, which argparse reads as an option
    string, so that --vector has no argument; None for other arguments."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--vector" and value.startswith("-") and "," in value:
            return f"hint: attach a vector that starts with '-' to its option: --vector={value}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        hint = _vector_hint(sys.argv[1:] if argv is None else argv)
        if code == 2 and hint:
            print(hint, file=sys.stderr)
        return code
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: infeasible_within_bound: {exc}", file=sys.stderr)
        return 1
    except SolveTimeout:
        print("error: timed out", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed standard output.  Point it at devnull, so that
        # the flush at exit does not fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: file not found", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
