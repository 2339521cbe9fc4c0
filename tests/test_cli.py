import csv
import io
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import pytest

from crsolve import build_problem, gen_synthetic, induced_ocf, iter_solutions, parse_kb, render_kb, render_table
from crsolve.cli import main

from tests.helpers import (
    BIRDS_TEXT,
    PENGUINS_RANKS,
    PENGUINS_TEXT,
    induced_ranks_ref,
    ocf_records_ref,
    penguins_kb,
    world_str,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def birds_file(tmp_path):
    path = tmp_path / "birds.kb"
    path.write_text(BIRDS_TEXT)
    return str(path)


@pytest.fixture()
def penguins_file(tmp_path):
    path = tmp_path / "penguins.kb"
    path.write_text(PENGUINS_TEXT)
    return str(path)


@pytest.fixture()
def contradictory_file(tmp_path):
    path = tmp_path / "contra.kb"
    path.write_text("vars: a\nrule: (a | top)\nrule: (!a | top)\n")
    return str(path)


class TestSolve:
    def test_min_all_birds_text(self, birds_file, capsys):
        assert main(["solve", "--mode", "min-all", birds_file]) == 0
        assert capsys.readouterr().out == "1 0 1\n1 1 0\n"

    def test_all_with_limit(self, birds_file, capsys):
        assert main(["solve", "--mode", "all", "--limit", "5", birds_file]) == 0
        assert capsys.readouterr().out == "1 0 1\n1 0 2\n1 0 3\n1 1 0\n1 1 1\n"

    def test_pareto_limit_stops_early(self, tmp_path, capsys):
        # kb(10,19) has one frontier vector, found at once; proving there is
        # no other takes well over the timeout.
        path = tmp_path / "kb10.kb"
        path.write_text(render_kb(gen_synthetic(10)))
        assert main(["solve", "--mode", "pareto", "--limit", "1", "--timeout", "5", str(path)]) == 0
        assert capsys.readouterr().out == "1 2 2 2 2 2 2 2 2 2 2 3 4 5 6 7 8 9 10\n"

    def test_min_penguins(self, penguins_file, capsys):
        assert main(["solve", "--mode", "min", penguins_file]) == 0
        assert capsys.readouterr().out == "1 2 2 1 1\n"

    def test_min_all_json(self, penguins_file, capsys):
        assert main(["solve", "--mode", "min-all", "--json", penguins_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "ordering": "sum",
            "bound": 5,
            "solutions": [[1, 2, 2, 1, 1]],
            "minimal_sum": 7,
        }

    def test_pareto_json_flags_box_scope(self, birds_file, capsys):
        assert main(["solve", "--mode", "pareto", "--json", birds_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ordering"] == "componentwise"
        assert payload["complete_within_bound"] is True
        assert payload["solutions"] == [[1, 0, 1], [1, 1, 0]]

    def test_ocf_min(self, birds_file, capsys):
        assert main(["solve", "--mode", "ocf-min", birds_file]) == 0
        assert capsys.readouterr().out == "1 0 1\n"

    def test_bound_override(self, birds_file, capsys):
        assert main(["solve", "--mode", "all", "--bound", "1", birds_file]) == 0
        assert capsys.readouterr().out == "1 0 1\n1 1 0\n1 1 1\n"

    def test_text_and_json_agree(self, penguins_file, capsys):
        main(["solve", "--mode", "all", "--limit", "6", penguins_file])
        text_lines = capsys.readouterr().out.splitlines()
        main(["solve", "--mode", "all", "--limit", "6", "--json", penguins_file])
        payload = json.loads(capsys.readouterr().out)
        assert [[int(x) for x in line.split()] for line in text_lines] == payload["solutions"]

    def test_infeasible_exit_code(self, contradictory_file, capsys):
        assert main(["solve", "--mode", "min-all", contradictory_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "infeasible_within_bound" in captured.err

    def test_enumerate_infeasible_is_empty_and_exit_1(self, contradictory_file, capsys):
        assert main(["solve", "--mode", "all", contradictory_file]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flags, out",
        [([], ""), (["--json"], '{"ordering": "all", "bound": 1, "solutions": []}\n')],
        ids=["text", "json"],
    )
    def test_all_infeasible_reports_like_other_modes(self, flags, out, tmp_path, capsys):
        path = tmp_path / "degen.kb"
        path.write_text("vars: a\nrule: (!a | a)\n")
        assert main(["solve", "--mode", "min", str(path)]) == 1
        expected_err = capsys.readouterr().err
        assert main(["solve", "--mode", "all", *flags, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == expected_err
        assert expected_err.startswith("error: infeasible_within_bound: ")
        assert expected_err.endswith("degenerate rule(s) with no verifying world: 1\n")

    def test_degenerate_rule_reported(self, tmp_path, capsys):
        path = tmp_path / "degen.kb"
        path.write_text("vars: a\nrule: (a | bot)\n")
        assert main(["solve", "--mode", "min", str(path)]) == 1
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["all", "min", "min-all", "pareto", "ocf-min"])
    def test_negative_limit_rejected(self, mode, birds_file, capsys):
        assert main(["solve", "--mode", mode, "--limit", "-1", birds_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit must be positive" in captured.err

    @pytest.mark.parametrize("mode", ["all", "min", "min-all", "pareto", "ocf-min"])
    def test_zero_limit_rejected(self, mode, birds_file, capsys):
        # birds is feasible, so exit 1 ("no solution") would be a wrong answer.
        assert main(["solve", "--mode", mode, "--limit", "0", "--json", birds_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--limit must be positive, got 0" in captured.err

    def test_determinism(self, penguins_file, capsys):
        main(["solve", "--mode", "min-all", "--json", penguins_file])
        first = capsys.readouterr().out
        main(["solve", "--mode", "min-all", "--json", penguins_file])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("mode", ["all", "min", "min-all", "pareto", "ocf-min"])
    def test_expired_timeout_exits_3(self, mode, penguins_file, capsys):
        assert main(["solve", "--mode", mode, "--timeout", "1e-9", penguins_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: timed out\n"

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_nonpositive_timeout_rejected(self, timeout, birds_file, capsys):
        assert main(["solve", "--mode", "pareto", "--timeout", timeout, birds_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--timeout must be positive" in captured.err

    def test_generous_timeout_keeps_output(self, birds_file, capsys):
        assert main(["solve", "--mode", "pareto", "--timeout", "60", birds_file]) == 0
        assert capsys.readouterr().out == "1 0 1\n1 1 0\n"


def kb6_file(tmp_path, reverse=False):
    """kb(6,11), whose 8,139,125 solutions no test waits for, with its
    rules in declared or in reversed order."""
    head, *rules = render_kb(gen_synthetic(6)).splitlines(keepends=True)
    path = tmp_path / "kb6.kb"
    path.write_text(head + "".join(reversed(rules) if reverse else rules))
    return str(path)


def crsolve_process(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "crsolve.cli", *argv], env=env, text=True, **kwargs
    )


class TestStreamedAll:
    """``solve --mode all`` writes each vector as the search finds it."""

    def test_timeout_keeps_the_lines_written(self, tmp_path):
        path = kb6_file(tmp_path)
        run = crsolve_process(
            "solve", "--mode", "all", "--timeout", "0.3", path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, err = run.communicate(timeout=60)
        assert (run.returncode, err) == (3, "error: timed out\n")
        lines = out.splitlines()
        want = islice(iter_solutions(build_problem(parse_kb(Path(path).read_text()))), len(lines))
        assert lines == [" ".join(map(str, v)) for v in want]
        assert 0 < len(lines) < 8_139_125

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # As ``crsolve solve --mode all kb6.kb | head -n 3`` does.
        path = kb6_file(tmp_path)
        run = crsolve_process("solve", "--mode", "all", path, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        want = islice(iter_solutions(build_problem(parse_kb(Path(path).read_text()))), 3)
        assert [run.stdout.readline() for _ in range(3)] == [" ".join(map(str, v)) + "\n" for v in want]
        run.stdout.close()
        assert run.wait(timeout=60) == 141
        assert run.stderr.read() == ""
        run.stderr.close()

    def test_limit_and_json_agree_with_text(self, penguins_file, capsys):
        assert main(["solve", "--mode", "all", "--limit", "40", penguins_file]) == 0
        text = capsys.readouterr().out
        assert main(["solve", "--mode", "all", "--limit", "40", "--json", penguins_file]) == 0
        vectors = json.loads(capsys.readouterr().out)["solutions"]
        assert text == "".join(" ".join(map(str, v)) + "\n" for v in vectors)
        assert len(vectors) == 40


class TestTimeoutOnEveryCommand:
    ARGV = {
        "query-min": ["query", "--min", "(w | k)"],
        "query-vector": ["query", "--vector", "1,2,2,1,1", "(w | k)"],
        "check": ["check", "--vector", "1,2,2,1,1"],
    }

    @pytest.mark.parametrize("command", ["query-min", "check"])
    def test_expired_timeout_exits_3(self, command, penguins_file, capsys):
        assert main([*self.ARGV[command][:1], "--timeout", "1e-9", *self.ARGV[command][1:], penguins_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: timed out\n"

    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_nonpositive_timeout_rejected(self, command, timeout, penguins_file, capsys):
        assert main([*self.ARGV[command], "--timeout", timeout, penguins_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--timeout must be positive" in captured.err

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_generous_timeout_keeps_output(self, command, penguins_file, capsys):
        assert main([*self.ARGV[command], penguins_file]) in (0, 1)
        want = capsys.readouterr()
        assert main([*self.ARGV[command], "--timeout", "60", penguins_file]) in (0, 1)
        assert capsys.readouterr() == want

    def test_query_min_on_reversed_kb6_stops(self, tmp_path, capsys):
        # Its sum-minimal search takes over a million nodes.
        start = perf_counter()
        assert main(["query", "--min", "--timeout", "0.3", "(f | a1)", kb6_file(tmp_path, reverse=True)]) == 3
        assert perf_counter() - start < 3
        assert capsys.readouterr().err == "error: timed out\n"


class TestQuery:
    def test_accepted_with_min_vector(self, penguins_file, capsys):
        assert main(["query", "--min", "(w | k)", penguins_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["ACCEPTED", "verifying rank: 0", "falsifying rank: 1"]

    def test_rejected(self, penguins_file, capsys):
        assert main(["query", "--min", "(f | p)", penguins_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["REJECTED", "verifying rank: 2", "falsifying rank: 1"]

    def test_explicit_vector(self, penguins_file, capsys):
        assert main(["query", "--vector", "1,2,2,1,1", "(w | b)", penguins_file]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "ACCEPTED"

    def test_multiple_minima_warning(self, birds_file, capsys):
        assert main(["query", "--min", "(f | b)", birds_file]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "ACCEPTED"
        assert "2 sum-minimal solutions" in captured.err

    def test_no_warning_for_unique_minimum(self, penguins_file, capsys):
        main(["query", "--min", "(w | k)", penguins_file])
        assert capsys.readouterr().err == ""

    def test_infinite_rank_display(self, penguins_file, capsys):
        assert main(["query", "--vector", "1,2,2,1,1", "(p | bot)", penguins_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["REJECTED", "verifying rank: inf", "falsifying rank: inf"]


    def test_negative_vector_component(self, penguins_file, capsys):
        assert main(["query", "--vector=-5,0,0,0,0", "(f | p)", penguins_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative component" in captured.err

    def test_negative_first_component_of_bundled_kb(self, capsys):
        argv = ["query", "--vector=-1,0,1", "(f | b)", str(ROOT / "kbs" / "birds.kb")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative component" in captured.err

    def test_negative_first_component_needs_equals_sign(self, capsys):
        # argparse reads "-1,0,1" after a blank as an option, so --vector
        # has no argument.
        argv = ["query", "--vector", "-1,0,1", "(f | b)", str(ROOT / "kbs" / "birds.kb")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "expected one argument" in err
        assert err.endswith("hint: attach a vector that starts with '-' to its option: --vector=-1,0,1\n")
        for command in (["check"], ["show-ocf"]):
            assert main(command + ["--vector", "-1,0,1", str(ROOT / "kbs" / "birds.kb")]) == 2
            assert "--vector=-1,0,1" in capsys.readouterr().err


class TestShowOcf:
    def test_table_matches_reference_ranking(self, penguins_file, capsys):
        assert main(["show-ocf", "--vector", "1,2,2,1,1", penguins_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 32
        atoms = penguins_kb().atoms
        for i, line in enumerate(lines):
            w = 31 - i
            assert line.split() == world_str(atoms, w).split() + [str(PENGUINS_RANKS[w])]

    def test_component_past_64_bits(self, birds_file, capsys):
        v = (2**64, 0, 1)
        assert main(["show-ocf", "--vector", ",".join(map(str, v)), birds_file]) == 0
        ranks = [int(line.split()[-1]) for line in capsys.readouterr().out.splitlines()]
        assert ranks[::-1] == induced_ranks_ref(parse_kb(BIRDS_TEXT), v)
        assert max(ranks) >= 2**64

    def test_json_records(self, penguins_file, capsys):
        assert main(["show-ocf", "--vector", "1,2,2,1,1", "--json", penguins_file]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0] == {"world": "pbfwk", "rank": 2}
        assert len(records) == 32

    @pytest.mark.parametrize(
        "text, vector",
        [
            (PENGUINS_TEXT, (1, 2, 2, 1, 1)),
            # Unused atoms in both halves (x0, x1 high; x5, x6 low), seven atoms.
            ("vars: x0, x1, x2, x3, x4, x5, x6\nrule: (x2 | x3)\nrule: (!x4 ; x3 | top)\n", (7, 2**64)),
        ],
    )
    def test_streamed_output_equals_library(self, tmp_path, capsys, text, vector):
        # show-ocf writes its table chunk by chunk; the bytes must be those
        # of the library's whole-table renderings.
        path = tmp_path / "kb.kb"
        path.write_text(text)
        ranking = induced_ocf(parse_kb(text), vector)
        arg = ",".join(map(str, vector))
        assert main(["show-ocf", "--vector", arg, str(path)]) == 0
        assert capsys.readouterr().out == render_table(ranking)
        assert main(["show-ocf", "--vector", arg, "--json", str(path)]) == 0
        assert capsys.readouterr().out == json.dumps(ocf_records_ref(ranking)) + "\n"

    def test_wrong_length_vector(self, penguins_file, capsys):
        assert main(["show-ocf", "--vector", "1,2", penguins_file]) == 2

    def test_negative_vector_component(self, penguins_file, capsys):
        assert main(["show-ocf", "--vector=-5,0,0,0,0", penguins_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative component" in captured.err


class TestCheck:
    def test_valid(self, penguins_file, capsys):
        assert main(["check", "--vector", "1,2,2,1,1", penguins_file]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_invalid(self, penguins_file, capsys):
        assert main(["check", "--vector", "0,0,0,0,0", penguins_file]) == 1
        assert capsys.readouterr().out == "invalid\n"

    def test_negative_vector_component_is_invalid(self, penguins_file, capsys):
        assert main(["check", "--vector=-5,0,0,0,0", penguins_file]) == 1
        assert capsys.readouterr().out == "invalid\n"

    def test_negative_first_component_of_bundled_kb(self, capsys):
        assert main(["check", "--vector=-1,0,1", str(ROOT / "kbs" / "birds.kb")]) == 1
        assert capsys.readouterr().out == "invalid\n"

    def test_bad_vector_component(self, penguins_file, capsys):
        assert main(["check", "--vector", "1,x,2,1,1", penguins_file]) == 2
        assert "invalid vector component" in capsys.readouterr().err


class TestBench:
    def test_csv_to_stdout(self, capsys):
        assert main(["bench", "--n-from", "2", "--n-to", "3", "--reps", "1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["kb_name", "vars", "conditionals", "operation", "wall_time_s", "solutions_found"]
        assert [r[0] for r in rows[1:]] == ["kb(2,3)", "kb(3,5)"]
        assert all(r[3] == "min-all" and float(r[4]) >= 0 and int(r[5]) >= 1 for r in rows[1:])

    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-from", "2", "--n-to", "2", "--reps", "1", "--csv", str(out)]) == 0
        assert capsys.readouterr().out == ""
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert len(rows) == 2

    def test_j_out_of_range(self, capsys):
        assert main(["bench", "--n-from", "2", "--n-to", "2", "--j", "9"]) == 2

    def test_bad_range(self, capsys):
        assert main(["bench", "--n-from", "3", "--n-to", "2"]) == 2

    def test_n_beyond_atom_limit(self, capsys):
        assert main(["bench", "--n-from", "20", "--n-to", "20"]) == 2
        assert capsys.readouterr().err == "error: n must be in [1, 19]\n"


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["solve", "--mode", "all", "/nonexistent/kb"]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_kb_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.kb"
        path.write_text("vars: a\nrule: (a | q)\n")
        assert main(["solve", "--mode", "all", str(path)]) == 2
        assert "unknown atom" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--mode", "min"],
            ["solve", "--mode", "min-all", "--json"],
            ["query", "--min", "(f | b)"],
            ["check", "--vector", "1,0,1"],
        ],
    )
    def test_byte_order_mark_is_ignored(self, argv, birds_file, tmp_path, capsys):
        bom_file = tmp_path / "birds-bom.kb"
        bom_file.write_bytes("\ufeff".encode("utf-8") + BIRDS_TEXT.encode("utf-8"))
        plain = main(argv + [birds_file]), capsys.readouterr().out
        assert main(argv + [str(bom_file)]) == plain[0] == 0
        assert capsys.readouterr().out == plain[1]

    def test_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_mode(self, birds_file, capsys):
        assert main(["solve", "--mode", "fastest", birds_file]) == 2

    def test_query_requires_vector_source(self, penguins_file, capsys):
        assert main(["query", "(w | k)", penguins_file]) == 2


class TestProcessExitStatus:
    # The module run as a program exits with the code that main returns.
    @pytest.mark.parametrize(
        "argv, status",
        [
            (["solve", "--mode", "min-all", "kbs/birds.kb"], 0),
            (["check", "--vector", "0,0,0,0,0", "kbs/penguins.kb"], 1),
            (["solve", "--mode", "min", "kbs/missing.kb"], 2),
            (["solve", "--mode", "min", "--timeout", "1e-9", "kbs/birds.kb"], 3),
        ],
        ids=["0", "1", "2", "3"],
    )
    def test_exit_status(self, argv, status):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "crsolve.cli", *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == status, run.stderr
        if status == 0:
            assert run.stdout == "1 0 1\n1 1 0\n"
