"""crsolve benchmark: seeded, CLI-shaped requests through the library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; crsolve is imported from ``src/``.
One client sends requests in a closed loop (the next request starts when
the previous one ends), single-threaded, in one process.  A workload is a
round of requests (see ``kbgen``) that is repeated, in whole rounds, for
about ``--seconds`` and at least the workload's ``min_rounds``.  A
request's latency is the best of its timed repeats, scaled to a reference
speed of the host (see ``Run.measure``).

Before timing, one warm-up round runs every request once; its answers are
checked by the independent oracle (``oracle``) and a sample is compared
with ``crsolve.cli.main`` on the written KB files.  Timed answers must
match the checked ones exactly.  A failure is an exception, a deadline
hit, a wrong answer or a CLI mismatch; each is reported, never skipped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced round and a traced round, where spans wrap every call into the
``kb``, ``worlds``, ``csp`` and ``ocf`` layers, and prints the per-layer
metrics.  The last line of stdout is one JSON object; the generated KBs,
the replayable ``crsolve`` commands, the results and (traced) the spans go
to ``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import kbgen  # noqa: E402
from oracle import Semantics, check_solve  # noqa: E402

SETUP_REPEATS = 9
# A solve that runs this long is stopped and counted as failed.
DEADLINE_S = 10.0
# Past this many seconds after start no request is sent any more (the
# rest count as failed), so a badly slowed program still ends the run.
RUN_BUDGET_S = 150.0
PARITY_SAMPLES = 4
# The reference loop timed after each timed request, and its time on the
# host the benchmark was written on when that host was not slowed (2.0 GHz
# Xeon, KVM): latencies are scaled to that speed (see ``Run.measure``).
REFERENCE_LOOPS = 3000
REFERENCE_S = 2.0e-4


def reference_time() -> float:
    """Seconds the host takes now for a fixed pure-Python loop."""
    start = time.perf_counter()
    z = 0
    for q in range(REFERENCE_LOOPS):
        z += q * q % 7
    return time.perf_counter() - start


class Tracer:
    """Spans around the benchmark's calls into crsolve.

    Disabled, ``call`` is a direct call.  Enabled, it records
    ``(request id, name, start, end)``; every span's parent is the request.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.request = 0
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.request, name, start, time.perf_counter()))


def _compile(cr, tr: Tracer, kb):
    if tr.enabled:
        # Probe: the world layer alone, on the same KB, for the split of
        # build_problem into world sets and signature compilation.
        tr.call("worlds.build_partitions", cr.build_partitions, kb)
        tr.counts["worlds.worlds"] += 1 << kb.m
    p = tr.call("csp.build_problem", cr.build_problem, kb)
    if tr.enabled:
        tr.counts["csp.distinct_sigs"] += len(set(p.world_sigs))
        tr.counts["csp.minimal_sigs"] += sum(map(len, p.verifying_sigs + p.falsifying_sigs))
    return p


def execute(cr, tr: Tracer, req: kbgen.Request, text: str, cond_text: str | None):
    """What the equivalent ``crsolve`` command computes, as plain data:
    a solve gives ``None`` (infeasible) or ``(minimal sum or None,
    vectors)``; query gives the two acceptance ranks; show-ocf the table
    text; check a bool."""
    kb = tr.call("kb.parse_kb", cr.parse_kb, text)
    op = req.op
    if req.kind == "solve":
        p = _compile(cr, tr, kb)
        deadline = min(time.perf_counter() + DEADLINE_S, START + RUN_BUDGET_S)
        try:
            if op == "min":
                s, v = tr.call("csp.solve_min_sum", cr.solve_min_sum, p, deadline=deadline)
                return s, (v,)
            if op == "min-all":
                if tr.enabled:
                    tr.call("probe.solve_min_sum", cr.solve_min_sum, p, deadline=deadline)
                r = tr.call("csp.all_min_sum", cr.all_min_sum, p, deadline=deadline)
                return r.minimal_sum, r.vectors
            fn = {"all": cr.enumerate_solutions, "pareto": cr.pareto_min, "ocf-min": cr.ocf_min}[op]
            return None, tr.call("csp." + fn.__name__, fn, p, deadline=deadline).vectors
        except cr.InfeasibleError:
            return None
    if op == "check":
        p = _compile(cr, tr, kb)
        return tr.call("csp.check_solution", cr.check_solution, p, req.vector)
    if op == "show-ocf":
        ranking = tr.call("ocf.induced_ocf", cr.induced_ocf, kb, req.vector)
        return tr.call("ocf.render_table", cr.render_table, ranking)
    c = tr.call("kb.parse_conditional", cr.parse_conditional, cond_text, kb.atoms)
    ranking = tr.call("ocf.induced_ocf", cr.induced_ocf, kb, req.vector)
    return tr.call("ocf.acceptance_ranks", cr.acceptance_ranks, ranking, c)


def cli_output(req: kbgen.Request, result) -> tuple[str, int]:
    """The stdout and exit code ``crsolve`` prints for a library result."""
    if req.kind == "solve":
        vectors = () if result is None else result[1]
        return "".join(" ".join(map(str, v)) + "\n" for v in vectors), 0 if vectors else 1
    if req.op == "query":
        ver, fal = result
        return f"{'ACCEPTED' if ver < fal else 'REJECTED'}\nverifying rank: {ver}\nfalsifying rank: {fal}\n", 0
    if req.op == "show-ocf":
        return result, 0
    return ("valid\n", 0) if result else ("invalid\n", 1)


def _finite(x) -> int | None:
    return x if isinstance(x, int) else None


def oracle_problems(sem: Semantics, req: kbgen.Request, result) -> list[str]:
    if req.kind == "solve":
        if result is None:
            return check_solve(sem, req.op, None)
        return check_solve(sem, req.op, result[1], result[0])
    if req.op == "check":
        want = sem.valid(req.vector)
        return [] if result == want else [f"check says {result}, oracle says {want}"]
    if req.op == "query":
        got = tuple(_finite(x) for x in result)
        want = sem.acceptance(req.vector, req.cond)
        return [] if got == want else [f"acceptance ranks {got}, oracle {want} (None = inf)"]
    ranks = sem.ranks(req.vector)
    lines = result.splitlines()
    want = {sem.world_text(w): int(r) for w, r in enumerate(ranks)}
    got = {}
    for line in lines:
        world, _, rank = line.rstrip().rpartition("  ")
        got[world.rstrip()] = int(rank)
    return [] if got == want and len(lines) == len(want) else ["show-ocf table differs from pointwise ranks"]


def cross_problems(wl: kbgen.Workload, results: dict) -> list[tuple[int, str]]:
    """min must return the minimal sum and the first min-all vector."""
    problems = []
    for i, req in enumerate(wl.requests):
        if req.op != "min":
            continue
        twin = results[next(j for j, r in enumerate(wl.requests) if r.op == "min-all" and r.kb == req.kb)]
        if results[i] != (twin and (twin[0], twin[1][:1])):
            problems.append((i, f"request {i}: min {results[i]} is not the first min-all answer"))
    return problems


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(samples: int) -> float:
    """The highest whole percentile that leaves at least ten samples
    beyond it, and never less than the median."""
    return max(50.0, float(math.floor(100 - 1000 / samples))) if samples else 50.0


def fresh_setup(workload: str, seed: int):
    """Import crsolve from scratch and build the workload's inputs."""
    for name in [m for m in sys.modules if m == "crsolve" or m.startswith("crsolve.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    start = time.perf_counter()
    try:
        cr = importlib.import_module("crsolve")
    except ModuleNotFoundError:
        raise SystemExit(f"error: crsolve not found; run from the root of a checkout with {ROOT / 'src'}")
    wl = kbgen.WORKLOADS[workload](seed)
    texts = [kb.text() for kb in wl.kbs]
    payload = [(req, texts[req.kb], req.cond.text() if req.cond else None) for req in wl.requests]
    return time.perf_counter() - start, cr, wl, texts, payload


class Run:
    def __init__(self, args):
        self.args = args
        elapsed, cr, wl, texts, payload = fresh_setup(args.workload, args.seed)
        src = (ROOT / "src").resolve()
        if src not in Path(cr.__file__).resolve().parents:
            raise SystemExit(f"error: crsolve imported from {cr.__file__}, not from {src}")
        self.setups = [elapsed]
        self.cr, self.wl, self.payload = cr, wl, payload
        self.out = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
        (self.out / "kbs").mkdir(parents=True, exist_ok=True)
        self.paths = []
        for k, (kb, text) in enumerate(zip(wl.kbs, texts)):
            path = self.out / "kbs" / f"{k:02d}-{kb.name.replace(',', '-').strip('()').replace('(', '')}.kb"
            path.write_text(text, encoding="utf-8")
            self.paths.append(path)
        with open(self.out / "requests.txt", "w", encoding="utf-8") as f:
            for req in wl.requests:
                argv = req.argv(str(self.paths[req.kb].relative_to(ROOT)))
                f.write("PYTHONPATH=src python3 -m crsolve.cli " + " ".join(map(_quote, argv)) + "\n")
        self.order_rng = random.Random(f"order/{args.seed}")
        self.failures: list[str] = []
        self.wrong: set[int] = set()  # requests whose checked answer is wrong
        self.done: Counter = Counter()  # timed completions per request

    def fail(self, message: str, request: int | None = None) -> None:
        self.failures.append(message)
        if request is not None:
            self.wrong.add(request)

    def one(self, tr: Tracer, i: int):
        """Run request i; returns (seconds, result) or (seconds, exception)."""
        req, text, cond_text = self.payload[i]
        start = time.perf_counter()
        try:
            result = execute(self.cr, tr, req, text, cond_text)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            return time.perf_counter() - start, exc
        return time.perf_counter() - start, result

    def warm_up(self) -> None:
        """One untimed round; its answers are checked and become the
        reference for every timed answer."""
        tr = Tracer(False)
        self.results, self.digests = {}, {}
        for i, (req, _, _) in enumerate(self.payload):
            _, result = self.one(tr, i)
            if isinstance(result, Exception):
                self.fail(f"warm-up request {i} ({req.op}): {type(result).__name__}: {result}", i)
                continue
            self.results[i] = result
            self.digests[i] = hash(result)

    def verify(self) -> None:
        """Oracle and CLI parity on the warm-up answers (outside any timing)."""
        sems = [Semantics(kb) for kb in self.wl.kbs]
        for i, result in self.results.items():
            req = self.wl.requests[i]
            for problem in oracle_problems(sems[req.kb], req, result):
                self.fail(f"request {i} (crsolve {' '.join(req.argv(self.paths[req.kb].name))}): {problem}", i)
        if len(self.results) == len(self.wl.requests):
            for i, problem in cross_problems(self.wl, self.results):
                self.fail(problem, i)
        cli = importlib.import_module("crsolve.cli")
        picks = sorted(self.results)
        rng = random.Random(f"parity/{self.args.seed}")
        sample = rng.sample(picks, min(PARITY_SAMPLES, len(picks)))
        for i in sample:
            req = self.wl.requests[i]
            argv = req.argv(str(self.paths[req.kb]))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if (out.getvalue(), code) != cli_output(req, self.results[i]):
                self.fail(f"request {i}: crsolve {' '.join(argv)} differs from the library answer", i)
        self.parity = len(sample)

    def round(self, tr: Tracer, lat: list | None = None) -> tuple[int, int]:
        """One timed round, in an order of its own, so that no request
        always follows the same one (whose traces in the caches it would
        inherit); returns (attempted, failed so far known).  Answers found
        wrong by the later check count as failed then."""
        failed = 0
        order = list(range(len(self.payload)))
        self.order_rng.shuffle(order)
        before = reference_time() if lat is not None else 0.0
        for sent, i in enumerate(order):
            req = self.payload[i][0]
            if time.perf_counter() > START + RUN_BUDGET_S:
                self.fail(f"run budget of {RUN_BUDGET_S} s spent; {len(order) - sent} requests not sent")
                return len(order), failed + len(order) - sent
            tr.request += 1
            seconds, result = self.one(tr, i)
            if lat is not None:
                # The faster of the reference loops on either side: a
                # sample is scaled for a slow spell only if the spell
                # spans the request.
                after = reference_time()
                ref, before = min(before, after), after
            if isinstance(result, Exception):
                if isinstance(result, self.cr.SolveTimeout):
                    self.fail(f"request {i} ({req.op}): deadline of {DEADLINE_S} s hit")
                else:
                    self.fail(f"request {i} ({req.op}): {type(result).__name__}: {result}", i)
                failed += 1
                continue
            if hash(result) != self.digests.get(i):
                self.fail(f"request {i} ({req.op}): answer differs from the warm-up answer", i)
                failed += 1
                continue
            self.done[i] += 1
            if lat is not None:
                lat.append((i, seconds, ref))
        return len(self.payload), failed

    def late_failures(self) -> int:
        """Timed completions of requests whose answer the check rejected."""
        return sum(self.done[i] for i in self.wrong)

    def repeat_setup(self) -> None:
        """One more fresh import and generation, timed for setup_s only.
        Repeats are spread between rounds so that they do not all fall
        into one slow spell of a shared machine; requests keep using the
        first import."""
        if len(self.setups) < SETUP_REPEATS:
            self.setups.append(fresh_setup(self.args.workload, self.args.seed)[0])

    def enough(self, rounds: int, elapsed: float) -> bool:
        if rounds < max(1, self.wl.min_rounds):
            return False
        return elapsed + elapsed / rounds > self.args.seconds

    def measure(self) -> dict:
        """A request's latency is its best over the rounds, each sample
        scaled to the reference speed: times REFERENCE_S over the time the
        reference loop took next to it (see ``round``).  A shared host
        slows everything run on it for spells from a fraction of a second
        to minutes; the best repeat escapes the short spells and the
        scaling most of the long ones, which no repeat escapes.  The
        unscaled figures go to the notes."""
        lat: list[tuple[int, float, float]] = []
        tr = Tracer(False)
        attempted = failed = rounds = 0
        wall = 0.0
        while not self.enough(rounds, wall) and time.perf_counter() < START + RUN_BUDGET_S:
            start = time.perf_counter()
            a, f = self.round(tr, lat)
            wall += time.perf_counter() - start
            attempted, failed, rounds = attempted + a, failed + f, rounds + 1
            self.repeat_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(self.setups) < SETUP_REPEATS:
            self.repeat_setup()
        self.verify()
        failed += self.late_failures()
        scaled: dict[int, float] = {}
        raw: dict[int, float] = {}
        for i, seconds, ref in lat:
            if i not in self.wrong:
                scaled[i] = min(seconds * REFERENCE_S / ref, scaled.get(i, math.inf))
                raw[i] = min(seconds, raw.get(i, math.inf))
        refs = [ref for _, _, ref in lat] or [REFERENCE_S]
        metrics = {"setup_s": (statistics.median(self.setups), "s")}
        notes = [f"rounds {rounds}, timed {wall:.3f} s ({(attempted - failed) / wall:.3f} requests/s wall), "
                 f"setup_s is the median of {SETUP_REPEATS}",
                 f"reference loop: median {statistics.median(refs) * 1e3:.4f} ms, "
                 f"best {min(refs) * 1e3:.4f} ms, scaled to {REFERENCE_S * 1e3:g} ms"]
        for kind in ("solve", "query"):
            ids = [i for i in scaled if self.wl.requests[i].kind == kind]
            xs = [scaled[i] for i in ids] or [float("nan")]
            level = tail_level(len(ids))
            metrics[f"{kind}_p50_s"] = (statistics.median(xs), "s")
            metrics[f"{kind}_tail_s"] = (percentile(xs, level), "s")
            unscaled = [raw[i] for i in ids] or [float("nan")]
            notes.append(f"{kind}: best of {rounds} rounds for each of {len(ids)} requests, {kind}_tail_s is "
                         f"p{level:g}; unscaled p50 {statistics.median(unscaled):.6f} s, "
                         f"p{level:g} {percentile(unscaled, level):.6f} s")
        metrics["throughput_rps"] = (len(scaled) / sum(scaled.values()) if scaled else 0.0, "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        if raw:
            notes.append(f"unscaled throughput {len(raw) / sum(raw.values()):.3f} 1/s")
        notes.append(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
        return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}

    def measure_traced(self) -> dict:
        """Pairs of an untraced and a traced round; layer times are per
        traced round, counts from the first traced round."""
        plain, traced = Tracer(False), Tracer(True)
        overheads, attempted, failed, pairs = [], 0, 0, 0
        start = time.perf_counter()
        while pairs < 1 or (self.args.seconds >= (time.perf_counter() - start) * (pairs + 1) / pairs
                            and time.perf_counter() < START + RUN_BUDGET_S):
            t0 = time.perf_counter()
            a, f = self.round(plain)
            t1 = time.perf_counter()
            b, g = self.round(traced)
            overheads.append(time.perf_counter() - t1 - (t1 - t0))
            if pairs == 0:
                counts = dict(traced.counts)
            attempted, failed, pairs = attempted + a + b, failed + f + g, pairs + 1
        if dict(traced.counts) != {k: v * pairs for k, v in counts.items()}:
            self.fail("layer counts differ between traced rounds")
        self.verify()
        failed += self.late_failures()
        total = defaultdict(float)
        for _, name, s, e in traced.spans:
            total[name] += e - s
        t = {name: v / pairs for name, v in total.items()}
        box = self.box_counts()
        m: dict[str, tuple[float, str]] = {}
        for name in ("kb.parse_kb", "kb.parse_conditional", "worlds.build_partitions", "csp.build_problem",
                     "csp.solve_min_sum", "csp.all_min_sum", "csp.enumerate_solutions", "csp.pareto_min",
                     "csp.ocf_min", "csp.check_solution", "ocf.induced_ocf", "ocf.acceptance_ranks",
                     "ocf.render_table"):
            m[name + "_s"] = (t.get(name, 0.0), "s")
        m["csp.compile_self_s"] = (t.get("csp.build_problem", 0.0) - t.get("worlds.build_partitions", 0.0), "s")
        m["csp.min_all_second_pass_s"] = (t.get("csp.all_min_sum", 0.0) - t.get("probe.solve_min_sum", 0.0), "s")
        m["trace.overhead_s"] = (statistics.median(overheads), "s")
        m["worlds.worlds"] = (counts.get("worlds.worlds", 0), "count")
        distinct, minimal = counts.get("csp.distinct_sigs", 0), counts.get("csp.minimal_sigs", 0)
        m["csp.distinct_sigs"] = (distinct, "count")
        m["csp.minimal_sigs"] = (minimal, "count")
        m["csp.sig_keep_ratio"] = (minimal / distinct if distinct else 0.0, "ratio")
        m["csp.box_solutions"] = (box["enumerated"], "count")
        m["csp.frontier_size"] = (box["frontier"], "count")
        m["csp.frontier_ratio"] = (box["frontier"] / box["pareto_box"] if box["pareto_box"] else 0.0, "ratio")
        queries = [i for i, r in enumerate(self.wl.requests) if r.op == "query" and i in self.results]
        m["ocf.queries"] = (len(queries), "count")
        m["ocf.accepted"] = (sum(1 for i in queries if self.results[i][0] < self.results[i][1]), "count")
        notes = [
            f"{pairs} traced rounds; layer times are per round",
            f"csp.sig_keep_ratio = {minimal}/{distinct}",
            f"csp.frontier_ratio = {box['frontier']}/{box['pareto_box']}",
        ]
        self.spans = traced.spans
        return {"attempted": attempted, "failed": failed, "metrics": m, "notes": notes}

    def box_counts(self) -> dict:
        """Box vectors enumerated per round (all, pareto and ocf-min each
        enumerate their KB's whole box) and the pareto frontier kept."""
        size = {r.kb: len(self.results[i][1]) for i, r in enumerate(self.wl.requests)
                if r.op == "all" and i in self.results and self.results[i] is not None}
        out = Counter()
        for i, r in enumerate(self.wl.requests):
            if r.op in ("all", "pareto", "ocf-min"):
                out["enumerated"] += size.get(r.kb, 0)
            if r.op == "pareto":
                out["pareto_box"] += size.get(r.kb, 0)
                res = self.results.get(i)
                out["frontier"] += len(res[1]) if res else 0
        return out


def _quote(arg: str) -> str:
    return arg if arg and all(c.isalnum() or c in "-_./,=" for c in arg) else "'" + arg.replace("'", "'\\''") + "'"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(kbgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(args)
    run.warm_up()
    # The warm-up answers stay alive for the checks; keep them, and every
    # other object made so far, out of the collections that timed
    # requests trigger, as in a process that serves a single command.
    gc.freeze()
    report = run.measure_traced() if args.trace else run.measure()
    report["notes"].append(f"oracle checked {len(run.results)} answers; CLI parity on {run.parity} requests")
    for line in run.failures[:50]:
        print("FAIL", line)
    for name, (value, unit) in report["metrics"].items():
        print(f"{args.workload:14s} {name:28s} {value:14.6f} {unit}")
    for note in report["notes"]:
        print("#", note)
    result = {
        "correct": not run.wrong,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  notes=report["notes"], failures=run.failures)
    (run.out / "results.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(run.out / "spans.jsonl", "w", encoding="utf-8") as f:
            for rid, name, s, e in run.spans:
                f.write(json.dumps({"request": rid, "parent": "request", "name": name, "start": s, "end": e}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
