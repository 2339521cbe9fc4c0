"""Seeded inputs for the crsolve benchmark.

Knowledge bases are built here as plain data (atom names and DNF rules)
and rendered to crsolve's text format; the program under test only ever
sees the text.  The oracle reads the same data, so it never depends on
crsolve's parser.  Everything is a pure function of the seed.

Each workload is one round of requests that the benchmark repeats.  Costs
that decide a percentile must not swing with the seed, so the seed renames
atoms, reorders declarations, flips polarities and picks literals, query
conditionals and vectors, while the shapes that set the amount of work
(chain sizes, formula sizes, box-filter's random KBs) are fixed per slot.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass

Lit = tuple[str, bool]
Term = tuple[Lit, ...]
Dnf = tuple[Term, ...]

READ_OPS = ("query", "show-ocf", "check")

# Two-character names keep every rendered world line equally wide.
_NAMES = [c + d for c in string.ascii_lowercase for d in string.digits]


def render_dnf(f: Dnf) -> str:
    return " ; ".join(", ".join(("" if pos else "!") + a for a, pos in term) for term in f)


@dataclass(frozen=True)
class Cond:
    """A conditional (consequent | antecedent) over atom names."""

    consequent: Dnf
    antecedent: Dnf

    def text(self) -> str:
        return f"({render_dnf(self.consequent)} | {render_dnf(self.antecedent)})"


@dataclass(frozen=True)
class GenKB:
    name: str
    atoms: tuple[str, ...]
    rules: tuple[Cond, ...]

    def text(self) -> str:
        lines = [f"# {self.name}", "vars: " + ", ".join(self.atoms)]
        lines += [f"rule: {r.text()}" for r in self.rules]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    """One CLI-shaped request: a solve mode or a read op on KB ``kb``."""

    op: str
    kb: int
    cond: Cond | None = None
    vector: tuple[int, ...] | None = None

    @property
    def kind(self) -> str:
        return "query" if self.op in READ_OPS else "solve"

    def argv(self, path: str) -> list[str]:
        """Arguments of the equivalent ``crsolve`` command line."""
        if self.kind == "solve":
            return ["solve", "--mode", self.op, path]
        vec = ",".join(map(str, self.vector))
        if self.op == "query":
            return ["query", "--vector", vec, self.cond.text(), path]
        return [self.op, "--vector", vec, path]


@dataclass(frozen=True)
class Workload:
    name: str
    kbs: tuple[GenKB, ...]
    requests: tuple[Request, ...]
    # Rounds run even past --seconds, so every run has enough samples for
    # the tail percentile the workload reports.
    min_rounds: int


def lit(atom: str, positive: bool = True) -> Dnf:
    return (((atom, positive),),)


def conj(*lits: Lit) -> Dnf:
    return (tuple(lits),)


def chain_kb(n: int, j: int = 0, names: list[str] | None = None, order: list[int] | None = None) -> GenKB:
    """The chain family kb(n) minus its last j rules, as in crsolve's
    ``gen_synthetic``: atoms f, a1..an; rules (f|a1), (!f|a2), ...
    alternating, then (a1|a2), ..., (a_{n-1}|a_n).  ``names`` renames the
    atoms and ``order`` permutes their declaration."""
    base = ["f"] + [f"a{i}" for i in range(1, n + 1)]
    names = names or base
    f, a = names[0], names[1:]
    rules = [Cond(lit(f, i % 2 == 1), lit(a[i - 1])) for i in range(1, n + 1)]
    rules += [Cond(lit(a[i - 1]), lit(a[i])) for i in range(1, n)]
    order = order or list(range(n + 1))
    return GenKB(f"kb({n},{2 * n - 1 - j})", tuple(names[k] for k in order), tuple(rules[: len(rules) - j]))


BIRDS = GenKB(
    "birds",
    ("b", "f", "a"),
    (Cond(lit("f"), lit("b")), Cond(lit("a"), lit("b")), Cond(lit("a"), conj(("f", True), ("b", True)))),
)

PENGUINS = GenKB(
    "penguins",
    ("p", "b", "f", "w", "k"),
    (
        Cond(lit("f"), lit("b")),
        Cond(lit("b"), lit("p")),
        Cond(lit("f", False), lit("p")),
        Cond(lit("w"), lit("b")),
        Cond(lit("b"), lit("k")),
    ),
)


def _renamed(kb: GenKB, rng: random.Random) -> GenKB:
    """Same KB under fresh atom names, a shuffled declaration order and
    the polarity of some atoms flipped.  Each is a symmetry of the world
    space, so the solutions, and the work of finding them, stay the same."""
    new = dict(zip(kb.atoms, rng.sample(_NAMES, len(kb.atoms))))
    flip = {a: rng.random() < 0.5 for a in kb.atoms}

    def dnf(f: Dnf) -> Dnf:
        return tuple(tuple((new[a], p != flip[a]) for a, p in term) for term in f)

    atoms = [new[a] for a in kb.atoms]
    rng.shuffle(atoms)
    rules = tuple(Cond(dnf(r.consequent), dnf(r.antecedent)) for r in kb.rules)
    return GenKB(kb.name, tuple(atoms), rules)


def _random_cond(rng: random.Random, atoms: tuple[str, ...], shape: tuple[int, int, int]) -> Cond:
    """A conditional over distinct random atoms with random polarities.
    ``shape`` = (consequent literals, antecedent literals, antecedent
    terms): one antecedent term is a conjunction, two make a disjunction
    of single literals."""
    ncons, nant, terms = shape
    picked = rng.sample(atoms, ncons + nant)
    lits = [(a, rng.random() < 0.5) for a in picked]
    cons = (tuple(lits[:ncons]),)
    ant_lits = lits[ncons:]
    ant = tuple((x,) for x in ant_lits) if terms > 1 else (tuple(ant_lits),)
    return Cond(cons, ant)


def _random_vector(rng: random.Random, n: int, lo: int = 0) -> tuple[int, ...]:
    return tuple(rng.randint(lo, max(lo, n)) for _ in range(n))


def _queries(rng: random.Random, k: int, kb: GenKB, shapes) -> list[Request]:
    # Read vectors have no zero component: a zero skips its rule's scan in
    # induced_ocf, and the cost of a read should not depend on the draw.
    n = len(kb.rules)
    return [Request("query", k, _random_cond(rng, kb.atoms, s), _random_vector(rng, n, lo=1)) for s in shapes]


# Every request of a round recurs once per round, so the samples form one
# block per request.  An odd number of solve (and of query) requests per
# round puts the median in the middle of one block rather than between two
# blocks of different cost; the comments below give the counts.
QUERY_SHAPES = [(1, 1, 1), (1, 2, 1), (1, 2, 2)]

# chain-search: kb(n, j) across n = 6..10 and three truncations, each with
# min-all, min and three queries, plus kb(2,3) for the ops the grid does
# not use.  At most 2^11 worlds, so search dominates.  33 / 47 requests.
CHAIN_GRID = [(n, j) for n in range(6, 11) for j in (0, 2, 4)]


def chain_search(seed: int) -> Workload:
    rng = random.Random(f"chain-search/{seed}")
    kbs, reqs = [], []
    for k, (n, j) in enumerate(CHAIN_GRID + [(2, 0)]):
        names = rng.sample(_NAMES, n + 1)
        order = list(range(n + 1))
        rng.shuffle(order)
        kb = chain_kb(n, j, names, order)
        kbs.append(kb)
        if n == 2:
            reqs += [Request(mode, k) for mode in ("all", "pareto", "ocf-min")]
            reqs.append(Request("show-ocf", k, vector=_random_vector(rng, len(kb.rules))))
            reqs.append(Request("check", k, vector=_random_vector(rng, len(kb.rules))))
        else:
            reqs += [Request("min-all", k), Request("min", k)]
            reqs += _queries(rng, k, kb, QUERY_SHAPES)
    rng.shuffle(reqs)
    return Workload("chain-search", tuple(kbs), tuple(reqs), min_rounds=7)


# wide-query: one line per KB: atoms, rules, solve modes, and how many
# queries, show-ocf and check requests it takes.  The ten solves and
# twenty queries on the five 14-atom, 4-rule KBs are the middle blocks of
# equal cost that the medians fall into.  The larger KBs take few
# requests, because one request on 16 atoms costs as much as four on 14,
# and the round must stay short enough to repeat often within a run.  Rule
# consequents use atoms of their own that no antecedent mentions, so every
# KB is consistent and search is trivial; the time goes to scans over
# 2^m-bit world sets.  A scan over a world set costs in
# proportion to the set's size times its largest world, so the first
# WIDE_FREE declared atoms (the high bits of a world index) occur in no
# formula: the largest world of every set then stays within 1/16 of 2^m
# whatever literals the seed picks.  21 / 37 requests.
WIDE_KBS = [
    (14, 2, ("min-all", "min", "all", "pareto", "ocf-min"), 1, 1, 1),
    (14, 2, ("min-all", "min"), 1, 0, 1),
    *[(14, 4, ("min-all", "min"), 4, int(i < 2), 1) for i in range(5)],
    (14, 6, ("min-all", "min"), 1, 0, 1),
    (15, 4, ("min-all",), 1, 1, 0),
    (16, 2, ("min-all",), 1, 0, 0),
]
WIDE_FREE = 4
WIDE_RULE_SHAPES = [(1, 2, 1), (1, 1, 1), (2, 2, 2), (1, 3, 1), (1, 2, 2), (1, 1, 1)]
WIDE_QUERY_SHAPE = (1, 2, 1)


def _wide_kb(rng: random.Random, m: int, n: int) -> GenKB:
    atoms = tuple(rng.sample(_NAMES, m))
    pool = list(atoms[WIDE_FREE:])
    rng.shuffle(pool)
    heads = []
    for i in range(n):
        ncons = WIDE_RULE_SHAPES[i % len(WIDE_RULE_SHAPES)][0]
        own, pool = pool[:ncons], pool[ncons:]
        heads.append(tuple(((a, rng.random() < 0.5),) for a in own))
    rules = []
    for i, cons in enumerate(heads):
        _, nant, terms = WIDE_RULE_SHAPES[i % len(WIDE_RULE_SHAPES)]
        ant_lits = [(a, rng.random() < 0.5) for a in rng.sample(pool, nant)]
        ant = tuple((x,) for x in ant_lits) if terms > 1 else (tuple(ant_lits),)
        rules.append(Cond(cons, ant))
    return GenKB(f"wide({m},{n})", atoms, tuple(rules))


def wide_query(seed: int) -> Workload:
    rng = random.Random(f"wide-query/{seed}")
    kbs, reqs = [], []
    for k, (m, n, modes, queries, show, check) in enumerate(WIDE_KBS):
        kb = _wide_kb(rng, m, n)
        kbs.append(kb)
        reqs += [Request(mode, k) for mode in modes]
        used = kb.atoms[WIDE_FREE:]
        # The first query asks for the KB's own first rule, which has the
        # query shape and is accepted under every solution.
        conds = [kb.rules[0]] + [_random_cond(rng, used, WIDE_QUERY_SHAPE) for _ in range(queries - 1)]
        for cond in conds:
            reqs.append(Request("query", k, cond, _random_vector(rng, n, lo=1)))
        reqs += [Request("show-ocf", k, vector=_random_vector(rng, n, lo=1)) for _ in range(show)]
        reqs += [Request("check", k, vector=_random_vector(rng, n)) for _ in range(check)]
    rng.shuffle(reqs)
    return Workload("wide-query", tuple(kbs), tuple(reqs), min_rounds=4)


# box-filter: fixed KBs plus random ones over 4-6 atoms, each with all,
# pareto, ocf-min, three queries and a check; birds also takes min-all and
# min, penguins takes show-ocf.  A random KB is the draw, out of a fixed
# number, whose count of box solutions is nearest its slot's target;
# target 0 builds an inconsistent KB from a contradicting pair of rules.
# Enumeration time follows more than the count, so the random KBs are
# drawn once, from a seed of their own, and the workload seed only
# renames them (``_renamed``), as it does the fixed KBs.  41 / 53 requests.
BOX_FIXED = [BIRDS, PENGUINS, chain_kb(3), chain_kb(4, 1), chain_kb(4)]
BOX_SLOTS = [(4, 4, 0), (5, 5, 0), (4, 4, 200), (6, 4, 200), (4, 5, 1500), (5, 5, 1500), (6, 5, 1500), (5, 5, 3000)]
BOX_DRAWS = 8


def _random_small_kb(rng: random.Random, m: int, n: int) -> GenKB:
    atoms = tuple(rng.sample(_NAMES, m))
    rules = []
    for _ in range(n):
        head = rng.choice(atoms)
        rest = [a for a in atoms if a != head]
        ant = tuple((a, rng.random() < 0.5) for a in rng.sample(rest, rng.choice((1, 1, 2))))
        rules.append(Cond(lit(head, rng.random() < 0.5), (ant,)))
    return GenKB(f"rand({m},{n})", atoms, tuple(rules))


def _inconsistent_kb(rng: random.Random, m: int, n: int) -> GenKB:
    kb = _random_small_kb(rng, m, n - 2)
    x, y = rng.sample(kb.atoms, 2)
    pos = rng.random() < 0.5
    rules = list(kb.rules)
    for head in (lit(x, pos), lit(x, not pos)):
        rules.insert(rng.randint(0, len(rules)), Cond(head, lit(y)))
    return GenKB(f"incons({m},{n})", kb.atoms, tuple(rules))


def _box_random_kbs() -> list[GenKB]:
    """The random KBs of box-filter, one per slot of BOX_SLOTS."""
    from oracle import Semantics

    rng = random.Random("box-filter/random-kbs")
    kbs = []
    for m, n, target in BOX_SLOTS:
        if not target:
            kbs.append(_inconsistent_kb(rng, m, n))
            continue
        draws = []
        for _ in range(BOX_DRAWS):
            kb = _random_small_kb(rng, m, n)
            count = len(Semantics(kb).box_solutions(n))
            draws.append((abs(math.log((count or 0.5) / target)), len(draws), kb))
        kbs.append(min(draws)[2])
    return kbs


def box_filter(seed: int) -> Workload:
    rng = random.Random(f"box-filter/{seed}")
    kbs = [_renamed(kb, rng) for kb in BOX_FIXED + _box_random_kbs()]
    reqs = []
    for k, kb in enumerate(kbs):
        n = len(kb.rules)
        reqs += [Request(mode, k) for mode in ("all", "pareto", "ocf-min")]
        if kb.name == "birds":
            reqs += [Request("min-all", k), Request("min", k)]
        if kb.name == "penguins":
            reqs.append(Request("show-ocf", k, vector=_random_vector(rng, n, lo=1)))
        reqs += _queries(rng, k, kb, QUERY_SHAPES)
        reqs.append(Request("check", k, vector=_random_vector(rng, n, lo=1)))
    rng.shuffle(reqs)
    return Workload("box-filter", tuple(kbs), tuple(reqs), min_rounds=5)


WORKLOADS = {"chain-search": chain_search, "wide-query": wide_query, "box-filter": box_filter}
