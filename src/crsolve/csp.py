"""Constraint system over per-rule impact values, and its solvers.

A knowledge base R with n rules induces one integer variable per rule (the
penalty added to every world falsifying that rule) and, for each rule i,
the constraint

    k_i  >  min over worlds verifying rule i  of  sum of k_j (j != i,
            world falsifies rule j)
          - min over worlds falsifying rule i of  the same sum,

with min over the empty set treated as infinite.  Solutions are vectors of
natural numbers; each one induces a ranking function that accepts every
rule of R (see :mod:`crsolve.ocf`).

Search is confined to the box [0, bound]^n (default bound n, the number of
rules): minimal solutions always fit inside it, so "infeasible" here means
"no solution within the box", not a proven inconsistency of R.  A rule
whose verifying set is empty can never be satisfied by any vector; such
rules are reported as degenerate.

Compilation: every world's falsified-rule set is collapsed into a bitmask
signature, and for each constraint side only the subset-minimal signatures
are kept (sums are monotone in the nonnegative variables, so minima are
attained there).  The distinct signatures are sorted once, numerically,
which lists every signature after its proper subsets; each rule's
candidates are filtered from that list in order, and the antichain is
peeled off its front (``_minimal_signatures``).

One labelling engine serves every solver.  Every search node, the root
included, runs bounds propagation on entry:

    lo_i <- max(lo_i, 1 + min_sig(V_i, lo) - min_sig(F_i, hi))

which is monotone and terminates.  The propagator is event-driven, as
in AC-3 (Mackworth, AIJ 1977): a FIFO worklist of rules, driven by
per-variable occurrence lists that each solve builds once.  A raised
lo_j re-queues only the rules whose V-signatures mention j, and
min_sig(F_i, hi) is computed at most once per call, since hi does not
move within one.  The root starts with every rule queued.  A child
starts with only the rules that mention the variable just labelled: the
parent was at its fixpoint, labelling idx only raises lo_idx and lowers
hi_idx, and rule idx's own floor does not depend on idx, so no other
floor can have moved.  The least fixpoint of a monotone operator does
not depend on the order of its updates, so the seeded start reaches the
same bounds as a start with every rule queued.

Values are labelled in rule order, ascending, so solutions stream in
lexicographic order.  The assigned prefix plus the lower bounds of the
remaining variables bound every completion of a node from below.  After
propagation the node asks a cut on those bounds; each solver differs
only in that cut, which sees the solutions yielded so far: none for all
solutions; sum(lo) >= best sum for one sum-minimal solution; sum(lo) >
best sum for all of them, in one pass that keeps ties and restarts on a
smaller sum; a frontier vector <= lo for the Pareto-minimal ones.

Minimal solutions without enumerating the box.  If v <= u componentwise
and v != u, then v precedes u lexicographically, so the search meets every
dominator of a solution before the solution itself: a solution is
Pareto-minimal exactly when no frontier vector found before it is <= it,
and a node whose bounds are >= some frontier vector is cut with its whole
subtree.

The induced-ranking order follows from the frontier.  If v <= u then
kappa_v <= kappa_u pointwise, with equality only when v and u differ just
on rules that no world falsifies: such a rule occurs in no signature, so
its component is free in the box and changes no rank.  Every solution lies
above some frontier vector, hence the non-dominated rankings over all
solutions are exactly the non-dominated rankings over the frontier, and
the vectors inducing them are the surviving frontier vectors with their
free components ranging over the box.

A CRProblem is immutable after build; each solve call owns private search
state, so concurrent solves on one problem are safe.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice, product
from operator import le
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from .kb import KnowledgeBase
from .worlds import (
    build_partitions,
    iter_bits,
    selector,
    world_signatures,
)

KappaVector = tuple[int, ...]

_SigSet = tuple[tuple[int, ...], ...]


class SolutionOrdering(enum.Enum):
    """Which minimality notion (if any) a solution set was filtered by."""

    ALL = "all"
    SUM = "sum"
    COMPONENTWISE = "componentwise"
    INDUCED_OCF = "induced_ocf"


class InfeasibleError(Exception):
    """No solution exists within the search box [0, bound]^n."""

    def __init__(self, bound: int, degenerate_rules: tuple[int, ...] = ()):
        self.bound = bound
        self.degenerate_rules = degenerate_rules
        msg = f"no solution with every component in [0, {bound}]"
        if degenerate_rules:
            ids = ", ".join(str(i) for i in degenerate_rules)
            msg += f"; degenerate rule(s) with no verifying world: {ids}"
        super().__init__(msg)


class SolveTimeout(Exception):
    """A solve operation exceeded its deadline."""


@dataclass(frozen=True)
class SolutionSet:
    """Solution vectors in lexicographic order, without duplicates."""

    ordering: SolutionOrdering
    bound: int
    vectors: tuple[KappaVector, ...]
    minimal_sum: int | None = None

    def as_dict(self) -> dict:
        """JSON-ready form: ordering, bound, solutions, and (for sum-based
        sets) the minimal sum; box-relative filters flag their scope."""
        out: dict = {
            "ordering": self.ordering.value,
            "bound": self.bound,
            "solutions": [list(v) for v in self.vectors],
        }
        if self.minimal_sum is not None:
            out["minimal_sum"] = self.minimal_sum
        if self.ordering in (SolutionOrdering.COMPONENTWISE, SolutionOrdering.INDUCED_OCF):
            out["complete_within_bound"] = True
        return out


@dataclass(frozen=True)
class CRProblem:
    """Compiled constraint problem: signatures and the box [0, bound]^n."""

    bound: int
    world_sigs: tuple[int, ...]
    verifying_sigs: tuple[_SigSet, ...]
    falsifying_sigs: tuple[_SigSet, ...]

    @property
    def n(self) -> int:
        return len(self.verifying_sigs)

    @property
    def degenerate_rules(self) -> tuple[int, ...]:
        """Ids (1-based) of the rules that no world verifies."""
        return tuple(i + 1 for i, vs in enumerate(self.verifying_sigs) if not vs)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and perf_counter() > deadline:
        raise SolveTimeout


def _minimal_signatures(masks: list[int], deadline: float | None) -> _SigSet:
    """Subset-minimal antichain of distinct rule-index bitmasks, as index
    tuples.  ``masks`` lists every mask after its proper subsets, as
    ascending numeric order does.  Peel: keep the first mask left, drop it
    and its supersets, repeat.  The first mask left is minimal: a proper
    subset of it came earlier and was dropped for holding a kept mask, so
    the first mask holds that kept mask too and was dropped with it.
    The deadline is checked before every peel step."""
    kept: list[int] = []
    while masks:
        _check_deadline(deadline)
        low = masks[0]
        kept.append(low)
        masks = [s for s in masks if s & low != low]
    return tuple(tuple(iter_bits(mask)) for mask in kept)


def build_problem(
    kb: KnowledgeBase, bound: int | None = None, deadline: float | None = None
) -> CRProblem:
    """Compile CR(R): falsification signatures and the box [0, bound]^n
    (bound defaults to n).  Raises SolveTimeout when the ``perf_counter``
    deadline has passed; it is checked after the world-set, signature and
    sorting passes, before each compiled rule and before every peel step
    of ``_minimal_signatures``, so compilation overshoots it by at most
    one such pass."""
    verifying, falsifying = build_partitions(kb)
    n = kb.n
    if bound is None:
        bound = n
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _check_deadline(deadline)
    world_sigs = world_signatures(falsifying, kb.m)
    _check_deadline(deadline)
    order = sorted(set(world_sigs))
    verifying_sigs = []
    falsifying_sigs = []
    for i in range(n):
        _check_deadline(deadline)
        bit = 1 << i
        # A world falsifies rule i exactly when its signature holds bit i;
        # dropping that common bit from the F-candidates keeps their order.
        verified = set(compress(world_sigs, selector(verifying[i])))
        verifying_sigs.append(_minimal_signatures([s for s in order if s in verified], deadline))
        falsifying_sigs.append(_minimal_signatures([s & ~bit for s in order if s & bit], deadline))
    return CRProblem(bound, world_sigs, tuple(verifying_sigs), tuple(falsifying_sigs))


def check_solution(p: CRProblem, v: KappaVector) -> bool:
    """Exact test of the constraint conjunction at vector v: propagation on
    the single point lo = hi = v raises a bound exactly where v violates a
    constraint."""
    if len(v) != p.n:
        raise ValueError(f"vector has length {len(v)}, expected {p.n}")
    if any(x < 0 for x in v):
        return False
    # On a point any raise empties a domain, so no rule is ever re-queued
    # and the occurrence lists are never read.
    return _propagate_box(list(v), list(v), p.verifying_sigs, p.falsifying_sigs, (), range(p.n))


def _occurrences(vsigs, fsigs) -> tuple[list[list[int]], list[list[int]]]:
    """Per-variable occurrence lists ``(raised_by, touched_by)``: for each
    variable j, the rules whose V-signatures mention j (their floors rise
    with lo[j]), and the rules whose V- or F-signatures mention j (their
    floors may move when lo[j] rises or hi[j] falls)."""
    n = len(vsigs)
    raised_by: list[list[int]] = [[] for _ in range(n)]
    touched_by: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        in_v = {j for sig in vsigs[i] for j in sig}
        for j in sorted(in_v):
            raised_by[j].append(i)
        for j in sorted(in_v.union(*fsigs[i])):
            touched_by[j].append(i)
    return raised_by, touched_by


def _propagate_box(
    lo: list[int], hi: list[int], vsigs, fsigs, raised_by, queue: Iterable[int]
) -> bool:
    """Tighten lower bounds to their least fixpoint in place; False if some
    domain empties.

    A FIFO worklist of rules, seeded with ``queue``.  Popping rule i
    raises lo[i] to its floor 1 + min_sig(V_i, lo) - min_sig(F_i, hi), and
    a raised lo[i] queues the rules of ``raised_by[i]``, whose V-signatures
    mention i.  Only lower bounds move within a call, so min_sig(F_i, hi)
    is computed once, when rule i is first popped.  The worklist empties
    with every rule satisfied, so the result is the least fixpoint above
    the given lo, whatever the order of the updates.

    The caller may seed only the rules whose floors can have moved since
    lo and hi were last at a fixpoint: every other rule is still
    satisfied, and its floor can change only through a raise that queues
    it.  A start with no fixpoint behind it queues every rule.

    Empty-min cases: no verifying world makes rule i unsatisfiable for any
    finite value; no falsifying world satisfies its constraint vacuously.
    """
    queue = deque(queue)
    queued = set(queue)
    fmin: dict[int, int] = {}
    while queue:
        i = queue.popleft()
        queued.discard(i)
        vs = vsigs[i]
        if not vs:
            lo[i] = hi[i] + 1
            return False
        fs = fsigs[i]
        if not fs:
            continue
        f = fmin.get(i)
        if f is None:
            f = fmin[i] = min(sum(map(hi.__getitem__, sig)) for sig in fs)
        floor = min(sum(map(lo.__getitem__, sig)) for sig in vs) - f + 1
        if floor > lo[i]:
            lo[i] = floor
            if floor > hi[i]:
                return False
            for k in raised_by[i]:
                if k not in queued:
                    queued.add(k)
                    queue.append(k)
    return True


def _dominated(frontier: list[KappaVector], lo: Sequence[int]) -> bool:
    """True when some frontier vector is <= lo in every component."""
    return any(all(map(le, f, lo)) for f in frontier)


def _search(
    p: CRProblem,
    cut: Callable[[list[int]], bool] | None = None,
    deadline: float | None = None,
) -> Iterator[KappaVector]:
    """Depth-first labelling in rule order, values ascending; yields the
    box solutions in lexicographic order.  Every node, the root included,
    is propagated on entry and skipped with its subtree when propagation
    fails or ``cut`` rejects its lower bounds.  The cut is asked again at
    each node, so it may tighten as the caller consumes solutions."""
    vsigs = p.verifying_sigs
    fsigs = p.falsifying_sigs
    n = len(vsigs)
    raised_by, touched_by = _occurrences(vsigs, fsigs)

    def rec(idx: int, lo: list[int], hi: list[int], queue: Iterable[int]) -> Iterator[KappaVector]:
        _check_deadline(deadline)
        if not _propagate_box(lo, hi, vsigs, fsigs, raised_by, queue) or (
            cut is not None and cut(lo)
        ):
            return
        if idx == n:
            yield tuple(lo)
            return
        for val in range(lo[idx], hi[idx] + 1):
            lo2 = lo.copy()
            hi2 = hi.copy()
            lo2[idx] = hi2[idx] = val
            # A larger value only raises the bounds, so a cut here is final.
            if cut is not None and cut(lo2):
                break
            # The parent is at its fixpoint and labelling moved only the
            # bounds of idx, so only the rules that mention idx can move.
            yield from rec(idx + 1, lo2, hi2, touched_by[idx])

    yield from rec(0, [0] * n, [p.bound] * n, range(n))


def enumerate_solutions(
    p: CRProblem, limit: int | None = None, deadline: float | None = None
) -> SolutionSet:
    """All solutions in the box, lexicographically; ``limit`` truncates and
    must be nonnegative."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    vectors = tuple(islice(_search(p, deadline=deadline), limit))
    return SolutionSet(SolutionOrdering.ALL, p.bound, vectors)


def solve_min_sum(
    p: CRProblem, deadline: float | None = None
) -> tuple[int, KappaVector]:
    """Branch-and-bound minimum of the component sum.

    Returns (minimal sum, vector); the vector is the lexicographically
    least among the sum-minimal solutions.  Raises InfeasibleError when
    the box holds no solution.
    """
    best: tuple[int, KappaVector] | None = None
    # Each solution the cut lets through has a smaller sum than the last.
    for v in _search(p, lambda lo: best is not None and sum(lo) >= best[0], deadline):
        best = sum(v), v
    if best is None:
        raise InfeasibleError(p.bound, p.degenerate_rules)
    return best


def all_min_sum(p: CRProblem, deadline: float | None = None) -> SolutionSet:
    """Exactly the solutions whose component sum is minimal, in one
    branch-and-bound pass that keeps ties."""
    minimal: int | None = None
    vectors: list[KappaVector] = []
    for v in _search(p, lambda lo: minimal is not None and sum(lo) > minimal, deadline):
        total = sum(v)
        if minimal is None or total < minimal:
            minimal, vectors = total, []
        vectors.append(v)
    if minimal is None:
        raise InfeasibleError(p.bound, p.degenerate_rules)
    return SolutionSet(SolutionOrdering.SUM, p.bound, tuple(vectors), minimal_sum=minimal)


def pareto_min(p: CRProblem, deadline: float | None = None) -> SolutionSet:
    """Solutions not componentwise-dominated by any other solution in the
    box (a partial order: the result can be larger than the sum-minimal
    set, and every sum-minimal solution is in it)."""
    # Lexicographic order puts every dominator first, so the solutions
    # yielded so far are the frontier found so far.
    frontier: list[KappaVector] = []
    for v in _search(p, lambda lo: _dominated(frontier, lo), deadline):
        frontier.append(v)
    if not frontier:
        raise InfeasibleError(p.bound, p.degenerate_rules)
    return SolutionSet(SolutionOrdering.COMPONENTWISE, p.bound, tuple(frontier))


def ocf_min(p: CRProblem, deadline: float | None = None) -> SolutionSet:
    """Solutions whose induced ranking function is not pointwise-dominated
    by another solution's (dominance requires the two rankings to differ
    somewhere; vectors inducing identical rankings are all retained)."""
    frontier = pareto_min(p, deadline=deadline).vectors
    sig_indices = [tuple(iter_bits(sig)) for sig in set(p.world_sigs)]
    by_ranking: dict[tuple[int, ...], list[KappaVector]] = {}
    for v in frontier:
        ranking = tuple(sum(v[j] for j in sig) for sig in sig_indices)
        by_ranking.setdefault(ranking, []).append(v)
    surviving: list[tuple[int, ...]] = []
    # The rankings are distinct, so a dominating one has a strictly smaller sum.
    for ranking in sorted(by_ranking, key=sum):
        if not _dominated(surviving, ranking):
            surviving.append(ranking)
    # A rule that no world falsifies has no falsifying signature; its
    # component takes every value of its box range without changing a rank.
    # That can outgrow the search, so the deadline is checked per vector.
    free = [None if fs else range(p.bound + 1) for fs in p.falsifying_sigs]
    kept = []
    for ranking in surviving:
        for v in by_ranking[ranking]:
            for expanded in product(*((x,) if r is None else r for r, x in zip(free, v))):
                _check_deadline(deadline)
                kept.append(expanded)
    kept.sort()
    return SolutionSet(SolutionOrdering.INDUCED_OCF, p.bound, tuple(kept))
