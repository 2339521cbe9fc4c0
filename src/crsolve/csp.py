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
rules).  That the minimal solutions fit inside the default box is tested,
not proven: on 400 seeded random KBs, the property test ``TestDefaultBox``
finds the same sum- and Pareto-minimal solutions in [0, 2n + 3]^n.
"infeasible" here means "no solution within the box", not a proven
inconsistency of R.  A rule whose verifying set is empty can never be
satisfied by any vector; such rules are reported as degenerate.  A rule
whose falsifying set is empty is satisfied by every vector.

Compilation: every world's falsified-rule set is collapsed into a bitmask
signature, and for each constraint side only the subset-minimal signatures
are kept (sums are monotone in the nonnegative variables, so minima are
attained there); ``_minimal_signatures`` peels them off the distinct
signatures, sorted once.

Compilation runs over only the m' <= m atoms that R's rules mention
(``worlds.rule_partitions``), so declared atoms that no rule uses do not
multiply the worlds it scans.  The output is the same as over all 2**m
worlds.  Let U be the mentioned atoms and r(w) the restriction of a world
w to U.  A term mentions only atoms of U, so whether w satisfies it
depends on r(w) alone; a formula is a union of terms and V_i, F_i are
built from formulas by intersection and complement, so w is in V_i (F_i)
exactly when r(w) is in the V_i (F_i) computed over U.  Hence the
signature of w, the set of rules it falsifies, is the signature of r(w)
over U.  r maps the 2**m worlds onto the 2**m' worlds over U (extend any
u by any values of the other atoms), so the set of pairs (signature,
verifies rule i) met over all worlds is the set met over the worlds of
U: the distinct signatures and each rule's V- and F-candidates are the
same, and so are their minimal antichains.  The edge cases fit: a rule
over ``top`` alone mentions no atom, and its sets are all worlds or none
in both spaces; ``bot``'s term mentions the first atom but, being
contradictory, holds no world in either; a KB without rules, or whose
rules mention no atom, has m' = 0 and one world, the empty assignment,
onto which r maps every world.  When the rules mention every atom, m' = m,
r is the identity and compilation scans all 2**m worlds.

One labelling engine, ``_search``, serves every solver.  It keeps one
``_Box`` of bounds per solve and propagates it at every node
(``_propagate_box``); the solvers differ only in what drops a node.
``pareto_min`` asks a dominance cut at each node.  ``solve_min_sum`` and
``all_min_sum`` give a ceiling instead, the largest sum a solution they
still want may have: one less than the incumbent's sum for the minimum,
the incumbent's sum for all minima, which keeps ties.  The ceiling is
checked inside propagation, not after it.  Before a node propagates, the
search stores its headroom, the ceiling less sum(lo), on the box;
propagation subtracts every raise of lo from it and fails the node as
soon as it goes negative.  That is exact.  Propagation only raises lo,
and every solution under the node is >= the fixpoint lo, which is >= the
current lo; so once sum(lo) passes the ceiling, no wanted solution lies
under the node.  A node stopped early is one that propagating to the
fixpoint and then cutting on sum(lo) would have dropped, or that would
have failed, so the same nodes are visited and the same solutions found.
The trail entries an early stop leaves are taken back by the undo to the
node's mark, as after a domain wipe-out.  ``check_solution`` propagates a
box of one point.

A CRProblem is immutable after build; each solve call builds its own box
and trail, so concurrent solves on one problem are safe.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass
from itertools import compress, islice, product
from operator import itemgetter, le
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from .kb import KnowledgeBase
from .worlds import (
    iter_bits,
    rule_partitions,
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
    """Compiled constraint problem: signatures and the box [0, bound]^n.

    ``world_sigs`` holds the distinct falsification signatures, ascending:
    each is the bitmask of the rules (bit i for rule i+1) that some world
    falsifies together.  It is compiled over the worlds of the mentioned
    atoms, so it indexes no world."""

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
    """Compile CR(R): falsification signatures, over the worlds of the
    atoms the rules mention, and the box [0, bound]^n (bound defaults to
    n).  Raises SolveTimeout when the ``perf_counter`` deadline has
    passed; it is checked after the world-set, signature and sorting
    passes, before each compiled rule and before every peel step of
    ``_minimal_signatures``, so compilation overshoots it by at most one
    such pass."""
    m, verifying, falsifying = rule_partitions(kb)
    n = kb.n
    if bound is None:
        bound = n
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _check_deadline(deadline)
    world_sigs = world_signatures(falsifying, m)
    _check_deadline(deadline)
    order = tuple(sorted(set(world_sigs)))
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
    return CRProblem(bound, order, tuple(verifying_sigs), tuple(falsifying_sigs))


def check_solution(p: CRProblem, v: KappaVector) -> bool:
    """Exact test of the constraint conjunction at vector v: propagation on
    the single point lo = hi = v raises a bound exactly where v violates a
    constraint."""
    n = p.n
    if len(v) != n:
        raise ValueError(f"vector has length {len(v)}, expected {n}")
    if any(x < 0 for x in v):
        return False
    return _propagate_box(_Box(p, v), range(n))


def _readers(sig_ids: list[list[int]]) -> list[Callable[[list[int]], tuple[int, ...]] | None]:
    """For each rule, one C-level read of the sums numbered in its list, as
    a tuple, or None for an empty list.  ``itemgetter`` of one index
    returns the bare item, so a single index is read twice."""
    return [
        itemgetter(*ids) if len(ids) > 1 else itemgetter(ids[0], ids[0]) if ids else None
        for ids in sig_ids
    ]


def _containing(sigs: Iterable[tuple[int, ...]], n: int) -> list[list[int]]:
    """For each variable j < n, the numbers of the signatures that mention j."""
    containing: list[list[int]] = [[] for _ in range(n)]
    for s, sig in enumerate(sigs):
        for j in sig:
            containing[j].append(s)
    return containing


class _Box:
    """The bounds of one solve or check, with the sums and occurrence lists
    that propagation reads and the trail that puts lo back.

    ``lo`` and ``hi`` are the bounds.  The distinct V-signatures are
    numbered in order of first occurrence: ``vsig_ids[i]`` lists the
    numbers of rule i's, ``sums[s]`` is the sum of ``lo`` over signature
    s, and ``vread[i]`` reads rule i's sums in one call.  The distinct
    F-signatures are numbered apart in the same way: ``fsig_ids[i]``,
    ``fsums[t]``, the sum of ``hi`` over F-signature t, and ``fread[i]``.
    ``containing[j]`` and ``fcontaining[j]`` hold the V- and the
    F-signatures that mention j, ``raised_by[j]`` the rules whose
    V-signatures mention j (their floors rise with lo[j]) and
    ``touched_by[j]`` the rules whose V- or F-signatures mention j (their
    floors may move when lo[j] rises or hi[j] falls).

    Without ``hi`` the box is the point lo = hi, where propagation reads
    only the readers and their sums: any raise of lo_i passes hi_i and
    fails first, so the occurrence lists are left out, and a signature's
    sum over lo is its sum over hi, so ``hi`` is ``lo`` and both sides
    share one numbering and one list of sums.

    ``headroom`` is how far one propagation call may raise sum(lo) before
    it fails the node (see the module docstring).  It starts at sum(hi)
    less sum(lo), which no propagation can use up; a search with a
    ceiling sets it before every node.

    The stored sums equal the sums recomputed fresh.  They start out
    equal, and each move of a bound adds its change to exactly the sums
    whose fresh value it moves: a move of lo_j to the sums of
    ``containing[j]``, a move of hi_j to those of ``fcontaining[j]``.
    Propagation only raises lo, so hi, and with it every F-sum, moves
    only where the search labels a variable and where it takes that label
    back.  A trail entry ``(j, lo_j)`` holds a value of lo_j to put back:
    undo restores it and subtracts the difference, the current lo_j less
    the old, from the sums of ``containing[j]``.  Undo pops the trail down
    to a mark, latest entry first, so each variable with an entry above
    the mark gets back the value of its earliest such entry.
    """

    def __init__(self, p: CRProblem, lo: Sequence[int], hi: Sequence[int] | None = None):
        self.lo = lo = list(lo)
        self.trail: list[tuple[int, int]] = []
        vids: dict[tuple[int, ...], int] = {}
        fids = vids if hi is None else {}
        self.vsig_ids = [[vids.setdefault(sig, len(vids)) for sig in vs] for vs in p.verifying_sigs]
        self.fsig_ids = [[fids.setdefault(sig, len(fids)) for sig in fs] for fs in p.falsifying_sigs]
        self.vread = _readers(self.vsig_ids)
        self.fread = _readers(self.fsig_ids)
        self.sums = [sum(map(lo.__getitem__, sig)) for sig in vids]
        if hi is None:
            self.hi, self.fsums = lo, self.sums
            self.headroom = 0
            return
        n = p.n
        self.hi = hi = list(hi)
        self.headroom = sum(hi) - sum(lo)
        self.fsums = [sum(map(hi.__getitem__, sig)) for sig in fids]
        self.containing = _containing(vids, n)
        self.fcontaining = _containing(fids, n)
        self.raised_by = raised_by = [[] for _ in range(n)]
        self.touched_by = touched_by = [[] for _ in range(n)]
        for i, (vs, fs) in enumerate(zip(p.verifying_sigs, p.falsifying_sigs)):
            mentioned = set().union(*vs)
            for j in mentioned:
                raised_by[j].append(i)
            mentioned.update(*fs)
            for j in mentioned:
                touched_by[j].append(i)


def _propagate_box(box: _Box, queue: Iterable[int]) -> bool:
    """Tighten ``box.lo`` to its least fixpoint in place, keeping the
    signature sums; False if some domain empties or the raises of lo
    exceed ``box.headroom``, the ceiling's early stop of the module
    docstring.

    A FIFO worklist of rules, seeded with ``queue`` and driven by the
    occurrence lists, as in AC-3 (Mackworth, AIJ 1977).  Popping rule i
    applies

        lo_i <- max(lo_i, 1 + min_sig(V_i, lo) - min_sig(F_i, hi))

    and a raised lo_i queues the rules of ``raised_by[i]``, whose floors
    rise with it.  Both minima are read from the stored sums, the least
    of rule i's V-sums and of its F-sums.  The update is monotone in the
    bounds and only raises lo, never past hi, so the worklist runs out,
    and it does so with every rule satisfied: the result is the least
    fixpoint above the given lo, whatever the order of the updates.

    The caller may seed only the rules whose floors can have moved since
    lo and hi were last at a fixpoint: every other rule is still
    satisfied, and its floor can change only through a raise that queues
    it.  A start with no fixpoint behind it queues every rule.  A search
    child labels one variable j at its parent's fixpoint, which raises
    lo_j and lowers hi_j and moves nothing else; that moves only the
    floors of ``touched_by[j]``, and rule j's own floor does not depend on
    j, so the child queues ``touched_by[j]`` and reaches the same least
    fixpoint as a start with every rule queued.  On failure, a domain
    wipe-out or an early stop, the box is left as it was at the failing
    rule; the search undoes it.
    """
    # Nothing queued, nothing moved: skip building the worklist, as at
    # every node whose label no rule's signatures mention.
    if not queue:
        return True
    lo, hi, sums, fsums = box.lo, box.hi, box.sums, box.fsums
    vread, fread, trail = box.vread, box.fread, box.trail
    headroom = box.headroom
    queue = deque(queue)
    queued = set(queue)
    while queue:
        i = queue.popleft()
        queued.discard(i)
        read_v = vread[i]
        if read_v is None:
            return False
        read_f = fread[i]
        if read_f is None:
            continue
        floor = 1 + min(read_v(sums)) - min(read_f(fsums))
        if floor > lo[i]:
            d = floor - lo[i]
            if floor > hi[i] or d > headroom:
                return False
            headroom -= d
            trail.append((i, lo[i]))
            lo[i] = floor
            for s in box.containing[i]:
                sums[s] += d
            for k in box.raised_by[i]:
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
    ceiling: Callable[[], int] | None = None,
) -> Iterator[KappaVector]:
    """Depth-first labelling in rule order, values ascending; yields the
    box solutions in lexicographic order, with a ``ceiling`` only those
    whose sum is at most ``ceiling()``.  Every node, the root included, is
    propagated on entry and skipped with its subtree when propagation
    fails or ``cut`` rejects its lower bounds.

    After propagation, lo (the assigned prefix plus the lower bounds of
    the other variables) is below every solution under the node.  Each
    solver's cut holds on lo only when it holds on every vector >= lo, so
    it drops no solution the solver wants.  The ceiling bounds sum(lo)
    during propagation too, through the box's headroom; the module
    docstring shows that this drops the same nodes as a cut on sum(lo)
    after it.  The cut and the ceiling are asked again at each node, so
    they may tighten as the caller consumes solutions.

    One box serves the whole search.  The open nodes form a stack: the
    node at depth idx labels variable idx, and keeps the next value to try
    and its mark.  When its propagation succeeds, the node pushes lo_idx
    on the trail and takes the trail length as its mark.  Its children
    move lo_idx and hi_idx straight from one label to the next, off the
    trail, and undoing to the mark before each child takes back only the
    previous child's propagation, which never moves a labelled variable;
    no bounds are copied per child.  Propagation never moves hi, so every
    variable not labelled has hi = bound: closing the node puts hi_idx
    back to bound, and the parent's undo pops the entry that puts lo_idx
    back, which leaves the parent's fixpoint."""
    n = p.n
    bound = p.bound
    box = _Box(p, [0] * n, [bound] * n)
    lo, hi, sums, fsums, trail = box.lo, box.hi, box.sums, box.fsums, box.trail
    containing, fcontaining, touched_by = box.containing, box.fcontaining, box.touched_by
    values: list[int] = []
    marks: list[int] = []
    queue: Iterable[int] = range(n)
    if ceiling is not None:
        box.headroom = ceiling()  # sum(lo) is 0 at the root
    headroom = box.headroom
    while True:
        # Enter a node: the root, or the child just labelled.  The deadline
        # test is _check_deadline inlined, since it runs at every node.
        if deadline is not None and perf_counter() > deadline:
            raise SolveTimeout
        if _propagate_box(box, queue) and not (cut is not None and cut(lo)):
            idx = len(values)
            if idx == n:
                yield tuple(lo)
            else:
                values.append(lo[idx])
                trail.append((idx, lo[idx]))
                marks.append(len(trail))
        # Label the next child of the deepest open node, closing the
        # nodes whose values are used up.
        while values:
            idx = len(values) - 1
            mark = marks[idx]
            while len(trail) > mark:
                j, lo_j = trail.pop()
                d = lo[j] - lo_j
                lo[j] = lo_j
                for s in containing[j]:
                    sums[s] -= d
            val = values[idx]
            if val <= bound:
                values[idx] = val + 1
                d = val - lo[idx]
                lo[idx] = val
                for s in containing[idx]:
                    sums[s] += d
                d = val - hi[idx]
                hi[idx] = val
                for t in fcontaining[idx]:
                    fsums[t] += d
                # A larger value only raises the bounds, so a cut here is
                # final; so is a sum of lo above the ceiling.
                if ceiling is not None:
                    headroom = box.headroom = ceiling() - sum(lo)
                if headroom >= 0 and (cut is None or not cut(lo)):
                    # Seed the child with the rules its label can move.
                    queue = touched_by[idx]
                    break
            # Close the node; the parent's undo then puts lo_idx back.
            values.pop()
            marks.pop()
            d = bound - hi[idx]
            hi[idx] = bound
            for t in fcontaining[idx]:
                fsums[t] += d
        else:
            return


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")


def enumerate_solutions(
    p: CRProblem, limit: int | None = None, deadline: float | None = None
) -> SolutionSet:
    """All solutions in the box, lexicographically; ``limit`` truncates and
    must be nonnegative."""
    _check_limit(limit)
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
    top = p.n * p.bound
    # Each solution under the ceiling has a smaller sum than the last.
    for v in _search(p, deadline=deadline, ceiling=lambda: top if best is None else best[0] - 1):
        best = sum(v), v
    if best is None:
        raise InfeasibleError(p.bound, p.degenerate_rules)
    return best


def all_min_sum(p: CRProblem, deadline: float | None = None) -> SolutionSet:
    """Exactly the solutions whose component sum is minimal, in one
    branch-and-bound pass that keeps ties."""
    minimal: int | None = None
    vectors: list[KappaVector] = []
    top = p.n * p.bound
    for v in _search(p, deadline=deadline, ceiling=lambda: top if minimal is None else minimal):
        total = sum(v)
        if minimal is None or total < minimal:
            minimal, vectors = total, []
        vectors.append(v)
    if minimal is None:
        raise InfeasibleError(p.bound, p.degenerate_rules)
    return SolutionSet(SolutionOrdering.SUM, p.bound, tuple(vectors), minimal_sum=minimal)


def pareto_min(
    p: CRProblem, limit: int | None = None, deadline: float | None = None
) -> SolutionSet:
    """Solutions not componentwise-dominated by any other solution in the
    box (a partial order: the result can be larger than the sum-minimal
    set, and every sum-minimal solution is in it), in lexicographic order;
    ``limit`` truncates and must be nonnegative.  Raises InfeasibleError
    when the box holds no solution, whatever the limit."""
    _check_limit(limit)
    # If v <= u componentwise and v != u, then v precedes u
    # lexicographically, so the search meets every dominator of u before
    # u: each dominator was yielded into the frontier or cut for lying
    # above a frontier vector, which then lies below u too.  So u is
    # Pareto-minimal exactly when the cut lets it through, the solutions
    # yielded are the frontier, and each is final: the search can stop at
    # the limit.  It runs to one solution at least, which tells a feasible
    # box from an infeasible one.
    frontier: list[KappaVector] = []
    search = _search(p, lambda lo: _dominated(frontier, lo), deadline)
    for v in islice(search, None if limit is None else max(limit, 1)):
        frontier.append(v)
    if not frontier:
        raise InfeasibleError(p.bound, p.degenerate_rules)
    return SolutionSet(SolutionOrdering.COMPONENTWISE, p.bound, tuple(frontier[:limit]))


def ocf_min(
    p: CRProblem, limit: int | None = None, deadline: float | None = None
) -> SolutionSet:
    """Solutions whose induced ranking function is not pointwise-dominated
    by another solution's (dominance requires the two rankings to differ
    somewhere; vectors inducing identical rankings are all retained), in
    lexicographic order; ``limit`` truncates and must be nonnegative.

    The rankings follow from the Pareto frontier.  If v <= u then kappa_v
    <= kappa_u pointwise, with equality only when v and u differ just on
    rules that no world falsifies: such a rule occurs in no signature, so
    its component is free in the box and changes no rank.  Every solution
    lies above some frontier vector, hence the non-dominated rankings over
    all solutions are exactly the non-dominated rankings over the
    frontier, and the vectors inducing them are the surviving frontier
    vectors with their free components ranging over the box."""
    _check_limit(limit)
    frontier = pareto_min(p, deadline=deadline).vectors
    sig_indices = [tuple(iter_bits(sig)) for sig in p.world_sigs]
    by_ranking: dict[tuple[int, ...], list[KappaVector]] = {}
    for v in frontier:
        ranking = tuple(sum(v[j] for j in sig) for sig in sig_indices)
        by_ranking.setdefault(ranking, []).append(v)
    surviving: list[tuple[int, ...]] = []
    # The rankings are distinct, so a dominating one has a strictly smaller sum.
    for ranking in sorted(by_ranking, key=sum):
        if not _dominated(surviving, ranking):
            surviving.append(ranking)
    # Each vector's expansion is a product of ascending ranges, so it runs
    # in lexicographic order.  Every frontier vector is 0 on the free
    # components, so two of them differ elsewhere and their expansions
    # merge without duplicates.  That can outgrow the search, so the merge
    # stops at the limit and checks the deadline per vector.
    free = [None if fs else range(p.bound + 1) for fs in p.falsifying_sigs]
    expansions = [
        product(*((x,) if r is None else r for r, x in zip(free, v)))
        for ranking in surviving
        for v in by_ranking[ranking]
    ]
    kept = []
    for expanded in islice(heapq.merge(*expansions), limit):
        _check_deadline(deadline)
        kept.append(expanded)
    return SolutionSet(SolutionOrdering.INDUCED_OCF, p.bound, tuple(kept))
