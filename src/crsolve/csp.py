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
attained there).  One grouped pass gives the candidates of all 2n sides.
``world_signatures`` of the falsifying sets followed by the verifying sets
gives each world a key: the rules it falsifies in bits 0..n-1, those it
verifies in bits n..2n-1.  A set collects the distinct keys, and one loop
over them ORs the verified rules of each into ver[s], s its signature.
The distinct signatures, ascending, are ``world_sigs``; over their
positions in that order, the bitset has[j] holds the signatures that hold
rule j and vhas[i] those of some world verifying rule i.  Rule i's
V-candidates are vhas[i]; its F-candidates are has[i], each signature
with bit i dropped, which keeps their order.  Each side is peeled: keep
the signature s at the lowest position left, clear the positions of Up(s),
the signatures that hold s, and repeat.  The kept s is minimal: a proper
subset of it is a smaller number, so it sat at a lower position and is
gone, either kept or cleared for holding a kept signature; s holds that
kept signature too, so it would have been cleared with it.  Up(s) is the
AND of has[j] over the rules j of s, since a signature holds s exactly
when it holds each of them (all positions for the empty s); on an F-side
every candidate holds bit i, so those that hold s with bit i dropped are
those it leaves.  Past 2**16 worlds the grouped pass runs chunk by chunk,
so no table of every world's key is held at once.

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

Each labelling step is the binary choice of CLP(FD) labelling: a node
labels its variable x with the least value v left, its fixpoint's lo of
x, and the other branch is x >= v + 1, as CLP(FD) propagates x != v.
Every return to a label enters its right branch, whatever sent the
search back: a failed entry, a solution or a subtree that closed.  The
right branch is an ordinary node, propagated, asked the cut, then
labelled in turn.  The box x >= v + 1 under the node holds every later
value and every solution under them, and its least fixpoint is below all
of those solutions.  So when propagating it fails, no later value holds
a solution, and when it holds, its lo of x is the first value left.  A
cut or ceiling that rejects a box's lo rejects every vector above it, so
a rejection is final for every later value.  The search asks the cut on
the raised lo before it enters the branch, and the entry's headroom
stops a branch whose sum(lo) passes the ceiling before it propagates.
Right branches only drop values without wanted solutions and tighten
bounds, so the same solutions come out in the same lexicographic order.

A search with neither a cut nor a ceiling, mode ``all``, stops labelling
where a node's box holds nothing but solutions.  Rule i is entailed on
the box [lo, hi] when lo_i + min_sig(F_i, lo) > min_sig(V_i, hi), a
minimum over no signature being infinite.  That is sound: every v in the
box has v_i >= lo_i, each F-sum of v is at least its sum at lo and each
V-sum at most its sum at hi, since the variables are nonnegative and lo
<= v <= hi, so v_i + min_sig(F_i, v) > min_sig(V_i, v), constraint i at
v.  A rule with no F-signature holds at every vector.  A check,
``check_solution``, is this test on the box of one point, lo = hi = v,
and there it is exact, not only sufficient: both sides read v, so the
test is constraint i at v itself.  At depth d the variables before d
are labelled, lo = hi there, so a rule whose signatures mention only
those reads the same sums at lo and at hi, and the node's fixpoint, lo_i
>= 1 + min_sig(V_i, lo) - min_sig(F_i, hi), is the test itself: only
rules that mention a variable at d or past it can fail.

The search tests the box [lo, cap], where cap <= hi bounds every
solution under the node from above.  Take a rule r with an F-signature.
A solution k under the node meets constraint r, so min_sig(V_r, k) <
k_r + min_sig(F_r, k) <= hi_r + min_sig(F_r, hi): some V-signature S of
r has sum_S(k) <= hi_r + min_sig(F_r, hi) - 1.  A variable j that lies
in every V-signature of r lies in that S, whose other variables are at
least their lo, and sum_S(lo) >= min_sig(V_r, lo); so k_j <= lo_j +
slack_r, where slack_r = hi_r + min_sig(F_r, hi) - 1 - min_sig(V_r, lo).
cap_j is the least of hi_j and these bounds over the rules r.  The
fixpoint's lo_r >= 1 + min_sig(V_r, lo) - min_sig(F_r, hi) gives slack_r
>= hi_r - lo_r >= 0, so cap >= lo, and cap = lo = hi on the labelled
variables: the rules that mention only those hold on [lo, cap] as on
[lo, hi].  A V-sum at cap is at most its sum at hi, so the test passes
on [lo, cap] wherever it passes on [lo, hi].  The cap is what ends the
labelling when a rule comes before the later one it overrides: an
exception whose every verifying world falsifies a later default has
that default's variable in each V-signature, so on [lo, hi], with the
variable at the bound, it fails until the variable is labelled.
When every rule is entailed on [lo, cap], every vector of [lo, cap] is a
solution, and every solution under the node lies in [lo, cap], so the
node's solutions are the product of the ranges [lo_j, cap_j].
``itertools.product`` runs it with the labelled prefix fixed and the rest
ascending, the last component fastest: the lexicographic order in which
labelling meets them.  The search then goes back to the deepest label.
Under a cut or a ceiling the test is skipped.  There lo is the
only wanted vector of an entailed box: every other one lies above lo, so
its sum is larger, which the ceiling excludes once lo is found, and the
Pareto cut rejects it once lo is in the frontier.  Labelling reaches lo
at once, since lo is a solution, which no propagation raises, so those
solvers keep their nodes.

A CRProblem is immutable after build; each solve call builds its own box,
so concurrent solves on one problem are safe.
"""

from __future__ import annotations

import enum
import heapq
import sys
from array import array
from collections import deque
from functools import partial
from itertools import islice, product
from operator import itemgetter, le
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .kb import KnowledgeBase
from .worlds import iter_bits, rule_partitions, world_signatures

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


class SolutionSet(NamedTuple):
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


class CRProblem(NamedTuple):
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


# Worlds per chunk of the grouped pass of ``build_problem``, as a power
# of two: past 2**16 worlds the keys are deduplicated chunk by chunk, so
# no table of every world's key is held at once.
_CHUNK = 16

# Per bit k of a byte, the translation of bytes to the ASCII digit of bit k:
# runs of 2**k zeros and 2**k ones, as bit k runs over the bytes 0..255.
_DIGIT_OF_BIT = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


def _columns(values: list[int], n: int, deadline: float | None = None) -> list[int]:
    """For each bit j < n, the bitset of the positions p with bit j set in
    values[p], all values below 2**n <= 2**64.  The values are packed as
    native ints of 1, 2, 4 or 8 bytes, the last position first; byte plane
    g, one byte per position, is translated to the digits of each of its
    bits, and the digits are read as one binary int, which puts position 0
    at bit 0.  The deadline is tested after the packing and before each
    column."""
    width = 1
    while n > 8 * width:
        width *= 2
    packed = array("BHIQ"[width.bit_length() - 1], reversed(values)).tobytes()
    planes = [packed[g::width] for g in range(width)]
    if sys.byteorder == "big":
        planes.reverse()
    columns = []
    for j in range(n):
        _check_deadline(deadline)
        columns.append(int(planes[j >> 3].translate(_DIGIT_OF_BIT[j & 7]), 2))
    return columns


def build_problem(
    kb: KnowledgeBase, bound: int | None = None, deadline: float | None = None
) -> CRProblem:
    """Compile CR(R): falsification signatures, over the worlds of the
    atoms the rules mention, and the box [0, bound]^n (bound defaults to
    n).  Raises SolveTimeout when the ``perf_counter`` deadline has
    passed; it is checked after the world-set pass, after each chunk of
    the grouped pass, after the sort, after the values to transpose are
    read, after they are packed, before each column, and before every
    peel step, so compilation overshoots it by at most one such step."""
    m, verifying, falsifying = rule_partitions(kb)
    n = kb.n
    if bound is None:
        bound = n
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _check_deadline(deadline)
    # Grouped pass: a world's key holds the rules it falsifies in bits
    # 0..n-1 and those it verifies in bits n..2n-1; ver[s] ORs the
    # verified rules of every world whose signature is s.
    sets = falsifying + verifying
    full = (1 << n) - 1
    ver: dict[int, int] = {}
    get = ver.get
    step = min(m, _CHUNK)
    mask = (1 << (1 << step)) - 1
    for start in range(0, 1 << m, 1 << step):
        part = sets if step == m else [ws >> start & mask for ws in sets]
        for key in set(world_signatures(part, step)):
            s = key & full
            ver[s] = get(s, 0) | key >> n
        _check_deadline(deadline)
    order = sorted(ver)
    _check_deadline(deadline)
    values = order + list(map(ver.__getitem__, order))
    _check_deadline(deadline)
    columns = _columns(values, n, deadline)
    d = len(order)
    everything = (1 << d) - 1
    has = [c & everything for c in columns]
    vhas = [c >> d for c in columns]
    _check_deadline(deadline)
    # Peel each side from its candidate positions, lowest first (see the
    # module docstring); kept caches each kept signature's rules and Up.
    kept: dict[int, tuple[tuple[int, ...], int]] = {}
    sides: tuple[list[_SigSet], list[_SigSet]] = ([], [])
    for i in range(n):
        bit = 1 << i
        for out, left, drop in ((sides[0], vhas[i], 0), (sides[1], has[i], bit)):
            sigs = []
            while left:
                _check_deadline(deadline)
                s = order[(left & -left).bit_length() - 1] & ~drop
                entry = kept.get(s)
                if entry is None:
                    idx = tuple(iter_bits(s))
                    up = everything
                    for j in idx:
                        up &= has[j]
                    entry = kept[s] = idx, up
                sigs.append(entry[0])
                left &= ~entry[1]
            out.append(tuple(sigs))
    return CRProblem(bound, tuple(order), tuple(sides[0]), tuple(sides[1]))


def check_solution(p: CRProblem, v: KappaVector) -> bool:
    """Exact test of the constraint conjunction at vector v: the
    entailment test of mode ``all`` on the box of the single point lo = hi
    = v, where both sides read v, so it is constraint i at v for every
    rule i (see the module docstring).  A rule that no world verifies
    fails at every vector, and one that no world falsifies holds."""
    n = p.n
    if len(v) != n:
        raise ValueError(f"vector has length {len(v)}, expected {n}")
    if any(x < 0 for x in v):
        return False
    rules = [i for i, fs in enumerate(p.falsifying_sigs) if fs]
    return all(p.verifying_sigs) and _entails(p, v, v)(rules)


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
    """The bounds of one search, with the sums that propagation reads and
    the rule lists that queue it.

    ``lo`` and ``hi`` are the bounds.  The distinct V-signatures are
    numbered in order of first occurrence: ``vsig_ids[i]`` lists the
    numbers of rule i's, ``sums[s]`` is the sum of ``lo`` over signature
    s, and ``vread[i]`` reads rule i's sums in one call.  The distinct
    F-signatures are numbered apart in the same way: ``fsig_ids[i]``,
    ``fsums[t]``, the sum of ``hi`` over F-signature t, and ``fread[i]``.
    ``containing[j]`` and ``fcontaining[j]`` hold the numbers of the V-
    and the F-signatures that mention j, ``raised_by[j]`` lists the rules
    whose V-signatures mention j (their floors rise with lo[j]) and
    ``touched_by[j]`` the rules whose V- or F-signatures mention j (their
    floors may move when lo[j] rises or hi[j] falls).

    ``headroom`` is how far one propagation call may raise sum(lo) before
    it fails the node (see the module docstring).  It starts at sum(hi)
    less sum(lo), which no propagation can use up; a search with a
    ceiling sets it before every node.

    The stored sums equal the sums recomputed fresh.  They start out
    equal, and each move of a bound adds its change to exactly the sums
    whose fresh value it moves: a move of lo_j to the sums of the
    V-signatures that mention j, a move of hi_j to those of the
    F-signatures that mention j; the search writes lo and its V-sums
    only together, from a node's copy of both.  Propagation only raises
    lo, so hi, and with it every F-sum, moves only where the search
    labels a variable, setting hi_j to the label, and where it puts hi_j
    back to the bound, when the search goes back to that label.
    """

    def __init__(self, p: CRProblem, lo: Sequence[int], hi: Sequence[int]):
        self.lo = lo = list(lo)
        self.hi = hi = list(hi)
        vids: dict[tuple[int, ...], int] = {}
        fids: dict[tuple[int, ...], int] = {}
        self.vsig_ids = [[vids.setdefault(sig, len(vids)) for sig in vs] for vs in p.verifying_sigs]
        self.fsig_ids = [[fids.setdefault(sig, len(fids)) for sig in fs] for fs in p.falsifying_sigs]
        self.vread = _readers(self.vsig_ids)
        self.fread = _readers(self.fsig_ids)
        self.sums = [sum(map(lo.__getitem__, sig)) for sig in vids]
        self.headroom = sum(hi) - sum(lo)
        self.fsums = [sum(map(hi.__getitem__, sig)) for sig in fids]
        n = p.n
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
    fixpoint as a start with every rule queued.  A right branch raises
    only lo_j above its node's fixpoint, where hi_j is the bound already,
    so it queues ``raised_by[j]``.  On failure, a domain wipe-out or an
    early stop, the box is left as it was at the failing rule, its sums
    still those of its bounds.
    """
    # Nothing queued, nothing moved: skip building the worklist, as at
    # every node whose label no rule's signatures mention.
    if not queue:
        return True
    lo, hi, sums, fsums = box.lo, box.hi, box.sums, box.fsums
    vread, fread = box.vread, box.fread
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


def _entails(p: CRProblem, lo: Sequence[int], hi: Sequence[int]) -> Callable[[list[int]], bool]:
    """The test that the box [lo, hi] entails each rule of a list, all with
    a V- and an F-signature (see the module docstring); it reads lo and hi
    as they are when it runs and moves a rule that fails to the front."""
    vs, fs = p.verifying_sigs, p.falsifying_sigs
    at_lo, at_hi = partial(map, lo.__getitem__), partial(map, hi.__getitem__)

    def entails(rules: list[int]) -> bool:
        for i in rules:
            if lo[i] + min(map(sum, map(at_lo, fs[i]))) <= min(map(sum, map(at_hi, vs[i]))):
                k = rules.index(i)
                rules[0], rules[k] = i, rules[0]
                return False
        return True

    return entails


def _entailment(p: CRProblem, box: _Box) -> Callable[[int], list[int] | None]:
    """The test of a node at depth d: the caps of ``box`` when the box
    [lo, cap] entails every rule, else None (see the module docstring).
    It tests only the rules with an F-signature whose signatures mention
    a variable at d or past it, the one that failed last at d first.  On
    its first call it builds those lists and the list of the rules that
    cap some variable, with the variables each caps."""
    vs, fs = p.verifying_sigs, p.falsifying_sigs
    lo, hi, sums, fsums, vread, fread = box.lo, box.hi, box.sums, box.fsums, box.vread, box.fread
    cap = hi.copy()
    entails = _entails(p, lo, cap)
    tested: list[list[int]] = []
    capping: list[tuple[int, set[int]]] = []

    def entailed(d: int) -> list[int] | None:
        if not tested:
            touching: set[int] = set()
            for j in reversed(range(p.n)):
                touching.update(box.touched_by[j])
                tested.append([i for i in touching if fs[i]])
            tested.reverse()
            capping.extend((r, js) for r, v in enumerate(vs) if fs[r] and (js := set(v[0]).intersection(*v)))
        cap[:] = hi
        for r, js in capping:
            slack = hi[r] - 1 + min(fread[r](fsums)) - min(vread[r](sums))
            for j in js:
                if lo[j] + slack < cap[j]:
                    cap[j] = lo[j] + slack
        return cap if entails(tested[d]) else None

    return entailed


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
    they may tighten as the caller consumes solutions.  With neither, a
    node whose box [lo, cap] entails every rule, where cap bounds every
    solution under the node from above, yields that box whole in place of
    its subtree, testing the deadline every 1,024 vectors (see the module
    docstring).

    Every node, the root, a label and a right branch alike, is entered by
    one piece of code: it tests the deadline, stores the headroom
    ceiling() - sum(lo) on the box, propagates from the rules queued and
    asks the cut on the fixpoint.  A node that holds pushes copies of lo
    and of the V-sums onto the stack of open nodes and labels x_idx =
    lo_idx: it sets hi_idx to lo_idx and queues the rules of
    ``touched_by[idx]``.

    Every return to a label enters its right branch.  After a failed
    entry, a solution or an entailed box alike, the search pops the
    deepest open node's copy, reads the label's value v from hi_idx and
    puts hi_idx back to bound.  If v < bound, it raises lo_idx to v + 1 in
    the popped copy, with the copy's sums over ``containing[idx]``, and
    unless the cut rejects that lo, it writes the copy into the box and
    enters the right branch x_idx >= v + 1 with the rules of
    ``raised_by[idx]`` queued, since against the node's fixpoint only
    lo_idx rose.  Otherwise it goes back to the next label.  The ceiling
    needs no test here: the entry's headroom test stops a right branch
    whose sum(lo) is above it before it propagates.

    One box serves the whole search, and the node at depth idx of the
    stack labels variable idx.  Its copy holds its fixpoint's lo, whose
    lo_idx is the label, and the V-sums of that lo.  Propagation never
    moves hi, and every node above it closed, putting hi back to bound
    past idx, so writing the raised copy into the box in place gives the
    right branch's bounds whatever the nodes below it left there."""
    n = p.n
    bound = p.bound
    box = _Box(p, [0] * n, [bound] * n)
    lo, hi, sums, fsums = box.lo, box.hi, box.sums, box.fsums
    containing, fcontaining = box.containing, box.fcontaining
    raised_by, touched_by = box.raised_by, box.touched_by
    nodes: list[tuple[list[int], list[int]]] = []
    queue: Iterable[int] = range(n)
    headroom = box.headroom
    # Under a cut or a ceiling the search runs no entailment test.
    entailed = _entailment(p, box) if cut is None and ceiling is None else None
    while True:
        # Enter a node: the root, a label or a right branch.
        _check_deadline(deadline)
        if ceiling is not None:
            headroom = box.headroom = ceiling() - sum(lo)
        if headroom >= 0 and _propagate_box(box, queue) and (cut is None or not cut(lo)):
            idx = len(nodes)
            if idx < n and (entailed is None or (cap := entailed(idx)) is None):
                # Push the node's copy and label x_idx = lo_idx.
                nodes.append((lo.copy(), sums.copy()))
                d = lo[idx] - hi[idx]
                hi[idx] = lo[idx]
                for t in fcontaining[idx]:
                    fsums[t] += d
                queue = touched_by[idx]
                continue
            if idx == n:
                yield tuple(lo)
            else:
                # Every vector of [lo, cap] is a solution: yield them all,
                # testing the deadline every 1,024, and go back as after a
                # closed subtree.
                vectors = product(*[range(a, b + 1) for a, b in zip(lo, cap)])
                for v in vectors:
                    yield v
                    yield from islice(vectors, 1023)
                    _check_deadline(deadline)
        # Go back to the deepest label, x_idx = v with v = hi_idx: pop its
        # copy, put hi_idx back to the bound and, if v < bound, enter the
        # right branch x_idx >= v + 1, unless the cut rejects its lo.
        while nodes:
            idx = len(nodes) - 1
            node_lo, node_sums = nodes.pop()
            d = bound - hi[idx]
            hi[idx] = bound
            for t in fcontaining[idx]:
                fsums[t] += d
            if d:
                node_lo[idx] += 1
                for s in containing[idx]:
                    node_sums[s] += 1
                if cut is None or not cut(node_lo):
                    # Against the node's fixpoint only lo_idx rose.
                    lo[:] = node_lo
                    sums[:] = node_sums
                    queue = raised_by[idx]
                    break
        else:
            return


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")


def iter_solutions(
    p: CRProblem, limit: int | None = None, deadline: float | None = None
) -> Iterator[KappaVector]:
    """The solutions of ``enumerate_solutions``, each yielded as the
    search finds it, so none is held; ``limit`` stops the search there and
    must be nonnegative."""
    _check_limit(limit)
    return islice(_search(p, deadline=deadline), limit)


def enumerate_solutions(
    p: CRProblem, limit: int | None = None, deadline: float | None = None
) -> SolutionSet:
    """All solutions in the box, lexicographically; ``limit`` truncates and
    must be nonnegative."""
    return SolutionSet(SolutionOrdering.ALL, p.bound, tuple(iter_solutions(p, limit, deadline)))


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
    # u: each dominator was yielded into the frontier or dropped with a
    # node whose lo the cut found above a frontier vector, which then lies
    # below u too.  (A rejected right branch drops later values as well,
    # but all of them lie above the lo the cut rejected, so they are
    # dominated too.)  So u is Pareto-minimal exactly when the cut lets it
    # through, the solutions yielded are the frontier, and each is final:
    # the search can stop at the limit.  It runs to one solution at least,
    # which tells a feasible box from an infeasible one.
    frontier: list[KappaVector] = []
    search = _search(p, partial(_dominated, frontier), deadline)
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
