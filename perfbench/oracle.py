"""Independent correctness oracle for the benchmark.

It works from the generator's own KB data (atom names and DNF rules in
``kbgen``), never from crsolve's parser, world sets or constraint compiler.
Every world is evaluated literal by literal with NumPy; a vector is a
solution iff its induced ranking accepts every rule, that is, the best
verifying world of the rule ranks strictly below its best falsifying one.
Consistency is decided by the System Z tolerance partition (Pearl 1990).
"""

from __future__ import annotations

import numpy as np

from kbgen import Cond, Dnf, GenKB


class Semantics:
    """Pointwise truth of one knowledge base over all 2**m worlds.

    World w sets atom k (0-based, declaration order) iff bit m-1-k of w is
    set, so the first declared atom is the most significant bit.
    """

    def __init__(self, kb: GenKB):
        self.kb = kb
        m = len(kb.atoms)
        worlds = np.arange(1 << m, dtype=np.int64)
        self._truth = {a: ((worlds >> (m - 1 - k)) & 1).astype(bool) for k, a in enumerate(kb.atoms)}
        self._all = np.ones(1 << m, dtype=bool)
        n = len(kb.rules)
        self.verifying = np.zeros((n, 1 << m), dtype=bool)
        self.falsifying = np.zeros((n, 1 << m), dtype=bool)
        for i, rule in enumerate(kb.rules):
            ant = self.holds(rule.antecedent)
            cons = self.holds(rule.consequent)
            self.verifying[i] = ant & cons
            self.falsifying[i] = ant & ~cons
        # Worlds with the same verify/falsify pattern are interchangeable
        # for every rule-level question; keep one column per pattern.
        classes = np.unique(np.concatenate([self.verifying, self.falsifying]), axis=1)
        self.class_falsifying = classes[n:].astype(np.int64)
        self._ver_cols = [np.flatnonzero(row) for row in classes[:n]]
        self._fal_cols = [np.flatnonzero(row) for row in classes[n:]]
        self._boxes: dict[int, np.ndarray] = {}

    def holds(self, f: Dnf) -> np.ndarray:
        out = np.zeros_like(self._all)
        for term in f:
            t = self._all.copy()
            for atom, positive in term:
                t &= self._truth[atom] if positive else ~self._truth[atom]
            out |= t
        return out

    def ranks(self, v) -> np.ndarray:
        """Rank of every world under vector v."""
        return np.asarray(v, dtype=np.int64) @ self.falsifying.astype(np.int64)

    def valid_rows(self, vectors: np.ndarray) -> np.ndarray:
        """Which rows of a (k, n) array of vectors are solutions."""
        vectors = np.asarray(vectors, dtype=np.int64).reshape(-1, len(self.kb.rules))
        ok = (vectors >= 0).all(axis=1)
        ranks = vectors @ self.class_falsifying
        for ver, fal in zip(self._ver_cols, self._fal_cols):
            if not ver.size:
                return np.zeros(len(vectors), dtype=bool)
            if fal.size:
                ok &= ranks[:, ver].min(axis=1) < ranks[:, fal].min(axis=1)
        return ok

    def valid(self, v) -> bool:
        return bool(self.valid_rows(np.array([v]))[0])

    def box_solutions(self, bound: int, chunk: int = 1 << 14) -> np.ndarray:
        """Every solution in [0, bound]^n, lexicographically, as a (k, n) array."""
        if bound in self._boxes:
            return self._boxes[bound]
        n = len(self.kb.rules)
        total = (bound + 1) ** n
        found = []
        for start in range(0, total, chunk):
            idx = np.arange(start, min(total, start + chunk), dtype=np.int64)
            digits = np.empty((idx.size, n), dtype=np.int64)
            for col in range(n - 1, -1, -1):
                digits[:, col] = idx % (bound + 1)
                idx //= bound + 1
            found.append(digits[self.valid_rows(digits)])
        self._boxes[bound] = np.concatenate(found) if found else np.zeros((0, n), np.int64)
        return self._boxes[bound]

    def consistent(self) -> bool:
        """System Z: peel off rules tolerated by the rest until none is left."""
        remaining = list(range(len(self.kb.rules)))
        while remaining:
            hit = self.falsifying[remaining].any(axis=0)
            tolerated = [i for i in remaining if (self.verifying[i] & ~hit).any()]
            if not tolerated:
                return False
            remaining = [i for i in remaining if i not in tolerated]
        return True

    def acceptance(self, v, c: Cond) -> tuple[int | None, int | None]:
        """(rank of A-and-B, rank of A-and-not-B); None stands for infinity."""
        ranks = self.ranks(v)
        ant = self.holds(c.antecedent)
        cons = self.holds(c.consequent)
        return _min_or_none(ranks[ant & cons]), _min_or_none(ranks[ant & ~cons])

    def world_text(self, w: int) -> str:
        m = len(self.kb.atoms)
        return " ".join(a if (w >> (m - 1 - k)) & 1 else "-" + a for k, a in enumerate(self.kb.atoms))


def _min_or_none(values: np.ndarray) -> int | None:
    return int(values.min()) if values.size else None


def dominated_mask(points: np.ndarray) -> np.ndarray:
    """Mask of rows that some other row is <= everywhere and < somewhere.

    Rows are visited by ascending sum, so every strict dominator of a row
    is visited before it; comparing against the kept rows suffices.
    """
    out = np.zeros(len(points), dtype=bool)
    front = np.empty((0, points.shape[1]), dtype=points.dtype)
    for k in np.argsort(points.sum(axis=1), kind="stable"):
        p = points[k]
        if ((front <= p).all(axis=1) & (front != p).any(axis=1)).any():
            out[k] = True
        else:
            front = np.vstack([front, p])
    return out


def check_solve(sem: Semantics, mode: str, vectors, minimal: int | None = None) -> list[str]:
    """Problems with one solve answer in the default box [0, n]^n; an
    empty list means it is right.  ``vectors`` is ``None`` for an
    "infeasible" verdict; ``minimal`` is the sum min-all reports."""
    n = len(sem.kb.rules)
    if vectors is None:
        problems = []
        if sem.consistent():
            problems.append("infeasible, but System Z finds the KB consistent")
        if n <= 7 and sem.box_solutions(n).size:
            problems.append("infeasible, but the box holds solutions")
        return problems
    arr = np.array(vectors, dtype=np.int64).reshape(-1, n)
    rows = list(map(tuple, arr.tolist()))
    problems = []
    if ((arr < 0) | (arr > n)).any():
        problems.append("a vector leaves the box")
    bad = ~sem.valid_rows(arr)
    if bad.any():
        problems.append(f"{int(bad.sum())} returned vector(s) are not solutions, e.g. {arr[bad][0].tolist()}")
    if len(set(rows)) != len(rows) or sorted(rows) != rows:
        problems.append("vectors are not distinct and in lexicographic order")
    if mode in ("min", "min-all") and not rows:
        problems.append("no vector returned")
    if mode == "min-all" and (arr.sum(axis=1) != minimal).any():
        problems.append(f"min-all vectors do not all have the minimal sum {minimal}")
    if mode in ("all", "pareto", "ocf-min"):
        box = sem.box_solutions(n)
        if mode == "all" and (box.shape != arr.shape or (box != arr).any()):
            problems.append(f"returned {len(arr)} vectors; the box holds {len(box)} solutions")
        if mode == "pareto":
            if dominated_mask(arr).any():
                problems.append("pareto vectors dominate one another")
            sums = box.sum(axis=1)
            minima = box[sums == sums.min()] if len(box) else box
            if not {tuple(r) for r in minima.tolist()} <= set(rows):
                problems.append("pareto output misses a sum-minimal solution")
            if {tuple(r) for r in box[~dominated_mask(box)].tolist()} != set(rows):
                problems.append("pareto output differs from the box's non-dominated solutions")
        if mode == "ocf-min":
            keep = box[~dominated_mask(box @ sem.class_falsifying)]
            if {tuple(r) for r in keep.tolist()} != set(rows):
                problems.append("ocf-min output differs from the box's ranking-minimal solutions")
        if not len(box) and sem.consistent():
            problems.append("empty box, but System Z finds the KB consistent")
    return problems
