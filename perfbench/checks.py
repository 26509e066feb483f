"""Checks made apart from `nckp`: exact counts by other routes, and the
properties every sample line must have.

Nothing here imports `nckp`, so a fault in the program cannot hide itself
by agreeing with its own checker.
"""

from __future__ import annotations

import bisect
import math


def noncrossing3_counts(n_max: int) -> list[int]:
    """3-noncrossing partitions of [0..n_max], by the P-recursive relation
    of Bousquet-Melou and Xin (2006):

        (n+6)(n+7) C(n+2) = 2(5n^2+32n+42) C(n+1) - 9n(n+3) C(n)
    """
    c = [1, 1]
    for n in range(n_max - 1):
        num = 2 * (5 * n * n + 32 * n + 42) * c[n + 1] - 9 * n * (n + 3) * c[n]
        nxt, rem = divmod(num, (n + 6) * (n + 7))
        if rem:
            raise ArithmeticError(f"recurrence not integral at n={n + 2}")
        c.append(nxt)
    return c[: n_max + 1]


def chamber_walk_counts(k: int, n_max: int) -> list[int]:
    """k-noncrossing partitions of [0..n_max], by a direct walk count.

    A partition of [n] with no k-crossing is a walk of length 2n over
    Young diagrams with at most k-1 rows, from and back to the empty
    diagram, that may remove a box (or do nothing) at odd steps and add a
    box (or do nothing) at even steps.  The walks are counted step by step
    on the diagrams themselves: no reflection, no tables.  A diagram with
    more boxes than the remaining odd steps can remove is dropped; that
    never drops a walk that is back at the empty diagram by step 2*n_max.
    """
    rows = k - 1
    empty = (0,) * rows
    cur = {empty: 1}
    out = [1]
    for s in range(1, 2 * n_max + 1):
        budget = (2 * n_max - s) // 2
        nxt: dict = {}
        for shape, val in cur.items():
            targets = [shape]
            for r in range(rows):
                if s % 2:
                    below = shape[r + 1] if r + 1 < rows else 0
                    ok = shape[r] > below
                    delta = -1
                else:
                    ok = r == 0 or shape[r - 1] > shape[r]
                    delta = 1
                if ok:
                    targets.append(shape[:r] + (shape[r] + delta,) + shape[r + 1:])
            for t in targets:
                if sum(t) <= budget:
                    nxt[t] = nxt.get(t, 0) + val
        cur = nxt
        if s % 2 == 0:
            out.append(cur.get(empty, 0))
    return out


def plain_counts(k: int, n_max: int) -> list[int]:
    """k-noncrossing partition counts for n = 0..n_max."""
    return noncrossing3_counts(n_max) if k == 3 else chamber_walk_counts(k, n_max)


def regular_counts(plain: list[int]) -> list[int]:
    """2-regular counts from plain ones, by inclusion-exclusion over the
    n-1 possible gap-one arcs (i, i+1):

        R(n) = sum_h (-1)^h C(n-1, h) P(n-h)

    Contracting h chosen gap-one arcs of a partition of [n] leaves a
    partition of [n-h] with the same crossings.
    """
    out = [1]
    for n in range(1, len(plain)):
        out.append(sum((-1) ** h * math.comb(n - 1, h) * plain[n - h]
                       for h in range(n)))
    return out


# ---------------------------------------------------------------------------
# sample lines
# ---------------------------------------------------------------------------

# A uniform sampler misses this many standard deviations about once in
# 1.7 million checks.
Z_MAX = 5.0

def parse_blocks(line: str, n: int) -> list[list[int]]:
    """Blocks of a `{1,4}{2}{3,5}` line; raises ValueError unless they form
    a set partition of [n]."""
    line = line.strip()
    if not (line.startswith("{") and line.endswith("}")):
        raise ValueError(f"not a block list: {line[:40]!r}")
    blocks = [[int(x) for x in part.split(",")] for part in line[1:-1].split("}{")]
    seen = sorted(x for b in blocks for x in b)
    if seen != list(range(1, n + 1)):
        raise ValueError("blocks do not partition [n]")
    return blocks


def arcs_of(blocks) -> list[tuple[int, int]]:
    """Arcs joining numerically consecutive elements of each block."""
    arcs = []
    for b in blocks:
        b = sorted(b)
        arcs.extend(zip(b, b[1:]))
    return arcs


def has_k_crossing(arcs, k: int) -> bool:
    """True iff some k arcs satisfy i_1 < ... < i_k < j_1 < ... < j_k.

    Anchored at the first arc (i_1, j_1) of such a set, the other k-1 arcs
    start strictly inside (i_1, j_1), end beyond j_1, and have increasing
    right ends in the order of their left ends.  Left ends of a partition's
    arcs are distinct, so a longest strictly increasing run of right ends
    (patience sorting) decides it.
    """
    arcs = sorted(arcs)
    for a, (i1, j1) in enumerate(arcs):
        tails: list[int] = []
        for i, j in arcs[a + 1:]:
            if i >= j1:
                break
            if j <= j1:
                continue
            lo = bisect.bisect_left(tails, j)
            if lo == len(tails):
                tails.append(j)
                if len(tails) >= k - 1:
                    return True
            else:
                tails[lo] = j
    return False


def sample_problems(lines, k: int, n: int, regular: bool, count: int,
                    singleton_p: float) -> list[str]:
    """Every way the sample lines fail to be `count` uniform samples.

    Besides the per-line checks, the share of samples in which {1} is a
    singleton must lie within Z_MAX standard deviations of singleton_p:
    deleting a singleton 1 is a bijection onto the partitions of [n-1]
    that keeps crossings and gap-one arcs, so under uniformity that share
    is P(n-1)/P(n) (R(n-1)/R(n) in regular mode).
    """
    problems = []
    if len(lines) != count:
        problems.append(f"{len(lines)} sample lines, expected {count}")
    singletons = 0
    for no, line in enumerate(lines, start=1):
        try:
            blocks = parse_blocks(line, n)
        except ValueError as exc:
            problems.append(f"line {no}: {exc}")
            continue
        arcs = arcs_of(blocks)
        if has_k_crossing(arcs, k):
            problems.append(f"line {no}: has a {k}-crossing")
        if regular and any(j == i + 1 for i, j in arcs):
            problems.append(f"line {no}: has a gap-one arc")
        singletons += [1] in blocks
    if lines:
        m = len(lines)
        sd = math.sqrt(singleton_p * (1 - singleton_p) / m)
        share = singletons / m
        if abs(share - singleton_p) > Z_MAX * sd:
            problems.append(
                f"singleton share {share:.4f}, expected {singleton_p:.4f}"
                f" +- {Z_MAX} x {sd:.4f}"
            )
    return problems
