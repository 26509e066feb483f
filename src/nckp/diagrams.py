"""Set partitions and braids as arc diagrams, with crossing and regularity tests.

The standard representation of a partition of [n] joins the consecutive
elements of each block in numerical order, so every vertex has at most one
arc to its left and at most one to its right.  Braids relax this to allow
loops (i, i); a loop uses both arc slots of its vertex.

Vertices are 1-based throughout.
"""

from __future__ import annotations

import bisect
from itertools import combinations

from .record import Record, _set


class ArcStructureError(ValueError):
    """An arc list that cannot be the standard representation of any diagram."""


def _canonical_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    canon = tuple(tuple(sorted(b)) for b in blocks)
    return tuple(sorted(canon, key=lambda b: b[0]))


class Partition(Record):
    """A set partition of [n] in canonical form (blocks sorted by minimum,
    each one increasing).  The constructor trusts its arguments to be in
    that form; from_blocks puts any blocks in it and checks them."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "n", n)
        _set(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        blocks = _canonical_blocks(blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if not 1 <= x <= n:
                    raise ValueError(f"element {x} outside [1, {n}]")
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise ValueError(f"elements {missing} not covered by any block")
        return cls(n, blocks)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Arcs joining consecutive elements of each block, sorted by left endpoint."""
        arcs = []
        for b in self.blocks:
            for x, y in zip(b, b[1:]):
                arcs.append((x, y))
        return tuple(sorted(arcs))

    def to_text(self) -> str:
        if not self.blocks:
            return ""
        return "{" + "}{".join([",".join(map(str, b)) for b in self.blocks]) + "}"

    def arcs_text(self) -> str:
        return " ".join(f"({i},{j})" for i, j in self.arcs)


class Braid(Record):
    """An arc diagram over [n] allowing loops; each vertex is a left endpoint
    at most once and a right endpoint at most once."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: tuple[tuple[int, int], ...]) -> None:
        _set(self, "n", n)
        _set(self, "arcs", arcs)

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Braid":
        arcs = tuple(sorted(tuple(a) for a in arcs))
        lefts: set[int] = set()
        rights: set[int] = set()
        for i, j in arcs:
            if not (1 <= i <= n and 1 <= j <= n and i <= j):
                raise ArcStructureError(f"bad arc ({i},{j}) for n={n}")
            if i in lefts:
                raise ArcStructureError(f"vertex {i} is a left endpoint twice")
            if j in rights:
                raise ArcStructureError(f"vertex {j} is a right endpoint twice")
            lefts.add(i)
            rights.add(j)
        return cls(n, arcs)

    def to_text(self) -> str:
        return " ".join(f"({i},{j})" for i, j in self.arcs)


def parse_blocks_text(text: str) -> Partition:
    """Parse the canonical block form, e.g. `{1,5}{2}{3,7,10}`."""
    text = text.strip()
    if not text:
        return Partition.from_blocks(0, [])
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a block form: {text!r}")
    blocks = []
    for part in text[1:-1].split("}{"):
        if not part:
            raise ValueError("empty block in input")
        blocks.append(tuple(int(x) for x in part.split(",")))
    n = max(max(b) for b in blocks)
    return Partition.from_blocks(n, blocks)


class CrossingReport(Record):
    """Largest set of mutually crossing arcs: m arcs with
    i_1 < ... < i_m < j_1 < ... < j_m."""

    __slots__ = ("max_crossing", "witness")

    def __init__(self, max_crossing: int,
                 witness: tuple[tuple[int, int], ...]) -> None:
        _set(self, "max_crossing", max_crossing)
        _set(self, "witness", witness)


def max_crossing(p: Partition) -> CrossingReport:
    """Sweep over split positions t; arcs spanning t have distinct left and
    distinct right endpoints, so the largest crossing set through t is the
    longest increasing subsequence of right endpoints (arcs sorted by left).
    Any m mutually crossing arcs span t = i_m, so the sweep finds the max.
    """
    arcs = p.arcs
    if not arcs:
        return CrossingReport(0, ())
    best = 0
    best_witness: tuple[tuple[int, int], ...] = ()
    for t in sorted({i for i, _ in arcs}):
        spanning = [(i, j) for i, j in arcs if i <= t < j]
        spanning.sort()
        rights = [j for _, j in spanning]
        # patience LIS with predecessor links for the witness
        tails: list[int] = []
        tail_pos: list[int] = []
        prev = [-1] * len(rights)
        for idx, r in enumerate(rights):
            pos = bisect.bisect_left(tails, r)
            if pos == len(tails):
                tails.append(r)
                tail_pos.append(idx)
            else:
                tails[pos] = r
                tail_pos[pos] = idx
            prev[idx] = tail_pos[pos - 1] if pos > 0 else -1
        if len(tails) > best:
            best = len(tails)
            chain = []
            idx = tail_pos[-1]
            while idx != -1:
                chain.append(spanning[idx])
                idx = prev[idx]
            best_witness = tuple(reversed(chain))
    return CrossingReport(best, best_witness)


def max_crossing_brute(p: Partition, guard: int = 12) -> CrossingReport:
    """Subset brute force, the independent oracle for small n."""
    if p.n > guard:
        raise ValueError(f"brute-force crossing check guarded at n <= {guard}")
    arcs = p.arcs
    best = 0
    best_witness: tuple[tuple[int, int], ...] = ()
    for m in range(1, len(arcs) + 1):
        hit = None
        for sub in combinations(arcs, m):
            lefts = [a[0] for a in sub]
            rights = [a[1] for a in sub]
            if all(x < y for x, y in zip(lefts, lefts[1:])) and all(
                x < y for x, y in zip(rights, rights[1:])
            ) and lefts[-1] < rights[0]:
                hit = sub
                break
        if hit is None:
            break
        best, best_witness = m, hit
    return CrossingReport(best, best_witness)


def is_k_noncrossing(p: Partition, k: int) -> bool:
    """True iff no k arcs are mutually crossing."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return max_crossing(p).max_crossing < k


def is_m_regular(p: Partition, m: int) -> bool:
    """True iff elements of one block always differ by at least m.

    Consecutive block elements realize the minimal gaps, so checking the
    arcs suffices.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return all(j - i >= m for i, j in p.arcs)


def blocks_from_arcs(n: int, arcs) -> Partition:
    """Rebuild a partition from its arc list (inverse of Partition.arcs)."""
    right_of: dict[int, int] = {}
    has_left: set[int] = set()
    for i, j in arcs:
        if not (1 <= i < j <= n):
            raise ArcStructureError(f"bad arc ({i},{j}) for n={n}")
        if i in right_of:
            raise ArcStructureError(f"vertex {i} has two arcs to its right")
        if j in has_left:
            raise ArcStructureError(f"vertex {j} has two arcs to its left")
        right_of[i] = j
        has_left.add(j)
    blocks = []
    for v in range(1, n + 1):
        if v in has_left:
            continue
        block = [v]
        while block[-1] in right_of:
            block.append(right_of[block[-1]])
        blocks.append(tuple(block))
    return Partition.from_blocks(n, blocks)
