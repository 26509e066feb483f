"""Exact big-integer counting of chamber-confined walks.

Two tables back the samplers and the CLI, both filled by one dynamic
program that counts walks directly inside the Weyl chamber
W = {v : v_1 > v_2 > ... > v_{k-1} >= 0}:

* ChamberTable      counts of partition walks from the start point, for all
                    endpoints and lengths.  One table per (k, max length).
* LoopFreeTable     counts of braid walks with no loop vertex (no vertex
                    that adds a box to row 1 and removes it again).

The DP runs on packed integer keys.  A step from a point is legal when the
point it reaches is still strictly decreasing and >= 0; nothing is ever
counted outside the chamber, so no signed cancellation is needed.  For
loop-free walks the state after an odd (add) step also records whether
that step added to row 1, and the following remove(1) is then skipped.
All counts are exact Python ints; no floating point is involved anywhere.

A session-sized table (horizon=S, the session's walk length) keeps only
the states a complete length-S walk can visit: a point with b boxes is kept
at length s only while the remaining S - s steps hold at least b removes,
that is b <= (S - s) // 2 for partition walks and b <= (S - s + 1) // 2 for
braid walks.  The bound drops by at most one per step, and exactly on
remove steps, so pruning each slice never loses a state that a later kept
state depends on.  Lookups outside the pruned region either return a
provable zero or raise.

Chamber slices are stored packed (sorted key array + offset array + one
bytes blob per length) because a sampling session at k=3, n=800 holds on
the order of 10^6 entries whose values run to hundreds of digits.
Loop-free slices stay plain dicts keyed by point, which are faster to
look up.

The paper's formulas -- the reflection sum over the orthant and the
inclusion-exclusion over loops -- live in `oracle.py` as independent
cross-checks of these tables.
"""

from __future__ import annotations

import bisect
from array import array
from math import factorial

from .walks import in_chamber, start_point


class TableLimitError(RuntimeError):
    """A requested table would exceed the configured entry budget."""


class InvariantError(RuntimeError):
    """Counts contradict each other: a negative signed sum, or candidate
    weights that fall short of the stored total."""


# ---------------------------------------------------------------------------
# point packing
# ---------------------------------------------------------------------------

def _coord_bits(k: int, max_len: int) -> int:
    top = (k - 2) + (max_len + 3) // 2
    return max(4, top.bit_length() + 1)


def _packer(k: int, bits: int):
    """pack/unpack between coordinate tuples and ints; lexicographic order
    on tuples equals numeric order on packed keys."""
    shifts = tuple(bits * (k - 2 - i) for i in range(k - 1))

    def pack(v: tuple[int, ...]) -> int:
        key = 0
        for x, sh in zip(v, shifts):
            key |= x << sh
        return key

    mask = (1 << bits) - 1

    def unpack(key: int) -> tuple[int, ...]:
        return tuple((key >> sh) & mask for sh in shifts)

    return pack, unpack, shifts


def _box_bound(s: int, horizon: int, braid: bool) -> int:
    """Most boxes a point at length s may hold and still be shed by the
    remove steps among positions s+1..horizon."""
    return (horizon - s + braid) // 2


def _estimate_entries(k: int, max_len: int, horizon: int | None,
                      braid: bool = False) -> int:
    """Rough upper bound on the stored states: a slice whose points hold at
    most b boxes has about (b + k)^(k-1) / ((k-1)!)^2 chamber points."""
    total = 0
    for s in range(max_len + 1):
        b = (s + braid) // 2
        if horizon is not None:
            b = min(b, _box_bound(s, horizon, braid))
        total += (b + k) ** (k - 1) // factorial(k - 1) ** 2
    return total


# ---------------------------------------------------------------------------
# the step primitive
# ---------------------------------------------------------------------------

def _advance(prev: dict, out: dict, shifts, mask: int, base: int,
             adding: bool, rows, stay: bool, cap: int | None) -> None:
    """Add to `out` (packed point -> count) every legal one-step move out
    of the points of `prev`.

    The moves are the do-nothing step (when `stay`) and an add or remove
    on each 0-based coordinate in `rows`.  A move is legal when the point
    it reaches is still strictly decreasing and >= 0.  When `cap` is given,
    targets holding more than `cap` boxes are dropped; since the caller's
    cap falls by at most one per step, a remove never exceeds it.
    """
    get = out.get
    last = len(shifts) - 1
    ones = [1 << sh for sh in shifts]
    for key, val in prev.items():
        c = [(key >> sh) & mask for sh in shifts]
        if cap is None:
            grow = keep = True
        else:
            boxes = sum(c) - base
            keep = boxes <= cap
            grow = boxes < cap
        if stay and keep:
            out[key] = get(key, 0) + val
        if adding:
            if not grow:
                continue
            for i in rows:
                if i == 0 or c[i - 1] - c[i] > 1:
                    q = key + ones[i]
                    out[q] = get(q, 0) + val
        else:
            for i in rows:
                if c[i] > (c[i + 1] + 1 if i < last else 0):
                    q = key - ones[i]
                    out[q] = get(q, 0) + val


def _walk_slices(k: int, max_len: int, horizon: int | None,
                 loop_free: bool, bits: int):
    """Yield, for s = 0..max_len, packed point -> number of walks of length
    s from the start point.  Partition walks remove on odd steps and add on
    even ones; loop-free braid walks add on odd steps, remove on even ones,
    and never remove from row 1 right after adding to it."""
    pack, _, shifts = _packer(k, bits)
    mask = (1 << bits) - 1
    base = sum(start_point(k))
    every = range(k - 1)
    lower = range(1, k - 1)
    cur = {pack(start_point(k)): 1}
    top: dict = {}  # loop-free states whose last step added to row 1
    yield cur
    for s in range(1, max_len + 1):
        cap = None if horizon is None else _box_bound(s, horizon, loop_free)
        nxt: dict = {}
        if not loop_free:
            _advance(cur, nxt, shifts, mask, base, s % 2 == 0, every, True, cap)
            counts = nxt
        elif s % 2:
            top = {}
            _advance(cur, nxt, shifts, mask, base, True, lower, True, cap)
            _advance(cur, top, shifts, mask, base, True, (0,), False, cap)
            counts = dict(nxt)
            for key, val in top.items():
                counts[key] = counts.get(key, 0) + val
        else:
            _advance(cur, nxt, shifts, mask, base, False, every, True, cap)
            _advance(top, nxt, shifts, mask, base, False, lower, True, cap)
            counts = nxt
        cur = nxt
        yield counts


# ---------------------------------------------------------------------------
# packed chamber slices
# ---------------------------------------------------------------------------

class _PackedSlice:
    """Sorted packed keys, offsets, and big-endian value bytes for one length."""

    __slots__ = ("keys", "offsets", "blob")

    def __init__(self, entries: dict):
        keys = sorted(entries)
        if keys and keys[-1] <= 0x7FFF_FFFF_FFFF_FFFF:
            self.keys = array("q", keys)
        else:
            self.keys = keys
        offsets = array("Q", [0])
        chunks = []
        pos = 0
        for key in keys:
            val = entries[key]
            chunk = val.to_bytes((val.bit_length() + 7) // 8 or 1, "big")
            chunks.append(chunk)
            pos += len(chunk)
            offsets.append(pos)
        self.offsets = offsets
        self.blob = b"".join(chunks)

    def get(self, key: int) -> int:
        keys = self.keys
        i = bisect.bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            return 0
        off = self.offsets
        return int.from_bytes(self.blob[off[i] : off[i + 1]], "big")

    def __len__(self) -> int:
        return len(self.keys)

    def items(self, unpack):
        off = self.offsets
        blob = self.blob
        for i, key in enumerate(self.keys):
            yield unpack(key), int.from_bytes(blob[off[i] : off[i + 1]], "big")


class ChamberTable:
    """Chamber-confined partition-walk counts for all endpoints and lengths.

    Built once per (k, max_len); immutable afterwards and safe to share.
    With horizon=S (a session's total walk length) the table stores only
    states a complete length-S walk can visit, and count() raises on
    queries outside that envelope rather than return an unvetted zero.
    """

    def __init__(self, k: int, max_len: int, horizon: int | None,
                 slices: list[_PackedSlice]):
        self.k = k
        self.max_len = max_len
        self.horizon = horizon
        self._slices = slices
        self._pack, self._unpack, _ = _packer(k, _coord_bits(k, max_len))
        self._base = sum(start_point(k))

    @classmethod
    def build(
        cls,
        k: int,
        max_len: int,
        *,
        horizon: int | None = None,
        max_entries: int = 80_000_000,
        loop_free: bool = False,
    ):
        """Run the chamber DP.  With loop_free=True the same engine counts
        loop-free braid walks and returns a LoopFreeTable; that is what
        LoopFreeTable.build does."""
        min_k = 3 if loop_free else 2
        if k < min_k:
            raise ValueError(f"k must be >= {min_k}, got {k}")
        if horizon is not None and horizon != max_len:
            raise ValueError("horizon, when set, must equal max_len")
        est = _estimate_entries(k, max_len, horizon, loop_free)
        if est > max_entries:
            raise TableLimitError(
                f"{'loop-free' if loop_free else 'chamber'} table for k={k},"
                f" max_len={max_len} needs ~{est} entries (limit {max_entries})"
            )
        bits = _coord_bits(k, max_len)
        slices = _walk_slices(k, max_len, horizon, loop_free, bits)
        if loop_free:
            _, unpack, _ = _packer(k, bits)
            return LoopFreeTable(
                k, max_len, horizon,
                [{unpack(key): val for key, val in sl.items()} for sl in slices],
            )
        return cls(k, max_len, horizon, [_PackedSlice(sl) for sl in slices])

    def count(self, v: tuple[int, ...], s: int) -> int:
        if len(v) != self.k - 1 or not in_chamber(v):
            raise ValueError(f"point {v} is not in the chamber for k={self.k}")
        if not 0 <= s <= self.max_len:
            raise ValueError(
                f"length {s} outside table range 0..{self.max_len}"
            )
        boxes = sum(v) - self._base
        if boxes > s // 2:
            return 0
        if self.horizon is not None and boxes > (self.horizon - s) // 2:
            raise ValueError(
                f"point {v} at length {s} lies outside the horizon envelope"
            )
        return self._slices[s].get(self._pack(v))

    def slice_items(self, s: int):
        """Iterate (point, count) over the stored support at length s."""
        return self._slices[s].items(self._unpack)

    def entry_count(self) -> int:
        return sum(len(sl) for sl in self._slices)


# ---------------------------------------------------------------------------
# loop-free braid-walk table
# ---------------------------------------------------------------------------

class LoopFreeTable:
    """Loop-free braid-walk counts for all endpoints and lengths <= walk_len.

    With horizon=walk_len the table keeps only the states a complete walk
    of that length can visit, and count() raises outside that envelope.
    """

    def __init__(self, k: int, walk_len: int, horizon: int | None,
                 slices: list[dict]):
        self.k = k
        self.max_len = walk_len
        self.horizon = horizon
        self._slices = slices
        self._base = sum(start_point(k))

    @classmethod
    def build(cls, k: int, walk_len: int, *,
              horizon: int | None = None) -> "LoopFreeTable":
        if walk_len % 2:
            raise ValueError(f"walk_len must be even, got {walk_len}")
        return ChamberTable.build(k, walk_len, horizon=horizon, loop_free=True)

    def count(self, v: tuple[int, ...], s: int) -> int:
        if len(v) != self.k - 1 or not in_chamber(v):
            raise ValueError(f"point {v} is not in the chamber for k={self.k}")
        if not 0 <= s <= self.max_len:
            raise ValueError(
                f"length {s} outside table range 0..{self.max_len}"
            )
        boxes = sum(v) - self._base
        if boxes > (s + 1) // 2:
            return 0
        if self.horizon is not None and boxes > (self.horizon - s + 1) // 2:
            raise ValueError(
                f"point {v} at length {s} lies outside the horizon envelope"
            )
        return self._slices[s].get(v, 0)

    def slice_items(self, s: int):
        return self._slices[s].items()

    def entry_count(self) -> int:
        return sum(len(sl) for sl in self._slices)


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------

def total_partitions(k: int, n: int, table: ChamberTable | None = None) -> int:
    """Number of partitions of [n] with no k mutually crossing arcs."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    if table is None:
        table = ChamberTable.build(k, 2 * n, horizon=2 * n)
    return table.count(start_point(k), 2 * n)


def total_regular(k: int, n: int, table: LoopFreeTable | None = None) -> int:
    """Number of 2-regular, k-noncrossing partitions of [n]."""
    if k < 3:
        raise ValueError(f"k must be >= 3 for regular counting, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    walk_len = 2 * (n - 1)
    if table is None:
        table = LoopFreeTable.build(k, walk_len, horizon=walk_len)
    return table.count(start_point(k), walk_len)
