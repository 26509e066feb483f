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

Both tables store every slice packed (sorted key array + offset array +
one bytes blob per length) because a sampling session at k=3, n=800 holds
on the order of 10^7 entries whose values run to hundreds of digits.  A
sampler reads a table on packed keys too: moves() runs the DP's step
primitive on a one-point slice and lookup() reads a count, so the build
and the draw share one step rule and the packing stays in this module.

The paper's formulas -- the reflection sum over the orthant and the
inclusion-exclusion over loops -- live in `oracle.py` as independent
cross-checks of these tables.
"""

from __future__ import annotations

import bisect
import hashlib
from array import array
from itertools import accumulate
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
    remove steps among positions s+1..horizon.  By time reversal,
    _box_bound(0, s, braid) is also the most boxes s steps can add."""
    return (horizon - s + braid) // 2


def _estimate_entries(k: int, max_len: int, horizon: int | None,
                      braid: bool, limit: int) -> int:
    """Rough upper bound on the stored states: a slice whose points hold at
    most b boxes has about (b + k)^(k-1) / ((k-1)!)^2 chamber points.  The
    sum stops as soon as it passes `limit`, so a huge max_len costs no more
    than the lengths it takes to get there."""
    total = 0
    for s in range(max_len + 1):
        b = _box_bound(0, s, braid)
        if horizon is not None:
            b = min(b, _box_bound(s, horizon, braid))
        total += (b + k) ** (k - 1) // factorial(k - 1) ** 2
        if total > limit:
            break
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


def _walk_slices(k: int, max_len: int, horizon: int | None, loop_free: bool):
    """Yield, for s = 0..max_len, packed point -> number of walks of length
    s from the start point.  Partition walks remove on odd steps and add on
    even ones; loop-free braid walks add on odd steps, remove on even ones,
    and never remove from row 1 right after adding to it."""
    bits = _coord_bits(k, max_len)
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
# packed slices and the two count tables
# ---------------------------------------------------------------------------

class _PackedSlice:
    """Sorted packed keys, offsets, and big-endian value bytes for one
    length.  starts[t] is where keys with top coordinate key >> shift == t
    begin, so a lookup bisects only a short run of nearby keys."""

    __slots__ = ("keys", "offsets", "blob", "shift", "starts")

    def __init__(self, entries: dict, shift: int):
        keys = sorted(entries)
        self.shift = shift
        self.starts = array("q", [
            bisect.bisect_left(keys, t << shift)
            for t in range((keys[-1] >> shift) + 2 if keys else 1)
        ])
        if keys and keys[-1] <= 0x7FFF_FFFF_FFFF_FFFF:
            self.keys = array("q", keys)
        else:
            self.keys = keys
        vals = [entries[key] for key in keys]
        chunks = [v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in vals]
        self.offsets = array("Q", accumulate(map(len, chunks), initial=0))
        self.blob = b"".join(chunks)

    def get(self, key: int) -> int:
        top, starts = key >> self.shift, self.starts
        if top + 1 >= len(starts):
            return 0
        keys, hi = self.keys, starts[top + 1]
        i = bisect.bisect_left(keys, key, starts[top], hi)
        if i == hi or keys[i] != key:
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


class _PackedTable:
    """Walk counts for all endpoints and lengths 0..max_len, one packed
    slice per length; `braid` tells the walk kind.  Built once, immutable
    afterwards and safe to share.  With horizon=S (a session's total walk
    length) the table stores only the states a complete length-S walk can
    visit, and count() raises on queries outside that envelope rather than
    return an unvetted zero; start_key, moves() and lookup() do not check.
    """

    braid = False

    def __init__(self, k: int, max_len: int, horizon: int | None, slices):
        """`slices` yields one {packed point: count} dict per length."""
        self.k = k
        self.max_len = max_len
        self.horizon = horizon
        bits = _coord_bits(k, max_len)
        self._pack, self._unpack, self._shifts = _packer(k, bits)
        self._slices = [_PackedSlice(sl, self._shifts[0]) for sl in slices]
        self._mask = (1 << bits) - 1
        self._base = sum(start_point(k))
        self.start_key = self._pack(start_point(k))
        self._step_codes = {0: 0}
        for i, sh in enumerate(self._shifts):
            self._step_codes.update({1 << sh: i + 1, -(1 << sh): -i - 1})

    def count(self, v: tuple[int, ...], s: int) -> int:
        if len(v) != self.k - 1 or not in_chamber(v):
            raise ValueError(f"point {v} is not in the chamber for k={self.k}")
        if not 0 <= s <= self.max_len:
            raise ValueError(
                f"length {s} outside table range 0..{self.max_len}"
            )
        boxes = sum(v) - self._base
        if boxes > _box_bound(0, s, self.braid):
            return 0
        if (self.horizon is not None
                and boxes > _box_bound(s, self.horizon, self.braid)):
            raise ValueError(
                f"point {v} at length {s} lies outside the horizon envelope"
            )
        return self._slices[s].get(self._pack(v))

    def slice_items(self, s: int):
        """Iterate (point, count) over the stored support at length s, in
        increasing point order."""
        return self._slices[s].items(self._unpack)

    def entry_count(self) -> int:
        return sum(len(sl) for sl in self._slices)

    def digest(self) -> str:
        """SHA-256 hex digest of the packed slices: each slice's keys and
        offsets as decimal text, then its value bytes, so the digest does
        not depend on the host's byte order and no entry is unpacked."""
        h = hashlib.sha256()
        for sl in self._slices:
            h.update(repr((list(sl.keys), list(sl.offsets))).encode())
            h.update(sl.blob)
        return h.hexdigest()

    def lookup(self, key: int, s: int) -> int:
        """count() of a packed key, unchecked: 0 when nothing is stored."""
        return self._slices[s].get(key)

    def moves(self, key: int, s: int, adding: bool,
              after_top: bool = False) -> list[tuple[int, int]]:
        """(step, key) of each move the DP makes out of the one point `key`
        onto slice s, in the step order of `walks.legal_steps`; after_top
        drops remove(1), which may not follow add(1) in a loop-free walk."""
        out: dict = {}
        _advance({key: 1}, out, self._shifts, self._mask, self._base, adding,
                 range(after_top, self.k - 1), True, _box_bound(0, s, self.braid))
        return [(self._step_codes[q - key], q) for q in out]

    def point(self, key: int) -> tuple[int, ...]:
        return self._unpack(key)


class ChamberTable(_PackedTable):
    """Chamber-confined partition-walk counts for all endpoints and lengths."""

    count = _PackedTable.count  # own attribute, so it can be wrapped per class

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
        est = _estimate_entries(k, max_len, horizon, loop_free, max_entries)
        if est > max_entries:
            raise TableLimitError(
                f"{'loop-free' if loop_free else 'chamber'} table for k={k},"
                f" max_len={max_len} is estimated at more than {max_entries} entries"
            )
        table_cls = LoopFreeTable if loop_free else ChamberTable
        return table_cls(k, max_len, horizon,
                         _walk_slices(k, max_len, horizon, loop_free))


class LoopFreeTable(_PackedTable):
    """Loop-free braid-walk counts for all endpoints and lengths <= walk_len."""

    braid = True
    count = _PackedTable.count

    @classmethod
    def build(cls, k: int, walk_len: int, *,
              horizon: int | None = None) -> "LoopFreeTable":
        if walk_len % 2:
            raise ValueError(f"walk_len must be even, got {walk_len}")
        return ChamberTable.build(k, walk_len, horizon=horizon, loop_free=True)


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
