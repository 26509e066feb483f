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

A complete walk of length S is cut at its midpoint: after m steps it sits
at some point v, and its last S - m steps, reversed and inverted, are a
walk of the same kind from the start point to v.  Both walk kinds are
closed under that reversal (a loop vertex (add 1, remove 1) reverses to
itself), so the number of complete walks is sum_v f(v, m) * f(v, S - m),
where f counts walks from the start point (half_lengths gives m and
S - m; the cut falls on a vertex boundary for braid walks).  So counting
and sampling need only a table of length S - m <= S/2 + 1, and one such
table serves every shorter walk too.  total_partitions and total_regular
keep just the last DP slices and build no table at all.

Both tables number their chamber points once, in graded order: by box
count, then by packed key, so the start point is id 0.  Every point with
at most _box_bound(s) boxes has a walk of length s (add its boxes, then
stay), so a slice's support is the id prefix [0, N_s); the constructor
checks this (InvariantError otherwise) and stores every slice densely by
id: TILE consecutive slices share an offset array and one bytes blob of
big-endian values, interleaved by id, so a lookup is two array reads and
a draw, which reads lengths s, s-1, ... at nearby ids, stays on the same
memory pages for TILE steps.  A sampler reads a table by id: moves()
lists the (step, target id) pairs out of one point, made once from the
DP's step primitive, and lookup() reads a count, so the build and the
draw share one step rule and the packing stays in this module.

The paper's formulas -- the reflection sum over the orthant and the
inclusion-exclusion over loops -- live in `oracle.py` as independent
cross-checks of these tables.
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import accumulate, chain, islice, zip_longest
from math import factorial

from .walks import in_chamber, start_point


class TableLimitError(RuntimeError):
    """A requested table would exceed the configured entry budget."""


class InvariantError(RuntimeError):
    """Counts contradict each other: a negative signed sum, a slice whose
    points are not a graded prefix, candidate weights that fall short of
    the stored total, or a draw that does not end on the start point."""


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


def _box_bound(s: int, braid: bool) -> int:
    """Most boxes s steps can add: the points of slice s hold at most this
    many, and the largest, at max_len, bounds the table's point numbering."""
    return (s + braid) // 2


def _points_upto(k: int, b: int) -> int:
    """Rough count of the chamber points holding at most b boxes: a shape
    of b boxes fills at most r = min(k-1, b) rows, and there are about
    (b + r + 1)^r / (r!)^2 of them, whatever the size of k."""
    r = min(k - 1, b)
    return (b + r + 1) ** r // factorial(r) ** 2


def _estimate_entries(k: int, max_len: int, braid: bool, limit: int) -> int:
    """Rough upper bound on the table's size in entries: the k-1
    coordinates of each numbered point, then the stored states of every
    slice.  The coordinates come first, so a k the budget cannot hold fails
    here, before any point of k-1 coordinates is made; the sum stops as soon
    as it passes `limit`, so a huge max_len costs no more than the lengths
    it takes to get there."""
    total = (k - 1) * _points_upto(k, _box_bound(max_len, braid))
    for s in range(max_len + 1):
        if total > limit:
            break
        total += _points_upto(k, _box_bound(s, braid))
    return total


MAX_ENTRIES = 80_000_000  # size budget of a table, in entries


def _check_size(k: int, max_len: int, braid: bool) -> None:
    """TableLimitError, before any work, when the table of these
    parameters is estimated past MAX_ENTRIES entries."""
    if _estimate_entries(k, max_len, braid, MAX_ENTRIES) > MAX_ENTRIES:
        raise TableLimitError(
            f"{'loop-free' if braid else 'chamber'} table for k={k},"
            f" max_len={max_len} is estimated at more than {MAX_ENTRIES} entries"
        )


def half_lengths(walk_len: int, braid: bool) -> tuple[int, int]:
    """(m, h): a complete walk of length walk_len is cut after m steps, and
    both parts are walks from the start point, of lengths m and h =
    walk_len - m.  Braid walks are cut on a vertex boundary, so m is even;
    m <= h <= walk_len // 2 + 1."""
    m = 2 * (walk_len // 4) if braid else walk_len // 2
    return m, walk_len - m


# ---------------------------------------------------------------------------
# the step primitive
# ---------------------------------------------------------------------------

def _advance(prev: dict, out: dict, shifts, mask: int, adding: bool, rows,
             stay: bool) -> None:
    """Add to `out` (packed point -> count) every legal one-step move out
    of the points of `prev`.

    The moves are the do-nothing step (when `stay`) and an add or remove
    on each 0-based coordinate in `rows`.  A move is legal when the point
    it reaches is still strictly decreasing and >= 0.
    """
    get = out.get
    last = len(shifts) - 1
    ones = [1 << sh for sh in shifts]
    for key, val in prev.items():
        c = [(key >> sh) & mask for sh in shifts]
        if stay:
            out[key] = get(key, 0) + val
        if adding:
            for i in rows:
                if i == 0 or c[i - 1] - c[i] > 1:
                    q = key + ones[i]
                    out[q] = get(q, 0) + val
        else:
            for i in rows:
                if c[i] > (c[i + 1] + 1 if i < last else 0):
                    q = key - ones[i]
                    out[q] = get(q, 0) + val


def _walk_slices(k: int, max_len: int, loop_free: bool):
    """Yield, for s = 0..max_len, packed point -> number of walks of length
    s from the start point.  Partition walks remove on odd steps and add on
    even ones; loop-free braid walks add on odd steps, remove on even ones,
    and never remove from row 1 right after adding to it."""
    bits = _coord_bits(k, max_len)
    pack, _, shifts = _packer(k, bits)
    mask = (1 << bits) - 1
    every = range(k - 1)
    lower = range(1, k - 1)
    cur = {pack(start_point(k)): 1}
    top: dict = {}  # loop-free states whose last step added to row 1
    yield cur
    for s in range(1, max_len + 1):
        nxt: dict = {}
        if not loop_free:
            _advance(cur, nxt, shifts, mask, s % 2 == 0, every, True)
            counts = nxt
        elif s % 2:
            top = {}
            _advance(cur, nxt, shifts, mask, True, lower, True)
            _advance(cur, top, shifts, mask, True, (0,), False)
            counts = dict(nxt)
            for key, val in top.items():
                counts[key] = counts.get(key, 0) + val
        else:
            _advance(cur, nxt, shifts, mask, False, every, True)
            _advance(top, nxt, shifts, mask, False, lower, True)
            counts = nxt
        cur = nxt
        yield counts


# ---------------------------------------------------------------------------
# dense tiles and the two count tables
# ---------------------------------------------------------------------------

TILE = 8  # lengths per _Tile


class _Tile:
    """The counts of TILE consecutive lengths, interleaved by point id:
    entry e = i * TILE + j holds the count of id i at the tile's j-th
    length as blob[offsets[e]:offsets[e + 1]] read big-endian, and is empty
    past that length's prefix.  A draw reads lengths s, s-1, s-2, ... at
    nearby ids, so one tile keeps its next reads on the memory pages of its
    last ones."""

    __slots__ = ("offsets", "blob")

    def __init__(self, rows):
        """`rows` holds up to TILE lists of counts, one per length, by id."""
        rows = [[v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in vals]
                for vals in rows]
        rows += [[]] * (TILE - len(rows))
        chunks = list(chain.from_iterable(zip_longest(*rows, fillvalue=b"")))
        self.offsets = array("Q", accumulate(map(len, chunks), initial=0))
        self.blob = b"".join(chunks)


class _PackedTable:
    """Walk counts for all endpoints and lengths 0..max_len, dense by point
    id in tiles of TILE lengths; `braid` tells the walk kind.  Built once,
    immutable afterwards (but for the moves() memo, which only grows) and
    safe to share.  count() takes a point and checks it; moves() and
    lookup() take point ids and do not check.
    """

    braid = False
    start_id = 0  # the graded order puts the start point, with 0 boxes, first

    def __init__(self, k: int, max_len: int, slices):
        """`slices` yields one {packed point: count} dict per length, whose
        points must be a graded prefix (InvariantError otherwise)."""
        self.k = k
        self.max_len = max_len
        bits = _coord_bits(k, max_len)
        self._pack, self._unpack, self._shifts = _packer(k, bits)
        self._mask = (1 << bits) - 1
        self._base = sum(start_point(k))
        level = {self._pack(start_point(k)): 1}
        self._keys = list(level)  # id -> packed point, by boxes, then key
        for _ in range(_box_bound(max_len, self.braid)):
            nxt: dict = {}
            _advance(level, nxt, self._shifts, self._mask, True, range(k - 1),
                     False)
            self._keys += sorted(nxt)
            level = nxt
        self._ids = {key: i for i, key in enumerate(self._keys)}
        dense = (self._dense(s, sl) for s, sl in enumerate(slices))
        self._sizes: list[int] = []
        self._tiles: list[_Tile] = []
        while rows := list(islice(dense, TILE)):  # a tile at a time
            self._sizes += map(len, rows)
            self._tiles.append(_Tile(rows))
        self._moves: dict = {}
        self._step_codes = {0: 0}
        for i, sh in enumerate(self._shifts):
            self._step_codes.update({1 << sh: i + 1, -(1 << sh): -i - 1})

    def _dense(self, s: int, entries: dict) -> list[int]:
        """The counts of a slice by id; its points must be ids
        0..len(entries)-1."""
        n = len(entries)
        try:
            if n > len(self._keys):
                raise KeyError
            vals = list(map(entries.__getitem__, self._keys[:n]))
        except KeyError:
            raise InvariantError(
                f"the points of length {s} are not a graded prefix") from None
        return vals

    def count(self, v: tuple[int, ...], s: int) -> int:
        """The number of walks of length s from the start point to v: 0 when
        v holds more boxes than s steps can add.  ValueError when v is not a
        chamber point or s lies outside 0..max_len."""
        if len(v) != self.k - 1 or not in_chamber(v):
            raise ValueError(f"point {v} is not in the chamber for k={self.k}")
        if not 0 <= s <= self.max_len:
            raise ValueError(
                f"length {s} outside table range 0..{self.max_len}"
            )
        if sum(v) - self._base > _box_bound(s, self.braid):
            return 0
        return self.lookup(self.point_id(v), s)

    def midpoint_weights(self, walk_len: int) -> list[int]:
        """By point id v, f(v, m) * f(v, h) for the cut (m, h) of
        half_lengths: the number of complete walks of length walk_len that
        are at v after m steps.  Their sum is the number of complete walks."""
        m, h = half_lengths(walk_len, self.braid)
        if h > self.max_len:
            raise ValueError(f"table serves half lengths <= {self.max_len},"
                             f" a walk of length {walk_len} needs {h}")
        lookup = self.lookup
        return [lookup(i, m) * lookup(i, h)
                for i in range(min(self._sizes[m], self._sizes[h]))]

    def slice_items(self, s: int):
        """Iterate (point, count) over the stored support at length s, in
        increasing point order."""
        keys = self._keys
        for i in sorted(range(self._sizes[s]), key=keys.__getitem__):
            yield self._unpack(keys[i]), self.lookup(i, s)

    def entry_count(self) -> int:
        return sum(self._sizes)

    def digest(self) -> str:
        """SHA-256 hex digest of the dense layout: the graded keys, then
        each tile's offsets as decimal text and its value bytes, so the
        digest does not depend on the host's byte order and no entry is
        unpacked."""
        h = hashlib.sha256()
        h.update(repr(self._keys).encode())
        for tile in self._tiles:
            h.update(repr(list(tile.offsets)).encode())
            h.update(tile.blob)
        return h.hexdigest()

    def lookup(self, i: int, s: int) -> int:
        """count() of point id i, unchecked: 0 past the slice's prefix."""
        tile = self._tiles[s // TILE]
        off, e = tile.offsets, i * TILE + s % TILE
        try:
            return int.from_bytes(tile.blob[off[e] : off[e + 1]], "big")
        except IndexError:  # past the tile's longest prefix
            return 0

    def moves(self, i: int, s: int, adding: bool,
              after_top: bool = False) -> tuple[tuple[int, int], ...]:
        """(step, target id) of each move the DP makes out of point id i
        onto slice s, in the step order of `walks.legal_steps`; after_top
        drops remove(1), which may not follow add(1) in a loop-free walk.
        The moves of each (i, adding, after_top) are made once, by the DP's
        step primitive, less the targets past the table's numbering, and cut
        here to the ids slice s holds."""
        memo = self._moves.get((i, adding, after_top))
        if memo is None:
            key, out, ids = self._keys[i], {}, self._ids
            _advance({key: 1}, out, self._shifts, self._mask, adding,
                     range(after_top, self.k - 1), True)
            found = tuple((self._step_codes[q - key], ids[q])
                          for q in out if q in ids)
            memo = self._moves[i, adding, after_top] = (
                found, max((t for _, t in found), default=-1))
        found, last = memo
        n = self._sizes[s]
        return found if last < n else tuple(m for m in found if m[1] < n)

    def point(self, i: int) -> tuple[int, ...]:
        return self._unpack(self._keys[i])

    def point_id(self, v: tuple[int, ...]) -> int:
        """The id of a chamber point that some slice can hold."""
        return self._ids[self._pack(v)]


class ChamberTable(_PackedTable):
    """Chamber-confined partition-walk counts for all endpoints and lengths."""

    count = _PackedTable.count  # own attribute, so it can be wrapped per class

    @classmethod
    def build(cls, k: int, max_len: int, *, loop_free: bool = False):
        """Run the chamber DP.  With loop_free=True the same engine counts
        loop-free braid walks and returns a LoopFreeTable; that is what
        LoopFreeTable.build does."""
        min_k = 3 if loop_free else 2
        if k < min_k:
            raise ValueError(f"k must be >= {min_k}, got {k}")
        _check_size(k, max_len, loop_free)
        table_cls = LoopFreeTable if loop_free else ChamberTable
        return table_cls(k, max_len, _walk_slices(k, max_len, loop_free))


class LoopFreeTable(_PackedTable):
    """Loop-free braid-walk counts for all endpoints and lengths <= walk_len."""

    braid = True
    count = _PackedTable.count

    @classmethod
    def build(cls, k: int, walk_len: int) -> "LoopFreeTable":
        if walk_len % 2:
            raise ValueError(f"walk_len must be even, got {walk_len}")
        return ChamberTable.build(k, walk_len, loop_free=True)


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------

def _midpoint_total(k: int, walk_len: int, braid: bool, table) -> int:
    """Number of complete walks of length walk_len: sum_v f(v, m) * f(v, h)
    over the cut of half_lengths, read from `table` or else from the last
    DP slices, without numbering points or building tiles."""
    if table is not None:
        if table.k != k or table.braid != braid:
            raise ValueError(f"a {type(table).__name__} for k={table.k}"
                             f" cannot count {'braid' if braid else 'partition'}"
                             f" walks for k={k}")
        return sum(table.midpoint_weights(walk_len))
    m, h = half_lengths(walk_len, braid)
    _check_size(k, h, braid)
    for s, counts in enumerate(_walk_slices(k, h, braid)):
        if s == m:
            first = counts
    return sum(c * first.get(key, 0) for key, c in counts.items())


def total_partitions(k: int, n: int, table: ChamberTable | None = None) -> int:
    """Number of partitions of [n] with no k mutually crossing arcs."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    return _midpoint_total(k, 2 * n, False, table)


def total_regular(k: int, n: int, table: LoopFreeTable | None = None) -> int:
    """Number of 2-regular, k-noncrossing partitions of [n]."""
    if k < 3:
        raise ValueError(f"k must be >= 3 for regular counting, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    return _midpoint_total(k, 2 * (n - 1), True, table)
