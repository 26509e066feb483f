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
checks this (InvariantError otherwise) and stores the counts densely by
id, in one row of Python ints per point: row i holds the counts of id i
at every length from the first whose prefix holds i to max_len, so a
lookup is two list reads, and a draw, which reads lengths s, s-1, ... of
the few points it walks along, stays on their rows.  The rows grow a tile
of TILE lengths at a time, by fresh copies of the DP's counts made id by
id, so that a row's counts of one tile lie side by side in memory.  The
same tiles, with the counts interleaved by id as big-endian bytes, are
the serialisation digest() hashes, which caches pin.  A sampler
reads a table by id: moves() lists the (step, target id) pairs out of one
point, made once from the DP's step primitive, a LoopFreeTable's
vertices() the loop-free braid vertices (two moves) into one point, made
once from moves(), and lookup() reads a count, so the build and the draw share one step rule.
The draw's inner loop reads the rows and the two memos directly, to save
a call per candidate.

This module also owns the chamber primitives the DP runs on (start_point
and in_chamber, which `walks.py` re-exports) and session_table, which
picks or builds the table a (k, n, mode) session needs.  It imports
nothing from the rest of the package, so `nckp count` and `nckp cache
build` load only it and the cache store.

The paper's formulas -- the reflection sum over the orthant and the
inclusion-exclusion over loops -- live in `oracle.py` as independent
cross-checks of these tables.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from itertools import accumulate, chain, islice, repeat, zip_longest
from math import factorial
from operator import add, getitem, mul, sub


class TableLimitError(RuntimeError):
    """A requested table would exceed the configured entry budget."""


class InvariantError(RuntimeError):
    """Counts contradict each other: a negative signed sum, a slice whose
    points are not a graded prefix, candidate weights that fall short of
    the stored total, or a draw that does not end on the start point."""


# ---------------------------------------------------------------------------
# chamber points and their packing
# ---------------------------------------------------------------------------

def start_point(k: int) -> tuple[int, ...]:
    """Chamber image of the empty shape: (k-2, k-3, ..., 1, 0)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return tuple(range(k - 2, -1, -1))


def in_chamber(v: tuple[int, ...]) -> bool:
    if not v:
        return True
    return all(x >= 0 for x in v) and all(a > b for a, b in zip(v, v[1:]))


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
# per-point rows and the two count tables
# ---------------------------------------------------------------------------

TILE = 8  # lengths per tile: rows grow, and digest() serialises, by tiles


def _sha256():
    """A SHA-256 hasher from the interpreter's own module, like `random`
    takes _sha512: hashlib would load OpenSSL for this one hash."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256()


class _PackedTable:
    """Walk counts for all endpoints and lengths 0..max_len, in one row (a
    tuple of Python ints) per point id; `braid` tells the walk kind.  Row i
    holds the counts of id i at lengths _first[i]..max_len, where _first[i]
    is the first length whose prefix holds i, and a 0 at any length whose
    prefix does not.  A draw walks along a few points, reading each one's
    row at lengths s, s-1, ..., so its reads stay on those rows.  Built
    once, immutable afterwards (but for the moves() memo, which only grows,
    and a LoopFreeTable's vertices() memo) and safe to share, memos
    included.  count() takes a point and checks it; moves(), vertices()
    and lookup() take point ids and do not check.
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
        self._sizes: list[int] = []  # length -> ids its prefix holds
        self._first: list[int] = []  # id -> first length whose prefix holds it
        rows: list = []  # id -> counts from _first[id] on
        dense = (self._dense(s, sl) for s, sl in enumerate(slices))
        while cols := list(islice(dense, TILE)):  # a tile at a time
            self._extend_rows(rows, cols)
        missing = len(self._keys) - len(rows)  # ids no slice holds
        rows += ([] for _ in range(missing))
        self._first += [len(self._sizes)] * missing
        # The collector stops tracking a tuple of ints after its first pass
        # over it, so later full collections skip the table's counts; a
        # list of them would be walked count by count every time.
        for i, row in enumerate(rows):
            rows[i] = tuple(row)
        self._rows: list[tuple[int, ...]] = rows
        # _make_moves memo, by adding + 2 * after_top, then id
        self._moves = [[None] * len(self._keys) for _ in range(4)]
        self._step_codes = {0: 0}
        for i, sh in enumerate(self._shifts):
            self._step_codes.update({1 << sh: i + 1, -(1 << sh): -i - 1})

    def _extend_rows(self, rows: list, cols: list) -> None:
        """Append the next lengths, `cols` holding each one's counts by id,
        to the rows: a 0 where a length's prefix misses an id an earlier
        length held, nothing before an id's first length.  The counts go
        in as fresh copies made id by id while the DP's own objects are
        still alive, so the copies land on new memory and a row's counts
        of one tile lie side by side: a draw reads one point at lengths s,
        s-1, ..., and the DP leaves each length's counts scattered."""
        lo, old, width = len(self._sizes), len(rows), len(cols)
        lens = list(map(len, cols))
        self._sizes += lens
        reach = list(accumulate(lens, max))  # ids some length so far holds
        # x + 0 is a new object for every count past the small-int cache
        fresh = map(add, chain.from_iterable(zip_longest(*cols, fillvalue=0)),
                    repeat(0))
        by_id = zip(*[fresh] * width)
        deque(map(list.extend, rows, islice(by_id, old)), 0)  # at C level
        for row in rows[reach[-1]:old]:  # ids no length of the tile holds
            row.extend(repeat(0, width))
        # an id the tile adds starts at the first length that holds it
        starts = list(map(bisect_right, repeat(reach), range(old, reach[-1])))
        rows += map(list, map(getitem, by_id, map(slice, starts, repeat(None))))
        self._first += map(add, repeat(lo), starts)

    def _dense(self, s: int, entries: dict) -> list[int]:
        """The counts of a slice by id; its points must be ids
        0..len(entries)-1."""
        n = len(entries)
        try:
            if n > len(self._keys):
                raise KeyError
            vals = list(map(entries.__getitem__, islice(self._keys, n)))
        except KeyError:
            raise InvariantError(
                f"the points of length {s} are not a graded prefix") from None
        return vals

    def _column(self, s: int) -> list[int]:
        """The counts at length s of the ids its prefix holds, by id."""
        at = map(sub, repeat(s), islice(self._first, self._sizes[s]))
        return list(map(getitem, self._rows, at))

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
        return list(map(mul, self._column(m), self._column(h)))

    def slice_items(self, s: int):
        """Iterate (point, count) over the stored support at length s, in
        increasing point order."""
        keys, vals = self._keys, self._column(s)
        for i in sorted(range(len(vals)), key=keys.__getitem__):
            yield self._unpack(keys[i]), vals[i]

    def entry_count(self) -> int:
        return sum(self._sizes)

    def digest(self) -> str:
        """SHA-256 hex digest of the graded keys and the counts, serialised
        in tiles of TILE lengths: per tile, its counts interleaved by id
        (entry i * TILE + j is the count of id i at the tile's j-th length,
        empty past that length's prefix) as big-endian bytes, preceded by
        the entries' offsets as decimal text.  The text does not depend on
        the host's byte order, and it is the layout version 4 caches pin."""
        h = _sha256()
        h.update(repr(self._keys).encode())
        for t in range(0, self.max_len + 1, TILE):
            chunks = self._tile_chunks(t)
            h.update(repr(list(accumulate(map(len, chunks), initial=0))).encode())
            h.update(b"".join(chunks))
        return h.hexdigest()

    def _tile_chunks(self, t: int) -> list[bytes]:
        """The entries of the tile of lengths t..t+TILE-1, for digest():
        each id's counts at those lengths as big-endian bytes, a 0 as one
        byte, and empty where a length's prefix misses the id or the length
        is past max_len."""
        rows, first = self._rows, self._first
        lens = self._sizes[t:t + TILE]
        width, low = len(lens), min(lens)
        pad = (None,) * (TILE - width)
        # every length of the tile holds the ids below `low`: a row slice each
        starts = list(map(sub, repeat(t), islice(first, low)))
        vals = list(chain.from_iterable(map(
            getitem, rows, map(slice, starts, map(add, starts, repeat(width))))))
        if pad:
            vals = list(chain.from_iterable(
                map(add, zip(*[iter(vals)] * width), repeat(pad))))
        for i in range(low, max(lens)):  # ids some length of the tile misses
            row, at = rows[i], t - first[i]
            vals += [row[at + j] if i < n else None for j, n in enumerate(lens)]
            vals += pad
        return [b"" if v is None
                else v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
                for v in vals]

    def lookup(self, i: int, s: int) -> int:
        """count() of point id i, unchecked: 0 where no prefix holds it."""
        at = s - self._first[i]
        return self._rows[i][at] if at >= 0 else 0

    def moves(self, i: int, s: int, adding: bool,
              after_top: bool = False) -> tuple[tuple[int, int], ...]:
        """(step, target id) of each move the DP makes out of point id i
        onto slice s, in the step order of `walks.legal_steps`; after_top
        drops remove(1), which may not follow add(1) in a loop-free walk.
        The moves of each (i, adding, after_top) are made once, less the
        targets past the table's numbering, and cut here to the ids slice s
        holds."""
        found, last = (self._moves[adding + 2 * after_top][i]
                       or self._make_moves(i, adding, after_top))
        n = self._sizes[s]
        return found if last < n else tuple(m for m in found if m[1] < n)

    def _make_moves(self, i: int, adding: bool, after_top: bool):
        """Fill and return _moves[adding + 2 * after_top][i]: the moves out
        of id i by the DP's step primitive, and the largest target id (-1
        when there is none), which tells moves() whether to cut them."""
        key, out, ids = self._keys[i], {}, self._ids
        _advance({key: 1}, out, self._shifts, self._mask, adding,
                 range(after_top, self.k - 1), True)
        found = tuple((self._step_codes[q - key], ids[q])
                      for q in out if q in ids)
        memo = (found, max((t for _, t in found), default=-1))
        self._moves[adding + 2 * after_top][i] = memo
        return memo

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
    """Loop-free braid-walk counts for all endpoints and lengths <= walk_len.
    Besides the moves() memo it keeps the vertices() memo, which likewise
    only grows."""

    braid = True
    count = _PackedTable.count

    def __init__(self, k: int, max_len: int, slices):
        super().__init__(k, max_len, slices)
        self._vertices = [None] * len(self._keys)  # _make_vertices memo, by id

    def vertices(self, i: int, s: int):
        """((undo remove, undo add), origin id) of each loop-free braid
        vertex that ends on point id i after s steps, in the step order of
        moves(): undo the remove with an add onto slice s-1, then the add
        with a remove onto slice s-2, and after add(1) undid remove(1) no
        remove(1) may undo add(1), since that vertex would be a loop.  The
        vertices of each id are made once and cut here to those whose
        middle point slice s-1 holds and whose origin slice s-2 holds."""
        found, last, last_mid, triples = (self._vertices[i]
                                          or self._make_vertices(i))
        n, n_mid = self._sizes[s - 2], self._sizes[s - 1]
        if last < n and last_mid < n_mid:
            return found
        return tuple((back, prev) for back, mid, prev in triples
                     if mid < n_mid and prev < n)

    def _make_vertices(self, i: int):
        """Fill and return _vertices[i]: the (undo, origin) pairs of the
        vertices into id i, the largest origin and middle ids (-1 when
        there is none), which tell vertices() whether to cut them, and the
        (undo, middle, origin) triples the cut reads."""
        def made(j, adding, after_top):  # moves() of id j, uncut
            return (self._moves[adding + 2 * after_top][j]
                    or self._make_moves(j, adding, after_top))[0]

        triples = tuple(((undo_remove, undo_add), mid, prev)
                        for undo_remove, mid in made(i, True, False)
                        for undo_add, prev in made(mid, False, undo_remove == 1))
        memo = (tuple((back, prev) for back, _, prev in triples),
                max((prev for *_, prev in triples), default=-1),
                max((mid for _, mid, _ in triples), default=-1),
                triples)
        self._vertices[i] = memo
        return memo

    @classmethod
    def build(cls, k: int, walk_len: int) -> "LoopFreeTable":
        if walk_len % 2:
            raise ValueError(f"walk_len must be even, got {walk_len}")
        return ChamberTable.build(k, walk_len, loop_free=True)


# ---------------------------------------------------------------------------
# session tables and totals
# ---------------------------------------------------------------------------

def walk_length(n: int, mode: str) -> int:
    """Steps of the complete walk behind one sample of size n."""
    return 2 * n if mode == "plain" else max(2 * (n - 1), 0)


def _table_class(mode: str):
    return ChamberTable if mode == "plain" else LoopFreeTable


def session_table(k: int, n: int, mode: str, table=None):
    """The count table of a (k, n, mode) session: `table` once checked to
    hold both halves of the session's walks, or else a freshly built one of
    the half length."""
    walk_len = walk_length(n, mode)
    table_cls = _table_class(mode)
    half = half_lengths(walk_len, table_cls.braid)[1]
    if table is None:
        return table_cls.build(k, half)
    if not isinstance(table, table_cls):
        raise TypeError(f"{mode} mode needs a {table_cls.__name__}")
    if table.k != k or half > table.max_len:
        raise ValueError(f"table serves k={table.k} half lengths"
                         f" <= {table.max_len}, need k={k} half length {half}")
    return table


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
