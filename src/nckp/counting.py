"""Exact big-integer counting of chamber-confined walks.

Two tables back the samplers and the CLI, both filled by one dynamic
program that counts walks directly inside the Weyl chamber
W = {v : v_1 > v_2 > ... > v_{k-1} >= 0}:

* ChamberTable      counts of partition walks from the start point, for all
                    endpoints and lengths.  One table per (k, max length).
* LoopFreeTable     counts of braid walks with no loop vertex (no vertex
                    that adds a box to row 1 and removes it again).

Both tables, and the totals, number their chamber points once, in graded
order: by box count, then by coordinates (lexicographically), so the
start point is id 0.  A point is a coordinate tuple throughout; only
digest() packs points into ints, for the key text version 5 caches pin.  The step
primitive is a pair of neighbour arrays over those ids: up[i][d] and
down[i][d] are the ids of d + e_i and d - e_i, or a sentinel N when that
point leaves the chamber (stops being strictly decreasing and >= 0) or
the numbering.  Every point with at most _box_bound(s) boxes has a walk
of length s (add its boxes, then stay), and no other point has one, so
slice s holds exactly the ids [0, N_s), N_s = ends[_box_bound(s)]: the
prefix rule, the one slice shape tables take.  The DP is in gather
form: each id of slice s sums the counts of slice s-1 at the sources of
the steps into it, read through the neighbour arrays from a copy of
slice s-1 padded with zeros up to the sentinel, so nothing is counted
outside the chamber and no signed cancellation is needed.  Loop-free
walks also keep, on odd (add) slices, the walks whose last step did not
add to row 1: only those may remove from row 1 next.  All counts are
exact Python ints; no floating point is involved anywhere.

A complete walk of length S is cut at its midpoint: after m steps it sits
at some point v, and its last S - m steps, reversed and inverted, are a
walk of the same kind from the start point to v.  Both walk kinds are
closed under that reversal (a loop vertex (add 1, remove 1) reverses to
itself), so the number of complete walks is sum_v f(v, m) * f(v, S - m),
where f counts walks from the start point (half_lengths gives m and
S - m; the cut falls on a vertex boundary for braid walks).  So counting
and sampling need only a table of length S - m <= S/2 + 1, and one such
table serves every shorter walk too.  total_partitions and total_regular
keep just the last DP slices and build no rows at all.

A table stores the counts densely by id, in one row of Python ints per
point: row i holds the counts of id i at every length from the first
that holds i to max_len, so a lookup is two list reads, and a
draw, which reads lengths s, s-1, ... of the few points it walks along,
stays on their rows.  The rows grow a tile of TILE lengths at a time, by
fresh copies of the DP's counts made id by id, so that a row's counts of
one tile lie side by side in memory; tiles serve that locality only.
digest(), which caches pin, hashes the graded points, the slice sizes and
each count's residue mod 2**61 - 1, row by row.

A table unranks its own complete walks (walk_through).  Given a walk's
midpoint id v and a rank in [0, f(v, m) * f(v, h)), divmod by f(v, h)
splits the rank into one per half, and each half is unranked backwards
from v: at every length, subtract the completions of the moves back out
of the current point until the rank falls inside one (the recursive
method of Nijenhuis and Wilf, and of Flajolet, Zimmermann and Van
Cutsem, with its meet-in-the-middle split).  back() lists those moves,
one step of a partition walk or one loop-free braid vertex (two steps),
made once per id and parity from the neighbour arrays by _steps, so the
build and the draw share one step rule; the loop reads that memo and the
rows directly, to save a call per candidate.

This module also owns the chamber primitives the DP runs on (start_point
and in_chamber, which `walks.py` re-exports) and the modes: a mode is its
table class (MODES: "plain" is ChamberTable, "regular" LoopFreeTable),
whose min_k is the least k it serves.  walk_length and session_table are
the one gate of a (k, n, mode) request, for the totals and the sampler
too: ValueError for an unknown mode, n < 0 or k below min_k.  It imports
nothing from the rest of the package, so `nckp count` and `nckp cache
build` load only it and the cache store.

The paper's formulas -- the reflection sum over the orthant and the
inclusion-exclusion over loops -- live in `oracle.py` as independent
cross-checks of these tables.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import deque
from itertools import chain, islice, repeat, zip_longest
from operator import add, getitem, lshift, mul, sub


class TableLimitError(RuntimeError):
    """A requested table would exceed the configured entry budget."""


class InvariantError(RuntimeError):
    """Counts contradict each other: a negative signed sum, candidate
    weights that fall short of the stored total, or a draw that does not
    end on the start point."""


# ---------------------------------------------------------------------------
# chamber points and table sizes
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
    """Bits per coordinate of a point packed as a version 5 key: room for
    the largest coordinate a table of max_len can hold, and one bit more."""
    top = (k - 2) + (max_len + 3) // 2
    return max(4, top.bit_length() + 1)


def _box_bound(s: int, braid: bool) -> int:
    """Most boxes s steps can add: the points of slice s hold at most this
    many, and the largest, at max_len, bounds the table's point numbering."""
    return (s + braid) // 2


def _estimate_entries(k: int, max_len: int, braid: bool, limit: int) -> int:
    """The table's size in entries: the k-1 coordinates of each numbered
    point, then the counts of every slice.  The points of b boxes are the
    shapes of b boxes in at most k-1 rows, as many as the partitions of b
    into parts of at most k-1 (their conjugates), and each is held from
    length max(0, 2b - braid) on.  The sum runs up the box counts and is
    exact, or stops at the first b where its running lower bound (the
    coordinates and the counts of the points so far) passes `limit`, so a
    huge k or max_len costs no more than the boxes it takes to get there:
    at b = 0 the coordinates alone catch a huge k, and the counts of the
    start point a huge max_len."""
    parts = [[1]]  # parts[j][b]: partitions of b into parts of at most j
    points = total = 0
    for b in range(_box_bound(max_len, braid) + 1):
        if 0 < b < k:  # parts of b fit from now on
            parts.append(parts[-1][:])
        fewer = 0  # partitions of b > 0 into parts of at most j - 1
        for j in range(1, len(parts)):
            fewer += parts[j][b - j]
            parts[j].append(fewer)
        here = parts[-1][b]
        points += here
        total += here * (max_len + 1 - max(0, 2 * b - braid))
        if (k - 1) * points + total > limit:
            break
    return (k - 1) * points + total


MAX_ENTRIES = 80_000_000  # size budget of a table, in entries


def _check_size(k: int, max_len: int, braid: bool) -> None:
    """TableLimitError, before any work, when the table of these
    parameters would hold more than MAX_ENTRIES entries."""
    if _estimate_entries(k, max_len, braid, MAX_ENTRIES) > MAX_ENTRIES:
        raise TableLimitError(
            f"{'loop-free' if braid else 'chamber'} table for k={k},"
            f" max_len={max_len} would hold more than {MAX_ENTRIES} entries"
        )


def half_lengths(walk_len: int, braid: bool) -> tuple[int, int]:
    """(m, h): a complete walk of length walk_len is cut after m steps, and
    both parts are walks from the start point, of lengths m and h =
    walk_len - m.  Braid walks are cut on a vertex boundary, so m is even;
    m <= h <= walk_len // 2 + 1."""
    m = 2 * (walk_len // 4) if braid else walk_len // 2
    return m, walk_len - m


# ---------------------------------------------------------------------------
# the step primitive and the DP engine
# ---------------------------------------------------------------------------

def _grade(k: int, max_len: int, braid: bool):
    """Number the chamber points of a table of max_len by box count, then
    coordinates, and return (keys, ids, ends, up, down): keys[d] is the
    point of id d and ids the inverse map, ends[b] the number of ids
    holding at most b boxes, and up[i][d] (down[i][d]) the id of d + e_i
    (d - e_i), or the sentinel N = len(keys) when that point lies outside
    the chamber or past the numbering.  The DP and back() read only these
    arrays."""
    keys = [start_point(k)]
    ends = [1]
    level = keys
    for _ in range(_box_bound(max_len, braid)):
        nxt = set()
        for v in level:  # add(i) keeps v_{i-1} > v_i
            nxt.update(v[:i] + (v[i] + 1,) + v[i + 1:] for i in range(k - 1)
                       if i == 0 or v[i - 1] - v[i] > 1)
        level = sorted(nxt)
        keys += level
        ends.append(len(keys))
    n = len(keys)
    ids = dict(zip(keys, range(n)))
    cols = list(zip(*keys))
    up = [list(map(ids.get, zip(*cols[:i], map(add, cols[i], repeat(1)),
                                *cols[i + 1:]), repeat(n)))
          for i in range(k - 1)]
    # d - e_i is a point of the numbering exactly when d is d - e_i + e_i
    down = []
    for near in up:
        inverse = [n] * (n + 1)  # the sentinel's slot n takes the misses
        deque(map(inverse.__setitem__, near, range(n)), 0)  # at C level
        down.append(inverse[:n])
    return keys, ids, ends, up, down


def _gather(src: list, n: int, terms) -> list:
    """src[:n] plus, for each (pred, row) of `terms`, `row` (padded with
    zeros up to the sentinel) read at pred[:n]: one step's counts by id."""
    out = islice(src, n)
    for pred, row in terms:  # the first map stops the others after n ids
        out = map(add, out, map(row.__getitem__, pred))
    return list(out)


def _walk_counts(k: int, max_len: int, loop_free: bool, ends, up, down):
    """Yield, for s = 0..max_len, the number of walks of length s from the
    start point to each id below N_s = ends[_box_bound(s)], by id; every
    other id has none.  Partition walks remove on odd steps and add on
    even ones; loop-free braid walks add on odd steps, remove on even
    ones, and never remove from row 1 right after adding to it.  Only the
    last slice, and the last odd one's walks that did not end adding to
    row 1 (`low`), stay alive here."""
    zeros = [0] * (len(up[0]) + 1)
    every, lower = range(k - 1), range(1, k - 1)
    cur = [1]
    yield cur
    for s in range(1, max_len + 1):
        n = ends[_box_bound(s, loop_free)]
        src = cur + zeros[len(cur):]
        if not loop_free:
            pred = up if s % 2 else down
            cur = _gather(src, n, [(pred[i], src) for i in every])
        elif s % 2:
            low = _gather(src, n, [(down[i], src) for i in lower])
            cur = _gather(low, n, [(down[0], src)])
            low += zeros[n:]
        else:
            cur = _gather(src, n, [(up[i], src) for i in lower]
                          + [(up[0], low)])
        yield cur


# ---------------------------------------------------------------------------
# per-point rows and the two count tables
# ---------------------------------------------------------------------------

TILE = 8  # lengths per tile: rows grow by tiles, for locality
_MERSENNE_61 = (1 << 61) - 1
# hash() of an int >= 0 is its residue mod 2**61 - 1 on 64-bit CPython
_HASH_IS_RESIDUE = sys.hash_info.modulus == _MERSENNE_61
_BIG_ENDIAN = sys.byteorder == "big"


def _sha256():
    """A SHA-256 hasher from the interpreter's own module, like `random`
    takes _sha512: hashlib would load OpenSSL for this one hash.  The
    module is named by version, as a failed import searches all of
    sys.path (about 1 ms on a 2-vCPU machine)."""
    try:
        module = __import__("_sha2" if sys.version_info >= (3, 12)
                            else "_sha256")
    except ImportError:  # an interpreter built without its own hashes
        import hashlib as module
    return module.sha256()


class _PackedTable:
    """Walk counts for all endpoints and lengths 0..max_len, in one row (a
    tuple of Python ints) per point id; `braid` tells the walk kind.  By
    the prefix rule, length s holds the ids below _sizes[s] =
    ends[_box_bound(s)], the points of at most _box_bound(s) boxes, so
    row i holds the counts of id i at lengths _first[i]..max_len, where
    _first[i] is the first length that holds i.  Built once, immutable
    afterwards (but for the back() memo, which only grows) and safe to
    share, memo included.  count() takes a point and checks it; back(),
    lookup() and walk_through() take point ids and do not check them.
    """

    braid = False
    start_id = 0  # the graded order puts the start point, with 0 boxes, first

    def __init__(self, k: int, max_len: int, slices=None):
        """`slices` yields the counts of each length 0..max_len by id, each
        a list over the prefix of ids the prefix rule gives that length;
        None runs the DP.  ValueError when there are more or fewer slices,
        or a slice holds more or fewer ids."""
        self.k = k
        self.max_len = max_len
        self._base = sum(start_point(k))
        self._keys, self._ids, self._ends, self._up, self._down = _grade(
            k, max_len, self.braid)
        # length -> ids it holds, and id -> first length that holds it
        self._sizes = [self._ends[_box_bound(s, self.braid)]
                       for s in range(max_len + 1)]
        self._first = list(map(bisect_right, repeat(self._sizes),
                               range(len(self._keys))))
        if slices is None:
            slices = _walk_counts(k, max_len, self.braid, self._ends,
                                  self._up, self._down)
        rows: list = []  # id -> counts from _first[id] on
        lo, slices = 0, iter(slices)
        while cols := list(islice(slices, TILE)):  # a tile at a time
            for s, col in enumerate(cols, lo):
                if s > max_len:
                    raise ValueError(f"more than {max_len + 1} slices")
                if len(col) != self._sizes[s]:
                    raise ValueError(f"slice {s} holds {len(col)} ids, the"
                                     f" prefix rule gives {self._sizes[s]}")
            self._extend_rows(rows, cols, lo)
            lo += len(cols)
        if lo <= max_len:
            raise ValueError(f"{lo} slices, need {max_len + 1}")
        # The collector stops tracking a tuple of ints after its first pass
        # over it, so later full collections skip the table's counts; a
        # list of them would be walked count by count every time.
        for i, row in enumerate(rows):
            rows[i] = tuple(row)
        self._rows: list[tuple[int, ...]] = rows
        # _make_back memo, by the parity of the length, then id: a step back
        # out of an odd length adds; a braid vertex ends on an even length
        self._back = ([[None] * len(rows)] * 2 if self.braid
                      else [[None] * len(rows) for _ in range(2)])

    def _extend_rows(self, rows: list, cols: list, lo: int) -> None:
        """Append lengths lo, lo+1, ..., `cols` holding each one's counts
        by id, to the rows: the ids earlier lengths held extend their rows
        by every length of the tile, and each id the tile adds starts a
        row at its first length.  The counts go in as fresh copies made id
        by id while the DP's own objects are still alive, so the copies
        land on new memory and a row's counts of one tile lie side by
        side: a draw reads one point at lengths s, s-1, ..., and the DP
        leaves each length's counts scattered."""
        old, width = len(rows), len(cols)
        # x + 0 is a new object for every count past the small-int cache
        fresh = map(add, chain.from_iterable(zip_longest(*cols, fillvalue=0)),
                    repeat(0))
        by_id = zip(*[fresh] * width)
        deque(map(list.extend, rows, islice(by_id, old)), 0)  # at C level
        starts = map(sub, islice(self._first, old, len(cols[-1])), repeat(lo))
        rows += map(list, map(getitem, by_id, map(slice, starts, repeat(None))))

    def _column(self, s: int) -> list[int]:
        """The counts at length s of the ids it holds, by id."""
        at = map(sub, repeat(s), islice(self._first, self._sizes[s]))
        return list(map(getitem, self._rows, at))

    def count(self, v: tuple[int, ...], s: int) -> int:
        """The number of walks of length s from the start point to v: 0 when
        v holds more boxes than s steps can add.  ValueError when v is not a
        chamber point or s lies outside 0..max_len."""
        if len(v) != self.k - 1 or not in_chamber(v):
            raise ValueError(f"point {v} is not in the chamber for k={self.k}")
        self._check_length(s)
        if sum(v) - self._base > _box_bound(s, self.braid):
            return 0
        return self.lookup(self.point_id(tuple(v)), s)

    def _check_length(self, s: int) -> None:
        if not 0 <= s <= self.max_len:
            raise ValueError(f"length {s} outside table range 0..{self.max_len}")

    def _cut(self, walk_len: int) -> tuple[int, int]:
        """half_lengths(walk_len), or ValueError unless walk_len is the
        length of complete walks (even, >= 0) whose halves the table holds."""
        m, h = half_lengths(walk_len, self.braid)
        if walk_len < 0 or walk_len % 2 or h > self.max_len:
            raise ValueError(f"table serves complete walks of even length"
                             f" 0..{2 * self.max_len}, got {walk_len}")
        return m, h

    def midpoint_weights(self, walk_len: int) -> list[int]:
        """By point id v, f(v, m) * f(v, h) for the cut (m, h) of
        half_lengths: the number of complete walks of length walk_len that
        are at v after m steps.  Their sum is the number of complete walks."""
        m, h = self._cut(walk_len)
        return list(map(mul, self._column(m), self._column(h)))

    def walk_through(self, walk_len: int, v: int, rest: int) -> list[int]:
        """The step codes of the complete walk of length walk_len that is at
        point id v after m steps, (m, h) the cut of half_lengths, and has
        rank `rest` in [0, f(v, m) * f(v, h)) among those walks.
        InvariantError, naming the position in the walk and the point, when
        a rank falls past every move back or a half does not end on the
        start point, which only a wrong table can do."""
        m, h = self._cut(walk_len)
        rows, first, sizes = self._rows, self._first, self._sizes
        memo, make = self._back, self._make_back
        width, halves = 1 + self.braid, []
        ranks = divmod(rest, self.lookup(v, h))
        for second, (length, rank) in enumerate(zip((m, h), ranks)):
            cur, backs = v, []
            for s in range(length, 0, -width):
                t = s - width
                found, last = memo[s & 1][cur] or make(cur, s & 1)
                if last >= sizes[t]:  # some target lies past slice t
                    found = self.back(cur, s)
                # every target is held by slice t, so t >= first[prev]
                for back, prev in found:
                    weight = rows[prev][t - first[prev]]
                    if rank < weight:
                        break
                    rank -= weight
                else:
                    raise InvariantError(
                        "candidate weights sum below the stored total"
                        f" {self.lookup(cur, s)} at position"
                        f" {walk_len - s if second else s}"
                        f" (point {self.point(cur)})")
                backs.append(back)
                cur = prev
            if cur != self.start_id:
                raise InvariantError(
                    "the walk does not end on the start point at position"
                    f" {walk_len if second else 0} (point {self.point(cur)})")
            halves.append(list(chain.from_iterable(backs)) if self.braid
                          else backs)
        # a half's codes, listed from v back to the start point, undo its
        # steps: the first half is them inverted in reverse, the second
        # half reversed and inverted is them as listed
        return [-c for c in reversed(halves[0])] + halves[1]

    def slice_items(self, s: int):
        """Iterate (point, count) over the stored support at length s, in
        increasing point order.  ValueError when s lies outside
        0..max_len."""
        self._check_length(s)
        return sorted(zip(self._keys, self._column(s)))  # points are distinct

    def entry_count(self) -> int:
        return sum(self._sizes)

    def digest(self) -> str:
        """SHA-256 hex digest of the graded points and the slice sizes, as
        text, then of every count's residue mod 2**61 - 1, row by row (id
        by id, each row from its first length on), as 8-byte
        little-endian integers: the layout version 5 caches pin.  The text
        writes each point as a packed key, its coordinates in
        _coord_bits(k, max_len) bits apiece, the first highest.  A
        residue changes under any change of its count that is not a
        multiple of 2**61 - 1."""
        from array import array

        bits = _coord_bits(self.k, self.max_len)
        keys = repeat(0)
        for col in zip(*self._keys):
            keys = map(add, map(lshift, keys, repeat(bits)), col)
        # x -> x % (2**61 - 1), by hash() where that is the same
        residue = hash if _HASH_IS_RESIDUE else _MERSENNE_61.__rmod__
        h = _sha256()
        h.update(repr(list(keys)).encode())
        h.update(repr(self._sizes).encode())
        for row in self._rows:
            packed = array("q", list(map(residue, row)))  # a list fills faster
            if _BIG_ENDIAN:
                packed.byteswap()
            h.update(packed)
        return h.hexdigest()

    def lookup(self, i: int, s: int) -> int:
        """count() of point id i, unchecked: 0 before _first[i]."""
        at = s - self._first[i]
        return self._rows[i][at] if at >= 0 else 0

    def _steps(self, i: int, adding: bool, after_top: bool) -> tuple:
        """(step, target id) of each step out of point id i, read from the
        neighbour arrays in the step order of `walks.legal_steps`: the
        do-nothing step first, then an add (or remove) on each row, less
        the targets past the table's numbering.  after_top drops remove(1),
        which may not follow add(1) in a loop-free walk."""
        near, sign = (self._up, 1) if adding else (self._down, -1)
        n = len(self._keys)
        return ((0, i),) + tuple((sign * (r + 1), near[r][i])
                                 for r in range(after_top, self.k - 1)
                                 if near[r][i] < n)

    def back(self, i: int, s: int) -> tuple:
        """(undo, origin id) of each move a draw takes back out of point id
        i at length s onto length s - 1 - braid, in the step order of
        _steps(): one step of a partition walk, whose undo is a step code,
        or one loop-free braid vertex (s even), whose undo is the pair
        (undo remove, undo add).  The moves of each (id, parity of s) are
        made once, in _back[s & 1][i] by _make_back, and cut here to the
        origins length s - 1 - braid holds."""
        found, last = self._back[s & 1][i] or self._make_back(i, s & 1)
        n = self._sizes[s - 1 - self.braid]
        return found if last < n else tuple(m for m in found if m[1] < n)

    def point(self, i: int) -> tuple[int, ...]:
        return self._keys[i]

    def point_id(self, v: tuple[int, ...]) -> int:
        """The id of a chamber point that some slice can hold; KeyError for
        any other tuple."""
        return self._ids[v]


class ChamberTable(_PackedTable):
    """Chamber-confined partition-walk counts for all endpoints and lengths."""

    min_k = 2
    count = _PackedTable.count  # own attribute, so it can be wrapped per class

    def _make_back(self, i: int, parity: int):
        """Fill and return _back[parity][i]: the steps out of id i, adds
        at an odd length (whose partition-walk step removed), and the
        largest origin id, which tells back() whether to cut them."""
        found = self._steps(i, parity, False)
        memo = self._back[parity][i] = (found, max(t for _, t in found))
        return memo

    @classmethod
    def build(cls, k: int, max_len: int, *, loop_free: bool = False):
        """Run the chamber DP.  With loop_free=True the same engine counts
        loop-free braid walks and returns a LoopFreeTable; that is what
        LoopFreeTable.build does."""
        table_cls = LoopFreeTable if loop_free else ChamberTable
        if k < table_cls.min_k:
            raise ValueError(f"k must be >= {table_cls.min_k}, got {k}")
        if loop_free and max_len % 2:  # halves of braid walks are even
            raise ValueError(f"loop-free max_len must be even, got {max_len}")
        if max_len < 0:
            raise ValueError(f"max_len must be >= 0, got {max_len}")
        _check_size(k, max_len, loop_free)
        return table_cls(k, max_len)


class LoopFreeTable(_PackedTable):
    """Loop-free braid-walk counts for all endpoints and lengths <= walk_len.
    A draw steps back a vertex at a time, from even lengths only, so both
    slots of the back() memo are one list of vertices by id."""

    braid = True
    min_k = 3
    count = _PackedTable.count

    def _make_back(self, i: int, parity: int):
        """Fill and return _back[parity][i], one memo for both parities:
        the vertices into id i, each (undo remove, undo add) with its
        origin, and the largest origin id, which tells back() whether to
        cut them.  Undo the remove with an add, then the add with a remove,
        and after add(1) undid remove(1) no remove(1) may undo add(1), since
        that vertex would be a loop.  At an even length s an origin of at
        most _box_bound(s - 2) boxes has a middle point of at most one box
        more, which length s - 1 holds, so only origins need cutting."""
        steps = self._steps
        found = tuple(((undo_remove, undo_add), prev)
                      for undo_remove, mid in steps(i, True, False)
                      for undo_add, prev in steps(mid, False, undo_remove == 1))
        memo = self._back[parity][i] = (found, max(t for _, t in found))
        return memo

    @classmethod
    def build(cls, k: int, walk_len: int) -> "LoopFreeTable":
        return ChamberTable.build(k, walk_len, loop_free=True)


# ---------------------------------------------------------------------------
# session tables and totals
# ---------------------------------------------------------------------------

MODES = {"plain": ChamberTable, "regular": LoopFreeTable}


def walk_length(n: int, mode: str) -> int:
    """Steps of the complete walk behind one sample of size n; ValueError
    for a mode outside MODES or n < 0."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {list(MODES)}, got {mode!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 2 * n if mode == "plain" else max(2 * (n - 1), 0)


def _request(k: int, n: int, mode: str):
    """MODES[mode] and walk_length(n, mode), once k is checked to be >= min_k."""
    walk_len, table_cls = walk_length(n, mode), MODES[mode]
    if k < table_cls.min_k:
        raise ValueError(f"k must be >= {table_cls.min_k} for {mode}, got {k}")
    return table_cls, walk_len


def session_table(k: int, n: int, mode: str, table=None):
    """The count table of a (k, n, mode) request _request accepts: `table`
    once checked to be of the mode's class (else TypeError) and to hold both
    halves of its walks (else ValueError), or a fresh one of half length."""
    table_cls, walk_len = _request(k, n, mode)
    half = half_lengths(walk_len, table_cls.braid)[1]
    if table is None:
        return table_cls.build(k, half)
    if not isinstance(table, table_cls):
        raise TypeError(f"{mode} mode needs a {table_cls.__name__}")
    if table.k != k or half > table.max_len:
        raise ValueError(f"table serves k={table.k} half lengths"
                         f" <= {table.max_len}, need k={k} half length {half}")
    return table


def _total(k: int, n: int, mode: str, table) -> int:
    """Number of complete walks of a (k, n, mode) request: sum_v f(v, m) *
    f(v, h) over the cut of half_lengths, read from `table` once
    session_table has checked it, or else from the last DP slices."""
    table_cls, walk_len = _request(k, n, mode)
    if table is not None:
        return sum(session_table(k, n, mode, table).midpoint_weights(walk_len))
    braid = table_cls.braid
    m, h = half_lengths(walk_len, braid)
    _check_size(k, h, braid)
    _, _, ends, up, down = _grade(k, h, braid)
    for s, counts in enumerate(_walk_counts(k, h, braid, ends, up, down)):
        if s == m:
            first = counts
    return sum(map(mul, first, counts))


def total_partitions(k: int, n: int, table: ChamberTable | None = None) -> int:
    """Number of partitions of [n] with no k mutually crossing arcs."""
    return _total(k, n, "plain", table)


def total_regular(k: int, n: int, table: LoopFreeTable | None = None) -> int:
    """Number of 2-regular, k-noncrossing partitions of [n]."""
    return _total(k, n, "regular", table)
