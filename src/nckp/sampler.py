"""Exact-uniform sampling of chamber walks and their partitions, by
unranking at the midpoint.

A complete walk of length S is its first m steps, a walk from the start
point to some midpoint v, followed by the reverse of a second walk from
the start point to v, of length h = S - m (counting.half_lengths; the cut
falls on a vertex boundary for braid walks).  So total = sum_v f(v, m) *
f(v, h), and a session keeps the prefix sums of those products over the
midpoints' point ids, whose last entry is the total.  A draw takes one
u = uniform_below(total) and unranks it: bisect u in the prefix sums to
find v, split the rest by divmod into a rank for each half, and unrank
each half backwards from v -- at every length subtract the completions of
the table's moves into the current point until the rank falls inside one
(the recursive method of Nijenhuis and Wilf, and of Flajolet, Zimmermann
and Van Cutsem, with its meet-in-the-middle split).  The walk is the first
half followed by the second one reversed, each step inverted.  So unrank
is a bijection from [0, total) onto the complete walks, every walk has
probability exactly 1/total, and a draw uses one uniform_below.  Plain
mode samples partition walks a step at a time; regular mode samples
loop-free braid walks a vertex (add, remove) at a time.  Both run one
loop over the moves back that the table memoises per point id (its
back() memo), cut to the ids the next length holds.  A regular walk with
a do-nothing step added on either side is the partition walk of its
2-regular partition (bijection.py), so both modes decode a partition walk
the same way.  The count table needs only the lengths up to h, and any
table that holds them serves the session.  The unranking reads each
weight straight from the table's storage, one row of ints per point id
(counting._PackedTable, which lays each row's counts out a tile of
lengths at a time so that they lie side by side), and a half walks back
along a few points, so its reads stay on their rows.

partition_weights, regular_weights and path_probability give the forward
transition weights on shapes, as a reference; they read full-length
tables of their own, never the session's.

A drawn walk takes only moves the table lists, so it is legal by
construction and is decoded without walks.validate_walk or any check of
its blocks (decode_partition with validate=False).  What the draw
does check, with InvariantError rather than assert, is what only a wrong
table could break: that the total is positive, that a rank falls inside
some move at every length, and that each half ends on the start point.

All randomness flows through one seeded bit stream; given the seed, the
sample stream is reproducible bit for bit.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain

# `perfbench/run.py --trace 1` times the decode and the walk primitives by
# wrapping them where this module looks them up: the draw calls
# decode_partition, and the transition weights below call the walk
# functions.  It wraps decode_braid and braid_to_partition too, which no
# draw calls, so every one of these names must stay importable from here.
from .bijection import braid_to_partition, decode_braid, decode_partition  # noqa: F401
from .counting import (
    InvariantError,
    _table_class,
    half_lengths,
    session_table,
    walk_length,
)
from .diagrams import Partition
from .record import Record, _set
from .walks import (
    BRAID_WALK,
    PARTITION_WALK,
    Walk,
    apply_step,
    legal_steps,
    shape_to_point,
    validate_walk,
)


class RandomBits:
    """Deterministic seeded bit stream.  Seeds must be >= 0: random.Random
    drops an int seed's sign, so -s would repeat the stream of s."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._rng = random.Random(seed)
        self._bits = 0
        self._blocks = 0

    def block(self, width: int) -> int:
        if not width:
            return 0
        self._bits += width
        self._blocks += 1
        return self._rng.getrandbits(width)

    @property
    def bits(self) -> int:
        """Random bits consumed so far."""
        return self._bits

    @property
    def blocks(self) -> int:
        """Nonempty blocks drawn so far."""
        return self._blocks


def uniform_below(total: int, rng: RandomBits) -> int:
    """Exactly uniform integer in [0, total), by rejection on fixed-width
    blocks of ceil(log2 total) bits.  total=1 consumes no randomness."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if total == 1:
        return 0
    width = (total - 1).bit_length()
    while True:
        u = rng.block(width)
        if u < total:
            return u


class TransitionWeights(Record):
    """Candidate next steps with their exact completion counts."""

    __slots__ = ("steps", "weights", "total")

    def __init__(self, steps: tuple[int, ...], weights: tuple[int, ...],
                 total: int) -> None:
        _set(self, "steps", steps)
        _set(self, "weights", weights)
        _set(self, "total", total)


class SamplerSession:
    """Immutable count tables plus one RNG stream producing uniform samples.

    mode="plain"   uniform over k-noncrossing partitions of [n]
    mode="regular" uniform over 2-regular, k-noncrossing partitions of [n]

    `total` is the size of the sampled universe.  Tables may be shared
    between sessions; each session's stream is independent given its seed.
    """

    def __init__(self, k: int, n: int, mode: str = "plain", seed: int = 0,
                 table=None):
        if mode not in ("plain", "regular"):
            raise ValueError(f"mode must be 'plain' or 'regular', got {mode!r}")
        if mode == "plain" and k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if mode == "regular" and k < 3:
            raise ValueError(f"k must be >= 3 in regular mode, got {k}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self.k = k
        self.n = n
        self.mode = mode
        self.rng = RandomBits(seed)
        self.walk_len = walk_length(n, mode)
        self.table = session_table(k, n, mode, table)
        self._cut = half_lengths(self.walk_len, mode == "regular")
        self._ends = list(accumulate(self.table.midpoint_weights(self.walk_len)))
        self.total = self._ends[-1] if self._ends else 0
        if self.total < 1:
            raise self._inconsistent(0, self.table.start_id, "zero total weight")

    def draw(self) -> tuple[Walk, Partition]:
        """One uniform sample, the walk and its decoded partition: the
        unranking of one uniform_below(total)."""
        return self.unrank(uniform_below(self.total, self.rng))

    def unrank(self, u: int) -> tuple[Walk, Partition]:
        """The walk of rank u in [0, total), and its partition.  Ranks
        order walks by midpoint id, then by the rank of the first half,
        then by that of the second; a half's rank follows the step order
        of the table's moves, from its last step back to its first."""
        if not 0 <= u < self.total:
            raise ValueError(f"rank {u} outside 0..{self.total - 1}")
        ends = self._ends
        v = bisect_right(ends, u)
        m, h = self._cut
        first, second = divmod(u - (ends[v - 1] if v else 0),
                               self.table.lookup(v, h))
        # a half's codes, listed from v back to the start point, undo its
        # steps: the first half is them inverted in reverse, the second
        # half reversed and inverted is them as listed
        steps = [-c for c in reversed(self._half(v, m, first, False))]
        steps += self._half(v, h, second, True)
        if self.mode == "plain":
            walk = Walk(PARTITION_WALK, self.k, tuple(steps))
            return walk, decode_partition(walk, validate=False)
        walk = Walk(BRAID_WALK, self.k, tuple(steps))
        if self.n == 0:  # padding would give the partition of [1]
            return walk, Partition.from_blocks(0, [])
        # the braid walk with a do-nothing step on either side is the
        # partition walk of the same partition (bijection.py)
        padded = Walk(PARTITION_WALK, self.k, (0, *steps, 0))
        return walk, decode_partition(padded, validate=False)

    def _half(self, cur: int, length: int, rank: int, second: bool) -> list[int]:
        """The walk of the given rank among those of `length` steps from
        the start point to point id `cur`, found backwards and returned as
        the step codes that undo it, last step first: at each length the
        rank picks one of the moves back out of the current point, each
        weighted by the walks that reach its target.  A move spans `width`
        steps: one step of a partition walk, or one loop-free braid vertex
        of two.  The moves come from the table's back() memo, read inline,
        and only near the table's edge through back()'s cut.  `second`
        tells which half this is, for naming positions in the whole walk."""
        table = self.table
        rows, first, sizes = table._rows, table._first, table._sizes
        memo, make = table._back, table._make_back
        width = 1 + table.braid
        backs = []
        for s in range(length, 0, -width):
            t = s - width
            found, last = memo[s & 1][cur] or make(cur, s & 1)
            if last >= sizes[t]:  # some target lies past slice t
                found = table.back(cur, s)
            # every target is held by slice t, so t >= first[prev]
            for back, prev in found:
                weight = rows[prev][t - first[prev]]
                if rank < weight:
                    break
                rank -= weight
            else:
                raise self._inconsistent(
                    self.walk_len - s if second else s, cur,
                    "candidate weights sum below the stored total"
                    f" {table.lookup(cur, s)}")
            backs.append(back)
            cur = prev
        if cur != table.start_id:
            raise self._inconsistent(self.walk_len if second else 0, cur,
                                     "the walk does not end on the start point")
        return backs if width == 1 else list(chain.from_iterable(backs))

    def _inconsistent(self, i: int, cur: int, problem: str) -> InvariantError:
        return InvariantError(
            f"{self.mode} k={self.k} n={self.n}: {problem} at position {i}"
            f" (point {self.table.point(cur)}); tables are inconsistent"
        )


@lru_cache(maxsize=8)
def _full_table(k: int, walk_len: int, mode: str):
    """A table of every length up to walk_len: the forward
    weights below need completions that the session's half-length table
    does not hold."""
    return _table_class(mode).build(k, walk_len)


def partition_weights(session: SamplerSession, rows: tuple[int, ...],
                      i: int) -> TransitionWeights:
    """Weights for step i+1 of a plain walk from shape `rows` after i steps.

    Candidate weight = completions from the candidate shape with 2n-(i+1)
    steps left; the total equals the completions from `rows` itself.
    """
    if session.mode != "plain":
        raise ValueError("partition_weights needs a plain-mode session")
    k, length = session.k, session.walk_len
    ct = _full_table(k, length, session.mode)
    if not 0 <= i < length:
        raise ValueError(f"position {i} outside 0..{length - 1}")
    parity = "odd" if (i + 1) % 2 else "even"
    cands = legal_steps(rows, k, parity, PARTITION_WALK)
    weights = tuple(
        ct.count(shape_to_point(apply_step(rows, st), k), length - i - 1)
        for st in cands
    )
    total = ct.count(shape_to_point(rows, k), length - i)
    return TransitionWeights(tuple(cands), weights, total)


def regular_weights(session: SamplerSession, rows: tuple[int, ...], i: int,
                    pending: int | None = None) -> TransitionWeights:
    """Weights for step i+1 of a loop-free braid walk.

    At even i the candidates are odd (add) steps; each is weighted by the
    loop-free completions over both steps of the vertex, excluding the
    remove(1) continuation after add(1).  At odd i the pending odd step
    must be supplied and remove(1) is excluded exactly after add(1).
    """
    if session.mode != "regular":
        raise ValueError("regular_weights needs a regular-mode session")
    k, length = session.k, session.walk_len
    lt = _full_table(k, length, session.mode)
    if not 0 <= i < length:
        raise ValueError(f"position {i} outside 0..{length - 1}")
    if i % 2 == 0:
        if pending is not None:
            raise ValueError("pending step only applies at odd positions")
        cands = legal_steps(rows, k, "odd", BRAID_WALK)
        weights = []
        for alpha in cands:
            mid = apply_step(rows, alpha)
            w = 0
            for t in legal_steps(mid, k, "even", BRAID_WALK,
                                 forbid_loop_after=alpha):
                w += lt.count(shape_to_point(apply_step(mid, t), k),
                              length - i - 2)
            weights.append(w)
        total = lt.count(shape_to_point(rows, k), length - i)
        return TransitionWeights(tuple(cands), tuple(weights), total)
    if pending is None:
        raise ValueError("odd positions need the pending odd step")
    cands = legal_steps(rows, k, "even", BRAID_WALK, forbid_loop_after=pending)
    weights = tuple(
        lt.count(shape_to_point(apply_step(rows, st), k), length - i - 1)
        for st in cands
    )
    return TransitionWeights(tuple(cands), weights, sum(weights))


def path_probability(session: SamplerSession, walk: Walk) -> Fraction:
    """Exact probability of the session producing `walk`: the product of
    its transition ratios.  Equals 1/total for every valid complete walk."""
    from fractions import Fraction

    expect_kind = PARTITION_WALK if session.mode == "plain" else BRAID_WALK
    if walk.kind != expect_kind or walk.k != session.k:
        raise ValueError(
            f"walk kind {walk.kind!r} (k={walk.k}) does not fit a"
            f" {session.mode} session with k={session.k}"
        )
    if len(walk.steps) != session.walk_len:
        raise ValueError(
            f"walk length {len(walk.steps)}, session expects {session.walk_len}"
        )
    validate_walk(walk, complete=True)
    prob = Fraction(1)
    rows: tuple[int, ...] = ()
    pending = 0
    for i, step in enumerate(walk.steps):
        if session.mode == "plain":
            tw = partition_weights(session, rows, i)
        elif i % 2 == 0:
            tw = regular_weights(session, rows, i)
            pending = step
        else:
            tw = regular_weights(session, rows, i, pending)
        if step not in tw.steps:
            raise ValueError(f"step {i + 1} of the walk is not a candidate")
        weight = tw.weights[tw.steps.index(step)]
        if weight == 0:
            return Fraction(0)
        prob *= Fraction(weight, tw.total)
        rows = apply_step(rows, step)
    return prob
