"""Exact-uniform sampling of chamber walks and their partitions, by
unranking.

A draw takes one u = uniform_below(total) and unranks it: from the start
point it walks the count table's point ids, and at each position subtracts
the completions of the table's moves out of the current point until u falls
inside one (the recursive method of Nijenhuis and Wilf, and of Flajolet,
Zimmermann and Van Cutsem).  So unrank is a bijection from [0, total) onto
the complete walks, every walk has probability exactly 1/total, and a draw
uses one uniform_below.  Plain mode samples partition walks; regular mode
samples loop-free braid walks a vertex (add, remove) at a time and maps
them back to 2-regular partitions.  partition_weights, regular_weights and
path_probability give the same weights on shapes, as a reference.

A drawn walk takes only moves the table lists, so it is legal by
construction and is decoded without walks.validate_walk.  What the draw
does check, with InvariantError rather than assert, is what only a wrong
table could break: that u falls inside some move at every position, and
that the walk ends on the start point.

All randomness flows through one seeded bit stream; given the seed, the
sample stream is reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bijection import braid_to_partition, decode_braid, decode_partition
from .counting import ChamberTable, InvariantError, LoopFreeTable
from .diagrams import Partition
from .walks import (
    BRAID_WALK,
    PARTITION_WALK,
    Walk,
    apply_step,
    legal_steps,
    shape_to_point,
    start_point,
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


@dataclass(frozen=True)
class TransitionWeights:
    """Candidate next steps with their exact completion counts."""

    steps: tuple[int, ...]
    weights: tuple[int, ...]
    total: int


def walk_length(n: int, mode: str) -> int:
    """Steps of the complete walk behind one sample of size n."""
    return 2 * n if mode == "plain" else max(2 * (n - 1), 0)


def session_table(k: int, n: int, mode: str, table=None):
    """The count table of a (k, n, mode) session: `table` once checked to
    fit, or else a freshly built one pruned to the session's walk length."""
    walk_len = walk_length(n, mode)
    table_cls = ChamberTable if mode == "plain" else LoopFreeTable
    if table is None:
        return table_cls.build(k, walk_len, horizon=walk_len)
    if not isinstance(table, table_cls):
        raise TypeError(f"{mode} mode needs a {table_cls.__name__}")
    if table.k != k or table.max_len < walk_len:
        raise ValueError(
            f"table covers k={table.k} lengths <= {table.max_len},"
            f" need k={k} length {walk_len}"
        )
    if table.horizon is not None and table.horizon != walk_len:
        raise ValueError(
            f"table horizon {table.horizon} does not match walk length {walk_len}"
        )
    return table


class SamplerSession:
    """Immutable count tables plus one RNG stream producing uniform samples.

    mode="plain"   uniform over k-noncrossing partitions of [n]
    mode="regular" uniform over 2-regular, k-noncrossing partitions of [n]

    Tables may be shared between sessions; each session's stream is
    independent given its seed.
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

    @property
    def total(self) -> int:
        """Size of the sampled universe; InvariantError if the table
        stores 0 there."""
        total = self.table.count(start_point(self.k), self.walk_len)
        if total < 1:
            raise self._inconsistent(0, self.table.start_id, "zero total weight")
        return total

    def draw(self) -> tuple[Walk, Partition]:
        """One uniform sample, the walk and its decoded partition: the
        unranking of one uniform_below(total)."""
        return self.unrank(uniform_below(self.total, self.rng))

    def unrank(self, u: int) -> tuple[Walk, Partition]:
        """The walk of rank u in [0, total), and its partition.  Ranks
        follow the step order of the table's moves, position by position."""
        if not 0 <= u < self.total:
            raise ValueError(f"rank {u} outside 0..{self.total - 1}")
        table, length = self.table, self.walk_len
        moves, lookup = table.moves, table.lookup
        plain = self.mode == "plain"
        cur, steps = table.start_id, []
        for i in range(0, length, 1 if plain else 2):
            left = length - i - (1 if plain else 2)
            for move, nxt in (moves(cur, left, i % 2 == 1) if plain
                              else self._vertices(cur, left)):
                weight = lookup(nxt, left)
                if u < weight:
                    break
                u -= weight
            else:
                raise self._inconsistent(
                    i, cur, "candidate weights sum below the stored total"
                    f" {lookup(cur, length - i)}")
            steps.append(move)
            cur = nxt
        if cur != table.start_id:
            raise self._inconsistent(length, cur, "the walk does not end on the"
                                     " start point")
        if plain:
            walk = Walk(PARTITION_WALK, self.k, tuple(steps))
            return walk, decode_partition(walk, validate=False)
        walk = Walk(BRAID_WALK, self.k, tuple(st for pair in steps for st in pair))
        if self.n == 0:
            return walk, Partition.from_blocks(0, [])
        return walk, braid_to_partition(decode_braid(walk, validate=False))

    def _vertices(self, cur: int, left: int):
        """((add, remove), target) of each loop-free braid vertex out of
        point id `cur`, leaving `left` steps."""
        moves = self.table.moves
        for add, mid in moves(cur, left + 1, True):
            for remove, nxt in moves(mid, left, False, add == 1):
                yield (add, remove), nxt

    def _inconsistent(self, i: int, cur: int, problem: str) -> InvariantError:
        return InvariantError(
            f"{self.mode} k={self.k} n={self.n}: {problem} at position {i}"
            f" (point {self.table.point(cur)}); tables are inconsistent"
        )


def partition_weights(session: SamplerSession, rows: tuple[int, ...],
                      i: int) -> TransitionWeights:
    """Weights for step i+1 of a plain walk from shape `rows` after i steps.

    Candidate weight = completions from the candidate shape with 2n-(i+1)
    steps left; the total equals the completions from `rows` itself.
    """
    if session.mode != "plain":
        raise ValueError("partition_weights needs a plain-mode session")
    k, length, ct = session.k, session.walk_len, session.table
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
    k, length, lt = session.k, session.walk_len, session.table
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
