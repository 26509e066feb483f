"""Exact-uniform sampling of chamber walks and their partitions.

A session walks forward through the positions of a complete walk; at each
position the candidate next shapes are weighted by the exact number of
completions (a table lookup), and the choice is drawn with an integer
rejection sampler, so every complete walk comes out with probability
exactly 1/total.  Plain mode samples partition walks; regular mode samples
loop-free braid walks and maps them back, yielding 2-regular partitions.

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
    """Deterministic seeded bit stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def block(self, width: int) -> int:
        return self._rng.getrandbits(width) if width else 0


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
        self.walk_len = 2 * n if mode == "plain" else max(2 * (n - 1), 0)
        table_cls = ChamberTable if mode == "plain" else LoopFreeTable
        if table is None and n > 0:
            table = table_cls.build(k, self.walk_len, horizon=self.walk_len)
        if table is not None:
            if not isinstance(table, table_cls):
                raise TypeError(f"{mode} mode needs a {table_cls.__name__}")
            if table.k != k or table.max_len < self.walk_len:
                raise ValueError(
                    f"table covers k={table.k} lengths <= {table.max_len},"
                    f" need k={k} length {self.walk_len}"
                )
            if table.horizon is not None and table.horizon != self.walk_len:
                raise ValueError(
                    f"table horizon {table.horizon} does not match walk"
                    f" length {self.walk_len}"
                )
        self.table = table

    @property
    def total(self) -> int:
        """Size of the sampled universe."""
        if self.n == 0 or (self.mode == "regular" and self.n == 1):
            return 1
        return self.table.count(start_point(self.k), self.walk_len)

    def draw(self) -> tuple[Walk, Partition]:
        """One uniform sample: the walk and its decoded partition."""
        if self.mode == "plain":
            walk = self._draw_plain()
            return walk, decode_partition(walk)
        walk = self._draw_regular()
        if self.n == 0:
            return walk, Partition.from_blocks(0, [])
        return walk, braid_to_partition(decode_braid(walk))

    # -- plain mode ---------------------------------------------------

    def _draw_plain(self) -> Walk:
        k, length = self.k, self.walk_len
        steps = []
        rows: tuple[int, ...] = ()
        for i in range(length):
            tw = partition_weights(self, rows, i)
            choice = _pick(tw, self.rng)
            steps.append(choice)
            rows = apply_step(rows, choice)
        return Walk(PARTITION_WALK, k, tuple(steps))

    # -- regular mode ---------------------------------------------------

    def _draw_regular(self) -> Walk:
        k, length = self.k, self.walk_len
        steps = []
        rows: tuple[int, ...] = ()
        pending = 0
        for i in range(length):
            if i % 2 == 0:
                tw = regular_weights(self, rows, i)
                pending = _pick(tw, self.rng)
                steps.append(pending)
                rows = apply_step(rows, pending)
            else:
                tw = regular_weights(self, rows, i, pending)
                choice = _pick(tw, self.rng)
                steps.append(choice)
                rows = apply_step(rows, choice)
        return Walk(BRAID_WALK, k, tuple(steps))


def _pick(tw: TransitionWeights, rng: RandomBits) -> int:
    if tw.total <= 0:
        raise InvariantError("zero total weight; tables are inconsistent")
    u = uniform_below(tw.total, rng)
    acc = 0
    for step, weight in zip(tw.steps, tw.weights):
        acc += weight
        if u < acc:
            return step
    raise InvariantError("candidate weights sum below the stored total")


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
