"""Exact-uniform sampling of chamber walks and their partitions, by
unranking at the midpoint.

A session keeps the prefix sums of the count table's midpoint weights
over the midpoints' point ids, whose last entry is the total.  A draw
takes one u = uniform_below(total), bisects it in the prefix sums to
find the midpoint v, and has the table unrank the rest into the steps of
one complete walk (walk_through; counting.py describes the cut and the
unranking).  So unrank is a bijection from [0, total) onto the complete
walks, every walk has probability exactly 1/total, and a draw uses one
uniform_below.  Plain mode samples partition walks; regular mode samples
loop-free braid walks.  A regular walk with a do-nothing step added on
either side is the partition walk of its 2-regular partition
(bijection.py), so both modes decode a partition walk the same way.
Any table that holds the half lengths of the session's walks serves it.

A drawn walk takes only moves the table lists, so it is legal by
construction and is decoded without walks.validate_walk or any check of
its blocks (decode_partition with validate=False).  What the draw
does check, with InvariantError rather than assert, is what only a wrong
table could break: that the total is positive, and, in walk_through,
that a rank falls inside some move at every length and that each half
ends on the start point.  The error names the session, the position in
the walk and the point.

All randomness flows through one seeded bit stream; given the seed, the
sample stream is reproducible bit for bit.

The paper's forward transition weights on shapes (partition_weights,
regular_weights, path_probability) are no part of the draw: they live in
oracle.py, as a reference the unranking is checked against.  A few names
stay readable from this module for code that looks them up here: the
telescoping check imports path_probability from it, and the traced
benchmark wraps the weights, the walk functions and the braid decoders
on it.  They load on first read (_ELSEWHERE), so importing the sampler,
and with it `nckp sample`, loads no oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

from .bijection import decode_partition
from .counting import InvariantError, session_table, walk_length
from .diagrams import Partition
from .walks import BRAID_WALK, PARTITION_WALK, Walk

# name -> home module of each name read from here by code outside the draw
_ELSEWHERE = {
    "path_probability": "oracle",
    "partition_weights": "oracle",
    "regular_weights": "oracle",
    "apply_step": "walks",
    "legal_steps": "walks",
    "shape_to_point": "walks",
    "validate_walk": "walks",
    "decode_braid": "bijection",
    "braid_to_partition": "bijection",
}


def __getattr__(name: str):
    """Load a name of _ELSEWHERE from its home module on first read, and
    keep it so later lookups skip this hook."""
    if name not in _ELSEWHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_ELSEWHERE[name]}", __package__), name)
    globals()[name] = value
    return value


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
        self._ends = list(accumulate(self.table.midpoint_weights(self.walk_len)))
        self.total = self._ends[-1] if self._ends else 0
        if self.total < 1:
            start = self.table.point(self.table.start_id)
            raise self._inconsistent(
                f"zero total weight at position 0 (point {start})")

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
        try:
            steps = self.table.walk_through(self.walk_len, v,
                                            u - (ends[v - 1] if v else 0))
        except InvariantError as exc:
            raise self._inconsistent(str(exc)) from None
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

    def _inconsistent(self, problem: str) -> InvariantError:
        return InvariantError(f"{self.mode} k={self.k} n={self.n}: {problem};"
                              " tables are inconsistent")
