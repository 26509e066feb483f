"""The walk <-> diagram dictionary.

Walks decode to diagrams through a row-insertion engine on a filled
tableau whose rows and columns stay strictly increasing:

* a vertex's add step places the vertex label at the new corner (the label
  is the running maximum, so the filling stays valid);
* a vertex's remove step takes the corner entry of the removed row and
  bumps it upward, each row ejecting its largest entry below the incoming
  one; the value that falls out of row 1 is the arc partner.

A partition vertex removes first and then adds; a braid vertex adds first
and then removes, which is how loops (i, i) arise: add to row 1 and
immediately remove it.

Complete partition walks of length 2n are forced to end with a do-nothing
step, and to begin with one; dropping the first step therefore turns the
length 2n-1 prefix into a braid walk of length 2n-2 with the same shape
sequence, which is the walk-level partition <-> braid correspondence.  On
diagrams the same correspondence simply shifts right endpoints down by
one: arc (i, j) <-> arc (i, j-1), with loops standing in for gap-one arcs.
So a complete braid walk of length 2n-2 with a do-nothing step added on
either side is a complete partition walk of length 2n, and it decodes to
the partition of [n] that braid_to_partition(decode_braid(walk)) gives;
the sampler decodes its regular draws by this padded route.

decode_partition runs the insertion engine into an array of right
endpoints and builds the canonical blocks directly, with none of the
checks of blocks_from_arcs and Partition.from_blocks: a walk that passes
validate_walk always decodes to a partition, so those checks would only
repeat it.  validate=False skips validate_walk too and trusts the walk to
be legal, as the sampler's draws are.  Every other function here checks
its input.
"""

from __future__ import annotations

import bisect

from .diagrams import Braid, Partition, blocks_from_arcs
from .walks import (
    BRAID_WALK,
    PARTITION_WALK,
    Walk,
    WalkError,
    validate_walk,
)


class CrossingError(ValueError):
    """Encoding needed more rows than k-1 allows: the diagram has a k-crossing."""


class Filling:
    """Rows of strictly increasing entries, columns strictly increasing too."""

    def __init__(self):
        self.rows: list[list[int]] = []

    def place(self, r: int, entry: int) -> None:
        """Put `entry` at the new corner of row r; entry must exceed
        everything present (vertex labels arrive in increasing order)."""
        while len(self.rows) < r:
            self.rows.append([])
        self.rows[r - 1].append(entry)

    def eject(self, r: int) -> int:
        """Remove the corner of row r and bump upward; returns the value
        that leaves row 1."""
        value = self.rows[r - 1].pop()
        for q in range(r - 2, -1, -1):
            row = self.rows[q]
            i = bisect.bisect_left(row, value) - 1
            if i < 0:
                raise WalkError(0, f"no entry below {value} in row {q + 1}")
            row[i], value = value, row[i]
        while self.rows and not self.rows[-1]:
            self.rows.pop()
        return value

    def insert(self, value: int, max_rows: int) -> int:
        """Row-insert from row 1 downward (inverse of eject); returns the
        1-based row that grew."""
        for q in range(max_rows):
            if q == len(self.rows):
                self.rows.append([value])
                return q + 1
            row = self.rows[q]
            i = bisect.bisect_right(row, value)
            if i == len(row):
                row.append(value)
                return q + 1
            row[i], value = value, row[i]
        raise CrossingError(f"insertion needs more than {max_rows} rows")

    def take_corner(self, entry: int) -> int:
        """Delete the corner cell holding `entry`; returns its 1-based row."""
        for q in range(len(self.rows) - 1, -1, -1):
            row = self.rows[q]
            if row and row[-1] == entry:
                row.pop()
                while self.rows and not self.rows[-1]:
                    self.rows.pop()
                return q + 1
        raise WalkError(0, f"entry {entry} is not at any corner")

    def check(self) -> None:
        """Raise WalkError unless rows and columns increase strictly and
        the row lengths weakly decrease."""
        for q, row in enumerate(self.rows):
            if not all(a < b for a, b in zip(row, row[1:])):
                raise WalkError(0, f"row {q + 1} not increasing")
            if q > 0:
                above = self.rows[q - 1]
                if len(above) < len(row):
                    raise WalkError(0, "shape not weakly decreasing")
                if not all(above[i] < row[i] for i in range(len(row))):
                    raise WalkError(0, f"column through row {q + 1} not increasing")


def _decode(steps: tuple[int, ...], first: str) -> list[tuple[int, int]]:
    """Run the insertion engine over per-vertex step pairs.

    first="remove" is the partition order, whose arcs blocks_from_arcs
    turns into the reference decode_partition is tested against;
    first="add" is the braid order.  Returns the arcs (partner, vertex).
    """
    filling = Filling()
    arcs = []
    for vertex in range(1, len(steps) // 2 + 1):
        a, b = steps[2 * vertex - 2], steps[2 * vertex - 1]
        if first == "remove":
            if a < 0:
                arcs.append((filling.eject(-a), vertex))
            if b > 0:
                filling.place(b, vertex)
        else:
            if a > 0:
                filling.place(a, vertex)
            if b < 0:
                arcs.append((filling.eject(-b), vertex))
    return arcs


def _trusted_blocks(steps: tuple[int, ...], k: int) -> Partition:
    """The partition of a legal complete partition walk: the insertion
    engine of _decode run into a right_of array, whose blocks are read off
    in canonical order (by minimum, each one increasing), so the Partition
    is built without a check."""
    n = len(steps) // 2
    rows: list[list[int]] = [[] for _ in range(k - 1)]
    right_of = [0] * (n + 1)  # vertex -> its arc's right endpoint, or 0
    has_left = [False] * (n + 1)  # vertex -> some arc ends on it
    bisect_left = bisect.bisect_left
    pairs = iter(steps)
    for vertex, (remove, add) in enumerate(zip(pairs, pairs), 1):
        if remove:  # Filling.eject(-remove)
            r = -remove - 1
            value = rows[r].pop()
            while r:
                r -= 1
                row = rows[r]
                i = bisect_left(row, value) - 1
                row[i], value = value, row[i]
            right_of[value] = vertex
            has_left[vertex] = True
        if add:  # Filling.place(add, vertex)
            rows[add - 1].append(vertex)
    blocks = []
    for v in range(1, n + 1):
        if not has_left[v]:
            block = [v]
            j = right_of[v]
            while j:
                block.append(j)
                j = right_of[j]
            blocks.append(tuple(block))
    return Partition(n, tuple(blocks))


def decode_partition(walk: Walk, *, validate: bool = True) -> Partition:
    """Decode a complete partition walk of length 2n into its partition,
    building the canonical blocks directly.  validate=False skips
    validate_walk, for walks legal by construction (a sampler's draws); an
    illegal walk then decodes to garbage."""
    if walk.kind != PARTITION_WALK:
        raise ValueError(f"expected a partition walk, got kind {walk.kind!r}")
    if validate:
        validate_walk(walk, complete=True)
    if len(walk.steps) % 2:
        raise WalkError(len(walk.steps), "complete walk must have even length")
    return _trusted_blocks(walk.steps, walk.k)


def decode_braid(walk: Walk, *, validate: bool = True) -> Braid:
    """Decode a complete braid walk of length 2n into its braid;
    validate=False as for decode_partition."""
    if walk.kind != BRAID_WALK:
        raise ValueError(f"expected a braid walk, got kind {walk.kind!r}")
    if validate:
        validate_walk(walk, complete=True)
    if len(walk.steps) % 2:
        raise WalkError(len(walk.steps), "complete walk must have even length")
    n = len(walk.steps) // 2
    arcs = _decode(walk.steps, "add")
    return Braid.from_arcs(n, arcs)


def encode_partition(p: Partition, k: int) -> Walk:
    """Exact time reversal of decode_partition.

    Processing vertices n..1: a left endpoint's label sits at a corner and
    is deleted (undoing its placement); a right endpoint's partner is
    row-inserted from the top (undoing its ejection).  Needing a k-th row
    means the partition has a k-crossing.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    partner_of = {j: i for i, j in p.arcs}
    lefts = {i for i, _ in p.arcs}
    filling = Filling()
    steps = [0] * (2 * p.n)
    for vertex in range(p.n, 0, -1):
        if vertex in lefts:
            r = filling.take_corner(vertex)
            steps[2 * vertex - 1] = r
        if vertex in partner_of:
            r = filling.insert(partner_of[vertex], k - 1)
            steps[2 * vertex - 2] = -r
    walk = Walk(PARTITION_WALK, k, tuple(steps))
    validate_walk(walk, complete=True)
    return walk


def partition_walk_to_braid_walk(walk: Walk) -> Walk:
    """Reindex a partition walk of odd length 2l+1 as the braid walk of
    length 2l visiting the same shapes (the forced do-nothing first step
    is dropped, so braid shape 2j equals partition shape 2j+1)."""
    if walk.kind != PARTITION_WALK:
        raise ValueError(f"expected a partition walk, got kind {walk.kind!r}")
    if len(walk.steps) % 2 == 0:
        raise ValueError("needs an odd-length partition walk (complete-walk prefix)")
    validate_walk(walk, complete=False)
    out = Walk(BRAID_WALK, walk.k, walk.steps[1:])
    validate_walk(out, complete=False)
    return out


def braid_walk_to_partition_walk(walk: Walk) -> Walk:
    """Inverse reindexing: prepend the forced do-nothing step."""
    if walk.kind != BRAID_WALK:
        raise ValueError(f"expected a braid walk, got kind {walk.kind!r}")
    if len(walk.steps) % 2:
        raise ValueError("needs an even-length braid walk")
    validate_walk(walk, complete=False)
    out = Walk(PARTITION_WALK, walk.k, (0,) + walk.steps)
    validate_walk(out, complete=False)
    return out


def partition_to_braid(p: Partition) -> Braid:
    """Shift every arc's right endpoint down by one: (i, j) -> (i, j-1).

    Gap-one arcs become loops, so 2-regular partitions map to loop-free
    braids; crossing classes are preserved either way.
    """
    if p.n < 1:
        raise ValueError("needs at least one vertex")
    return Braid.from_arcs(p.n - 1, tuple((i, j - 1) for i, j in p.arcs))


def braid_to_partition(b: Braid) -> Partition:
    """Inverse shift: braid arc (i, j) -> partition arc (i, j+1)."""
    return blocks_from_arcs(b.n + 1, tuple((i, j + 1) for i, j in b.arcs))
