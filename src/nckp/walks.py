"""Shapes, chamber points, elementary steps and walk validation.

A shape is a Young diagram with at most k-1 rows, stored as a tuple of
nonzero row lengths in weakly decreasing order.  Shapes embed into the
chamber W_{k-1} = {v : v_1 > v_2 > ... > v_{k-1} >= 0} via

    v_i = rows[i] + (k - 1 - i)        (1-based row index i)

so the empty shape maps to the start point (k-2, k-3, ..., 1, 0).
start_point and in_chamber, the chamber geometry the counting DP runs on,
live in `counting.py` and are re-exported here.

Steps are encoded as small ints: 0 does nothing, +r adds a box to row r,
-r removes a box from row r.  A partition walk ("P") removes on odd steps
and adds on even steps; a braid walk ("B") adds on odd steps and removes
on even steps.
"""

from __future__ import annotations

from .counting import in_chamber, start_point
from .record import Record, _set

PARTITION_WALK = "P"
BRAID_WALK = "B"


class WalkError(ValueError):
    """Raised when a step sequence violates parity or shape validity.

    `index` is the 1-based position of the first offending step.
    """

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


def in_orthant(v: tuple[int, ...]) -> bool:
    return all(x >= 0 for x in v)


def is_valid_shape(rows: tuple[int, ...], k: int) -> bool:
    if len(rows) > k - 1:
        return False
    if any(r <= 0 for r in rows):
        return False
    return all(a >= b for a, b in zip(rows, rows[1:]))


def shape_to_point(rows: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Map a shape to its chamber point; the empty shape maps to start_point(k)."""
    if not is_valid_shape(rows, k):
        raise ValueError(f"invalid shape {rows} for k={k}")
    padded = rows + (0,) * (k - 1 - len(rows))
    return tuple(padded[i] + (k - 2 - i) for i in range(k - 1))


def point_to_shape(v: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Inverse of shape_to_point.  Requires v in the chamber."""
    if len(v) != k - 1 or not in_chamber(v):
        raise ValueError(f"point {v} is not in the chamber for k={k}")
    rows = tuple(v[i] - (k - 2 - i) for i in range(k - 1))
    if any(r < 0 for r in rows):
        raise ValueError(f"point {v} is not in the chamber for k={k}")
    return tuple(r for r in rows if r > 0)


def apply_step(rows: tuple[int, ...], step: int) -> tuple[int, ...]:
    """Apply a step to a shape, trimming trailing zeros.  No legality check."""
    if step == 0:
        return rows
    r = abs(step)
    padded = list(rows) + [0] * max(0, r - len(rows))
    padded[r - 1] += 1 if step > 0 else -1
    while padded and padded[-1] == 0:
        padded.pop()
    return tuple(padded)


def step_class(position: int, kind: str) -> str:
    """Which step class ('add' or 'remove') is allowed at a 1-based position."""
    odd = position % 2 == 1
    if kind == PARTITION_WALK:
        return "remove" if odd else "add"
    if kind == BRAID_WALK:
        return "add" if odd else "remove"
    raise ValueError(f"unknown walk kind {kind!r}")


def legal_steps(
    rows: tuple[int, ...],
    k: int,
    parity: str,
    kind: str,
    forbid_loop_after: int | None = None,
) -> list[int]:
    """All steps allowed from `rows` at the given parity ('odd'/'even').

    Always includes 0.  add(r) is legal when r == 1 or row r-1 is strictly
    longer than row r; remove(r) when row r is nonempty and strictly longer
    than row r+1.  When `forbid_loop_after` is +1 and the requested class
    is 'remove', remove(1) is excluded: a braid vertex may not add to and
    remove from row 1 in one vertex (that vertex would be a loop).
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    cls = step_class(1 if parity == "odd" else 2, kind)
    padded = rows + (0,) * (k - len(rows))
    if cls == "add":
        return [0] + [r for r in range(1, k)
                      if r == 1 or padded[r - 2] > padded[r - 1]]
    first = 2 if forbid_loop_after == 1 else 1
    return [0] + [-r for r in range(first, k) if padded[r - 1] > padded[r]]


class Walk(Record):
    """A step sequence of one kind, starting from the empty shape."""

    __slots__ = ("kind", "k", "steps")

    def __init__(self, kind: str, k: int, steps: tuple[int, ...]) -> None:
        _set(self, "kind", kind)
        _set(self, "k", k)
        _set(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    def shapes(self) -> list[tuple[int, ...]]:
        """The len+1 shapes visited, starting from the empty shape."""
        out = [()]
        cur = ()
        for st in self.steps:
            cur = apply_step(cur, st)
            out.append(cur)
        return out

    def to_text(self) -> str:
        return format_steps(self.steps)


def format_steps(steps) -> str:
    """Token form, one token per step: `.` for 0, `+r` / `-r` otherwise."""
    toks = []
    for st in steps:
        if st == 0:
            toks.append(".")
        elif st > 0:
            toks.append(f"+{st}")
        else:
            toks.append(f"-{-st}")
    return " ".join(toks)


def parse_steps(text: str) -> tuple[int, ...]:
    steps = []
    for tok in text.split():
        if tok == ".":
            steps.append(0)
        elif tok[0] in "+-" and tok[1:].isdigit():
            r = int(tok[1:])
            steps.append(r if tok[0] == "+" else -r)
        else:
            raise ValueError(f"bad step token {tok!r}")
    return tuple(steps)


def walk_from_text(kind: str, k: int, text: str) -> Walk:
    return Walk(kind, k, parse_steps(text))


def validate_walk(walk: Walk, complete: bool = True) -> None:
    """Check each step against legal_steps; raise WalkError at the first
    violation.

    A complete walk must end at the empty shape.  Incomplete (prefix) walks
    may end anywhere.
    """
    rows: tuple[int, ...] = ()
    k = walk.k
    for pos, st in enumerate(walk.steps, start=1):
        cls = step_class(pos, walk.kind)
        move = "add" if st > 0 else "remove"
        if st != 0 and move != cls:
            raise WalkError(pos, f"{move} step at a {cls} position")
        if abs(st) > k - 1:
            raise WalkError(pos, f"row {abs(st)} out of range for k={k}")
        if st not in legal_steps(rows, k, "odd" if pos % 2 else "even", walk.kind):
            verb = "add to" if st > 0 else "remove from"
            raise WalkError(pos, f"cannot {verb} row {abs(st)} of {rows}")
        rows = apply_step(rows, st)
    if complete and rows != ():
        raise WalkError(len(walk.steps), f"walk ends at {rows}, not the empty shape")
