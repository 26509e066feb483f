"""Independent brute-force oracles, the paper's counting formulas, and the
statistical verification harness.

Everything here is deliberately naive: partitions come from exhaustive
restricted-growth-string enumeration, walk counts from explicit step
enumeration.  Guards are hard limits so the oracle suite cannot blow up in
CI; they raise rather than truncate.

The paper's routes to the chamber counts also live here, as identities
that the direct DP in `counting.py` must satisfy:

* reflected_count       chamber counts as a signed sum of orthant counts
                        over the (k-1)! coordinate permutations
                        (Gessel-Zeilberger reflection);
* loop_free_even_count  loop-free braid counts by inclusion-exclusion over
                        the number of loop vertices;
* chamber_count         the tuple-keyed chamber DP (chamber_slices gives
                        its whole slices);
* partition_weights,    the paper's Markov process on shapes: each step's
  regular_weights       candidates weighted by their completions, read
                        from full-length tables, whose ratios multiply to
                        path_probability = 1/total for every complete walk
                        (the draw unranks instead, in sampler.py).

Two routes check the totals at lengths no enumeration reaches: the
k = 3 counts follow a P-recursive relation of Bousquet-Melou and Xin
(k3_totals), and the 2-regular counts of each k follow from the plain
ones by inclusion-exclusion over gap-one arcs (gap_one_transform).

The walk references step by one rule, `_step_rule`: `_walks` enumerates
walks through it depth first (the brute_walk_* functions and
complete_partition_walks), `_dp` counts them in tuple-keyed slices
(chamber_count, chamber_slices, the orthant table), and `_forward` lists
the candidates of the transition weights by it.  They share nothing
with the neighbour arrays of `counting._grade`, whose mistakes they
would otherwise repeat instead of catching.

Every point here is a coordinate tuple, as in the engine's API.  The
module takes only public names from `counting.py` (the tables, their
errors and the totals it checks), so no private helper of the engine
can hide a shared mistake.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import comb
from typing import TYPE_CHECKING

from .counting import (
    ChamberTable,
    InvariantError,
    LoopFreeTable,
    TableLimitError,
    total_partitions,
    total_regular,
)
from .diagrams import Partition, is_k_noncrossing, is_m_regular
from .record import Record, _set
from .walks import (
    BRAID_WALK,
    PARTITION_WALK,
    Walk,
    in_chamber,
    in_orthant,
    shape_to_point,
    start_point,
    step_class,
    validate_walk,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .sampler import SamplerSession

ENUM_GUARD = 13
WALK_GUARD = 14


def enum_partitions(n: int):
    """All partitions of [n] as Partition objects, in restricted-growth
    lexicographic order.  Exactly Bell(n) of them."""
    if n > ENUM_GUARD:
        raise ValueError(f"enumeration guarded at n <= {ENUM_GUARD}, got {n}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        yield Partition.from_blocks(0, [])
        return
    rgs = [0] * n

    def rec(i: int, top: int):
        if i == n:
            blocks: dict[int, list[int]] = {}
            for v, b in enumerate(rgs):
                blocks.setdefault(b, []).append(v + 1)
            yield Partition.from_blocks(n, [blocks[b] for b in sorted(blocks)])
            return
        for b in range(top + 2):
            rgs[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(0, -1)


def enum_filtered(n: int, k: int, m: int | None = None) -> list[Partition]:
    """k-noncrossing partitions of [n], optionally also m-regular."""
    out = []
    for p in enum_partitions(n):
        if not is_k_noncrossing(p, k):
            continue
        if m is not None and not is_m_regular(p, m):
            continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# one step rule, one depth-first enumeration, one DP
# ---------------------------------------------------------------------------

DP_GUARD = 512
ORACLE_CACHE_KINDS = 8


def _step_rule(k: int, kind: str, loop_free: bool, confine: str):
    """The oracle's one step rule: a function of (point, s, top) that lists
    (step, q, top') for every legal s-th step (1-based) from point, the
    step that does nothing first, then rows 1..k-1.  A step adds at the
    add positions of step_class and removes elsewhere, and q stays in the
    chamber ("W") or the orthant ("Q").  top says that the last step added
    to row 1: a loop-free braid walk may not remove from row 1 next."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if confine not in ("W", "Q"):
        raise ValueError(f"confine must be 'W' or 'Q', got {confine!r}")
    ok = in_chamber if confine == "W" else in_orthant
    track = loop_free and kind == BRAID_WALK
    delta = {s % 2: 1 if step_class(s, kind) == "add" else -1 for s in (1, 2)}

    def legal(p, s: int, top: bool) -> list:
        d = delta[s % 2]
        out = [(0, p, False)]
        for i in range(k - 1):
            q = p[:i] + (p[i] + d,) + p[i + 1:]
            if ok(q) and not (top and d < 0 and i == 0):
                out.append(((i + 1) * d, q, track and d > 0 and i == 0))
        return out

    return legal


def _walks(k: int, s: int, kind: str, loop_free: bool, confine: str,
           end=None):
    """(steps, endpoint) for every confined walk of length s from the start
    point, depth first in step-rule order.  With end, a branch is cut once
    the adds or removes still to come cannot close its distance to end, so
    exactly the walks to end come out."""
    if s < 0:
        raise ValueError(f"walk length must be >= 0, got {s}")
    if end is not None and len(end) != k - 1:
        raise ValueError(f"end point {end} does not have k-1 = {k - 1} coordinates")
    rule = _step_rule(k, kind, loop_free, confine)
    adds = [sum(step_class(t, kind) == "add" for t in range(pos + 1, s + 1))
            for pos in range(s + 1)]

    def rec(pos: int, p, top: bool, steps: tuple):
        if end is not None:
            up = sum(max(b - a, 0) for a, b in zip(p, end))
            down = sum(max(a - b, 0) for a, b in zip(p, end))
            if up > adds[pos] or down > s - pos - adds[pos]:
                return
        if pos == s:
            yield steps, p
            return
        for step, q, new_top in rule(p, pos + 1, top):
            yield from rec(pos + 1, q, new_top, steps + (step,))

    yield from rec(0, start_point(k), False, ())


@lru_cache(maxsize=ORACLE_CACHE_KINDS)
def _dp_cache(k: int, kind: str, loop_free: bool, confine: str) -> list:
    """The slices _dp has made for these arguments, for the last
    ORACLE_CACHE_KINDS argument sets used."""
    return [{(start_point(k), False): 1}]


def _dp(k: int, kind: str, loop_free: bool, confine: str, upto: int) -> list:
    """The oracle's one DP: slice s maps (point, top) to the number of
    confined walks of length s from the start point that end there, top
    as in _step_rule; grown to hold lengths 0..upto at least.  Chamber
    walks are guarded at DP_GUARD steps."""
    if upto < 0:
        raise ValueError(f"walk length must be >= 0, got {upto}")
    rule = _step_rule(k, kind, loop_free, confine)
    if confine == "W" and upto > DP_GUARD:
        raise TableLimitError(f"oracle guarded at length <= {DP_GUARD}")
    slices = _dp_cache(k, kind, loop_free, confine)
    while len(slices) <= upto:
        s = len(slices)
        cur: dict = {}
        for (p, top), val in slices[-1].items():
            for _, q, new_top in rule(p, s, top):
                cur[q, new_top] = cur.get((q, new_top), 0) + val
        slices.append(cur)
    return slices


def _by_point(found: dict) -> dict:
    """A slice of _dp summed over top."""
    merged = dict.fromkeys((v for v, _ in found), 0)
    for (v, _), c in found.items():
        merged[v] += c
    return merged


def brute_walk_profile(
    k: int,
    s: int,
    kind: str = PARTITION_WALK,
    loop_free: bool = False,
    confine: str = "W",
) -> Counter:
    """Endpoint -> count over all confined walks of length s, by depth-first
    enumeration of step sequences."""
    if s > WALK_GUARD:
        raise ValueError(f"walk enumeration guarded at s <= {WALK_GUARD}, got {s}")
    return Counter(q for _, q in _walks(k, s, kind, loop_free, confine))


def brute_walk_count(
    k: int,
    v,
    s: int,
    kind: str = PARTITION_WALK,
    loop_free: bool = False,
    confine: str = "W",
) -> int:
    """Count confined walks from the start point to v, pruning branches
    that can no longer reach v with the adds/removes still available."""
    if s > WALK_GUARD:
        raise ValueError(f"walk enumeration guarded at s <= {WALK_GUARD}, got {s}")
    return sum(1 for _ in _walks(k, s, kind, loop_free, confine, end=v))


def complete_partition_walks(k: int, n: int) -> list[Walk]:
    """Every partition walk of length 2n from the empty shape back to it,
    depth first in step order, by the pruned enumeration of
    brute_walk_count."""
    walks = _walks(k, 2 * n, PARTITION_WALK, False, "W", end=start_point(k))
    return [Walk(PARTITION_WALK, k, steps) for steps, _ in walks]


# ---------------------------------------------------------------------------
# orthant counts and the reflection sum
# ---------------------------------------------------------------------------

class OrthantTable:
    """Counts of orthant-confined partition walks from the start point.

    Slices are plain dicts keyed by coordinate tuple; this table is meant
    for moderate lengths (tests and oracles).
    """

    def __init__(self, k: int, max_len: int, slices: list[dict]):
        self.k = k
        self.max_len = max_len
        self._slices = slices

    def count(self, v: tuple[int, ...], s: int) -> int:
        if len(v) != self.k - 1 or not in_orthant(v):
            raise ValueError(f"point {v} is not in the orthant for k={self.k}")
        if not 0 <= s <= self.max_len:
            raise ValueError(f"length {s} outside table range 0..{self.max_len}")
        return self._slices[s].get(v, 0)

    def slice_items(self, s: int):
        return self._slices[s].items()


def _points_estimate(k: int, b: int, limit: int) -> int:
    """(b + k)^(k-1) // (k-1)!, the state count estimate of a slice whose
    points hold b boxes, or limit + 1 once the quotient is known to reach
    that.  The quotient is the product of the factors (b + k)/j for j < k,
    each above 1, so a partial product that reaches limit + 1 settles it
    and a huge k costs a few factors, not a power of k-digit numbers."""
    num = den = 1
    for j in range(1, k):
        num *= b + k
        den *= j
        if num >= (limit + 1) * den:
            return limit + 1
    return num // den


def build_orthant_table(
    k: int, max_len: int, *, max_entries: int = 80_000_000
) -> OrthantTable:
    """All orthant walk counts up to max_len.  Raises TableLimitError when
    the state count estimate exceeds max_entries: the estimate is summed
    over the lengths until it does, so the refusal costs no more than the
    lengths it takes to get there."""
    est = 0
    for s in range(max_len + 1):
        est += _points_estimate(k, s // 2, max_entries)
        if est > max_entries:
            raise TableLimitError(
                f"orthant table for k={k}, max_len={max_len} needs more than"
                f" {max_entries} entries"
            )
    slices = _dp(k, PARTITION_WALK, False, "Q", max_len)[:max_len + 1]
    return OrthantTable(k, max_len, [_by_point(d) for d in slices])


@lru_cache(maxsize=None)
def signed_permutations(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign, index tuple) for every permutation of the k-1 coordinates."""
    out = []
    for perm in permutations(range(k - 1)):
        inv = sum(
            1
            for a in range(k - 1)
            for b in range(a + 1, k - 1)
            if perm[a] > perm[b]
        )
        out.append((-1 if inv % 2 else 1, perm))
    return tuple(out)


def reflected_count(at: OrthantTable, v: tuple[int, ...], s: int) -> int:
    """Chamber-confined walk count via the signed permutation sum over
    orthant counts.  Requires v in the chamber."""
    if len(v) != at.k - 1 or not in_chamber(v):
        raise ValueError(f"point {v} is not in the chamber for k={at.k}")
    total = 0
    for sign, perm in signed_permutations(at.k):
        total += sign * at.count(tuple(v[i] for i in perm), s)
    if total < 0:
        raise InvariantError(f"negative reflected count at {v}, length {s}")
    return total


# ---------------------------------------------------------------------------
# inclusion-exclusion over loops
# ---------------------------------------------------------------------------

def loop_free_even_count(ct: ChamberTable, v: tuple[int, ...], pairs: int) -> int:
    """Loop-free braid walks of length 2*pairs ending at v, by
    inclusion-exclusion over the number of loop vertices:

        sum_h (-1)^h C(pairs, h) * chamber(v, 2*(pairs-h) + 1)

    Braid walks of length 2m biject with partition walks of length 2m+1,
    and a loop vertex can be spliced into any of the `pairs` vertex slots.
    """
    if pairs < 0:
        raise ValueError(f"pairs must be >= 0, got {pairs}")
    need = 2 * pairs + 1
    if need > ct.max_len:
        raise ValueError(
            f"chamber table of length >= {need} required, have {ct.max_len}"
        )
    total = 0
    for h in range(pairs + 1):
        term = comb(pairs, h) * ct.count(v, 2 * (pairs - h) + 1)
        total += -term if h % 2 else term
    if total < 0:
        raise InvariantError(f"negative loop-free count at {v}, 2*{pairs}")
    return total


def loop_free_odd_count(lt: LoopFreeTable, v: tuple[int, ...], s: int) -> int:
    """One-step recursion for odd lengths: the final odd step adds a box
    (or does nothing), so sum loop-free counts over the possible origins."""
    if s % 2 == 0:
        raise ValueError(f"length must be odd, got {s}")
    origins = _step_rule(lt.k, BRAID_WALK, True, "W")(v, 2, False)
    return sum(lt.count(q, s - 1) for _, q, _ in origins)


# ---------------------------------------------------------------------------
# totals by other routes
# ---------------------------------------------------------------------------

def k3_totals(n_max: int) -> list[int]:
    """The 3-noncrossing partition counts C(0..n_max), from C(0) = C(1) = 1
    by the P-recursive relation of Bousquet-Melou and Xin:

        (n+6)(n+7) C(n+2) = 2(5n^2+32n+42) C(n+1) - 9n(n+3) C(n)

    InvariantError if a step does not divide exactly."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    totals = [1, 1]
    for n in range(n_max - 1):
        rhs = (2 * (5 * n * n + 32 * n + 42) * totals[n + 1]
               - 9 * n * (n + 3) * totals[n])
        quotient, rest = divmod(rhs, (n + 6) * (n + 7))
        if rest:
            raise InvariantError(f"the k=3 recurrence leaves {rest} at n={n + 2}")
        totals.append(quotient)
    return totals[:n_max + 1]


def gap_one_transform(plain: list[int]) -> list[int]:
    """The 2-regular counts R(0..len(plain)-1) from the plain counts
    P(0..) of the same k, by inclusion-exclusion over the n-1 gap-one
    arcs (i, i+1) a partition of [n] may hold:

        R(n) = sum_h (-1)^h C(n-1, h) P(n-h),  R(0) = 1

    Merging i+1 into i along h chosen gap-one arcs leaves a partition of
    [n-h] with the same k-crossings, and every such partition comes back."""
    regular = [1] if plain else []
    for n in range(1, len(plain)):
        total = 0
        for h in range(n):
            term = comb(n - 1, h) * plain[n - h]
            total += -term if h % 2 else term
        regular.append(total)
    return regular


# ---------------------------------------------------------------------------
# the paper's forward transition weights
# ---------------------------------------------------------------------------

class TransitionWeights(Record):
    """Candidate next steps with their exact completion counts."""

    __slots__ = ("steps", "weights", "total")

    def __init__(self, steps: tuple[int, ...], weights: tuple[int, ...],
                 total: int) -> None:
        _set(self, "steps", steps)
        _set(self, "weights", weights)
        _set(self, "total", total)


@lru_cache(maxsize=8)
def _full_table(k: int, walk_len: int, mode: str):
    """A table of every length up to walk_len: the forward
    weights below need completions that the session's half-length table
    does not hold."""
    return (ChamberTable if mode == "plain" else LoopFreeTable).build(k, walk_len)


def _forward(session: SamplerSession, p: tuple[int, ...], i: int,
             pending: int | None) -> tuple[list, TransitionWeights]:
    """The step rule's candidates for step i+1 of the session's walk from
    chamber point p after i steps, and their weights: the completions
    from each candidate's end, read from a full-length table.  A
    loop-free braid walk adds at even i, weighted over both steps of the
    vertex, and removes at odd i after its pending add, never remove(1)
    after add(1)."""
    k, length = session.k, session.walk_len
    if not 0 <= i < length:
        raise ValueError(f"position {i} outside 0..{length - 1}")
    braid = session.mode == "regular"
    if braid and i % 2 == 0 and pending is not None:
        raise ValueError("pending step only applies at odd positions")
    if braid and i % 2 and pending is None:
        raise ValueError("odd positions need the pending odd step")
    table = _full_table(k, length, session.mode)
    rule = _step_rule(k, BRAID_WALK if braid else PARTITION_WALK, braid, "W")
    cands = rule(p, i + 1, pending == 1)
    if braid and i % 2 == 0:
        weights = tuple(sum(table.count(q, length - i - 2)
                            for _, q, _ in rule(mid, i + 2, top))
                        for _, mid, top in cands)
    else:
        weights = tuple(table.count(q, length - i - 1) for _, q, _ in cands)
    total = sum(weights) if braid and i % 2 else table.count(p, length - i)
    steps = tuple(step for step, _, _ in cands)
    return cands, TransitionWeights(steps, weights, total)


def partition_weights(session: SamplerSession, rows: tuple[int, ...],
                      i: int) -> TransitionWeights:
    """Weights for step i+1 of a plain walk from shape `rows` after i steps.

    Candidate weight = completions from the candidate shape with 2n-(i+1)
    steps left; the total equals the completions from `rows` itself.
    """
    if session.mode != "plain":
        raise ValueError("partition_weights needs a plain-mode session")
    return _forward(session, shape_to_point(rows, session.k), i, None)[1]


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
    return _forward(session, shape_to_point(rows, session.k), i, pending)[1]


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
    p = start_point(session.k)
    pending = None
    for i, step in enumerate(walk.steps):
        cands, tw = _forward(session, p, i, pending)
        if step not in tw.steps:
            raise ValueError(f"step {i + 1} of the walk is not a candidate")
        j = tw.steps.index(step)
        if tw.weights[j] == 0:
            return Fraction(0)
        prob *= Fraction(tw.weights[j], tw.total)
        p = cands[j][1]
        pending = step if session.mode == "regular" and i % 2 == 0 else None
    return prob


# ---------------------------------------------------------------------------
# tuple-keyed chamber DP
# ---------------------------------------------------------------------------

def chamber_count(
    k: int,
    v: tuple[int, ...],
    s: int,
    kind: str = PARTITION_WALK,
    loop_free: bool = False,
) -> int:
    """Direct chamber-confined DP count on coordinate tuples.

    For kind="P" this equals the reflected chamber count.  For kind="B" it
    counts braid walks (loop_free excludes vertices that add to and remove
    from row 1), matching the inclusion-exclusion route.  TableLimitError
    past DP_GUARD steps.
    """
    if len(v) != k - 1 or not in_chamber(v):
        raise ValueError(f"point {v} is not in the chamber for k={k}")
    found = _dp(k, kind, loop_free, "W", s)[s]
    return found.get((v, False), 0) + found.get((v, True), 0)


def chamber_slices(k: int, max_len: int, loop_free: bool = False) -> list:
    """{point: count} of the walks from the start point at each length
    0..max_len, by the DP of chamber_count: partition walks, or loop-free
    braid walks when loop_free.  Only points with a walk appear."""
    kind = BRAID_WALK if loop_free else PARTITION_WALK
    return [_by_point(d) for d in _dp(k, kind, loop_free, "W", max_len)[:max_len + 1]]


# ---------------------------------------------------------------------------
# uniformity testing
# ---------------------------------------------------------------------------

class UniverseIndex:
    """Canonical ordering of an enumerated object set with stable positions."""

    def __init__(self, objects):
        self._objects = list(objects)
        self._index = {self._key(obj): i for i, obj in enumerate(self._objects)}
        if len(self._index) != len(self._objects):
            raise ValueError("duplicate objects in universe")

    @staticmethod
    def _key(obj):
        return obj.blocks if isinstance(obj, Partition) else obj

    def __len__(self) -> int:
        return len(self._objects)

    def object_at(self, i: int):
        return self._objects[i]

    def index_of(self, obj) -> int:
        key = self._key(obj)
        if key not in self._index:
            raise KeyError(f"object {key} outside the universe")
        return self._index[key]


class ChiSquareReport(Record):
    __slots__ = ("statistic", "dof", "threshold", "alpha", "passed",
                 "max_rel_deviation")

    def __init__(self, statistic: float, dof: int, threshold: float,
                 alpha: float, passed: bool, max_rel_deviation: float) -> None:
        _set(self, "statistic", statistic)
        _set(self, "dof", dof)
        _set(self, "threshold", threshold)
        _set(self, "alpha", alpha)
        _set(self, "passed", passed)
        _set(self, "max_rel_deviation", max_rel_deviation)


def chi_square_uniformity(samples, universe: UniverseIndex,
                          alpha: float = 0.001) -> ChiSquareReport:
    """Pearson statistic of the sample counts against the uniform law on
    the universe.  A sample outside the universe is a hard failure
    (uniformity is meaningless on the wrong support)."""
    counts = [0] * len(universe)
    n = 0
    for sample in samples:
        counts[universe.index_of(sample)] += 1
        n += 1
    if n == 0:
        raise ValueError("no samples")
    cells = len(universe)
    expected = n / cells
    stat = sum((c - expected) ** 2 for c in counts) / expected
    max_rel = max(abs(c - expected) for c in counts) / expected
    dof = cells - 1
    if dof == 0:
        return ChiSquareReport(0.0, 0, 0.0, alpha, True, max_rel)
    from scipy.stats import chi2

    threshold = float(chi2.isf(alpha, dof))
    return ChiSquareReport(stat, dof, threshold, alpha, stat <= threshold, max_rel)


# ---------------------------------------------------------------------------
# verification report (backs the CLI `verify` command)
# ---------------------------------------------------------------------------

def _check(name: str, params: dict, expected, actual) -> dict:
    return {
        "name": name,
        "params": params,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
    }


def run_verification(k_max: int = 4, n_max: int = 8) -> dict:
    """Cross-check the count engine, bijections and tables against the
    brute-force oracles; returns a JSON-ready report.  ValueError, before
    any work, when the sizes leave nothing to check or exceed ENUM_GUARD."""
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    if not 0 <= n_max <= ENUM_GUARD:
        raise ValueError(f"n_max must be in 0..{ENUM_GUARD}, got {n_max}")
    from .bijection import decode_partition, encode_partition

    checks: list[dict] = []

    for k in range(2, k_max + 1):
        expected = [len(enum_filtered(n, k)) for n in range(n_max + 1)]
        actual = [total_partitions(k, n) for n in range(n_max + 1)]
        checks.append(_check("totals/plain", {"k": k, "n_max": n_max}, expected, actual))
    for k in range(3, k_max + 1):
        expected = [len(enum_filtered(n, k, 2)) for n in range(n_max + 1)]
        actual = [total_regular(k, n) for n in range(n_max + 1)]
        checks.append(_check("totals/regular", {"k": k, "n_max": n_max}, expected, actual))

    # totals past any enumeration: the k = 3 recurrence, the gap-one transform
    if k_max >= 3:
        table = ChamberTable.build(3, 100)
        actual = [total_partitions(3, n, table) for n in range(101)]
        checks.append(_check("totals/k3-recurrence", {"n_max": 100}, k3_totals(100), actual))
    for k in range(3, k_max + 1):
        plain, regular = ChamberTable.build(k, 40), LoopFreeTable.build(k, 40)
        expected = gap_one_transform([total_partitions(k, n, plain) for n in range(41)])
        actual = [total_regular(k, n, regular) for n in range(41)]
        checks.append(_check("totals/gap-one", {"k": k, "n_max": 40}, expected, actual))

    # reflection assembly vs direct chamber DP vs brute enumeration
    for k in range(2, min(k_max, 5) + 1):
        s_cap = 10 if k >= 4 else 12
        table = ChamberTable.build(k, s_cap)
        orthant = build_orthant_table(k, s_cap)
        mismatches = []
        for s in range(s_cap + 1):
            brute = brute_walk_profile(k, s, PARTITION_WALK, False, "W")
            for v, cnt in brute.items():
                if (table.count(v, s) != cnt or chamber_count(k, v, s) != cnt
                        or reflected_count(orthant, v, s) != cnt):
                    mismatches.append([list(v), s])
            stored = dict(table.slice_items(s))
            for v, cnt in stored.items():
                if brute.get(v, 0) != cnt:
                    mismatches.append([list(v), s])
        checks.append(_check("reflection/oracle", {"k": k, "s_max": s_cap}, [], mismatches))

    # loop-free inclusion-exclusion vs brute enumeration
    for k in range(3, min(k_max, 4) + 1):
        pair_cap = 5
        table = ChamberTable.build(k, 2 * pair_cap + 1)
        mismatches = []
        for pairs in range(pair_cap + 1):
            brute = brute_walk_profile(k, 2 * pairs, BRAID_WALK, True, "W")
            points = set(brute) | {v for v, _ in table.slice_items(2 * pairs + 1)}
            for v in points:
                if loop_free_even_count(table, v, pairs) != brute.get(v, 0):
                    mismatches.append([list(v), pairs])
        checks.append(_check("loop-free/inclusion-exclusion", {"k": k, "pair_max": pair_cap}, [], mismatches))

    # bijection round trips and distinctness
    for k in range(2, k_max + 1):
        n_bij = min(n_max, 6)
        universe = enum_filtered(n_bij, k)
        bad = []
        for p in universe:
            walk = encode_partition(p, k)
            if decode_partition(walk) != p:
                bad.append(p.to_text())
        walks = complete_partition_walks(k, n_bij)
        decoded = [decode_partition(w) for w in walks]
        distinct = len({p.blocks for p in decoded})
        ok = (
            not bad
            and len(walks) == len(universe)
            and distinct == len(universe)
        )
        checks.append(
            _check(
                "bijection/round-trip",
                {"k": k, "n": n_bij},
                [len(universe), len(universe), []],
                [len(walks), distinct, bad],
            )
        )

    passed = all(c["pass"] for c in checks)
    return {
        "passed": passed,
        "total": len(checks),
        "failed": sum(not c["pass"] for c in checks),
        "checks": checks,
    }
