"""Tests of the benchmark's own checkers, against brute force and known
sequences.  Run with `python3 -m pytest perfbench/test_checks.py`."""

from __future__ import annotations

import math
from itertools import combinations

import pytest

import checks

# OEIS A108304: partitions of [n] with no 3-crossing.
A108304 = [1, 1, 2, 5, 15, 52, 202, 859, 3930, 19095]
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def has_k_crossing_brute(arcs, k: int) -> bool:
    """Subset brute force, the reference for checks.has_k_crossing."""
    for sub in combinations(sorted(arcs), k):
        lefts = [i for i, _ in sub]
        rights = [j for _, j in sub]
        if all(x < y for x, y in zip(rights, rights[1:])) and lefts[-1] < rights[0]:
            return True
    return False


def set_partitions(n: int):
    """Every partition of [n]: each element joins an earlier block or starts one."""
    if n == 0:
        yield []
        return

    def rec(i, blocks):
        if i > n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def brute_counts(k: int, n_max: int, regular: bool) -> list[int]:
    out = []
    for n in range(n_max + 1):
        total = 0
        for blocks in set_partitions(n):
            arcs = checks.arcs_of(blocks)
            if has_k_crossing_brute(arcs, k):
                continue
            if regular and any(j == i + 1 for i, j in arcs):
                continue
            total += 1
        out.append(total)
    return out


def test_enumerator_gives_bell_numbers():
    assert [sum(1 for _ in set_partitions(n)) for n in range(10)] == BELL


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_counts_match_brute_force(k):
    plain = brute_counts(k, 9, regular=False)
    assert checks.chamber_walk_counts(k, 9) == plain
    assert checks.plain_counts(k, 9) == plain
    if k == 3:
        assert checks.noncrossing3_counts(9) == plain
    if k >= 3:
        assert checks.regular_counts(plain)[1:] == brute_counts(k, 9, regular=True)[1:]


def test_known_sequences():
    assert checks.noncrossing3_counts(9) == A108304
    assert checks.chamber_walk_counts(3, 9) == A108304
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(15)]
    assert checks.chamber_walk_counts(2, 14) == catalan
    for k in (3, 4, 5):
        # a k-crossing needs 2k points, so for n < 2k every partition counts
        counts = checks.plain_counts(k, 9)
        assert all(counts[n] == BELL[n] for n in range(min(2 * k, 10)))


def test_recurrence_agrees_with_walk_count_far_out():
    assert checks.noncrossing3_counts(60) == checks.chamber_walk_counts(3, 60)


@pytest.mark.parametrize("arcs, k, expected", [
    ([], 2, False),
    ([(1, 3), (2, 4)], 2, True),
    ([(1, 4), (2, 3)], 2, False),                    # nesting, not crossing
    ([(1, 2), (2, 3)], 2, False),                    # touching at a vertex
    ([(1, 4), (2, 5), (3, 6)], 3, True),
    ([(1, 4), (2, 5), (3, 6)], 4, False),
    ([(1, 5), (2, 4), (3, 6)], 3, False),            # two of three nest
    ([(1, 4), (2, 6), (3, 5)], 3, False),
    ([(1, 5), (2, 6), (3, 7), (4, 8)], 4, True),
    ([(1, 3), (3, 5), (2, 4), (4, 6)], 3, False),    # a chain of 2-crossings
    ([(1, 7), (2, 4), (3, 8), (5, 9), (6, 10)], 3, True),
])
def test_crossing_check_hand_made(arcs, k, expected):
    assert checks.has_k_crossing(arcs, k) is expected
    assert has_k_crossing_brute(arcs, k) is expected


def test_crossing_check_matches_brute_force_exhaustively():
    for n in range(9):
        for blocks in set_partitions(n):
            arcs = checks.arcs_of(blocks)
            for k in (2, 3, 4):
                assert checks.has_k_crossing(arcs, k) == has_k_crossing_brute(arcs, k)


def test_sample_problems():
    good = ["{1}{2,4}{3}", "{1,3}{2}{4}"]
    assert checks.sample_problems(good, 3, 4, False, 2, 0.5) == []
    bad = ["{1,3}{2,4}", "{1,2}{3}{4}", "{1}{2}", "{1,4}{2,5}{3,6}"]
    found = checks.sample_problems(bad, 2, 4, True, 4, 0.5)
    assert any("2-crossing" in p for p in found)
    assert any("gap-one" in p for p in found)
    assert any("do not partition" in p for p in found)
    # the singleton share is 0 against an expected 0.9
    lines = ["{1,2}"] * 50
    assert any("singleton" in p for p in checks.sample_problems(lines, 3, 2, False, 50, 0.9))
