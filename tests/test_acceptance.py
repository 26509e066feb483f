"""Acceptance suite: one test per criterion, exact tolerances pinned here.

Run `pytest -v -s tests/test_acceptance.py` to get one PASS/FAIL line per
criterion.  The suite is self-contained but heavy (the complexity-shape
criterion preprocesses a k=3, n=800 session); it took 90 s on a 2-vCPU
machine, half of it in that criterion.
"""

import functools
import time
from fractions import Fraction
from functools import lru_cache

from nckp.bijection import (
    braid_to_partition,
    decode_braid,
    decode_partition,
    encode_partition,
)
from nckp.counting import (
    ChamberTable,
    LoopFreeTable,
    total_partitions,
    total_regular,
)
from nckp.diagrams import is_k_noncrossing, is_m_regular, max_crossing
from nckp.oracle import (
    UniverseIndex,
    brute_walk_count,
    brute_walk_profile,
    build_orthant_table,
    chamber_count,
    chi_square_uniformity,
    complete_partition_walks,
    enum_filtered,
    enum_partitions,
    loop_free_even_count,
    loop_free_odd_count,
    reflected_count,
)
from nckp.sampler import SamplerSession, path_probability
from nckp.walks import start_point


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num} {name}: PASS")

        return wrapper

    return deco


@lru_cache(maxsize=None)
def crossing_numbers(n):
    """max crossing size for every partition of [n], keyed by blocks."""
    return {p.blocks: max_crossing(p).max_crossing for p in enum_partitions(n)}


@lru_cache(maxsize=None)
def chamber_table(k, max_len):
    return ChamberTable.build(k, max_len)


@lru_cache(maxsize=None)
def loop_free_table(k, walk_len):
    return LoopFreeTable.build(k, walk_len)


@criterion(1, "counting correctness")
def test_criterion_1_counting():
    started = time.perf_counter()
    for n in range(10):
        by_crossing = crossing_numbers(n)
        regular = {
            p.blocks
            for p in enum_partitions(n)
            if is_m_regular(p, 2)
        }
        for k in (2, 3, 4):
            expected = sum(1 for c in by_crossing.values() if c < k)
            assert total_partitions(k, n, chamber_table(k, 20)) == expected, (k, n)
        for k in (3, 4):
            expected = sum(
                1 for b, c in by_crossing.items() if c < k and b in regular
            )
            lt = loop_free_table(k, 18)
            assert total_regular(k, n, lt) == expected, (k, n)
    assert [total_partitions(3, n, chamber_table(3, 20)) for n in range(7)] == [
        1, 1, 2, 5, 15, 52, 202,
    ]
    assert [total_regular(3, n, loop_free_table(3, 18)) for n in range(1, 7)] == [
        1, 1, 2, 5, 15, 51,
    ]
    assert time.perf_counter() - started <= 300


@criterion(2, "reflection principle")
def test_criterion_2_reflection():
    for k in (2, 3, 4, 5):
        table = chamber_table(k, 16)
        orthant = build_orthant_table(k, 16)
        for s in range(17):
            stored = dict(table.slice_items(s))
            for v, count in stored.items():
                assert chamber_count(k, v, s) == count, (k, v, s)
                assert reflected_count(orthant, v, s) == count, (k, v, s)
            # chamber-confined brute enumeration, all endpoints at once
            if s <= 14:
                assert brute_walk_profile(k, s, "P", confine="W") == stored, (k, s)
        # endpoint-pruned variant, spot endpoints
        assert brute_walk_count(k, start_point(k), 12, "P") == table.count(
            start_point(k), 12
        )


@criterion(3, "inclusion-exclusion for loop-free walks")
def test_criterion_3_inclusion_exclusion():
    for k in (3, 4):
        table = chamber_table(k, 16)
        for pairs in range(8):
            brute = brute_walk_profile(k, 2 * pairs, "B", loop_free=True,
                                       confine="W")
            support = set(brute) | {
                v for v, _ in table.slice_items(2 * pairs + 1)
            }
            for v in support:
                assert loop_free_even_count(table, v, pairs) == brute.get(v, 0), (
                    k, v, pairs,
                )


@criterion(4, "bijection round trips")
def test_criterion_4_bijection():
    for k in (2, 3, 4):
        for n in range(8):
            universe = enum_filtered(n, k)
            for p in universe:
                assert decode_partition(encode_partition(p, k)) == p
            walks = complete_partition_walks(k, n)
            assert len(walks) == chamber_table(k, 20).count(start_point(k), 2 * n)
            decoded = set()
            for w in walks:
                p = decode_partition(w)
                assert encode_partition(p, k) == w
                decoded.add(p.blocks)
            assert len(decoded) == len(walks) == len(universe)


@criterion(5, "regular pipeline validity")
def test_criterion_5_regular_pipeline():
    for k, n in ((3, 30), (4, 20)):
        session = SamplerSession(k, n, "regular", seed=1002)
        violations = 0
        for _ in range(10_000):
            _, p = session.draw()
            if p.n != n or not is_m_regular(p, 2) or not is_k_noncrossing(p, k):
                violations += 1
        assert violations == 0, (k, n, violations)


@criterion(6, "exact uniformity by telescoping")
def test_criterion_6_telescoping():
    for k in (3, 4):
        for n in (5, 10, 20):
            for mode in ("plain", "regular"):
                session = SamplerSession(k, n, mode, seed=31 * k + n)
                total = session.total
                for _ in range(1000):
                    walk, _ = session.draw()
                    assert path_probability(session, walk) * total == Fraction(1)


@criterion(7, "statistical uniformity")
def test_criterion_7_statistical():
    started = time.perf_counter()
    universe = UniverseIndex(enum_filtered(6, 3))
    assert len(universe) == 202
    session = SamplerSession(3, 6, "plain", seed=20_240_817)
    report = chi_square_uniformity(
        (session.draw()[1] for _ in range(202_000)), universe, alpha=0.001
    )
    assert report.passed, report

    regular_universe = UniverseIndex(enum_filtered(6, 3, 2))
    assert len(regular_universe) == 51
    session = SamplerSession(3, 6, "regular", seed=9_090_909)
    report = chi_square_uniformity(
        (session.draw()[1] for _ in range(102_000)), regular_universe, alpha=0.001
    )
    assert report.passed, report
    assert time.perf_counter() - started <= 120


@criterion(8, "complexity shape")
def test_criterion_8_complexity():
    build_started = time.perf_counter()
    table_800 = ChamberTable.build(3, 800)
    build_elapsed = time.perf_counter() - build_started
    assert build_elapsed <= 600, f"n=800 preprocessing took {build_elapsed:.0f}s"

    table_400 = ChamberTable.build(3, 400)

    def mean_draw_seconds(table, n, samples=1000):
        session = SamplerSession(3, n, "plain", seed=606, table=table)
        started = time.perf_counter()
        for _ in range(samples):
            session.draw()
        return (time.perf_counter() - started) / samples

    t400 = mean_draw_seconds(table_400, 400)
    t800 = mean_draw_seconds(table_800, 800)
    ratio = t800 / t400
    print(
        f"  per-sample mean: n=400 {t400 * 1e3:.2f} ms, n=800 {t800 * 1e3:.2f} ms,"
        f" ratio {ratio:.2f} (build {build_elapsed:.0f}s)"
    )
    assert ratio <= 2.5, f"per-sample growth ratio {ratio:.2f} exceeds 2.5"


@criterion(9, "k=4 specialization formulas")
def test_criterion_9_k4_formulas():
    orthant = build_orthant_table(4, 13)
    table = chamber_table(4, 13)

    def f(a, b, c, ell):
        if min(a, b, c) < 0:
            return 0
        return orthant.count((a, b, c), 2 * ell + 1)

    def signed_sum(term):
        def value(i, j, r, ell):
            return (
                term(i, j, r, ell)
                - term(j, i, r, ell)
                - term(r, j, i, ell)
                - term(i, r, j, ell)
                + term(j, r, i, ell)
                + term(r, i, j, ell)
            )

        return value

    odd_formula = signed_sum(f)

    def g(a, b, c, ell):
        return (
            f(a, b, c, ell)
            + f(a - 1, b, c, ell)
            + f(a, b - 1, c, ell)
            + f(a, b, c - 1, ell)
        )

    even_formula = signed_sum(g)

    for ell in range(6):
        for v, count in table.slice_items(2 * ell + 1):
            assert odd_formula(*v, ell) == count, (v, 2 * ell + 1)
        for v, count in table.slice_items(2 * ell + 2):
            assert even_formula(*v, ell) == count, (v, 2 * ell + 2)

    lt = loop_free_table(4, 12)

    def sig(a, b, c, s):
        if not (a > b > c >= 0):
            return 0
        return lt.count((a, b, c), s)

    for ell in range(1, 7):
        points = set(dict(lt.slice_items(2 * ell - 1)))
        points |= set(dict(lt.slice_items(2 * ell - 2)))
        for v in points:
            i, j, r = v
            expected = (
                sig(i, j, r, 2 * ell - 2)
                + sig(i - 1, j, r, 2 * ell - 2)
                + sig(i, j - 1, r, 2 * ell - 2)
                + sig(i, j, r - 1, 2 * ell - 2)
            )
            assert lt.count(v, 2 * ell - 1) == expected
            assert loop_free_odd_count(lt, v, 2 * ell - 1) == expected
