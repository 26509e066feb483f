import pytest

from nckp.counting import (
    ChamberTable,
    InvariantError,
    LoopFreeTable,
    TableLimitError,
    total_partitions,
    total_regular,
)
from nckp.oracle import (
    OrthantTable,
    build_orthant_table,
    chamber_count,
    loop_free_even_count,
    loop_free_odd_count,
    reflected_count,
)
from nckp.walks import start_point

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_orthant_examples():
    at = build_orthant_table(3, 3)
    assert at.count((1, 0), 0) == 1
    assert at.count((1, 0), 1) == 1
    assert at.count((0, 0), 1) == 1
    assert at.count((2, 0), 1) == 0
    assert at.count((0, 1), 1) == 0
    assert at.count((1, 0), 3) == 4
    assert at.count((0, 1), 3) == 2
    with pytest.raises(ValueError):
        at.count((1, -1), 1)
    with pytest.raises(ValueError):
        at.count((1, 0), 4)


def test_reflected_examples():
    at = build_orthant_table(3, 5)
    assert reflected_count(at, (1, 0), 3) == 2
    at2 = build_orthant_table(2, 8)
    assert reflected_count(at2, (0,), 8) == 14
    with pytest.raises(ValueError):
        reflected_count(at, (0, 1), 3)


def test_chamber_table_matches_reflected():
    for k in (2, 3, 4):
        at = build_orthant_table(k, 12)
        ct = ChamberTable.build(k, 12)
        for s in range(13):
            for v, count in ct.slice_items(s):
                assert reflected_count(at, v, s) == count
            # reflected zeros are absent from the table
            for v, _ in at.slice_items(s):
                if all(a > b for a, b in zip(v, v[1:])):
                    assert ct.count(v, s) == reflected_count(at, v, s)


def test_chamber_count_examples():
    assert chamber_count(3, (1, 0), 3, "P") == 2
    assert chamber_count(3, (1, 0), 4, "B", loop_free=False) == 5
    assert chamber_count(3, (1, 0), 4, "B", loop_free=True) == 2


def test_walk_walk_count_identity():
    # braid walks of length 2l match partition walks of length 2l+1
    for k in (3, 4):
        ct = ChamberTable.build(k, 13)
        for ell in range(6):
            for v, count in ct.slice_items(2 * ell + 1):
                assert chamber_count(k, v, 2 * ell, "B") == count


def test_loop_free_even_examples():
    ct = ChamberTable.build(3, 7)
    assert loop_free_even_count(ct, (1, 0), 2) == 2
    assert loop_free_even_count(ct, (1, 0), 3) == 5
    assert loop_free_even_count(ct, (1, 0), 0) == 1
    with pytest.raises(ValueError):
        loop_free_even_count(ct, (1, 0), 4)


def test_loop_free_odd_examples():
    lt = LoopFreeTable.build(3, 4)
    assert loop_free_odd_count(lt, (2, 0), 1) == 1
    assert loop_free_odd_count(lt, (1, 0), 1) == 1
    assert loop_free_odd_count(lt, (2, 1), 1) == 0
    with pytest.raises(ValueError):
        loop_free_odd_count(lt, (1, 0), 2)


def test_loop_free_matches_oracle():
    for k in (3, 4):
        ct = ChamberTable.build(k, 13)
        lt = LoopFreeTable.build(k, 12)
        for s in range(13):
            for v, count in lt.slice_items(s):
                assert chamber_count(k, v, s, "B", loop_free=True) == count
            for v, _ in ct.slice_items(s + 1 if s % 2 == 0 else s):
                assert lt.count(v, s) == chamber_count(k, v, s, "B", loop_free=True)


def test_totals_examples():
    assert [total_partitions(3, n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 202]
    assert [total_regular(3, n) for n in range(7)] == [1, 1, 1, 2, 5, 15, 51]
    assert [total_partitions(2, n) for n in range(8)] == CATALAN
    with pytest.raises(ValueError):
        total_regular(2, 4)
    with pytest.raises(ValueError):
        total_partitions(1, 4)
    with pytest.raises(ValueError):
        total_partitions(3, -1)


def test_totals_bell_below_crossing_threshold():
    # no k-crossing fits on fewer than 2k vertices
    for k in (2, 3, 4):
        for n in range(2 * k):
            assert total_partitions(k, n) == BELL[n]
    assert total_partitions(5, 9) == BELL[9]


def test_nonnegative_entries():
    for k in (2, 3, 4, 5):
        ct = ChamberTable.build(k, 10)
        for s in range(11):
            assert all(c > 0 for _, c in ct.slice_items(s))


def test_table_limit_guard():
    with pytest.raises(TableLimitError):
        build_orthant_table(3, 1600)
    with pytest.raises(TableLimitError):
        ChamberTable.build(4, 2000, horizon=2000)


def test_horizon_table_matches_full_on_envelope():
    full = ChamberTable.build(3, 16)
    pruned = ChamberTable.build(3, 16, horizon=16)
    base = sum(start_point(3))
    for s in range(17):
        for v, count in full.slice_items(s):
            if sum(v) - base <= (16 - s) // 2:
                assert pruned.count(v, s) == count


def test_horizon_envelope_violation_raises():
    pruned = ChamberTable.build(3, 8, horizon=8)
    # 4 boxes at length 8 cannot occur in a complete length-8 walk
    with pytest.raises(ValueError):
        pruned.count((5, 0), 8)
    # but a provable zero short-circuits before the envelope check
    assert pruned.count((5, 0), 2) == 0


def test_k4_six_term_reflection_formula():
    # hand-rolled signed formula over the 6 coordinate permutations of
    # (i, j, r); the generic engine must reproduce it entrywise
    at = build_orthant_table(4, 11)
    ct = ChamberTable.build(4, 11)

    def f(a, b, c, ell):
        if min(a, b, c) < 0:
            return 0
        return at.count((a, b, c), 2 * ell + 1)

    for ell in range(5):
        for v, count in ct.slice_items(2 * ell + 1):
            i, j, r = v
            expected = (
                f(i, j, r, ell)
                - f(j, i, r, ell)
                - f(r, j, i, ell)
                - f(i, r, j, ell)
                + f(j, r, i, ell)
                + f(r, i, j, ell)
            )
            assert expected == count


def test_k4_even_length_variant():
    # even lengths expand each signed term over the four add-step origins
    at = build_orthant_table(4, 12)
    ct = ChamberTable.build(4, 12)

    def f(a, b, c, ell):
        if min(a, b, c) < 0:
            return 0
        return at.count((a, b, c), 2 * ell + 1)

    def g(a, b, c, ell):
        return (
            f(a, b, c, ell)
            + f(a - 1, b, c, ell)
            + f(a, b - 1, c, ell)
            + f(a, b, c - 1, ell)
        )

    for ell in range(5):
        for v, count in ct.slice_items(2 * ell + 2):
            i, j, r = v
            expected = (
                g(i, j, r, ell)
                - g(j, i, r, ell)
                - g(r, j, i, ell)
                - g(i, r, j, ell)
                + g(j, r, i, ell)
                + g(r, i, j, ell)
            )
            assert expected == count


def test_k4_loop_free_odd_recurrence():
    # four-term recurrence: odd-length values sum the even-length values
    # over the origins of the final add step, out-of-chamber terms dropped
    lt = LoopFreeTable.build(4, 12)

    def sig(a, b, c, s):
        v = (a, b, c)
        if not (a > b > c >= 0):
            return 0
        return lt.count(v, s)

    for ell in range(1, 7):
        seen = set(dict(lt.slice_items(2 * ell - 1)))
        seen |= set(dict(lt.slice_items(2 * ell - 2)))
        for v in seen:
            i, j, r = v
            expected = (
                sig(i, j, r, 2 * ell - 2)
                + sig(i - 1, j, r, 2 * ell - 2)
                + sig(i, j - 1, r, 2 * ell - 2)
                + sig(i, j, r - 1, 2 * ell - 2)
            )
            assert lt.count(v, 2 * ell - 1) == expected
            assert loop_free_odd_count(lt, v, 2 * ell - 1) == expected


def _envelope(k, s, horizon, braid=False):
    """Most boxes a stored point may hold at length s."""
    return (horizon - s + braid) // 2


def test_pruned_chamber_matches_reflection_on_envelope():
    base_len = {2: 16, 3: 16, 4: 14, 5: 12}
    for k, horizon in base_len.items():
        at = build_orthant_table(k, horizon)
        pruned = ChamberTable.build(k, horizon, horizon=horizon)
        base = sum(start_point(k))
        for s in range(horizon + 1):
            expected = {}
            for v, _ in at.slice_items(s):
                if all(a > b for a, b in zip(v, v[1:])) and (
                    sum(v) - base <= _envelope(k, s, horizon)
                ):
                    count = reflected_count(at, v, s)
                    assert pruned.count(v, s) == count, (k, v, s)
                    if count:
                        expected[v] = count
            assert dict(pruned.slice_items(s)) == expected, (k, s)


def test_pruned_loop_free_matches_inclusion_exclusion_on_envelope():
    walk_len = 12
    for k in (3, 4):
        ct = ChamberTable.build(k, walk_len + 1)
        lt = LoopFreeTable.build(k, walk_len, horizon=walk_len)
        base = sum(start_point(k))

        def even(v, s):
            return loop_free_even_count(ct, v, s // 2)

        for s in range(walk_len + 1):
            points = {v for v, _ in ct.slice_items(s + 1)} | {
                v for v, _ in ct.slice_items(s)
            }
            expected = {}
            for v in points:
                if sum(v) - base > _envelope(k, s, walk_len, braid=True):
                    continue
                if s % 2 == 0:
                    count = even(v, s)
                else:
                    # the last odd step added a box to some row, or nothing
                    count = even(v, s - 1) + sum(
                        even(q, s - 1)
                        for i in range(k - 1)
                        for q in [v[:i] + (v[i] - 1,) + v[i + 1 :]]
                        if all(a > b for a, b in zip(q, q[1:])) and q[-1] >= 0
                    )
                assert lt.count(v, s) == count, (k, v, s)
                if count:
                    expected[v] = count
            assert dict(lt.slice_items(s)) == expected, (k, s)


def test_count_just_outside_envelope_raises():
    horizon = 12
    pruned = ChamberTable.build(3, horizon, horizon=horizon)
    # length 8 keeps at most 2 boxes; (4, 0) has 3 and is reachable in 8 steps
    assert pruned.count((3, 0), 8) > 0
    with pytest.raises(ValueError):
        pruned.count((4, 0), 8)
    lt = LoopFreeTable.build(3, horizon, horizon=horizon)
    # length 9 keeps at most 2 boxes; 3 boxes are reachable in 9 steps
    assert lt.count((3, 0), 9) > 0
    with pytest.raises(ValueError):
        lt.count((4, 0), 9)
    with pytest.raises(ValueError):
        lt.count((3, 1), 9)
    # a provable zero still short-circuits before the envelope check
    assert lt.count((5, 0), 2) == 0
    with pytest.raises(ValueError):
        LoopFreeTable.build(3, horizon, horizon=horizon - 2)
