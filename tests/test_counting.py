import time

import pytest

from nckp.counting import (
    ChamberTable,
    LoopFreeTable,
    TableLimitError,
    total_partitions,
    total_regular,
)
from nckp.oracle import (
    OrthantTable,
    build_orthant_table,
    chamber_count,
    chamber_slices,
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


def test_midpoint_identity_matches_the_oracles():
    """The totals sum f(v, m) * f(v, h) over the midpoints v; they must
    equal the whole-walk counts of the reflection sum and the tuple DP
    (plain), and of the inclusion-exclusion and the tuple DP (regular)."""
    for k in (2, 3, 4, 5):
        start = start_point(k)
        at = build_orthant_table(k, 24)
        table = ChamberTable.build(k, 12)
        for n in range(13):
            expected = chamber_count(k, start, 2 * n)
            assert reflected_count(at, start, 2 * n) == expected, (k, n)
            assert total_partitions(k, n) == expected, (k, n)
            assert total_partitions(k, n, table) == expected, (k, n)
    for k in (3, 4, 5):
        start = start_point(k)
        ct = ChamberTable.build(k, 23)
        table = LoopFreeTable.build(k, 12)
        for n in range(1, 13):
            expected = loop_free_even_count(ct, start, n - 1)
            assert chamber_count(k, start, 2 * (n - 1), "B",
                                 loop_free=True) == expected, (k, n)
            assert total_regular(k, n) == expected, (k, n)
            assert total_regular(k, n, table) == expected, (k, n)


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
        ChamberTable.build(4, 2000)


def test_oversized_table_fails_fast():
    for loop_free in (False, True):
        for k, max_len in ((2, 10**12), (3, 10**12), (10**8, 8), (100, 100),
                           (200, 200)):
            if loop_free and k < 3:
                continue
            start = time.perf_counter()
            with pytest.raises(TableLimitError):
                ChamberTable.build(k, max_len, loop_free=loop_free)
            assert time.perf_counter() - start < 1


def test_size_estimate_is_exact():
    """Under a limit it cannot reach, the estimate is the table's size: the
    k-1 coordinates of each numbered point plus its entry count."""
    from nckp.counting import _estimate_entries

    for k in range(2, 9):
        for loop_free in (False, True):
            if loop_free and k < 3:
                continue
            for max_len in range(0, 24 - 2 * k, 1 + loop_free):
                table = ChamberTable.build(k, max_len, loop_free=loop_free)
                size = (k - 1) * len(table._keys) + table.entry_count()
                assert _estimate_entries(k, max_len, loop_free,
                                         10**9) == size, (k, loop_free, max_len)


def test_count_checks_its_arguments():
    for table in (ChamberTable.build(3, 8), LoopFreeTable.build(3, 8)):
        # more boxes than two steps can add: a zero, not a lookup
        assert table.count((5, 0), 2) == 0
        assert table.count((1, 0), 0) == table.count([1, 0], 0) == 1
        for v in ((0, 1), (1, 1), (2, 1, 0), (1, -1)):
            with pytest.raises(ValueError, match="chamber"):
                table.count(v, 2)
        for s in (-1, 9):
            with pytest.raises(ValueError, match="length"):
                table.count((1, 0), s)
            with pytest.raises(ValueError, match="length"):
                table.slice_items(s)
        # complete walks have even lengths >= 0 whose halves the table holds
        for walk_len in (-13, -2, -1, 3, 7, 18):
            with pytest.raises(ValueError, match="even length"):
                table.midpoint_weights(walk_len)
            with pytest.raises(ValueError, match="even length"):
                table.walk_through(walk_len, table.start_id, 0)
    for walk_len in (-1, 5):
        with pytest.raises(ValueError, match="even"):
            ChamberTable.build(3, walk_len, loop_free=True)


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


def test_chamber_matches_reflection():
    """Every count against the reflection sum over the orthant, and the
    stored support is exactly the points with a positive reflected count."""
    base_len = {2: 16, 3: 16, 4: 14, 5: 12}
    for k, max_len in base_len.items():
        at = build_orthant_table(k, max_len)
        table = ChamberTable.build(k, max_len)
        for s in range(max_len + 1):
            expected = {}
            for v, _ in at.slice_items(s):
                if all(a > b for a, b in zip(v, v[1:])):
                    count = reflected_count(at, v, s)
                    assert table.count(v, s) == count, (k, v, s)
                    if count:
                        expected[v] = count
            assert dict(table.slice_items(s)) == expected, (k, s)


def test_loop_free_matches_inclusion_exclusion():
    walk_len = 12
    for k in (3, 4):
        ct = ChamberTable.build(k, walk_len + 1)
        lt = LoopFreeTable.build(k, walk_len)

        def even(v, s):
            return loop_free_even_count(ct, v, s // 2)

        for s in range(walk_len + 1):
            points = {v for v, _ in ct.slice_items(s + 1)} | {
                v for v, _ in ct.slice_items(s)
            }
            expected = {}
            for v in points:
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


def test_moves_follow_legal_steps():
    """The table's steps out of one point (_steps, which back() builds on)
    are the legal steps of its shape, in the same order, with remove(1)
    left out after add(1)."""
    from nckp.walks import (
        BRAID_WALK, PARTITION_WALK, apply_step, legal_steps, point_to_shape,
        shape_to_point,
    )

    for k in (2, 3, 4, 5):
        tables = [ChamberTable.build(k, 20)]
        if k >= 3:
            tables.append(LoopFreeTable.build(k, 20))
        for table in tables:
            kind = BRAID_WALK if table.braid else PARTITION_WALK
            cases = [("odd", False), ("even", False)]
            if table.braid:
                cases.append(("even", True))
            for v, _ in table.slice_items(8):
                rows = point_to_shape(v, k)
                for parity, top in cases:
                    adding = (parity == "odd") == table.braid
                    steps = legal_steps(rows, k, parity, kind,
                                        forbid_loop_after=1 if top else None)
                    moves = table._steps(table.point_id(v), adding, top)
                    assert [(st, table.point(q)) for st, q in moves] == [
                        (st, shape_to_point(apply_step(rows, st), k))
                        for st in steps
                    ], (k, v, parity, top)
                    for _, q in moves:
                        assert table.lookup(q, 9) == table.count(table.point(q), 9)


def test_lookup_equals_count_everywhere():
    """Every id at every length reads the count of the oracle's
    tuple-keyed DP, through lookup() and through count()."""
    for table in (ChamberTable.build(3, 21), ChamberTable.build(5, 11),
                  LoopFreeTable.build(3, 18), LoopFreeTable.build(4, 12)):
        slices = chamber_slices(table.k, table.max_len, table.braid)
        for i in range(len(table._keys)):
            v = table.point(i)
            for s in range(table.max_len + 1):
                expected = slices[s].get(v, 0)
                assert table.lookup(i, s) == expected, (table.k, i, s)
                assert table.count(v, s) == expected


def test_sizes_and_first_lengths_follow_the_box_bound():
    """Length s holds the ids of at most _box_bound(s) boxes, and an id of
    b boxes is first held at length max(0, 2b - braid)."""
    for k in (2, 3, 4, 5, 6):
        for loop_free in (False, True):
            if loop_free and k < 3:
                continue
            max_len = 14 if k < 6 else 10
            table = ChamberTable.build(k, max_len, loop_free=loop_free)
            base = sum(start_point(k))
            boxes = [sum(table.point(i)) - base for i in range(len(table._keys))]
            assert table._sizes == [
                sum(b <= (s + loop_free) // 2 for b in boxes)
                for s in range(max_len + 1)], (k, loop_free)
            assert table._first == [max(0, 2 * b - loop_free) for b in boxes]


def test_constructor_refuses_slices_off_the_prefix_rule():
    """Too few slices, too many, or a slice one id too long or too short:
    both kinds raise ValueError, under python -O too, so no assert does it."""
    import os
    import subprocess
    import sys

    script = """
from nckp.counting import ChamberTable, LoopFreeTable

for table in (ChamberTable.build(3, 12), LoopFreeTable.build(3, 12)):
    slices = [table._column(s) for s in range(table.max_len + 1)]
    for bad in (slices[:-1], slices + [slices[-1]],
                slices[:5] + [slices[5] + [1]] + slices[6:],
                slices[:5] + [slices[5][:-1]] + slices[6:]):
        try:
            type(table)(3, table.max_len, bad)
        except ValueError as exc:
            print(exc)
        else:
            print("accepted")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    chamber, loop_free = ChamberTable.build(3, 12), LoopFreeTable.build(3, 12)
    assert res.stdout.splitlines() == [
        msg for n5 in (chamber._sizes[5], loop_free._sizes[5]) for msg in (
            "12 slices, need 13", "more than 13 slices",
            f"slice 5 holds {n5 + 1} ids, the prefix rule gives {n5}",
            f"slice 5 holds {n5 - 1} ids, the prefix rule gives {n5}")]


def test_back_is_the_moves_of_a_step_or_vertex():
    """back(i, s), memoised whole and cut near the table's edge, lists the
    moves a draw takes back out of id i at length s: on a chamber table
    the steps onto length s-1 (adds when s is odd), on a loop-free one
    (s even) the braid vertices the steps compose, undo a remove onto
    length s-1, then an add onto length s-2, with no remove(1) after
    add(1).  Each target must be held by the length it lands on."""
    def onto(table, i, t, adding, after_top=False):
        return tuple(m for m in table._steps(i, adding, after_top)
                     if m[1] < table._sizes[t])

    for k, max_len in ((2, 13), (3, 15), (4, 12), (5, 10)):
        table = ChamberTable.build(k, max_len)
        for s in range(1, max_len + 1):
            for i in range(len(table._keys)):
                assert table.back(i, s) == onto(table, i, s - 1, s & 1), (
                    k, i, s)
    for k, max_len in ((3, 14), (4, 12), (5, 10)):
        table = LoopFreeTable.build(k, max_len)
        for s in range(2, max_len + 1, 2):
            for i in range(len(table._keys)):
                assert table.back(i, s) == tuple(
                    ((undo_remove, undo_add), prev)
                    for undo_remove, mid in onto(table, i, s - 1, True)
                    for undo_add, prev in onto(table, mid, s - 2, False,
                                               undo_remove == 1)
                ), (k, i, s)


def test_moves_drop_points_the_slice_cannot_hold():
    table = ChamberTable.build(3, 6)
    start = table.start_id
    # back from length 1 lands on length 0, where no point holds a box, so
    # only the do-nothing step is left; length 2 holds one box
    assert [st for st, _ in table.back(start, 1)] == [0]
    assert [st for st, _ in table.back(start, 3)] == [0, 1]
    # a braid vertex back from length 2 must land on the start point: add(1)
    # then remove(1) would do it, but that vertex is a loop
    table = LoopFreeTable.build(3, 6)
    assert table.back(table.start_id, 2) == (((0, 0), table.start_id),)


def test_point_id_refuses_points_no_slice_holds():
    """A point of the wrong length, one past the numbering and one outside
    the chamber each raise KeyError."""
    table = ChamberTable.build(3, 8)
    for v in ((1,), (30, 0), (2, 2)):
        with pytest.raises(KeyError):
            table.point_id(v)


def _shapes_upto(rows, boxes, widest=None):
    """Every Young shape of at most `rows` rows and `boxes` boxes."""
    yield ()
    if rows == 0:
        return
    for first in range(1, min(boxes, widest or boxes) + 1):
        for rest in _shapes_upto(rows - 1, boxes - first, first):
            yield (first,) + rest


def test_support_is_every_point_up_to_the_box_bound():
    """The dense layout rests on this: at each length the stored points are
    exactly the chamber points with at most _box_bound boxes, each with a
    positive count, numbered as a prefix."""
    from nckp.walks import shape_to_point

    for k in (2, 3, 4, 5, 6):
        for loop_free in (False, True):
            if loop_free and k < 3:
                continue
            max_len = 14 if k < 6 else 10
            table = ChamberTable.build(k, max_len, loop_free=loop_free)
            for s in range(max_len + 1):
                cap = (s + loop_free) // 2
                expected = {shape_to_point(rows, k)
                            for rows in _shapes_upto(k - 1, cap)}
                stored = dict(table.slice_items(s))
                assert set(stored) == expected, (k, loop_free, s)
                assert all(c > 0 for c in stored.values())
                assert sorted(map(table.point_id, stored)) == list(
                    range(len(stored)))


def test_engine_slices_are_the_graded_prefixes():
    """The DP engine yields, at each length s, one count per id below N_s,
    each positive and equal to the oracle's, and no other point has a
    walk of length s in the oracle's DP: the support is the id prefix."""
    from nckp.counting import _box_bound, _grade, _walk_counts

    for k in (2, 3, 4, 5, 6):
        for loop_free in (False, True):
            if loop_free and k < 3:
                continue
            max_len = 14 if k < 6 else 10
            keys, ids, ends, up, down = _grade(k, max_len, loop_free)
            table = ChamberTable.build(k, max_len, loop_free=loop_free)
            assert table._keys == keys == list(ids)
            assert keys == sorted(keys, key=lambda v: (sum(v), v))
            expected = chamber_slices(k, max_len, loop_free)
            counts = _walk_counts(k, max_len, loop_free, ends, up, down)
            for s, (got, want) in enumerate(zip(counts, expected)):
                n = ends[_box_bound(s, loop_free)]
                assert len(got) == n == len(want), (k, loop_free, s)
                assert all(c > 0 for c in got), (k, loop_free, s)
                assert {table.point(i): c for i, c in enumerate(got)} == want
            assert s == max_len


def test_neighbour_arrays_are_the_legal_steps():
    """up[i][d] and down[i][d] are the ids of the points one add or remove
    on coordinate i away from id d, as legal_steps and apply_step make
    them, and the sentinel N where that step is illegal or leaves the
    numbering: every add out of the last box level reads it.  _steps()
    lists the steps in legal_steps' order, with after_top leaving out
    remove(1)."""
    from nckp.counting import _box_bound
    from nckp.walks import (BRAID_WALK, PARTITION_WALK, apply_step,
                            legal_steps, point_to_shape, shape_to_point)

    for k in (2, 3, 4, 5, 6):
        max_len = 12 if k < 6 else 8
        tables = [ChamberTable.build(k, max_len)]
        if k >= 3:
            tables.append(LoopFreeTable.build(k, max_len))
        for table in tables:
            n, bound = len(table._keys), _box_bound(max_len, table.braid)
            kind = BRAID_WALK if table.braid else PARTITION_WALK
            on_last_level = 0
            for d in range(n):
                rows = point_to_shape(table.point(d), k)
                on_last_level += sum(rows) == bound
                for adding, near in ((True, table._up), (False, table._down)):
                    parity = "odd" if adding == table.braid else "even"
                    steps = legal_steps(rows, k, parity, kind)
                    for i in range(k - 1):
                        step = i + 1 if adding else -i - 1
                        after = apply_step(rows, step)
                        if step in steps and sum(after) <= bound:
                            assert table.point(near[i][d]) == shape_to_point(
                                after, k), (k, table.braid, d, step)
                        else:
                            assert near[i][d] == n, (k, table.braid, d, step)
                    if adding and sum(rows) == bound:
                        assert {row[d] for row in near} == {n}
                    for top in (False,) if adding else (False, True):
                        ends = {st: apply_step(rows, st) for st in legal_steps(
                            rows, k, parity, kind, 1 if top else None)}
                        assert table._steps(d, adding, top) == tuple(
                            (st, table.point_id(shape_to_point(end, k)))
                            for st, end in ends.items() if sum(end) <= bound)
            assert on_last_level > 0
