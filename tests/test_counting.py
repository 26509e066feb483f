import time

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
        for k, max_len in ((3, 10**12), (10**8, 8)):
            start = time.perf_counter()
            with pytest.raises(TableLimitError):
                ChamberTable.build(k, max_len, loop_free=loop_free)
            assert time.perf_counter() - start < 1


def test_count_checks_its_arguments():
    for table in (ChamberTable.build(3, 8), LoopFreeTable.build(3, 8)):
        # more boxes than two steps can add: a zero, not a lookup
        assert table.count((5, 0), 2) == 0
        assert table.count((1, 0), 0) == 1
        for v in ((0, 1), (1, 1), (2, 1, 0), (1, -1)):
            with pytest.raises(ValueError, match="chamber"):
                table.count(v, 2)
        for s in (-1, 9):
            with pytest.raises(ValueError, match="length"):
                table.count((1, 0), s)


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
    """The table's moves out of one point are the legal steps of its shape,
    in the same order, with remove(1) left out after add(1)."""
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
                    moves = table.moves(table.point_id(v), 20, adding, top)
                    assert [(st, table.point(q)) for st, q in moves] == [
                        (st, shape_to_point(apply_step(rows, st), k))
                        for st in steps
                    ], (k, v, parity, top)
                    for _, q in moves:
                        assert table.lookup(q, 9) == table.count(table.point(q), 9)


def _lookups_match(table, slices):
    """lookup(i, s) is the count slice s gives id i inside its prefix, and
    0 outside it, for every id and every length."""
    for s, counts in enumerate(slices):
        for i in range(len(table._keys)):
            inside = i < len(counts)
            expected = counts[table._keys[i]] if inside else 0
            assert table.lookup(i, s) == expected, (s, i)


def test_lookup_equals_count_everywhere():
    from nckp.counting import _walk_slices

    for table in (ChamberTable.build(3, 21), ChamberTable.build(5, 11),
                  LoopFreeTable.build(3, 18), LoopFreeTable.build(4, 12)):
        slices = list(_walk_slices(table.k, table.max_len, table.braid))
        _lookups_match(table, slices)
        for i in range(len(table._keys)):
            for s in range(table.max_len + 1):
                assert table.lookup(i, s) == table.count(table.point(i), s)


def test_lookup_on_prefixes_that_are_not_monotone():
    """Slice 0 doctored to hold ids 0 and 1 while slice 1 holds id 0 only,
    or to hold every id while the next tile of lengths holds fewer: an id
    reads its count where a prefix holds it and a 0 in the gaps."""
    table = ChamberTable.build(3, 17)
    slices = [{table._pack(v): c for v, c in table.slice_items(s)}
              for s in range(18)]
    slices[0] = {table._pack((1, 0)): 0, table._pack((2, 0)): 1}
    doctored = ChamberTable(3, 17, slices)
    assert [len(d) for d in slices[:3]] == [2, 1, 2]
    _lookups_match(doctored, slices)
    assert [doctored.lookup(1, s) for s in range(3)] == [1, 0, 1]
    last = len(table._keys) - 1
    slices[0] = {key: i + 1 for i, key in enumerate(table._keys)}
    doctored = ChamberTable(3, 17, slices)
    assert len(slices[15]) <= last < len(slices[16])
    _lookups_match(doctored, slices)
    assert doctored.lookup(last, 0) == last + 1
    assert doctored.lookup(last, 15) == 0 < doctored.lookup(last, 16)


def test_vertices_are_the_moves_of_a_loop_free_vertex():
    """vertices(i, s), memoised whole and cut near the table's edge, lists
    the braid vertices moves() composes: undo a remove onto slice s-1, then
    an add onto slice s-2, with no remove(1) after add(1).  The last table
    is doctored so that slice 0 holds ids 0 and 1 but slice 1 only id 0:
    vertex (add 1, stay) into the start point then has its origin in
    slice 0 but not its middle point in slice 1, and must be cut."""
    tables = [LoopFreeTable.build(k, max_len)
              for k, max_len in ((3, 14), (4, 12), (5, 10))]
    table = LoopFreeTable.build(3, 8)
    slices = [{table._pack(v): c for v, c in table.slice_items(s)}
              for s in range(9)]
    slices[0] = {table._pack((1, 0)): 1, table._pack((2, 0)): 1}
    slices[1] = {table._pack((1, 0)): 1}
    doctored = LoopFreeTable(3, 8, slices)
    assert doctored.vertices(doctored.start_id, 2) == (((0, 0), 0),)
    tables.append(doctored)
    for table in tables:
        for s in range(2, table.max_len + 1):
            for i in range(len(table._keys)):
                assert table.vertices(i, s) == tuple(
                    ((undo_remove, undo_add), prev)
                    for undo_remove, mid in table.moves(i, s - 1, True)
                    for undo_add, prev in table.moves(mid, s - 2, False,
                                                      undo_remove == 1)
                ), (table.k, i, s)


def test_moves_drop_points_the_slice_cannot_hold():
    table = ChamberTable.build(3, 6)
    start = table.start_id
    # at length 1 no point holds a box, so only the do-nothing step is left
    assert [st for st, _ in table.moves(start, 1, True)] == [0]
    assert [st for st, _ in table.moves(start, 2, True)] == [0, 1]


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


def test_slices_must_be_graded_prefixes():
    table = ChamberTable.build(3, 6)
    slices = [{table._pack(v): c for v, c in table.slice_items(s)}
              for s in range(7)]
    del slices[4][table._pack((1, 0))]
    with pytest.raises(InvariantError, match="length 4"):
        ChamberTable(3, 6, slices)
