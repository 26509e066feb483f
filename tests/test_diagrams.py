import random

import pytest

from nckp.diagrams import (
    ArcStructureError,
    Braid,
    Partition,
    blocks_from_arcs,
    is_k_noncrossing,
    is_m_regular,
    max_crossing,
    max_crossing_brute,
    parse_blocks_text,
)
from nckp.oracle import enum_partitions

# the displayed blocks plus the singleton {4} they leave implicit
FIG1_BLOCKS = [
    (2,), (4,), (8,), (11,), (1, 5), (6, 12), (9, 15), (13, 14), (3, 7, 10),
]


def fig1():
    return Partition.from_blocks(15, FIG1_BLOCKS)


def test_fig1_arcs():
    assert fig1().arcs == ((1, 5), (3, 7), (6, 12), (7, 10), (9, 15), (13, 14))


def test_max_crossing_examples():
    assert max_crossing(fig1()).max_crossing == 2
    singles = Partition.from_blocks(5, [(i,) for i in range(1, 6)])
    assert max_crossing(singles).max_crossing == 0
    triple = Partition.from_blocks(6, [(1, 4), (2, 5), (3, 6)])
    report = max_crossing(triple)
    assert report.max_crossing == 3
    assert report.witness == ((1, 4), (2, 5), (3, 6))
    assert max_crossing_brute(triple).max_crossing == 3


def test_witness_is_mutually_crossing():
    report = max_crossing(fig1())
    lefts = [a[0] for a in report.witness]
    rights = [a[1] for a in report.witness]
    assert lefts == sorted(lefts) and rights == sorted(rights)
    assert lefts[-1] < rights[0]


def test_is_k_noncrossing_examples():
    assert is_k_noncrossing(fig1(), 3)
    assert not is_k_noncrossing(Partition.from_blocks(6, [(1, 4), (2, 5), (3, 6)]), 3)
    with pytest.raises(ValueError):
        is_k_noncrossing(fig1(), 1)


def test_small_n_always_noncrossing():
    # a k-crossing needs 2k distinct vertices
    for n in range(6):
        for p in enum_partitions(n):
            assert is_k_noncrossing(p, 3)


def test_is_m_regular_examples():
    assert is_m_regular(Partition.from_blocks(3, [(1, 3), (2,)]), 2)
    assert not is_m_regular(Partition.from_blocks(2, [(1, 2)]), 2)
    assert is_m_regular(Partition.from_blocks(6, [(1, 4), (2, 5), (3, 6)]), 2)
    with pytest.raises(ValueError):
        is_m_regular(fig1(), 0)


def test_one_regular_always_true():
    for n in range(7):
        for p in enum_partitions(n):
            assert is_m_regular(p, 1)


def test_blocks_from_arcs_examples():
    assert blocks_from_arcs(3, [(1, 3)]).blocks == ((1, 3), (2,))
    assert blocks_from_arcs(4, [(1, 2), (2, 4)]).blocks == ((1, 2, 4), (3,))
    assert blocks_from_arcs(15, fig1().arcs) == fig1()


def test_blocks_from_arcs_round_trip_exhaustive():
    for n in range(8):
        for p in enum_partitions(n):
            assert blocks_from_arcs(n, p.arcs) == p


def test_blocks_from_arcs_errors():
    with pytest.raises(ArcStructureError):
        blocks_from_arcs(4, [(1, 2), (1, 3)])
    with pytest.raises(ArcStructureError):
        blocks_from_arcs(4, [(1, 3), (2, 3)])
    with pytest.raises(ArcStructureError):
        blocks_from_arcs(3, [(2, 2)])


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [(1, 2)])
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Partition.from_blocks(2, [(1, 2, 3)])


def test_braid_validation():
    Braid.from_arcs(3, [(1, 1), (2, 3)])
    with pytest.raises(ArcStructureError):
        Braid.from_arcs(3, [(1, 2), (1, 3)])
    with pytest.raises(ArcStructureError):
        Braid.from_arcs(3, [(1, 3), (2, 3)])
    # a loop uses both endpoint roles but other arcs may still touch the vertex
    Braid.from_arcs(3, [(1, 2), (2, 3)])


def test_sweep_equals_brute_exhaustive():
    for n in range(9):
        for p in enum_partitions(n):
            assert max_crossing(p).max_crossing == max_crossing_brute(p).max_crossing


def test_sweep_equals_brute_spot_large():
    rng = random.Random(3)
    for n in (10, 11, 12):
        for _ in range(40):
            labels = [rng.randrange(4) for _ in range(n)]
            blocks: dict[int, list[int]] = {}
            for v, b in enumerate(labels):
                blocks.setdefault(b, []).append(v + 1)
            p = Partition.from_blocks(n, list(blocks.values()))
            assert max_crossing(p).max_crossing == max_crossing_brute(p).max_crossing


def test_text_forms():
    p = parse_blocks_text("{1,5}{2}{3,7,10}{4}{6}{8}{9}")
    assert p.n == 10
    assert p.to_text() == "{1,5}{2}{3,7,10}{4}{6}{8}{9}"
    assert p.arcs_text() == "(1,5) (3,7) (7,10)"
    assert parse_blocks_text(p.to_text()) == p
    empty = parse_blocks_text("")
    assert empty.n == 0 and empty.blocks == ()
    assert empty.to_text() == "" and empty.arcs_text() == ""
    with pytest.raises(ValueError):
        parse_blocks_text("{1,5}{2}")  # elements 3 and 4 missing
