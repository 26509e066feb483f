import ast
import time
from math import factorial
from pathlib import Path

import pytest

from nckp import oracle
from nckp.counting import (
    ChamberTable,
    LoopFreeTable,
    TableLimitError,
    total_partitions,
    total_regular,
)
from nckp.diagrams import Partition
from nckp.oracle import (
    DP_GUARD,
    UniverseIndex,
    brute_walk_count,
    brute_walk_profile,
    build_orthant_table,
    chamber_count,
    chamber_slices,
    chi_square_uniformity,
    complete_partition_walks,
    enum_filtered,
    enum_partitions,
    gap_one_transform,
    k3_totals,
    loop_free_even_count,
    run_verification,
)


def test_enum_partitions_counts():
    assert len(list(enum_partitions(3))) == 5
    assert len(list(enum_partitions(0))) == 1
    assert len(list(enum_partitions(4))) == 15


def test_enum_partitions_order_stable():
    first = [p.blocks for p in enum_partitions(4)]
    second = [p.blocks for p in enum_partitions(4)]
    assert first == second
    assert first[0] == ((1, 2, 3, 4),)  # all-in-one block comes first in RGS order
    assert first[-1] == ((1,), (2,), (3,), (4,))


def test_enum_guard():
    with pytest.raises(ValueError):
        list(enum_partitions(14))


def test_enum_filtered_counts():
    assert len(enum_filtered(6, 3)) == 202
    assert len(enum_filtered(6, 3, 2)) == 51
    assert len(enum_filtered(5, 3, 2)) == 15


def test_brute_walk_examples():
    assert brute_walk_count(3, (1, 0), 3, "P", confine="W") == 2
    assert brute_walk_count(3, (1, 0), 4, "B", loop_free=True, confine="W") == 2
    assert brute_walk_count(3, (0, 0), 1, "P", confine="Q") == 1


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("kind, loop_free, confine", [
    ("P", False, "Q"), ("P", False, "W"), ("B", False, "W"), ("B", True, "W"),
])
def test_brute_walk_profile_matches_counts(k, kind, loop_free, confine):
    """The depth-first enumeration against its pruned form and against the
    DP, on every walk kind: the orthant table, chamber_slices, or
    chamber_count for braid walks with loops."""
    s_max = 10
    if confine == "Q":
        orthant = build_orthant_table(k, s_max)
        expected = [dict(orthant.slice_items(s)) for s in range(s_max + 1)]
    elif kind == "P" or loop_free:
        expected = chamber_slices(k, s_max, loop_free)
    else:  # braid walks with loops have no slice form: check point by point
        expected = None
    for s in range(s_max + 1):
        profile = brute_walk_profile(k, s, kind, loop_free, confine)
        if expected is None:
            assert all(chamber_count(k, v, s, "B") == count
                       for v, count in profile.items())
        else:
            assert profile == expected[s], s
        if s == 6:
            for v, count in profile.items():
                assert brute_walk_count(k, v, s, kind, loop_free, confine) == count


@pytest.mark.parametrize("call", [
    pytest.param(lambda: chamber_count(3, (1, 0), -1), id="chamber_count-length"),
    pytest.param(lambda: chamber_count(3, (1, 0), 2, kind="X"), id="chamber_count-kind"),
    pytest.param(lambda: chamber_slices(3, -1), id="chamber_slices-length"),
    pytest.param(lambda: brute_walk_profile(3, -1), id="profile-length"),
    pytest.param(lambda: brute_walk_profile(3, 2, confine="X"), id="profile-confine"),
    pytest.param(lambda: brute_walk_profile(3, 2, kind="X"), id="profile-kind"),
    pytest.param(lambda: brute_walk_count(3, (1, 0), -1), id="count-length"),
    pytest.param(lambda: brute_walk_count(3, (1,), 3), id="count-end"),
    pytest.param(lambda: complete_partition_walks(3, -1), id="complete-walks-n"),
    pytest.param(lambda: build_orthant_table(3, -1), id="orthant-length"),
    pytest.param(lambda: loop_free_even_count(ChamberTable.build(3, 3), (1, 0), -1),
                 id="loop-free-even-pairs"),
    pytest.param(lambda: list(enum_partitions(-1)), id="enum-n"),
])
def test_bad_oracle_input_is_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_chamber_dp_is_guarded_in_length():
    for call in (lambda: chamber_count(3, (1, 0), DP_GUARD + 1),
                 lambda: chamber_slices(3, DP_GUARD + 1, loop_free=True)):
        with pytest.raises(TableLimitError, match=f"length <= {DP_GUARD}"):
            call()


def test_brute_walk_guard():
    with pytest.raises(ValueError):
        brute_walk_profile(3, 15)
    with pytest.raises(ValueError):
        brute_walk_count(3, (1, 0), 15)


def test_universe_index():
    universe = UniverseIndex(enum_filtered(4, 3))
    assert len(universe) == 15
    p = Partition.from_blocks(4, [(1, 3), (2,), (4,)])
    assert universe.object_at(universe.index_of(p)) == p
    outsider = Partition.from_blocks(5, [(1, 2, 3, 4, 5)])
    with pytest.raises(KeyError):
        universe.index_of(outsider)
    with pytest.raises(ValueError):
        UniverseIndex([p, p])


def test_chi_square_degenerate_universe():
    universe = UniverseIndex([Partition.from_blocks(1, [(1,)])])
    report = chi_square_uniformity(
        [Partition.from_blocks(1, [(1,)])] * 10, universe
    )
    assert report.statistic == 0.0 and report.passed


def test_chi_square_biased_stream_fails():
    objs = enum_filtered(4, 3)
    universe = UniverseIndex(objs)
    samples = objs * 100 + [objs[0]] * 100  # one object doubled
    report = chi_square_uniformity(samples, universe)
    assert not report.passed
    assert report.max_rel_deviation > 0.5


def test_chi_square_uniform_fixture_passes():
    objs = enum_filtered(4, 3)
    universe = UniverseIndex(objs)
    report = chi_square_uniformity(objs * 200, universe)
    assert report.passed and report.statistic == 0.0


def test_chi_square_outside_universe_hard_fails():
    universe = UniverseIndex(enum_filtered(4, 3))
    bad = Partition.from_blocks(6, [(1, 4), (2, 5), (3, 6)])
    with pytest.raises(KeyError):
        chi_square_uniformity([bad], universe)


def test_run_verification_small():
    report = run_verification(k_max=3, n_max=5)
    assert report["passed"]
    assert report["failed"] == 0
    assert all(c["pass"] for c in report["checks"])
    names = {c["name"] for c in report["checks"]}
    assert {"totals/k3-recurrence", "totals/gap-one"} <= names


def test_reflection_check_runs_the_reflection_sum(monkeypatch):
    """reflection/oracle compares the reflected count too: a reflection sum
    one off fails that check and no other."""
    real = oracle.reflected_count
    monkeypatch.setattr(oracle, "reflected_count",
                        lambda at, v, s: real(at, v, s) + 1)
    report = run_verification(k_max=3, n_max=3)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["reflection/oracle"] * 2


def test_oracle_imports_only_public_names_from_the_engine():
    """The oracle cross-checks `counting.py`, so it may share the engine's
    public API but no private helper, whose mistake it would then repeat."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("counting", "nckp.counting")
                for alias in node.names]
    assert imported, "the oracle no longer imports from nckp.counting"
    assert [name for name in imported if name.startswith("_")] == []
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    assert "nckp.counting" not in modules


def _builds_a_neighbour(node) -> bool:
    """node is `p[:i] + (...,) + p[j:]`: a point with one coordinate replaced."""
    def is_slice(n):
        return isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Slice)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and is_slice(node.right) and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add) and is_slice(node.left.left)
            and isinstance(node.left.right, ast.Tuple))


def test_oracle_writes_its_step_rule_once():
    """Every walk reference in the oracle steps through `_step_rule`: it is
    the one definition that builds a neighbour point."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    builders = [top.name for top in tree.body
                if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and any(_builds_a_neighbour(n) for n in ast.walk(top))]
    assert builders == ["_step_rule"]


@pytest.mark.parametrize("k, max_len", [(10**5, 4), (3, 10**12)])
def test_orthant_table_refuses_oversized_requests_fast(k, max_len):
    start = time.perf_counter()
    with pytest.raises(TableLimitError, match="more than 80000000 entries"):
        build_orthant_table(k, max_len)
    assert time.perf_counter() - start < 1


def test_orthant_size_check_refuses_exactly_past_its_estimate():
    for k in (2, 3, 4, 5):
        for max_len in (0, 1, 2, 7, 12):
            est = sum((s // 2 + k) ** (k - 1) // factorial(k - 1)
                      for s in range(max_len + 1))
            assert build_orthant_table(k, max_len, max_entries=est).max_len == max_len
            with pytest.raises(TableLimitError):
                build_orthant_table(k, max_len, max_entries=est - 1)


def test_k3_recurrence_starts_with_the_enumerated_counts():
    assert k3_totals(0) == [1]
    assert k3_totals(9) == [len(enum_filtered(n, 3)) for n in range(10)]
    with pytest.raises(ValueError):
        k3_totals(-1)


def test_k3_totals_follow_the_recurrence_to_400():
    table = ChamberTable.build(3, 400)
    assert [total_partitions(3, n, table) for n in range(401)] == k3_totals(400)


def test_gap_one_transform_of_small_counts():
    assert gap_one_transform([]) == []
    for k in (3, 4):
        plain = [len(enum_filtered(n, k)) for n in range(8)]
        assert gap_one_transform(plain) == [len(enum_filtered(n, k, 2))
                                            for n in range(8)]


@pytest.mark.parametrize("k, n_max", [(3, 400), (4, 40), (5, 40)])
def test_regular_totals_are_the_gap_one_transform(k, n_max):
    if k == 3:
        plain = k3_totals(n_max)
    else:
        table = ChamberTable.build(k, n_max)
        plain = [total_partitions(k, n, table) for n in range(n_max + 1)]
    table = LoopFreeTable.build(k, n_max)
    regular = [total_regular(k, n, table) for n in range(n_max + 1)]
    assert regular == gap_one_transform(plain)
