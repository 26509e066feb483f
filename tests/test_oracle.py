import ast
from pathlib import Path

import pytest

from nckp import oracle
from nckp.diagrams import Partition
from nckp.oracle import (
    UniverseIndex,
    brute_walk_count,
    brute_walk_profile,
    chi_square_uniformity,
    enum_filtered,
    enum_partitions,
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


def test_brute_walk_profile_matches_counts():
    profile = brute_walk_profile(3, 6, "P", confine="Q")
    for v, count in profile.items():
        assert brute_walk_count(3, v, 6, "P", confine="Q") == count


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
