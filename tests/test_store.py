import pytest

from nckp.counting import ChamberTable, LoopFreeTable
from nckp.store import CacheError, load_tables, save_tables


def test_chamber_round_trip(tmp_path):
    table = ChamberTable.build(3, 20, horizon=20)
    path = tmp_path / "k3n10.tab"
    save_tables(table, path)
    loaded = load_tables(path)
    assert isinstance(loaded, ChamberTable)
    assert (loaded.k, loaded.max_len, loaded.horizon) == (3, 20, 20)
    for s in range(21):
        assert dict(loaded.slice_items(s)) == dict(table.slice_items(s))


def test_loop_free_round_trip(tmp_path):
    table = LoopFreeTable.build(3, 10)
    path = tmp_path / "k3r.tab"
    save_tables(table, path)
    loaded = load_tables(path)
    assert isinstance(loaded, LoopFreeTable)
    assert (loaded.k, loaded.max_len) == (3, 10)
    for s in range(11):
        assert dict(loaded.slice_items(s)) == dict(table.slice_items(s))


def _lines(path):
    return path.read_text().splitlines()


def test_bad_magic(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 4), path)
    lines = _lines(path)
    lines[0] = "other-tab 1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="magic"):
        load_tables(path)


def test_bad_version(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 4), path)
    lines = _lines(path)
    lines[0] = "nckp-tab 2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="version"):
        load_tables(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 8), path)
    lines = _lines(path)
    path.write_text("\n".join(lines[:-4]) + "\n")
    with pytest.raises(CacheError, match="line"):
        load_tables(path)


def test_missing_end_marker(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 4), path)
    lines = _lines(path)
    assert lines[-1] == "end"
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CacheError, match="end marker"):
        load_tables(path)


def test_malformed_integer(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 4), path)
    lines = _lines(path)
    fields = lines[7].split()
    fields[-1] = "12x4"
    lines[7] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="malformed integer \\(line 8\\)"):
        load_tables(path)


def test_unknown_kind(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 4), path)
    lines = _lines(path)
    lines[1] = "kind fancy"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="kind"):
        load_tables(path)


def test_pruned_loop_free_round_trip_keeps_horizon(tmp_path):
    table = LoopFreeTable.build(3, 10, horizon=10)
    path = tmp_path / "k3r6.tab"
    save_tables(table, path)
    assert _lines(path)[4] == "horizon 10"
    loaded = load_tables(path)
    assert isinstance(loaded, LoopFreeTable)
    assert (loaded.k, loaded.max_len, loaded.horizon) == (3, 10, 10)
    for s in range(11):
        assert dict(loaded.slice_items(s)) == dict(table.slice_items(s))


def test_unpruned_loop_free_cache_loads_without_horizon(tmp_path):
    path = tmp_path / "k3r.tab"
    save_tables(LoopFreeTable.build(3, 8), path)
    assert _lines(path)[4] == "horizon none"
    assert load_tables(path).horizon is None


def test_horizon_must_equal_max_len(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 8, horizon=8), path)
    lines = _lines(path)
    lines[4] = "horizon 6"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="horizon"):
        load_tables(path)
