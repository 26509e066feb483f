import pytest

from nckp.counting import ChamberTable, LoopFreeTable
from nckp.store import CacheError, load_tables, save_tables


def test_chamber_round_trip(tmp_path):
    table = ChamberTable.build(3, 20)
    path = tmp_path / "k3n20.tab"
    save_tables(table, path)
    loaded = load_tables(path)
    assert isinstance(loaded, ChamberTable)
    assert (loaded.k, loaded.max_len) == (3, 20)
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
    lines[0] = "nckp-tab 1"
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






def test_unknown_kind(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 4), path)
    lines = _lines(path)
    lines[1] = "kind fancy"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="kind"):
        load_tables(path)


def test_unpruned_loop_free_cache_loads_without_horizon(tmp_path):
    path = tmp_path / "k3r.tab"
    save_tables(LoopFreeTable.build(3, 8), path)
    assert not any(line.startswith("horizon") for line in _lines(path))
    assert isinstance(load_tables(path), LoopFreeTable)


def test_horizon_line_is_rejected(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 8), path)
    lines = _lines(path)
    lines.insert(4, "horizon 8")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="expected 'entries' at line 5"):
        load_tables(path)


def test_loop_free_table_is_stored_packed_in_point_order(tmp_path):
    table = LoopFreeTable.build(4, 12)
    for s in range(13):
        points = [v for v, _ in table.slice_items(s)]
        assert points == sorted(points)
    path = tmp_path / "r4.tab"
    save_tables(table, path)
    loaded = load_tables(path)
    assert loaded.entry_count() == table.entry_count()
    for s in range(13):
        assert list(loaded.slice_items(s)) == list(table.slice_items(s))


def test_manifest_names_the_table_and_holds_no_counts(tmp_path):
    table = LoopFreeTable.build(3, 10)
    path = tmp_path / "r.tab"
    save_tables(table, path)
    assert _lines(path) == [
        "nckp-tab 4", "kind sigma_star", "k 3", "max_len 10",
        f"entries {table.entry_count()}", f"sha256 {table.digest()}",
    ]


def test_rejects_data_after_the_header(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 4), path)
    path.write_text(path.read_text() + "1 0 2 1\n")
    with pytest.raises(CacheError, match="after line 6"):
        load_tables(path)


def test_digest_pins_every_count():
    table = ChamberTable.build(3, 12)
    slices = [{table._pack(v): c for v, c in table.slice_items(s)}
              for s in range(13)]
    copy = ChamberTable(3, 12, slices)
    assert copy.digest() == table.digest()
    for s in (0, 5, 12):
        key = next(iter(slices[s]))
        slices[s][key] += 1
        assert ChamberTable(3, 12, slices).digest() != table.digest()
        slices[s][key] -= 1


def test_version_2_cache_asks_for_a_rebuild(tmp_path):
    path = tmp_path / "t.tab"
    save_tables(ChamberTable.build(3, 8), path)
    lines = _lines(path)
    lines[0] = "nckp-tab 2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="unsupported cache version 2 .*"
                       "rebuild it with nckp cache build"):
        load_tables(path)


def test_version_3_cache_asks_for_a_rebuild(tmp_path):
    """A version 3 manifest, horizon line and all, laid out as the previous
    format wrote it for `nckp cache build --k 3 --n 4`."""
    path = tmp_path / "t.tab"
    table = ChamberTable.build(3, 8)
    path.write_text("\n".join([
        "nckp-tab 3", "kind omega", "k 3", "max_len 8", "horizon 8",
        f"entries {table.entry_count()}", f"sha256 {table.digest()}"]) + "\n")
    with pytest.raises(CacheError, match="unsupported cache version 3 .*"
                       "rebuild it with nckp cache build"):
        load_tables(path)
