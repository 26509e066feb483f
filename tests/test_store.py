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
    slices = [table._column(s) for s in range(13)]
    copy = ChamberTable(3, 12, slices)
    assert copy.digest() == table.digest()
    for s in (0, 5, 12):
        slices[s][0] += 1
        assert ChamberTable(3, 12, slices).digest() != table.digest()
        slices[s][0] -= 1


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


def _v4_digest(keys, slices):
    """SHA-256 of the version 4 serialisation, written out independently of
    the table's storage: the graded keys as text, then per tile of eight
    lengths the counts interleaved by id (an empty chunk past a length's
    prefix, a 0 as one byte) as big-endian bytes, after their offsets."""
    import hashlib

    h = hashlib.sha256(repr(keys).encode())
    cols = [[d[key].to_bytes(max(1, (d[key].bit_length() + 7) // 8), "big")
             for key in keys[:len(d)]] for d in slices]
    for t in range(0, len(cols), 8):
        tile = cols[t:t + 8]
        tile += [[]] * (8 - len(tile))
        chunks = []
        for i in range(max(map(len, tile))):
            for col in tile:
                chunks.append(col[i] if i < len(col) else b"")
        offsets = [0]
        for chunk in chunks:
            offsets.append(offsets[-1] + len(chunk))
        h.update(repr(offsets).encode())
        h.update(b"".join(chunks))
    return h.hexdigest()


def _dp_slices(table):
    """The table's counts by the oracle's tuple-keyed DP, one {packed
    point: count} dict per length."""
    from nckp.oracle import chamber_slices

    return [{table._pack(v): c for v, c in d.items()}
            for d in chamber_slices(table.k, table.max_len, table.braid)]


def _graded_keys(table, last):
    """The packed points of the last DP slice, by box count, then key."""
    return sorted(last, key=lambda key: (sum(table._unpack(key)), key))


@pytest.mark.parametrize("cls, k, max_len", [
    (ChamberTable, 2, 21), (ChamberTable, 3, 16), (ChamberTable, 3, 21),
    (ChamberTable, 4, 13), (ChamberTable, 5, 11),
    (LoopFreeTable, 3, 22), (LoopFreeTable, 4, 14),
])
def test_digest_is_the_version_4_serialisation(cls, k, max_len):
    table = cls.build(k, max_len)
    slices = _dp_slices(table)
    assert table.digest() == _v4_digest(_graded_keys(table, slices[-1]), slices)
