import sys

import pytest

from nckp import counting
from nckp.cli import main
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


def test_odd_loop_free_cache_is_rejected(tmp_path):
    """A loop-free table of odd length, made past build()'s even-length
    rule, writes a manifest that the rebuild refuses."""
    path = tmp_path / "k3r5.tab"
    save_tables(LoopFreeTable(3, 5), path)
    assert "max_len 5" in _lines(path)
    with pytest.raises(CacheError, match="even"):
        load_tables(path)


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
        "nckp-tab 5", "kind sigma_star", "k 3", "max_len 10",
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


def test_version_4_cache_asks_for_a_rebuild(tmp_path, capsys):
    """The manifest version 4 wrote for ChamberTable.build(3, 8), whose
    digest hashed the counts' bytes in tiles of eight lengths."""
    path = tmp_path / "t.tab"
    table = ChamberTable.build(3, 8)
    path.write_text("\n".join([
        "nckp-tab 4", "kind omega", "k 3", "max_len 8",
        f"entries {table.entry_count()}", "sha256 585aee047ee6d603de9289b293e8c"
        "763f8ebbb118416eb7289dd038f583b25cc"]) + "\n")
    with pytest.raises(CacheError, match="unsupported cache version 4 .*"
                       "rebuild it with nckp cache build"):
        load_tables(path)
    code = main(["sample", "--k", "3", "--n", "8", "--count", "1",
                 "--cache", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert str(path) in err and "version 4" in err


P61 = 2**61 - 1


def _v5_digest(keys, slices, order="little"):
    """SHA-256 of the version 5 layout, written out independently of the
    table's storage: the graded keys and the slice sizes as text, then id
    by id its counts at each length that holds it, each reduced mod
    2**61 - 1 with %, as 8 little-endian bytes (`order` swaps them)."""
    import hashlib

    h = hashlib.sha256(repr(keys).encode())
    h.update(repr([len(d) for d in slices]).encode())
    for i, key in enumerate(keys):
        for d in slices:
            if i < len(d):
                h.update((d[key] % P61).to_bytes(8, order))
    return h.hexdigest()


def _v5_key(v, bits):
    """A point as the version 5 text writes it: its coordinates in `bits`
    bits apiece, the first highest."""
    key = 0
    for x in v:
        key = key << bits | x
    return key


def _coord_sum(key, bits):
    """The sum of the coordinates packed in a version 5 key."""
    total, mask = 0, (1 << bits) - 1
    while key:
        total += key & mask
        key >>= bits
    return total


def _dp_slices(table):
    """The table's counts by the oracle's tuple-keyed DP, one {packed
    point: count} dict per length.  The packing is this file's own; it
    shares only the field width with the table."""
    from nckp.oracle import chamber_slices

    bits = counting._coord_bits(table.k, table.max_len)
    return [{_v5_key(v, bits): c for v, c in d.items()}
            for d in chamber_slices(table.k, table.max_len, table.braid)]


def _graded_keys(table, last):
    """The packed points of the last DP slice, by box count, then key."""
    bits = counting._coord_bits(table.k, table.max_len)
    return sorted(last, key=lambda key: (_coord_sum(key, bits), key))


# the last three tables hold counts of 75 to 108 bits, past 2**61 - 1
@pytest.mark.parametrize("cls, k, max_len", [
    (ChamberTable, 2, 21), (ChamberTable, 3, 16), (ChamberTable, 3, 21),
    (ChamberTable, 4, 13), (ChamberTable, 5, 11),
    (LoopFreeTable, 3, 22), (LoopFreeTable, 4, 14),
    (ChamberTable, 3, 80), (ChamberTable, 5, 50), (LoopFreeTable, 4, 64),
])
def test_digest_is_the_version_5_layout(cls, k, max_len):
    table = cls.build(k, max_len)
    slices = _dp_slices(table)
    assert table.digest() == _v5_digest(_graded_keys(table, slices[-1]), slices)


def test_digest_without_hash_residues_is_the_same(monkeypatch):
    """On an interpreter whose hash modulus is not 2**61 - 1 the digest
    reduces each count with %, and must not change."""
    tables = [ChamberTable.build(3, 80), LoopFreeTable.build(4, 64)]
    assert all(max(map(max, t._rows)) > P61 for t in tables)
    digests = [t.digest() for t in tables]
    monkeypatch.setattr(counting, "_HASH_IS_RESIDUE", False)
    assert [t.digest() for t in tables] == digests


def test_digest_swaps_to_little_endian_on_a_big_endian_host(monkeypatch):
    """Flipping the byte-order flag hashes each residue's bytes in the
    other order: the swap that turns a big-endian host's native bytes into
    the little-endian layout."""
    table = ChamberTable.build(3, 80)
    slices = _dp_slices(table)
    keys = _graded_keys(table, slices[-1])
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(counting, "_BIG_ENDIAN", not counting._BIG_ENDIAN)
    assert table.digest() == _v5_digest(keys, slices, other)
