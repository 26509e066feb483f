"""Versioned on-disk cache for count tables.

Plain text, self-describing, byte-order free:

    nckp-tab 1
    kind omega            (or sigma_star)
    k 3
    max_len 20
    horizon none          (or the session walk length)
    entries 315
    <coord_1> ... <coord_{k-1}> <length> <count>
    ...
    end

Kind omega is a ChamberTable (partition walks), sigma_star a LoopFreeTable
(loop-free braid walks).  For omega the horizon is 2n, for sigma_star it is
2(n-1); either way a table with a horizon holds only the states a complete
walk of that length can visit, and `none` marks an unpruned table.  Older
sigma_star files always say `none` and still load.

Counts are decimal strings, one entry per line.  Loading validates the
header and refuses mismatched magic, version, kind, k or lengths.
"""

from __future__ import annotations

from .counting import ChamberTable, LoopFreeTable, _PackedSlice, _coord_bits, _packer

MAGIC = "nckp-tab"
VERSION = 1


class CacheError(ValueError):
    """Malformed, truncated or mismatched cache file."""


def save_tables(table, path) -> None:
    """Write a ChamberTable or LoopFreeTable to `path`."""
    if isinstance(table, ChamberTable):
        kind = "omega"
    elif isinstance(table, LoopFreeTable):
        kind = "sigma_star"
    else:
        raise TypeError(f"cannot save {type(table).__name__}")
    horizon = "none" if table.horizon is None else str(table.horizon)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MAGIC} {VERSION}\n")
        fh.write(f"kind {kind}\n")
        fh.write(f"k {table.k}\n")
        fh.write(f"max_len {table.max_len}\n")
        fh.write(f"horizon {horizon}\n")
        fh.write(f"entries {table.entry_count()}\n")
        for s in range(table.max_len + 1):
            for v, count in table.slice_items(s):
                coords = " ".join(str(x) for x in v)
                fh.write(f"{coords} {s} {count}\n")
        fh.write("end\n")


def _header_line(lines, idx: int, name: str) -> str:
    if idx >= len(lines):
        raise CacheError(f"truncated header: missing {name} (line {idx + 1})")
    line = lines[idx].strip()
    if name and not line.startswith(name + " "):
        raise CacheError(f"expected {name!r} at line {idx + 1}, got {line!r}")
    return line


def load_tables(path):
    """Read a table back; returns a ChamberTable or LoopFreeTable."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    head = _header_line(lines, 0, "")
    parts = head.split()
    if len(parts) != 2 or parts[0] != MAGIC:
        raise CacheError(f"bad magic at line 1: {head!r}")
    if parts[1] != str(VERSION):
        raise CacheError(f"unsupported cache version {parts[1]} (want {VERSION})")
    kind = _header_line(lines, 1, "kind").split()[1]
    if kind not in ("omega", "sigma_star"):
        raise CacheError(f"unknown table kind {kind!r} at line 2")
    try:
        k = int(_header_line(lines, 2, "k").split()[1])
        max_len = int(_header_line(lines, 3, "max_len").split()[1])
        horizon_tok = _header_line(lines, 4, "horizon").split()[1]
        horizon = None if horizon_tok == "none" else int(horizon_tok)
        n_entries = int(_header_line(lines, 5, "entries").split()[1])
    except ValueError as exc:
        raise CacheError(f"malformed header: {exc}") from None
    if horizon is not None and horizon != max_len:
        raise CacheError(f"horizon {horizon} differs from max_len {max_len}")
    slices: list[dict] = [dict() for _ in range(max_len + 1)]
    lineno = 6
    for i in range(n_entries):
        if lineno >= len(lines):
            raise CacheError(f"truncated file: entry {i + 1} missing (line {lineno + 1})")
        fields = lines[lineno].split()
        if len(fields) != k + 1:
            raise CacheError(
                f"entry with {len(fields)} fields, expected {k + 1} (line {lineno + 1})"
            )
        try:
            nums = [int(x) for x in fields]
        except ValueError:
            raise CacheError(f"malformed integer (line {lineno + 1})") from None
        v = tuple(nums[: k - 1])
        s, count = nums[k - 1], nums[k]
        if not 0 <= s <= max_len:
            raise CacheError(f"length {s} out of range (line {lineno + 1})")
        if count < 0:
            raise CacheError(f"negative count (line {lineno + 1})")
        slices[s][v] = count
        lineno += 1
    if lineno >= len(lines) or lines[lineno].strip() != "end":
        raise CacheError(f"truncated file: missing end marker (line {lineno + 1})")
    if kind == "sigma_star":
        if k < 3:
            raise CacheError(f"sigma_star table requires k >= 3, got k={k}")
        return LoopFreeTable(k, max_len, horizon, slices)
    pack, _, _ = _packer(k, _coord_bits(k, max_len))
    packed = [_PackedSlice({pack(v): c for v, c in sl.items()}) for sl in slices]
    return ChamberTable(k, max_len, horizon, packed)
