"""Versioned on-disk cache for count tables: a manifest, not a dump.

    nckp-tab 5
    kind omega            (or sigma_star)
    k 3
    max_len 20
    entries 100
    sha256 <hex digest of the table's keys, sizes and count residues>

Kind omega is a ChamberTable (partition walks), sigma_star a LoopFreeTable
(loop-free braid walks).  A sampler needs only the lengths up to the half
length of its walks (counting.half_lengths), so a cache of max_len L
serves every n whose half length is at most L -- n <= L in plain mode,
n <= L + 1 in regular mode.

The file holds no counts.  The chamber DP rebuilds a table faster than
the text of its counts could be parsed back (k=3 on a 2-vCPU machine:
at max_len 240, 0.11-0.16 s against 0.13-0.19 s for int() over the 17 MB
of decimal text alone; at max_len 400, 0.55-0.81 s against 0.83-1.05 s
for 128 MB), and counts read from disk would each have to be checked
before a sampler could trust them.  So load_tables reads the six header
lines, rebuilds the named table with its class's build(), and accepts it
only when its entry count and digest equal the recorded ones.

The digest (_PackedTable.digest) exists to catch a DP that counts
differently from the one that wrote the file.  It covers the table's
points in id order, as the text of their version 5 keys (each point's
coordinates packed counting._coord_bits(k, max_len) bits apiece, the
first highest; digest() is the only place a point is packed), its
slice sizes and each count's residue mod 2**61 - 1, which is hash() of
the count on 64-bit CPython.  A residue
catches any count error that is not a multiple of 2**61 - 1.  It costs
less than the rebuild: 0.06-0.11 s at max_len 240 and 0.29-0.51 s at
max_len 400, where version 4, which hashed every count's full bytes,
took 1.0-1.2 s.  A change of that layout or of what a table holds
changes the version: version 4 hashed the counts' bytes in tiles of
lengths, version 3 also named a horizon, version 2 pinned the digest of
the earlier sorted-key slices and version 1 was a count dump.  A file
that was edited, cut short, written by a DP that counts differently, or
written in another version raises CacheError naming the file; `nckp
cache build` writes a fresh one.
"""

from __future__ import annotations

from .counting import ChamberTable, LoopFreeTable, TableLimitError

MAGIC = "nckp-tab"
VERSION = 5
FIELDS = ("kind", "k", "max_len", "entries", "sha256")
KINDS = {"omega": ChamberTable, "sigma_star": LoopFreeTable}
LINE_MAX = 128  # bytes, newline included; the sha256 line takes 72


class CacheError(ValueError):
    """Malformed, stale or mismatched cache file."""


def save_tables(table, path) -> None:
    """Write the manifest of a ChamberTable or LoopFreeTable to `path`."""
    kind = next((name for name, cls in KINDS.items() if isinstance(table, cls)), None)
    if kind is None:
        raise TypeError(f"cannot save {type(table).__name__}")
    values = (kind, table.k, table.max_len, table.entry_count(), table.digest())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MAGIC} {VERSION}\n")
        fh.writelines(f"{name} {value}\n" for name, value in zip(FIELDS, values))


def _header_line(fh, lineno: int) -> list[str]:
    raw = fh.readline(LINE_MAX)
    if not raw.endswith(b"\n"):
        raise CacheError(f"line {lineno} is cut short or longer than {LINE_MAX} bytes")
    try:
        return raw.decode("ascii").split()
    except UnicodeDecodeError:
        raise CacheError(f"line {lineno} is not ASCII text") from None


def _natural(value: str, name: str) -> int:
    if not value.isdigit():
        raise CacheError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def _read_header(fh) -> dict[str, str]:
    """The value of each field; reads the header and one byte past it."""
    magic = _header_line(fh, 1)
    if len(magic) != 2 or magic[0] != MAGIC:
        raise CacheError(f"bad magic at line 1: {' '.join(magic)!r}")
    if magic[1] != str(VERSION):
        raise CacheError(f"unsupported cache version {magic[1]} (want {VERSION})")
    values = {}
    for lineno, name in enumerate(FIELDS, start=2):
        parts = _header_line(fh, lineno)
        if len(parts) != 2 or parts[0] != name:
            raise CacheError(
                f"expected {name!r} at line {lineno}, got {' '.join(parts)!r}")
        values[name] = parts[1]
    if fh.read(1):
        raise CacheError(f"unexpected data after line {len(FIELDS) + 1}")
    return values


def _rebuild(head: dict[str, str]):
    """The table the header names, built by the DP and checked against it."""
    if head["kind"] not in KINDS:
        raise CacheError(f"unknown table kind {head['kind']!r} at line 2")
    k, max_len, entries = (_natural(head[name], name)
                           for name in ("k", "max_len", "entries"))
    try:
        table = KINDS[head["kind"]].build(k, max_len)
    except (TableLimitError, ValueError) as exc:
        raise CacheError(str(exc)) from None
    if table.entry_count() != entries:
        raise CacheError(f"header says {entries} entries,"
                         f" the rebuilt table has {table.entry_count()}")
    if table.digest() != head["sha256"]:
        raise CacheError("sha256 does not match the rebuilt table")
    return table


def load_tables(path):
    """Rebuild the table the manifest at `path` names; returns a
    ChamberTable or LoopFreeTable, or raises CacheError naming `path`."""
    try:
        with open(path, "rb") as fh:
            head = _read_header(fh)
        return _rebuild(head)
    except CacheError as exc:
        raise CacheError(
            f"cache {path}: {exc}; rebuild it with nckp cache build") from None
