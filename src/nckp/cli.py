"""Command-line front end.

    nckp count  --k K --n N [--regular]
    nckp sample --k K --n N --count M [--seed S] [--regular]
                [--format blocks|arcs|json] [--cache PATH]
    nckp cache build --k K --n N [--regular] --out PATH
    nckp verify [--k-max 4] [--n-max 8]
    nckp stats  --k K --n N --samples M [--seed S] [--regular]
                --metric blocks|arcs [--cache PATH]
    nckp render --format svg [--out PATH]

Exit codes: 0 ok, 2 usage or a table too large to build, 3 a cache that
is corrupt, stale (its digest no longer matches the table the DP builds)
or does not fit the command, 4 verification failure.
Sampling streams one partition per line, deterministic for a fixed seed.
Counting, sampling and `cache build` all work on half-length tables: a
complete walk is cut at its midpoint into two walks from the start point,
so `count` keeps only the last DP slices, and a cache built for --n N
holds a table of the half length, which serves every --n up to
N (up to N+1 with --regular, whose walks have even length 2(N-1)).
The sample stream for a seed does not depend on the table that serves it.
Relative --cache paths resolve under $NCKP_CACHE_DIR when it is set.

Each command imports only what it runs: `count` and `cache build` load
just the counting engine and the cache store, and the sampler, the
diagrams and the SVG renderer load inside the commands that use them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .counting import (
    MODES,
    TableLimitError,
    session_table,
    total_partitions,
    total_regular,
)
from .store import CacheError, load_tables, save_tables

USAGE_ERROR = 2
CACHE_MISMATCH = 3
VERIFY_FAILURE = 4


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nckp",
        description="Count and uniformly sample k-noncrossing set partitions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--k", type=int, required=True, help="crossing bound (>= 2)")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="number of vertices")

    p = sub.add_parser("count", help="print the exact count")
    common(p)
    p.add_argument("--regular", action="store_true", help="2-regular partitions only")

    p = sub.add_parser("sample", help="stream uniform samples, one per line")
    common(p)
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="RNG seed >= 0 (default 0)")
    p.add_argument("--regular", action="store_true")
    p.add_argument("--format", choices=["blocks", "arcs", "json"], default="blocks")
    p.add_argument("--cache", help="load preprocessed tables from this file")

    p = sub.add_parser("cache", help="table cache management")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pb = cache_sub.add_parser("build", help="run preprocessing and save tables")
    common(pb)
    pb.add_argument("--regular", action="store_true")
    pb.add_argument("--out", required=True, help="output path")

    p = sub.add_parser("verify", help="run the oracle suite, print a JSON report")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--n-max", type=int, default=8)

    p = sub.add_parser("stats", help="histogram of a sample statistic")
    common(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regular", action="store_true")
    p.add_argument("--metric", choices=["blocks", "arcs"], required=True)
    p.add_argument("--cache", help="load preprocessed tables from this file")

    p = sub.add_parser("render", help="read partitions on stdin, write SVG")
    p.add_argument("--format", choices=["svg"], default="svg")
    p.add_argument("--out", help="output path (default stdout)")
    return top


def _fail(message: str, code: int) -> int:
    print(f"nckp: error: {message}", file=sys.stderr)
    return code


def _check_params(args) -> str | None:
    regular = getattr(args, "regular", False)
    min_k = MODES["regular" if regular else "plain"].min_k
    if getattr(args, "n", 0) < 0:
        return "--n must be >= 0"
    if getattr(args, "k", min_k) < min_k:
        return f"--k must be >= {min_k}" + " with --regular" * regular
    if getattr(args, "seed", 0) < 0:
        return "--seed must be >= 0"
    return None


def _resolve_cache(path: str) -> str:
    base = os.environ.get("NCKP_CACHE_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _session_table(args):
    """The count table of the sample, stats or cache build command: the
    --cache file's, once checked to hold the half length --n needs, or else
    a freshly built one of that length."""
    mode = "regular" if args.regular else "plain"
    if getattr(args, "cache", None) is None:
        return session_table(args.k, args.n, mode)
    table = load_tables(_resolve_cache(args.cache))
    try:
        return session_table(args.k, args.n, mode, table)
    except (TypeError, ValueError) as exc:
        flags = f"--k {args.k} --n {args.n}" + " --regular" * args.regular
        raise CacheError(f"cache {args.cache} does not fit {flags}: {exc}") from None


def _session(args):
    """The seeded SamplerSession of the sample or stats command."""
    from .sampler import SamplerSession

    mode = "regular" if args.regular else "plain"
    return SamplerSession(args.k, args.n, mode, seed=args.seed,
                          table=_session_table(args))


def _formatter(fmt: str):
    """The function that turns a sampled partition into its output line."""
    from .diagrams import Partition

    if fmt == "blocks":
        return Partition.to_text
    if fmt == "arcs":
        return Partition.arcs_text
    import json

    def as_json(p) -> str:
        return json.dumps({"n": p.n, "blocks": [list(b) for b in p.blocks]},
                          separators=(",", ":"))

    return as_json


def _cmd_count(args) -> int:
    if args.regular:
        print(total_regular(args.k, args.n))
    else:
        print(total_partitions(args.k, args.n))
    return 0


def _cmd_sample(args) -> int:
    if args.count < 0:
        return _fail("--count must be >= 0", USAGE_ERROR)
    session = _session(args)
    write, line = sys.stdout.write, _formatter(args.format)
    for _ in range(args.count):
        _, p = session.draw()
        write(line(p) + "\n")
    return 0


def _cmd_cache_build(args) -> int:
    save_tables(_session_table(args), _resolve_cache(args.out))
    return 0


def _cmd_verify(args) -> int:
    import json

    from .oracle import run_verification

    report = run_verification(args.k_max, args.n_max)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else VERIFY_FAILURE


def _cmd_stats(args) -> int:
    if args.samples < 1:
        return _fail("--samples must be >= 1", USAGE_ERROR)
    from collections import Counter

    session = _session(args)
    hist: Counter = Counter()
    for _ in range(args.samples):
        _, p = session.draw()
        hist[len(p.blocks) if args.metric == "blocks" else len(p.arcs)] += 1
    for value in sorted(hist):
        print(f"{value}\t{hist[value]}")
    return 0


def _cmd_render(args) -> int:
    from .diagrams import parse_blocks_text
    from .render import render_svg

    partitions = []
    for lineno, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            partitions.append(parse_blocks_text(line))
        except ValueError as exc:
            return _fail(f"stdin line {lineno}: {exc}", USAGE_ERROR)
    svg = render_svg(partitions)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    else:
        print(svg)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    problem = _check_params(args)
    if problem:
        return _fail(problem, USAGE_ERROR)
    try:
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "cache":
            return _cmd_cache_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "render":
            return _cmd_render(args)
    except CacheError as exc:
        return _fail(str(exc), CACHE_MISMATCH)
    except (ValueError, OSError, TableLimitError) as exc:
        return _fail(str(exc), USAGE_ERROR)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
