"""Benchmark of the `nckp` user session: count, cache build, sample.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout; `nckp` is imported from `src/`.
One round is the session a user runs, one command at a time:

    nckp count       --k K --n N [--regular]
    nckp cache build --k K --n N [--regular] --out F
    nckp sample      --k K --n N [--regular] --count M --seed S --cache F

Rounds repeat while one more still ends within T seconds; every round
repeats the same inputs, so the run's figures are medians over identical
sessions.

--trace 0 runs each command as a child process (closed loop, one client,
one child at a time) and prints the end-to-end metrics.  --trace 1 calls
the same commands in this process through `nckp.cli.main`, once plain and
once with the wrappers of `spans.py` installed, and prints the per-layer
metrics and the tracing overhead.  Every output is checked against
`checks.py` outside the timed region.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Children still running this long after the run began are killed, so a
# hung command cannot keep the run from ending.
RUN_LIMIT_S = 170

# Sizes keep one round near 12 s on a 2-core machine, so a run of 42 s
# holds three rounds.  Every round samples for 3 to 4 s: shorter
# sampling windows made samples_per_s follow second-scale jitter in CPU speed.
# README.md says what each workload stresses.
WORKLOADS = {
    "plain-k3": {"regular": False, "k": 3, "n": 120, "samples": 400},
    "regular-k3": {"regular": True, "k": 3, "n": 52, "samples": 800},
    "plain-k5": {"regular": False, "k": 5, "n": 32, "samples": 900},
}

UNITS = {
    "count_s": "s", "cache_build_s": "s", "cache_bytes": "bytes",
    "setup_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
    "cli.import_s": "s", "cli.format_s": "s",
    "counting.chamber_build_s": "s", "counting.table_build_s": "s",
    "counting.entries": "count", "counting.lookups_per_sample": "count",
    "counting.lookup_s": "s", "store.save_s": "s", "store.load_s": "s",
    "sampler.sample_ms": "ms", "sampler.weights_s": "s",
    "sampler.draw_s": "s", "sampler.bits_per_sample": "bits",
    "sampler.retries_per_sample": "count", "walks.calls_per_sample": "count",
    "walks.validate_s": "s", "bijection.decode_s": "s",
    "trace.overhead_pct": "%",
}


class Expected:
    """What a correct session prints, computed without `nckp`."""

    def __init__(self, wl: dict):
        k, n = wl["k"], wl["n"]
        counts = checks.plain_counts(k, n)
        if wl["regular"]:
            counts = checks.regular_counts(counts)
        self.total = counts[n]
        self.singleton_p = counts[n - 1] / counts[n]
        self.wl = wl
        self.first_sample: list[str] | None = None
        self.first_problems: list[str] = []

    def problems(self, command: str, lines: list[str]) -> list[str]:
        if command == "count":
            if lines != [str(self.total)]:
                return [f"count printed {lines[:1]}, expected {self.total}"]
            return []
        # Sample lines repeat for a fixed seed: check them once, and give
        # a repeat the first verdict, so every round fails alike.
        if lines == self.first_sample:
            return self.first_problems
        wl = self.wl
        found = checks.sample_problems(lines, wl["k"], wl["n"], wl["regular"],
                                       wl["samples"], self.singleton_p)
        if self.first_sample is None:
            self.first_sample, self.first_problems = lines, found
        else:
            found.append("sample stream differs from the first round's")
        return found


def session_argv(wl: dict, seed: int, cache: Path) -> list[tuple[str, list[str]]]:
    base = ["--k", str(wl["k"]), "--n", str(wl["n"])]
    if wl["regular"]:
        base.append("--regular")
    return [
        ("count", ["count", *base]),
        ("cache", ["cache", "build", *base, "--out", str(cache)]),
        ("sample", ["sample", *base, "--count", str(wl["samples"]),
                    "--seed", str(seed), "--cache", str(cache)]),
    ]


def child_env() -> dict:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one command to its end; time its launch and each output line,
    and read its peak resident set from the kernel's accounting."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    lines: list[str] = []
    times: list[float] = []
    try:
        for raw in proc.stdout:
            times.append(time.perf_counter() - start)
            lines.append(raw.decode("ascii", "replace").rstrip("\n"))
    except BaseException:  # interrupted or terminated: end the child first
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    end = time.perf_counter()
    return {"rc": proc.returncode, "wall": end - start, "lines": lines,
            "times": times,
            "rss_mb": usage.ru_maxrss / 1024}


def session_failures(results: dict, cache_bytes: int, expected: Expected) -> list[str]:
    """One message per problem, each prefixed by the command it concerns."""
    failures = []
    for command, res in results.items():
        if res["rc"] != 0:
            failures.append(f"{command}: exit status {res['rc']}")
        elif command == "cache" and cache_bytes == 0:
            failures.append("cache: no cache file written")
        elif command != "cache":
            failures += [f"{command}: {p}" for p in expected.problems(command, res["lines"])]
    return failures


def cache_size(cache: Path) -> int:
    return cache.stat().st_size if cache.exists() else 0


def untraced_round(wl: dict, seed: int, cache: Path, env: dict, deadline: float,
                   expected: Expected) -> tuple[dict, list[str]]:
    cache.unlink(missing_ok=True)
    results = {}
    for command, argv in session_argv(wl, seed, cache):
        results[command] = run_child(["-m", "nckp.cli", *argv], env, deadline)
    cache_bytes = cache_size(cache)
    failures = session_failures(results, cache_bytes, expected)
    metrics = {}
    sample = results["sample"]
    # A round whose commands all ran is timed even when a check failed.
    if all(r["rc"] == 0 for r in results.values()) and len(sample["lines"]) > 1:
        metrics = {
            "count_s": results["count"]["wall"],
            "cache_build_s": results["cache"]["wall"],
            "cache_bytes": cache_bytes,
            "setup_s": sample["times"][0],
            "peak_rss_mb": max(r["rss_mb"] for r in results.values()),
            # samples_per_s is pooled over the run's rounds, see main()
            "sampling": {"lines": len(sample["lines"]) - 1,
                         "seconds": sample["times"][-1] - sample["times"][0]},
        }
    return metrics, failures


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

WALK_FNS = ("shape_to_point", "legal_steps", "apply_step", "validate_walk")
DECODE_FNS = ("decode_partition", "decode_braid", "braid_to_partition")
COUNT_NAMES = ("counting.ChamberTable.count", "counting.LoopFreeTable.count")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from nckp import bijection, cli, counting, diagrams, sampler

    notes = tracer.notes

    def note_entries(args, _):
        notes["entries"] = args[0].entry_count()

    def note_bits(args, _):
        notes["bits"] += args[1]

    def note_draw(args, _):
        notes["draws"] += args[0] > 1

    tracer.patch(cli, "load_tables", "store.load_tables", span=True)
    tracer.patch(cli, "save_tables", "store.save_tables", span=True, after=note_entries)
    tracer.patch(counting.ChamberTable, "build", "counting.ChamberTable.build", span=True)
    tracer.patch(counting.LoopFreeTable, "build", "counting.LoopFreeTable.build", span=True)
    tracer.patch(sampler.SamplerSession, "draw", "sampler.SamplerSession.draw", span=True)
    tracer.patch(sampler, "partition_weights", "sampler.partition_weights")
    tracer.patch(sampler, "regular_weights", "sampler.regular_weights")
    tracer.patch(sampler, "uniform_below", "sampler.uniform_below", after=note_draw)
    tracer.patch(sampler.RandomBits, "block", "sampler.RandomBits.block", after=note_bits)
    for fn in WALK_FNS:
        tracer.patch(sampler, fn, "walks." + fn)
    tracer.patch(bijection, "validate_walk", "walks.validate_walk")
    for fn in DECODE_FNS:
        tracer.patch(sampler, fn, "bijection." + fn, span=True)
    tracer.patch(diagrams.Partition, "to_text", "diagrams.Partition.to_text")


def install_lookups(tracer: Tracer) -> None:
    """Table lookups are traced for the sample command only: the regular
    table build also calls them, and that is build time, not lookup time."""
    from nckp import counting

    tracer.patch(counting.ChamberTable, "count", COUNT_NAMES[0])
    tracer.patch(counting.LoopFreeTable, "count", COUNT_NAMES[1])


def inprocess_session(wl: dict, seed: int, cache: Path, expected: Expected,
                      tracer: Tracer | None) -> tuple[float, list[str]]:
    from nckp.cli import main

    cache.unlink(missing_ok=True)
    results = {}
    start = time.perf_counter()
    if tracer is not None:
        install(tracer)
    try:
        for command, argv in session_argv(wl, seed, cache):
            if tracer is not None and command == "sample":
                install_lookups(tracer)
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
            except Exception:  # a child process would exit with status 1
                traceback.print_exc()
                rc = 1
            results[command] = {"rc": rc, "lines": buf.getvalue().splitlines()}
    finally:
        if tracer is not None:
            tracer.restore()
    wall = time.perf_counter() - start
    return wall, session_failures(results, cache_size(cache), expected)


def import_seconds(env: dict, deadline: float) -> float:
    """Time to import nckp.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import nckp.cli; "
            "print(time.perf_counter() - t)")
    res = run_child(["-c", code], env, deadline)
    if res["rc"] != 0:
        raise RuntimeError("importing nckp.cli failed")
    return float(res["lines"][-1])


def layer_metrics(wl: dict, tracers: list[Tracer], imports: list[float],
                  rounds: list[dict]) -> dict:
    med = statistics.median
    per = wl["samples"]
    t0 = tracers[0]
    top_build = "counting.LoopFreeTable.build" if wl["regular"] else "counting.ChamberTable.build"
    return {
        "cli.import_s": med(imports),
        "cli.format_s": med(t.total("diagrams.Partition.to_text") for t in tracers),
        "counting.chamber_build_s": med(
            d for t in tracers for d in t.durations["counting.ChamberTable.build"]),
        "counting.table_build_s": med(d for t in tracers for d in t.durations[top_build]),
        "counting.entries": t0.notes["entries"],
        "counting.lookups_per_sample": t0.calls(*COUNT_NAMES) / per,
        "counting.lookup_s": med(t.total(*COUNT_NAMES) for t in tracers),
        "store.save_s": med(t.total("store.save_tables") for t in tracers),
        "store.load_s": med(t.total("store.load_tables") for t in tracers),
        "sampler.sample_ms": 1000 * med(
            d for t in tracers for d in t.durations["sampler.SamplerSession.draw"]),
        "sampler.weights_s": med(
            t.self_time("sampler.partition_weights", "sampler.regular_weights")
            for t in tracers),
        "sampler.draw_s": med(t.total("sampler.uniform_below") for t in tracers),
        "sampler.bits_per_sample": t0.notes["bits"] / per,
        "sampler.retries_per_sample":
            (t0.calls("sampler.RandomBits.block") - t0.notes["draws"]) / per,
        "walks.calls_per_sample": t0.calls(*("walks." + f for f in WALK_FNS)) / per,
        "walks.validate_s": med(t.total(*("walks." + f for f in WALK_FNS)) for t in tracers),
        "bijection.decode_s": med(
            t.total(*("bijection." + f for f in DECODE_FNS)) for t in tracers),
        "trace.overhead_pct": 100 * med(r["traced_s"] / r["plain_s"] - 1 for r in rounds),
    }


def write_trace(path: Path, workload: str, seed: int, tracers: list[Tracer],
                origin: float) -> None:
    sessions = []
    for t in tracers:
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                 for s in t.spans]
        stats = {name: {"calls": c, "total_s": tot, "self_s": slf}
                 for name, (c, tot, slf) in t.stats.items()}
        sessions.append({"session": t.session, "stats": stats, "spans": spans})
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "sessions": sessions}))


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    # On SIGTERM unwind like on an exception, so the running child is
    # killed and waited for and the cache file is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "nckp" / "cli.py").is_file():
        print(f"run.py: no nckp sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    origin = time.perf_counter()
    deadline = origin + RUN_LIMIT_S
    # Fails fast when nckp cannot be imported, and leaves compiled modules
    # behind so no timed command pays for byte-compiling.
    if run_child(["-c", "import nckp.cli"], env, deadline)["rc"] != 0:
        print("run.py: importing nckp.cli failed", file=sys.stderr)
        return 3
    if args.trace:
        sys.path.insert(0, str(SRC))
        import nckp.cli  # noqa: F401  (kept out of every timed session)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cache = OUT / f"cache-{tag}-{os.getpid()}.tab"
    expected = Expected(wl)
    sessions = 0
    failed_ops = 0
    failures: list[str] = []
    rounds: list[dict] = []
    tracers: list[Tracer] = []
    imports: list[float] = []

    def record(failed: list[str]) -> None:
        nonlocal sessions, failed_ops
        sessions += 1
        failed_ops += len({f.split(":")[0] for f in failed})
        failures.extend(failed)

    start = time.perf_counter()
    longest = 0.0
    try:
        # Whole rounds only, and the run stays within --seconds: another
        # round starts only if one as long as the longest so far still fits.
        while not rounds or time.perf_counter() - start + longest <= args.seconds:
            round_start = time.perf_counter()
            if not args.trace:
                metrics, failed = untraced_round(wl, args.seed, cache, env, deadline,
                                                 expected)
                record(failed)
                rounds.append(metrics)
            else:
                imports.append(import_seconds(env, deadline))
                # Alternate which session goes first, so neither always pays
                # for warming this process's heap.
                walls = {}
                for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
                    tracer = Tracer(session=len(tracers)) if traced else None
                    walls[traced], failed = inprocess_session(
                        wl, args.seed, cache, expected, tracer)
                    record(failed)
                    if traced:
                        tracers.append(tracer)
                rounds.append({"plain_s": walls[False], "traced_s": walls[True]})
            longest = max(longest, time.perf_counter() - round_start)
    finally:
        cache.unlink(missing_ok=True)

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    # A command that exits non-zero has failed; one whose output fails a
    # check has failed and makes the run incorrect.
    crashed = [f for f in failures if "exit status" in f]
    if args.trace:
        if crashed:
            print("run.py: a traced session did not complete", file=sys.stderr)
            return 1
        write_trace(OUT / f"trace-{tag}.json", args.workload, args.seed, tracers, origin)
        values = layer_metrics(wl, tracers, imports, rounds)
    else:
        measured = [r for r in rounds if r]
        if not measured:
            print("run.py: no round completed", file=sys.stderr)
            return 1
        values = {name: statistics.median(r[name] for r in measured)
                  for name in measured[0] if name != "sampling"}
        # Sample lines after the first over the time they took, summed over
        # the rounds: the host runs a process at one of two speeds for
        # seconds at a time, and a sum averages the two where a median of
        # a few rounds would jump between them.
        values["samples_per_s"] = (sum(r["sampling"]["lines"] for r in measured)
                                   / sum(r["sampling"]["seconds"] for r in measured))
    result = {
        "correct": len(crashed) == len(failures),
        "attempted": 3 * sessions,
        "failed": failed_ops,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(result, rounds=rounds)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
