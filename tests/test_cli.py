import json
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from nckp import cli
from nckp.cli import main
from nckp.counting import ChamberTable
from nckp.store import save_tables


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--k", "3", "--n", "6")
    assert code == 0 and out == "202\n"
    code, out, _ = run(capsys, "count", "--k", "3", "--n", "6", "--regular")
    assert code == 0 and out == "51\n"
    code, out, _ = run(capsys, "count", "--k", "2", "--n", "4")
    assert code == 0 and out == "14\n"


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--k", "1", "--n", "3")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "count", "--k", "2", "--n", "3", "--regular")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "count", "--k", "3", "--n", "-1")
    assert code == 2 and "--n" in err


def test_sample_support_and_determinism(capsys):
    argv = ("sample", "--k", "3", "--n", "2", "--count", "4", "--seed", "7")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert set(lines) <= {"{1}{2}", "{1,2}"}
    code, out2, _ = run(capsys, *argv)
    assert out2 == out


def test_sample_formats(capsys):
    code, out, _ = run(
        capsys, "sample", "--k", "3", "--n", "4", "--count", "2",
        "--seed", "1", "--format", "json",
    )
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        assert obj["n"] == 4
        assert sorted(x for b in obj["blocks"] for x in b) == [1, 2, 3, 4]
    code, out, _ = run(
        capsys, "sample", "--k", "3", "--n", "4", "--count", "2",
        "--seed", "1", "--format", "arcs",
    )
    assert code == 0 and len(out.splitlines()) == 2
    # the three formats print the same stream of partitions
    from nckp.diagrams import parse_blocks_text

    lines = {}
    for fmt in ("blocks", "arcs", "json"):
        code, lines[fmt], _ = run(
            capsys, "sample", "--k", "3", "--n", "7", "--count", "6",
            "--seed", "2", "--format", fmt,
        )
        assert code == 0
    for blocks, arcs, obj in zip(*(lines[f].splitlines()
                                   for f in ("blocks", "arcs", "json")),
                                 strict=True):
        p = parse_blocks_text(blocks)
        assert arcs == p.arcs_text()
        assert obj == json.dumps({"n": 7, "blocks": [list(b) for b in p.blocks]},
                                 separators=(",", ":"))


def test_sample_regular_flag(capsys):
    code, out, _ = run(
        capsys, "sample", "--k", "3", "--n", "6", "--count", "20",
        "--seed", "3", "--regular",
    )
    assert code == 0
    from nckp.diagrams import is_m_regular, parse_blocks_text

    for line in out.splitlines():
        assert is_m_regular(parse_blocks_text(line), 2)


def test_sample_cache_equivalence(capsys, tmp_path):
    cache = tmp_path / "c.tab"
    code, _, _ = run(capsys, "cache", "build", "--k", "3", "--n", "8",
                     "--out", str(cache))
    assert code == 0
    argv = ("sample", "--k", "3", "--n", "8", "--count", "5", "--seed", "11")
    code, plain_out, _ = run(capsys, *argv)
    assert code == 0
    code, cached_out, _ = run(capsys, *argv, "--cache", str(cache))
    assert code == 0
    assert cached_out == plain_out


def test_sample_cache_mismatch_exit_code(capsys, tmp_path):
    cache = tmp_path / "c.tab"
    run(capsys, "cache", "build", "--k", "3", "--n", "5", "--out", str(cache))
    code, _, err = run(
        capsys, "sample", "--k", "4", "--n", "5", "--count", "1",
        "--seed", "0", "--cache", str(cache),
    )
    assert code == 3 and "--k" in err
    code, _, err = run(
        capsys, "sample", "--k", "3", "--n", "9", "--count", "1",
        "--seed", "0", "--cache", str(cache),
    )
    assert code == 3
    code, _, err = run(
        capsys, "sample", "--k", "3", "--n", "5", "--count", "1",
        "--seed", "0", "--regular", "--cache", str(cache),
    )
    assert code == 3 and "regular" in err


def test_cache_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NCKP_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "cache", "build", "--k", "3", "--n", "4",
                     "--out", "env.tab")
    assert code == 0
    assert (tmp_path / "env.tab").exists()
    code, out, _ = run(
        capsys, "sample", "--k", "3", "--n", "4", "--count", "2",
        "--seed", "0", "--cache", "env.tab",
    )
    assert code == 0 and len(out.splitlines()) == 2




def test_sample_regular_cache(capsys, tmp_path):
    cache = tmp_path / "r.tab"
    code, _, _ = run(capsys, "cache", "build", "--k", "3", "--n", "7",
                     "--regular", "--out", str(cache))
    assert code == 0
    argv = ("sample", "--k", "3", "--n", "7", "--count", "4", "--seed", "5",
            "--regular")
    code, plain_out, _ = run(capsys, *argv)
    code, cached_out, _ = run(capsys, *argv, "--cache", str(cache))
    assert cached_out == plain_out


def test_stats(capsys):
    code, out, _ = run(capsys, "stats", "--k", "3", "--n", "5", "--samples",
                       "100", "--seed", "4", "--metric", "blocks")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert sum(int(c) for _, c in rows) == 100
    assert all(1 <= int(v) <= 5 for v, _ in rows)
    code, out, _ = run(capsys, "stats", "--k", "3", "--n", "5", "--samples",
                       "50", "--seed", "4", "--metric", "arcs")
    assert sum(int(line.split("\t")[1]) for line in out.splitlines()) == 50


def test_render(capsys, monkeypatch, tmp_path):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO("{1,5}{2}{3,7,10}{4}{6}{8}{9}\n{1,2}\n")
    )
    code, out, _ = run(capsys, "render", "--format", "svg")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    paths = root.findall(".//{http://www.w3.org/2000/svg}path")
    assert len(paths) == 4  # (1,5) (3,7) (7,10) and (1,2)


def test_render_bad_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("{1,5}{2\n"))
    code, _, err = run(capsys, "render")
    assert code == 2 and "line 1" in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--k-max", "3", "--n-max", "4")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["failed"] == 0
    for check in report["checks"]:
        assert {"name", "params", "expected", "actual", "pass"} <= set(check)


@pytest.mark.parametrize("argv, name", [
    (("--n-max", "-1"), "n_max"),
    (("--n-max", "14"), "n_max"),
    (("--k-max", "1"), "k_max"),
])
def test_verify_rejects_sizes_before_any_work(capsys, argv, name):
    """A negative n, an n past the enumeration guard, or a k that leaves
    nothing to check exits 2 at once, printing no report."""
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - started < 5
    assert (code, out) == (2, "")
    assert name in err


def test_usage_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


COUNTING_ENGINE = ["nckp", "nckp.cli", "nckp.counting", "nckp.store"]
NEVER_LOADED = ["scipy", "nckp.oracle", "fractions", "dataclasses", "inspect"]
OPENSSL = ["hashlib", "_hashlib"]  # the digest uses the builtin sha256


@pytest.mark.parametrize("argv, nckp_modules, unloaded", [
    (["count", "--k", "3", "--n", "6"], COUNTING_ENGINE,
     [*OPENSSL, *NEVER_LOADED]),
    (["cache", "build", "--k", "3", "--n", "6", "--out", "{out}"],
     COUNTING_ENGINE, [*OPENSSL, *NEVER_LOADED]),
    (["sample", "--k", "3", "--n", "6", "--count", "2"], None, NEVER_LOADED),
    (["sample", "--k", "3", "--n", "6", "--count", "2", "--cache", "{cache}"],
     None, [*OPENSSL, *NEVER_LOADED]),
    (["stats", "--k", "3", "--n", "6", "--samples", "5", "--metric", "arcs"],
     None, NEVER_LOADED),
], ids=["count", "cache_build", "sample", "sample_cache", "stats"])
def test_command_loads_only_what_it_runs(tmp_path, argv, nckp_modules, unloaded):
    """The modules loaded after a command, in a fresh `python -S`, so that
    no site .pth file preloads anything: count and cache build load only
    the counting engine and the store, the cache digest loads no OpenSSL,
    no command loads the oracles, and the value classes load no
    `dataclasses` (nor the `inspect` it imports)."""
    cache = tmp_path / "k3.tab"
    save_tables(ChamberTable.build(3, 6), cache)
    argv = [a.format(out=tmp_path / "c.tab", cache=cache) for a in argv]
    code = ("import sys\nfrom nckp.cli import main\nrc = main(sys.argv[1:])\n"
            "print(rc, *sorted(sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    rc, *loaded = out.splitlines()[-1].split()
    assert rc == "0"
    if nckp_modules is not None:
        assert [m for m in loaded if m.split(".")[0] == "nckp"] == nckp_modules
    assert [m for m in unloaded if m in loaded] == []


def test_import_cli_leaves_scipy_unloaded():
    code = "import sys, nckp.cli; print('scipy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_cli_leaves_oracle_and_fractions_unloaded():
    code = ("import sys, nckp.cli;"
            " print('nckp.oracle' in sys.modules, 'fractions' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False False"


def test_stats_cache_equivalence(capsys, tmp_path):
    """stats --cache draws the histogram an uncached run prints, and exits
    3 on a cache that does not fit the command."""
    for regular in ((), ("--regular",)):
        cache = tmp_path / f"c{len(regular)}.tab"
        code, _, _ = run(capsys, "cache", "build", "--k", "3", "--n", "8",
                         *regular, "--out", str(cache))
        assert code == 0
        argv = ("stats", "--k", "3", "--n", "8", "--samples", "60", "--seed",
                "5", "--metric", "arcs", *regular)
        code, fresh, _ = run(capsys, *argv)
        assert code == 0 and fresh
        code, cached, _ = run(capsys, *argv, "--cache", str(cache))
        assert code == 0 and cached == fresh, regular
    cache = str(tmp_path / "c0.tab")
    for misfit in (("--k", "3", "--n", "9"), ("--k", "4", "--n", "8"),
                   ("--k", "3", "--n", "8", "--regular")):
        code, out, err = run(capsys, "stats", *misfit, "--samples", "5",
                             "--metric", "blocks", "--cache", cache)
        assert code == 3 and out == "" and cache in err, misfit


@pytest.mark.parametrize("command", [
    ("sample", "--k", "3", "--n", "4", "--count", "1"),
    ("stats", "--k", "3", "--n", "4", "--samples", "5", "--metric", "blocks"),
], ids=["sample", "stats"])
def test_empty_cache_path_is_a_usage_error(capsys, monkeypatch, command):
    """An empty --cache names no file: exit 2, as `cache build --out ""`
    does, and never a fresh table in its place."""
    monkeypatch.delenv("NCKP_CACHE_DIR", raising=False)
    code, out, err = run(capsys, *command, "--cache", "")
    assert (code, out) == (2, "") and err.startswith("nckp: error:")
    code, out, err = run(capsys, "cache", "build", "--k", "3", "--n", "4",
                         "--out", "")
    assert (code, out) == (2, "") and err.startswith("nckp: error:")


def test_cache_serves_every_n_its_half_length_covers(capsys, tmp_path):
    """A cache built for n=20 holds the half-length table, which serves
    every smaller n with the stream an uncached run prints."""
    for regular in ((), ("--regular",)):
        cache = tmp_path / f"c{len(regular)}.tab"
        code, _, _ = run(capsys, "cache", "build", "--k", "3", "--n", "20",
                         *regular, "--out", str(cache))
        assert code == 0
        for n in ("15", "14"):
            argv = ("sample", "--k", "3", "--n", n, "--count", "6", "--seed",
                    "9", *regular)
            code, fresh, _ = run(capsys, *argv)
            assert code == 0 and len(fresh.splitlines()) == 6
            code, cached, _ = run(capsys, *argv, "--cache", str(cache))
            assert code == 0 and cached == fresh, (regular, n)


def test_cache_too_short_for_n_exits_3(capsys, tmp_path):
    """A plain cache for n=8 serves n <= 8; a regular one (half length 8)
    serves n <= 9."""
    for regular, too_long in (((), "9"), (("--regular",), "10")):
        cache = tmp_path / f"c{len(regular)}.tab"
        run(capsys, "cache", "build", "--k", "3", "--n", "8", *regular,
            "--out", str(cache))
        argv = ("sample", "--k", "3", "--count", "1", *regular, "--cache",
                str(cache))
        code, out, _ = run(capsys, *argv, "--n", str(int(too_long) - 1))
        assert code == 0 and len(out.splitlines()) == 1
        code, out, err = run(capsys, *argv, "--n", too_long)
        assert code == 3 and out == "" and str(cache) in err
        assert "half length" in err


def test_negative_seed_is_a_usage_error(capsys):
    code, out, err = run(capsys, "sample", "--k", "3", "--n", "5", "--count",
                         "2", "--seed", "-2")
    assert code == 2 and out == "" and "--seed" in err
    code, out, err = run(capsys, "stats", "--k", "3", "--n", "5", "--samples",
                         "10", "--seed", "-2", "--metric", "blocks")
    assert code == 2 and out == "" and "--seed" in err


V1_CACHE = """nckp-tab 1
kind omega
k 3
max_len 2
horizon 2
entries 2
1 0 0 1
1 0 1 1
end
"""


def _edit_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "v1_file": lambda p: p.write_text(V1_CACHE),
    "edited_sha256": lambda p: _edit_line(p, 5, "sha256 " + "0" * 64),
    "edited_entries": lambda p: _edit_line(p, 4, "entries 62"),
    "random_bytes": lambda p: p.write_bytes(random.Random(0).randbytes(300)),
    "truncated_header": lambda p: p.write_bytes(p.read_bytes()[:40]),
    "negative_max_len": lambda p: _edit_line(p, 3, "max_len -16"),
    "non_integer_max_len": lambda p: _edit_line(p, 3, "max_len 16.0"),
    "oversized_max_len": lambda p: _edit_line(p, 3, "max_len 99999999"),
    "huge_k": lambda p: _edit_line(p, 2, "k 99999999"),
    "v2_file": lambda p: _edit_line(p, 0, "nckp-tab 2"),
    "v3_file": lambda p: (_edit_line(p, 0, "nckp-tab 3"),
                          p.write_text(p.read_text().replace(
                              "entries", "horizon none\nentries"))),
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
def test_corrupt_cache_exits_3_naming_the_file(capsys, tmp_path, corrupt):
    cache = tmp_path / f"{corrupt}.tab"
    run(capsys, "cache", "build", "--k", "3", "--n", "8", "--out", str(cache))
    CORRUPTIONS[corrupt](cache)
    start = time.perf_counter()
    code, out, err = run(capsys, "sample", "--k", "3", "--n", "8", "--count",
                         "3", "--cache", str(cache))
    assert time.perf_counter() - start < 5
    assert code == 3 and out == "" and str(cache) in err, err


def test_tampered_digest_exits_3_under_python_O(tmp_path):
    cache = tmp_path / "c.tab"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    argv = [sys.executable, "-O", "-m", "nckp.cli"]
    subprocess.run([*argv, "cache", "build", "--k", "3", "--n", "6", "--out",
                    str(cache)], env=env, check=True)
    CORRUPTIONS["edited_sha256"](cache)
    res = subprocess.run([*argv, "sample", "--k", "3", "--n", "6", "--count",
                          "2", "--cache", str(cache)],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 3 and res.stdout == ""
    assert str(cache) in res.stderr and "sha256" in res.stderr


def test_oversized_table_is_a_usage_error(capsys, tmp_path):
    for argv in (("count", "--k", "3", "--n", "10000000"),
                 ("count", "--k", "3", "--n", "10000000", "--regular"),
                 ("sample", "--k", "3", "--n", "10000000", "--count", "1"),
                 ("cache", "build", "--k", "3", "--n", "10000000", "--out",
                  str(tmp_path / "c.tab")),
                 ("count", "--k", "100000000", "--n", "4"),
                 ("sample", "--k", "100000000", "--n", "4", "--count", "1"),
                 # k - 1 near n/2: every shape of up to n/2 boxes
                 *((*cmd, "--k", k, "--n", k, *mode)
                   for k in ("100", "200") for mode in ((), ("--regular",))
                   for cmd in (("count",), ("sample", "--count", "1"),
                               ("cache", "build", "--out",
                                str(tmp_path / "c.tab"))))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == "", argv
        assert err.startswith("nckp: error: ") and "entries" in err
