import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from nckp.cli import main, worker_seed


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


def test_sample_jobs_deterministic(capsys):
    argv = ("sample", "--k", "3", "--n", "5", "--count", "6", "--seed", "2",
            "--jobs", "3")
    code, out1, _ = run(capsys, *argv)
    assert code == 0 and len(out1.splitlines()) == 6
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    # worker 0 is the plain seed stream: positions 0, 3 match jobs=1 prefix
    code, solo, _ = run(capsys, "sample", "--k", "3", "--n", "5", "--count",
                        "2", "--seed", "2")
    assert out1.splitlines()[0] == solo.splitlines()[0]


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


def test_usage_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_import_cli_leaves_scipy_unloaded():
    code = "import sys, nckp.cli; print('scipy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_inconsistent_cache_exit_code(capsys, tmp_path):
    cache = tmp_path / "bad.tab"
    run(capsys, "cache", "build", "--k", "3", "--n", "8", "--out", str(cache))
    lines = cache.read_text().splitlines()
    assert lines[8] == "1 0 2 1"
    lines[8] = "1 0 2 2"
    cache.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "sample", "--k", "3", "--n", "8", "--count", "3",
                       "--cache", str(cache))
    assert code == 3 and str(cache) in err


def test_regular_cache_horizon_mismatch_exit_code(capsys, tmp_path):
    cache = tmp_path / "r.tab"
    run(capsys, "cache", "build", "--k", "3", "--n", "7", "--regular",
        "--out", str(cache))
    code, _, err = run(capsys, "sample", "--k", "3", "--n", "6", "--count", "1",
                       "--regular", "--cache", str(cache))
    assert code == 3 and "horizon" in err


def test_jobs_worker_seeds_do_not_overlap(capsys):
    assert worker_seed(2, 0) == 2
    runs = [{worker_seed(seed, w) for w in range(3)} for seed in (2, 3)]
    assert len(runs[0]) == len(runs[1]) == 3
    assert not runs[0] & runs[1]
    # the outputs of the two runs share no worker stream either
    outs = []
    for seed in ("2", "3"):
        code, out, _ = run(capsys, "sample", "--k", "3", "--n", "10",
                           "--count", "6", "--seed", seed, "--jobs", "3")
        assert code == 0
        outs.append(out.splitlines())
    for w in range(3):
        assert outs[0][w::3] != outs[1][w::3]


def test_negative_seed_is_a_usage_error(capsys):
    code, out, err = run(capsys, "sample", "--k", "3", "--n", "5", "--count",
                         "2", "--seed", "-2")
    assert code == 2 and out == "" and "--seed" in err
    code, out, err = run(capsys, "stats", "--k", "3", "--n", "5", "--samples",
                         "10", "--seed", "-2", "--metric", "blocks")
    assert code == 2 and out == "" and "--seed" in err


def _corrupt(path, old, new):
    lines = path.read_text().splitlines()
    lines[lines.index(old)] = new
    path.write_text("\n".join(lines) + "\n")


def test_inconsistent_cache_names_where(capsys, tmp_path):
    cache = tmp_path / "bad.tab"
    run(capsys, "cache", "build", "--k", "3", "--n", "8", "--out", str(cache))
    _corrupt(cache, "1 0 16 3930", "1 0 16 0")
    code, out, err = run(capsys, "sample", "--k", "3", "--n", "8", "--count",
                         "3", "--cache", str(cache))
    assert code == 3 and out == ""
    assert "plain k=3 n=8: zero total weight at position 0 (point (1, 0))" in err
    cache = tmp_path / "bad_r.tab"
    run(capsys, "cache", "build", "--k", "3", "--n", "6", "--regular",
        "--out", str(cache))
    _corrupt(cache, "1 0 10 51", "1 0 10 5100")
    code, _, err = run(capsys, "sample", "--k", "3", "--n", "6", "--count",
                       "3", "--regular", "--cache", str(cache))
    assert code == 3 and str(cache) in err
    assert re.search(
        r"regular k=3 n=6: candidate weights sum below the stored total 5100"
        r" at position 0 \(point \(1, 0\)\)", err), err


def test_cache_with_repeated_entry_exits_3(capsys, tmp_path):
    cache = tmp_path / "dup.tab"
    run(capsys, "cache", "build", "--k", "3", "--n", "4", "--out", str(cache))
    lines = cache.read_text().splitlines()
    lines[5] = f"entries {int(lines[5].split()[1]) + 1}"
    lines.insert(len(lines) - 1, "1 0 2 9")
    cache.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "sample", "--k", "3", "--n", "4", "--count", "1",
                       "--cache", str(cache))
    assert code == 3 and "twice" in err
