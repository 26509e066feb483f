import ast
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

from nckp import sampler, walks
from nckp.counting import (
    ChamberTable,
    InvariantError,
    LoopFreeTable,
    total_partitions,
    total_regular,
)
from nckp.diagrams import is_k_noncrossing, is_m_regular
from nckp.oracle import (
    UniverseIndex,
    chi_square_uniformity,
    enum_filtered,
    partition_weights,
    path_probability,
    regular_weights,
)
from nckp.sampler import RandomBits, SamplerSession, uniform_below


def test_uniform_below_one_consumes_nothing():
    rng = RandomBits(5)
    assert uniform_below(1, rng) == 0
    assert rng.block(16) == RandomBits(5).block(16)


def test_uniform_below_determinism():
    draws_a = [uniform_below(202, RandomBits(i)) for i in range(40)]
    draws_b = [uniform_below(202, RandomBits(i)) for i in range(40)]
    assert draws_a == draws_b
    with pytest.raises(ValueError):
        uniform_below(0, RandomBits(0))


def test_uniform_below_chi_square():
    rng = RandomBits(2024)
    universe = UniverseIndex(range(202))
    samples = (uniform_below(202, rng) for _ in range(202_000))
    report = chi_square_uniformity(samples, universe)
    assert report.passed, report


def test_partition_weights_examples():
    session = SamplerSession(3, 2, "plain", seed=0)
    tw = partition_weights(session, (), 0)
    assert tw.steps == (0,) and tw.weights == (2,) and tw.total == 2
    tw = partition_weights(session, (), 1)
    assert tw.steps == (0, 1) and tw.weights == (1, 1) and tw.total == 2
    with pytest.raises(ValueError):
        partition_weights(session, (), 4)


def test_last_step_forced():
    session = SamplerSession(3, 1, "plain", seed=0)
    tw = partition_weights(session, (), 1)
    # only the do-nothing candidate completes the walk
    assert tw.weights[tw.steps.index(0)] == 1
    assert sum(tw.weights) == 1 == tw.total


def test_regular_weights_examples():
    session = SamplerSession(3, 3, "regular", seed=0)
    tw = regular_weights(session, (), 0)
    assert tw.total == 2 == total_regular(3, 3)
    assert sum(tw.weights) == tw.total
    tw = regular_weights(session, (1,), 1, pending=1)
    assert tw.steps == (0,)
    with pytest.raises(ValueError):
        regular_weights(session, (), 1)
    with pytest.raises(ValueError):
        regular_weights(session, (), 0, pending=1)


def test_regular_weights_loop_exclusion():
    session = SamplerSession(3, 4, "regular", seed=0)
    # after add(1) the remove(1) continuation is never a candidate
    tw = regular_weights(session, (2,), 3, pending=1)
    assert -1 not in tw.steps
    tw = regular_weights(session, (2,), 3, pending=0)
    assert -1 in tw.steps


def test_draw_support_small():
    session = SamplerSession(3, 2, "plain", seed=7)
    seen = {session.draw()[1].to_text() for _ in range(200)}
    assert seen == {"{1}{2}", "{1,2}"}
    session = SamplerSession(3, 3, "regular", seed=7)
    seen = {session.draw()[1].to_text() for _ in range(200)}
    assert seen == {"{1}{2}{3}", "{1,3}{2}"}
    session = SamplerSession(3, 1, "regular", seed=7)
    assert session.draw()[1].to_text() == "{1}"


def test_draw_n_zero():
    for mode in ("plain", "regular"):
        session = SamplerSession(3, 0, mode, seed=0)
        walk, p = session.draw()
        assert walk.steps == () and p.n == 0
        assert session.total == 1
        assert path_probability(session, walk) == Fraction(1)


def test_support_coverage():
    for n in range(1, 7):
        total = total_partitions(3, n)
        session = SamplerSession(3, n, "plain", seed=11)
        support = {session.draw()[1].blocks for _ in range(50 * total)}
        assert len(support) == total
    for n in range(1, 7):
        total = total_regular(3, n)
        session = SamplerSession(3, n, "regular", seed=11)
        support = {session.draw()[1].blocks for _ in range(50 * total)}
        assert len(support) == total


def test_path_probability_examples():
    session = SamplerSession(3, 6, "plain", seed=3)
    for _ in range(10):
        walk, _ = session.draw()
        assert path_probability(session, walk) == Fraction(1, 202)
    session = SamplerSession(3, 6, "regular", seed=3)
    for _ in range(10):
        walk, _ = session.draw()
        assert path_probability(session, walk) == Fraction(1, 51)


def test_path_probability_rejects_foreign_walks():
    plain = SamplerSession(3, 3, "plain", seed=0)
    regular = SamplerSession(3, 3, "regular", seed=0)
    walk, _ = plain.draw()
    with pytest.raises(ValueError):
        path_probability(regular, walk)
    short, _ = SamplerSession(3, 2, "plain", seed=0).draw()
    with pytest.raises(ValueError):
        path_probability(plain, short)


def test_weight_consistency_on_sampled_paths():
    from nckp.walks import apply_step

    for k, n in ((3, 6), (4, 5)):
        session = SamplerSession(k, n, "plain", seed=1)
        for _ in range(25):
            walk, _ = session.draw()
            rows = ()
            for i, step in enumerate(walk.steps):
                tw = partition_weights(session, rows, i)
                assert sum(tw.weights) == tw.total
                rows = apply_step(rows, step)
        session = SamplerSession(k, n, "regular", seed=1)
        for _ in range(25):
            walk, _ = session.draw()
            rows = ()
            for i, step in enumerate(walk.steps):
                if i % 2 == 0:
                    tw = regular_weights(session, rows, i)
                    assert sum(tw.weights) == tw.total
                    pending = step
                else:
                    tw = regular_weights(session, rows, i, pending)
                    assert sum(tw.weights) == tw.total
                rows = apply_step(rows, step)


def test_sample_validity():
    session = SamplerSession(4, 12, "plain", seed=9)
    for _ in range(50):
        _, p = session.draw()
        assert p.n == 12 and is_k_noncrossing(p, 4)
    session = SamplerSession(4, 12, "regular", seed=9)
    for _ in range(50):
        _, p = session.draw()
        assert is_k_noncrossing(p, 4) and is_m_regular(p, 2)


def test_determinism_same_seed():
    a = SamplerSession(3, 10, "plain", seed=42)
    b = SamplerSession(3, 10, "plain", seed=42)
    for _ in range(30):
        assert a.draw() == b.draw()


def test_session_parameter_errors():
    with pytest.raises(ValueError):
        SamplerSession(1, 3, "plain")
    with pytest.raises(ValueError):
        SamplerSession(2, 3, "regular")
    with pytest.raises(ValueError):
        SamplerSession(3, -1, "plain")
    with pytest.raises(ValueError):
        SamplerSession(3, 3, "exact")
    with pytest.raises(TypeError):
        SamplerSession(3, 3, "regular", table=ChamberTable.build(3, 6))
    with pytest.raises(ValueError):
        SamplerSession(3, 9, "plain", table=ChamberTable.build(3, 6))
    with pytest.raises(ValueError):
        SamplerSession(3, 6, "regular", table=LoopFreeTable.build(3, 4))


def test_shared_table_between_sessions():
    table = ChamberTable.build(3, 12)
    a = SamplerSession(3, 6, "plain", seed=0, table=table)
    b = SamplerSession(3, 6, "plain", seed=0, table=table)
    assert [a.draw()[1] for _ in range(10)] == [b.draw()[1] for _ in range(10)]


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        RandomBits(-2)
    with pytest.raises(ValueError, match="seed"):
        SamplerSession(3, 4, "plain", seed=-1)


def test_seeded_streams_unchanged():
    import random

    for seed in (0, 2, 2**70):
        ref = random.Random(seed)
        rng = RandomBits(seed)
        assert [rng.block(w) for w in (1, 7, 64, 200)] == [
            ref.getrandbits(w) for w in (1, 7, 64, 200)
        ]


def _shape_space_draw(session, table):
    """The midpoint draw done on shapes: one u below the total, split over
    the midpoints in graded order (boxes, then point) weighted by
    f(v, m) * f(v, h), then each half unranked backwards over the
    candidates of legal_steps, all through the checked count() of `table`,
    an unpruned full-length table."""
    from nckp.counting import half_lengths
    from nckp.walks import (BRAID_WALK, PARTITION_WALK, apply_step,
                            legal_steps, point_to_shape, shape_to_point)

    k, plain = session.k, session.mode == "plain"
    m, h = half_lengths(session.walk_len, not plain)

    def f(rows, s):
        return table.count(shape_to_point(rows, k), s)

    def back_moves(rows, s):
        """(codes undoing the last step or vertex, origin) into `rows`."""
        if plain:
            for st in legal_steps(rows, k, "even" if s % 2 else "odd",
                                  PARTITION_WALK):
                yield (st,), apply_step(rows, st)
            return
        for undo_remove in legal_steps(rows, k, "odd", BRAID_WALK):
            mid = apply_step(rows, undo_remove)
            for undo_add in legal_steps(mid, k, "even", BRAID_WALK,
                                        forbid_loop_after=undo_remove):
                yield (undo_remove, undo_add), apply_step(mid, undo_add)

    def half(rows, s, rank):
        codes = []
        while s:
            for undo, prev in back_moves(rows, s):
                weight = f(prev, s - len(undo))
                if rank < weight:
                    break
                rank -= weight
            codes += undo
            rows, s = prev, s - len(undo)
        assert rows == ()
        return codes

    midpoints = sorted((point_to_shape(v, k) for v, _ in table.slice_items(h)),
                       key=lambda rows: (sum(rows), shape_to_point(rows, k)))
    weights = [f(rows, m) * f(rows, h) for rows in midpoints]
    u = uniform_below(sum(weights), session.rng)
    for rows, weight in zip(midpoints, weights):
        if u < weight:
            break
        u -= weight
    first, second = divmod(u, f(rows, h))
    return tuple([-c for c in reversed(half(rows, m, first))]
                 + half(rows, h, second))


def test_draw_matches_shape_space_sampler():
    for k in (2, 3, 4, 5):
        for mode in ("plain", "regular"):
            if mode == "regular" and k < 3:
                continue
            n = 7 if k < 5 else 5
            session = SamplerSession(k, n, mode)
            table = session.table
            full = (ChamberTable if mode == "plain" else LoopFreeTable).build(
                k, session.walk_len)
            for seed in (0, 1, 12345):
                packed = SamplerSession(k, n, mode, seed=seed, table=table)
                shapes = SamplerSession(k, n, mode, seed=seed, table=table)
                for _ in range(20):
                    assert packed.draw()[0].steps == _shape_space_draw(shapes, full)


def _doctored(table, s, counts):
    """A copy of `table` whose counts at length s are updated from
    `counts` (point -> count), made with the packed-table constructor."""
    slices = [table._column(t) for t in range(table.max_len + 1)]
    for v, c in counts.items():
        slices[s][table.point_id(v)] = c
    return type(table)(table.k, table.max_len, slices)


def test_draw_on_inconsistent_table_names_where():
    table = ChamberTable.build(3, 16)
    table = _doctored(table, 8, {v: 0 for v, _ in table.slice_items(8)})
    with pytest.raises(InvariantError, match=re.escape(
            "plain k=3 n=8: zero total weight at position 0 (point (1, 0))")):
        SamplerSession(3, 8, "plain", table=table)
    table = _doctored(LoopFreeTable.build(3, 12), 6, {(1, 0): 5100})
    session = SamplerSession(3, 6, "regular", table=table)
    with pytest.raises(InvariantError, match=re.escape(
            "regular k=3 n=6: candidate weights sum below the stored total 5100"
            " at position 4 (point (1, 0))")):
        session.draw()


def test_unrank_is_a_bijection_onto_the_oracle_set():
    for k in (2, 3, 4, 5):
        for mode in ("plain", "regular"):
            if mode == "regular" and k < 3:
                continue
            for n in range(7 if k < 5 else 6):
                session = SamplerSession(k, n, mode)
                ranked = Counter(session.unrank(u)[1].blocks
                                 for u in range(session.total))
                expected = enum_filtered(n, k, 2 if mode == "regular" else None)
                assert ranked == Counter(p.blocks for p in expected), (k, mode, n)
                with pytest.raises(ValueError):
                    session.unrank(session.total)


def test_draw_is_unrank_of_one_uniform_below():
    session = SamplerSession(3, 9, "plain", seed=5)
    rng = RandomBits(5)
    for _ in range(20):
        assert session.draw() == session.unrank(uniform_below(session.total, rng))


def test_draws_on_inconsistent_tables_raise_under_python_O():
    """Tables doctored within the prefix rule: zeros at the half length h
    leave no walk to draw, and the counts at the cut m swollen a millionfold
    leave a first half's rank far past its candidates' weights.  Sessions
    and draws must catch both without assert, in both modes."""

    script = """
from nckp.counting import ChamberTable, InvariantError, LoopFreeTable
from nckp.sampler import SamplerSession

for mode, table in (("plain", ChamberTable.build(3, 8)),
                    ("regular", LoopFreeTable.build(3, 8))):
    m, h = SamplerSession(3, 4, mode, table=table)._cut
    slices = [table._column(t) for t in range(table.max_len + 1)]
    zero = [[0] * len(c) if t == h else c for t, c in enumerate(slices)]
    swollen = [[x * 10**6 for x in c] if t == m else c
               for t, c in enumerate(slices)]
    try:
        SamplerSession(3, 4, mode, table=type(table)(3, table.max_len, zero))
    except InvariantError as exc:
        print(exc)
    session = SamplerSession(3, 4, mode, seed=3,
                             table=type(table)(3, table.max_len, swollen))
    for _ in range(5):
        try:
            session.draw()
        except InvariantError as exc:
            print(mode, "raised",
                  "candidate weights sum below the stored total" in str(exc))
        else:
            print(mode, "drew")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        line for mode in ("plain", "regular") for line in (
            f"{mode} k=3 n=4: zero total weight at position 0 (point (1, 0));"
            " tables are inconsistent", *[f"{mode} raised True"] * 5)]


def test_random_bits_counters():
    session = SamplerSession(3, 60, "plain", seed=17)
    width = (session.total - 1).bit_length()
    rng = session.rng
    assert (rng.bits, rng.blocks) == (0, 0)
    per_draw = []
    for _ in range(500):
        bits = rng.bits
        session.draw()
        per_draw.append(rng.bits - bits)
    assert all(b > 0 and b % width == 0 for b in per_draw)
    assert rng.blocks == sum(per_draw) // width
    assert rng.blocks / 500 < 2
    with pytest.raises(AttributeError):
        rng.bits = 0


def test_sampler_imports_only_what_the_draw_runs():
    """The draw needs the walk record and its two kinds, never a shape
    function, a record base or an oracle: those stay readable through the
    module's lazy names only."""
    tree = ast.parse(Path(sampler.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {alias.asname or alias.name for node in imports
                for alias in node.names}
    from_walks = [alias.name for node in imports
                  if isinstance(node, ast.ImportFrom) and node.module == "walks"
                  for alias in node.names]
    assert sorted(from_walks) == ["BRAID_WALK", "PARTITION_WALK", "Walk"]
    shape_functions = {name for name, value in vars(walks).items()
                       if inspect.isfunction(value)}
    assert imported & shape_functions == set()
    assert "Record" not in imported
    modules = [node.module or "" for node in imports
               if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in imports if isinstance(node, ast.Import)
                for alias in node.names]
    assert [m for m in modules if "oracle" in m] == []


def test_lazy_names_are_their_home_objects():
    for name, home in sampler._ELSEWHERE.items():
        assert getattr(sampler, name) is getattr(import_module(f"nckp.{home}"),
                                                 name), name
    for name in ("TransitionWeights", "_full_table", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(sampler, name)


def test_sampler_loads_the_oracle_only_when_a_weight_is_read():
    code = ("import sys\nimport nckp.sampler as s\n"
            "print('nckp.oracle' in sys.modules)\n"
            "s.legal_steps, s.decode_braid\n"
            "print('nckp.oracle' in sys.modules)\n"
            "s.path_probability\n"
            "print('nckp.oracle' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(sampler.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "True"]
