import os
import random
import subprocess
import sys

import pytest

from nckp.bijection import (
    CrossingError,
    Filling,
    braid_to_partition,
    braid_walk_to_partition_walk,
    decode_braid,
    decode_partition,
    encode_partition,
    partition_to_braid,
    partition_walk_to_braid_walk,
)
from nckp.counting import ChamberTable, LoopFreeTable
from nckp.diagrams import Partition, is_k_noncrossing, is_m_regular, max_crossing
from nckp.oracle import enum_filtered
from nckp.walks import (
    BRAID_WALK,
    PARTITION_WALK,
    Walk,
    apply_step,
    legal_steps,
    walk_from_text,
)


def _complete_walks(k, n, kind):
    """All complete walks of length 2n via DFS over legal steps."""
    out = []
    steps = []

    def rec(pos, rows):
        if pos == 2 * n:
            if rows == ():
                out.append(Walk(kind, k, tuple(steps)))
            return
        parity = "odd" if (pos + 1) % 2 else "even"
        for st in legal_steps(rows, k, parity, kind):
            steps.append(st)
            rec(pos + 1, apply_step(rows, st))
            steps.pop()

    rec(0, ())
    return out


def test_decode_partition_examples():
    cases = [
        (". +1 . . -1 .", "{1,3}{2}"),
        (". +1 . +2 -2 . -1 .", "{1,3}{2,4}"),
        (". +1 . +1 -1 . -1 .", "{1,4}{2,3}"),
    ]
    for text, blocks in cases:
        assert decode_partition(walk_from_text(PARTITION_WALK, 3, text)).to_text() == blocks


def test_encode_partition_examples():
    p = Partition.from_blocks(3, [(1, 3), (2,)])
    assert encode_partition(p, 3).to_text() == ". +1 . . -1 ."
    singles = Partition.from_blocks(3, [(1,), (2,), (3,)])
    assert encode_partition(singles, 3).steps == (0,) * 6
    with pytest.raises(CrossingError):
        encode_partition(Partition.from_blocks(6, [(1, 4), (2, 5), (3, 6)]), 3)


def test_decode_braid_examples():
    assert decode_braid(walk_from_text(BRAID_WALK, 3, "+1 -1")).arcs == ((1, 1),)
    assert decode_braid(walk_from_text(BRAID_WALK, 3, "+1 . . -1")).arcs == ((1, 2),)
    empty = decode_braid(Walk(BRAID_WALK, 3, ()))
    assert empty.n == 0 and empty.arcs == ()


def test_walk_reindex_examples():
    nothing = Walk(PARTITION_WALK, 3, (0,) * 7)
    assert partition_walk_to_braid_walk(nothing).steps == (0,) * 6
    assert partition_walk_to_braid_walk(
        walk_from_text(PARTITION_WALK, 3, ". +1 -1")
    ).to_text() == "+1 -1"
    assert partition_walk_to_braid_walk(
        walk_from_text(PARTITION_WALK, 3, ". +1 . . -1")
    ).to_text() == "+1 . . -1"


def test_walk_reindex_round_trip_and_shapes():
    rng = random.Random(2)
    for _ in range(100):
        k = rng.randint(2, 4)
        rows = ()
        steps = []
        for pos in range(1, 2 * rng.randint(0, 6) + 2):
            parity = "odd" if pos % 2 else "even"
            st = rng.choice(legal_steps(rows, k, parity, PARTITION_WALK))
            steps.append(st)
            rows = apply_step(rows, st)
        pwalk = Walk(PARTITION_WALK, k, tuple(steps))
        bwalk = partition_walk_to_braid_walk(pwalk)
        assert braid_walk_to_partition_walk(bwalk) == pwalk
        # braid shape 2j equals partition shape 2j+1
        pshapes, bshapes = pwalk.shapes(), bwalk.shapes()
        assert bshapes == pshapes[1:]


def test_walk_reindex_count_identity():
    # equally many partition walks of length 2l+1 and braid walks of
    # length 2l end at each point
    from nckp.oracle import brute_walk_profile

    for k in (2, 3):
        for ell in range(4):
            pw = brute_walk_profile(k, 2 * ell + 1, PARTITION_WALK)
            bw = brute_walk_profile(k, 2 * ell, BRAID_WALK)
            assert pw == bw


def test_theta_examples():
    assert partition_to_braid(Partition.from_blocks(2, [(1, 2)])).arcs == ((1, 1),)
    assert partition_to_braid(Partition.from_blocks(3, [(1, 3), (2,)])).arcs == ((1, 2),)
    singles = Partition.from_blocks(4, [(i,) for i in range(1, 5)])
    b = partition_to_braid(singles)
    assert b.n == 3 and b.arcs == ()
    with pytest.raises(ValueError):
        partition_to_braid(Partition.from_blocks(0, []))


def test_theta_round_trip_and_regularity():
    for n in range(1, 8):
        for p in enum_filtered(n, 4):
            b = partition_to_braid(p)
            assert braid_to_partition(b) == p
            assert is_m_regular(p, 2) == all(i != j for i, j in b.arcs)


def test_braid_walks_map_onto_noncrossing_partitions():
    # decoding every complete braid walk and shifting endpoints up gives
    # each k-noncrossing partition exactly once, crossing classes intact
    for k in (2, 3):
        for n in range(1, 7):
            walks = _complete_walks(k, n - 1, BRAID_WALK)
            partitions = {braid_to_partition(decode_braid(w)).blocks for w in walks}
            expected = {p.blocks for p in enum_filtered(n, k)}
            assert len(walks) == len(partitions)
            assert partitions == expected


def test_braid_decode_loop_iff_vertex_pattern():
    for n in range(0, 6):
        for w in _complete_walks(3, n, BRAID_WALK):
            braid = decode_braid(w)
            loops = {i for i, j in braid.arcs if i == j}
            pattern = {
                v
                for v in range(1, n + 1)
                if w.steps[2 * v - 2] == 1 and w.steps[2 * v - 1] == -1
            }
            assert loops == pattern


def test_loop_free_walks_decode_to_regular_partitions():
    lt = LoopFreeTable.build(3, 10)
    for n in range(1, 7):
        walks = [
            w
            for w in _complete_walks(3, n - 1, BRAID_WALK)
            if all(
                not (w.steps[2 * v - 2] == 1 and w.steps[2 * v - 1] == -1)
                for v in range(1, n)
            )
        ]
        assert len(walks) == lt.count((1, 0), 2 * (n - 1))
        for w in walks:
            p = braid_to_partition(decode_braid(w))
            assert is_m_regular(p, 2) and is_k_noncrossing(p, 3)


def test_round_trips_exhaustive():
    ct = {k: ChamberTable.build(k, 12) for k in (2, 3, 4)}
    for k in (2, 3, 4):
        for n in range(7):
            universe = enum_filtered(n, k)
            for p in universe:
                assert decode_partition(encode_partition(p, k)) == p
            walks = _complete_walks(k, n, PARTITION_WALK)
            assert len(walks) == ct[k].count(tuple(range(k - 2, -1, -1)), 2 * n)
            decoded = set()
            for w in walks:
                p = decode_partition(w)
                assert encode_partition(p, k) == w
                decoded.add(p.blocks)
            assert len(decoded) == len(walks)


def test_two_routes_from_braid_walk_agree():
    # decode-then-shift must match reindex-then-decode; the sampler decodes
    # every regular draw by the second route, unchecked
    for k in (3, 4, 5):
        for n in range(0, 6):
            for w in _complete_walks(k, n, BRAID_WALK):
                via_braid = braid_to_partition(decode_braid(w))
                pwalk = braid_walk_to_partition_walk(w)
                padded = Walk(PARTITION_WALK, k, pwalk.steps + (0,))
                assert padded.steps == (0, *w.steps, 0)
                assert via_braid == decode_partition(padded)
                assert via_braid == decode_partition(padded, validate=False)


def _same_partition(fast, checked):
    assert fast == checked
    assert fast.to_text() == checked.to_text()
    assert hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)


def test_trusted_decode_equals_the_checked_one():
    """decode_partition builds its blocks without blocks_from_arcs or
    Partition.from_blocks: with or without validate_walk it must give the
    partition they give to the arcs of _decode, on every small walk and on
    sampled walks of both modes."""
    from nckp.bijection import _decode
    from nckp.diagrams import blocks_from_arcs
    from nckp.oracle import complete_partition_walks
    from nckp.sampler import SamplerSession

    for k in (2, 3, 4, 5):
        for n in range(7):
            for w in complete_partition_walks(k, n):
                checked = blocks_from_arcs(n, _decode(w.steps, "remove"))
                _same_partition(decode_partition(w, validate=False), checked)
                _same_partition(decode_partition(w), checked)
    session = SamplerSession(3, 120, "plain", seed=8)
    for _ in range(300):
        w, p = session.draw()
        _same_partition(p, blocks_from_arcs(120, _decode(w.steps, "remove")))
    for k, n in ((3, 52), (4, 30), (5, 24)):
        session = SamplerSession(k, n, "regular", seed=8)
        for _ in range(300):
            w, p = session.draw()
            _same_partition(p, braid_to_partition(decode_braid(w)))


def test_filling_invariants_along_random_decodes():
    rng = random.Random(4)
    for _ in range(50):
        rows = ()
        filling = Filling()
        label = 0
        for pos in range(1, 21):
            parity = "odd" if pos % 2 else "even"
            st = rng.choice(legal_steps(rows, 3, parity, PARTITION_WALK))
            if st > 0:
                label += 1
                filling.place(st, label)
            elif st < 0:
                filling.eject(-st)
            rows = apply_step(rows, st)
            filling.check()
            assert tuple(len(r) for r in filling.rows) == rows


def test_filling_check_raises_under_optimized_python():
    code = (
        "from nckp.bijection import Filling\n"
        "from nckp.walks import WalkError\n"
        "f = Filling()\n"
        "f.rows = [[1, 3], [1]]\n"
        "try:\n"
        "    f.check()\n"
        "except WalkError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "raised"
