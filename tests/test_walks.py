import random

import pytest

from nckp.walks import (
    BRAID_WALK,
    PARTITION_WALK,
    Walk,
    WalkError,
    apply_step,
    format_steps,
    in_chamber,
    is_valid_shape,
    legal_steps,
    parse_steps,
    point_to_shape,
    shape_to_point,
    start_point,
    step_class,
    validate_walk,
    walk_from_text,
)


def test_start_point():
    assert start_point(2) == (0,)
    assert start_point(3) == (1, 0)
    assert start_point(5) == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        start_point(1)


@pytest.mark.parametrize(
    "k, rows, point",
    [
        (3, (), (1, 0)),
        (3, (2, 1), (3, 1)),
        (4, (1, 1), (3, 2, 0)),
        (2, (5,), (5,)),
        (4, (), (2, 1, 0)),
    ],
)
def test_shape_point_examples(k, rows, point):
    assert shape_to_point(rows, k) == point
    assert point_to_shape(point, k) == rows


def test_shape_point_round_trip_random():
    rng = random.Random(0)
    for _ in range(300):
        k = rng.randint(2, 6)
        rows = []
        top = rng.randint(0, 9)
        for _ in range(rng.randint(0, k - 1)):
            top = rng.randint(0, top)
            if top == 0:
                break
            rows.append(top)
        rows = tuple(rows)
        v = shape_to_point(rows, k)
        assert in_chamber(v)
        assert point_to_shape(v, k) == rows


def test_point_to_shape_rejects_outside_chamber():
    with pytest.raises(ValueError):
        point_to_shape((0, 1), 3)
    with pytest.raises(ValueError):
        point_to_shape((1, 1), 3)
    with pytest.raises(ValueError):
        point_to_shape((0,), 3)


def test_legal_steps_examples():
    assert legal_steps((), 3, "odd", PARTITION_WALK) == [0]
    assert legal_steps((1,), 3, "even", PARTITION_WALK) == [0, 1, 2]
    assert legal_steps((1,), 3, "even", BRAID_WALK, forbid_loop_after=1) == [0]
    # without the loop constraint remove(1) is available
    assert legal_steps((1,), 3, "even", BRAID_WALK) == [0, -1]


def test_legal_steps_soundness_and_completeness():
    rng = random.Random(1)
    for _ in range(200):
        k = rng.randint(2, 5)
        rows = []
        top = rng.randint(0, 6)
        for _ in range(rng.randint(0, k - 1)):
            top = rng.randint(0, top)
            if top == 0:
                break
            rows.append(top)
        rows = tuple(rows)
        for parity in ("odd", "even"):
            for kind in (PARTITION_WALK, BRAID_WALK):
                allowed = legal_steps(rows, k, parity, kind)
                cls = step_class(1 if parity == "odd" else 2, kind)
                for r in range(1, k):
                    st = r if cls == "add" else -r
                    after = apply_step(rows, st)
                    if st in allowed:
                        assert is_valid_shape(after, k), (rows, st)
                    else:
                        assert not is_valid_shape(after, k), (rows, st)


def test_validate_walk_examples():
    validate_walk(walk_from_text(PARTITION_WALK, 3, ". +1 -1 ."))
    with pytest.raises(WalkError) as err:
        validate_walk(Walk(PARTITION_WALK, 3, (-1,)), complete=False)
    assert err.value.index == 1
    validate_walk(walk_from_text(BRAID_WALK, 3, "+1 -1"))


def test_validate_walk_parity():
    with pytest.raises(WalkError):
        validate_walk(Walk(PARTITION_WALK, 3, (1, 0)), complete=False)
    with pytest.raises(WalkError):
        validate_walk(Walk(BRAID_WALK, 3, (0, 1)), complete=False)
    # incomplete prefix is fine when flagged
    validate_walk(Walk(PARTITION_WALK, 3, (0, 1)), complete=False)
    with pytest.raises(WalkError):
        validate_walk(Walk(PARTITION_WALK, 3, (0, 1)), complete=True)


def test_validate_walk_row_bound():
    with pytest.raises(WalkError):
        validate_walk(Walk(PARTITION_WALK, 3, (0, 3)), complete=False)


def test_steps_text_round_trip():
    text = ". +1 . +2 -2 . -1 ."
    assert format_steps(parse_steps(text)) == text
    with pytest.raises(ValueError):
        parse_steps("+x")
    with pytest.raises(ValueError):
        parse_steps("1")


def _random_walk(rng, k, kind, length):
    rows = ()
    steps = []
    for pos in range(1, length + 1):
        parity = "odd" if pos % 2 else "even"
        choice = rng.choice(legal_steps(rows, k, parity, kind))
        steps.append(choice)
        rows = apply_step(rows, choice)
    return Walk(kind, k, tuple(steps))


def test_random_walks_validate():
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(2, 5)
        kind = rng.choice([PARTITION_WALK, BRAID_WALK])
        walk = _random_walk(rng, k, kind, rng.randrange(0, 17))
        validate_walk(walk, complete=False)
        assert len(walk.shapes()) == len(walk) + 1


def test_complete_walk_balances_adds_and_removes():
    rng = random.Random(9)
    found = 0
    while found < 30:
        walk = _random_walk(rng, 3, PARTITION_WALK, 10)
        if walk.shapes()[-1] == ():
            found += 1
            adds = sum(1 for s in walk.steps if s > 0)
            removes = sum(1 for s in walk.steps if s < 0)
            assert adds == removes


def _shapes_up_to(boxes, parts):
    """Every shape with at most `boxes` boxes and `parts` rows."""
    out = [()]
    for rows in out:
        for r in range(1, parts + 1):
            grown = apply_step(rows, r)
            if (sum(grown) <= boxes and is_valid_shape(grown, parts + 1)
                    and grown not in out):
                out.append(grown)
    return out


def test_validate_walk_accepts_exactly_legal_steps():
    for k in range(2, 6):
        for rows in _shapes_up_to(4, k - 1):
            # a legal prefix that fills the rows in order, one box per vertex
            adds = [r for r, length in enumerate(rows, start=1)
                    for _ in range(length)]
            prefixes = {
                PARTITION_WALK: tuple(x for r in adds for x in (0, r)),
                BRAID_WALK: tuple(x for r in adds for x in (r, 0)),
            }
            for kind, prefix in prefixes.items():
                for pad in ((), (0,)):
                    walk = prefix + pad
                    validate_walk(Walk(kind, k, walk), complete=False)
                    parity = "even" if len(walk) % 2 else "odd"
                    legal = set(legal_steps(rows, k, parity, kind))
                    for st in range(-k, k + 1):
                        trial = Walk(kind, k, walk + (st,))
                        if st in legal:
                            validate_walk(trial, complete=False)
                        else:
                            with pytest.raises(WalkError) as err:
                                validate_walk(trial, complete=False)
                            assert err.value.index == len(walk) + 1
