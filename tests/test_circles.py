import itertools
import random
from fractions import Fraction as F

import pytest

from colorplex import (
    CircleLayers,
    Permutation,
    brute_force_circle_colorable,
    circle_colorable,
    circle_holonomy,
    circle_intersections,
    parse_circle_layers,
    verify_circle_coloring,
)
from colorplex import circles
from colorplex.circles import _meeting_pairs
from colorplex.errors import BudgetError, FormatError
from colorplex.oracles import random_circle_layers


def _single(m):
    return CircleLayers(F(m), (tuple(F(i) for i in range(m)),))


def _layers_text(cl):
    """The circle-layers file of ``cl``, its rationals written as ``a/b``."""
    lines = [f"circle {cl.j}", f"C={cl.circumference}"]
    lines += ["layer: " + " ".join(map(str, points)) for points in cl.layers]
    return "\n".join(lines) + "\n"


INTERLEAVED = CircleLayers(F(4), ((F(0), F(2)), (F(1), F(3))))
NESTED = CircleLayers(F(4), ((F(0), F(2)), (F(1, 2), F(3, 2))))


def test_parse_single_layer():
    cl = parse_circle_layers("circle 1\nC=12\nlayer: 0 3 6 9\n")
    assert cl.j == 1
    assert cl.arc_count() == 4


def test_parse_two_layers():
    cl = parse_circle_layers("circle 2\nC=4\nlayer: 0 2\nlayer: 1 3\n")
    assert cl == INTERLEAVED


def test_parse_duplicate_position():
    with pytest.raises(ValueError, match="duplicate position 0"):
        parse_circle_layers("circle 2\nC=4\nlayer: 0 2\nlayer: 0 3\n")


def test_parse_short_layer():
    with pytest.raises(FormatError, match="need >= 2") as err:
        parse_circle_layers("circle 1\nC=4\nlayer: 1\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("# nothing but a comment\n", "empty circle-layers file", None),
        ("circle\n", "expected 'circle <j>', got 'circle'", 1),
        ("circle two\n", "bad layer count 'two'", 1),
        ("circle 0\n", "at least one layer required", 1),
        ("circle 1\n", "missing 'C=<rational>' line", 1),
        ("circle 1\nD=4\n", "expected 'C=<rational>', got 'D=4'", 2),
        ("circle 1\nC=1/0\n", "malformed rational '1/0'", 2),
        ("circle 1\nC=-1\nlayer: 0 1\n", "C must be positive, got -1", 2),
        ("circle 2\nC=4\nlayer: 0 2\n", "expected 2 layer lines, found 1", None),
        ("circle 1\nC=4\nlist: 0 2\n", "expected 'layer: ...', got 'list: 0 2'", 3),
        ("circle 1\nC=4\n\nlayer: 2 1\n", "layer 1 positions must be strictly increasing", 4),
        ("circle 2\nC=4\nlayer: 0 2\nlayer: 1 4\n", "position 4 outside [0, 4)", 4),
    ],
)
def test_parse_faults_name_their_line(text, message, line):
    with pytest.raises(FormatError) as err:
        parse_circle_layers(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize(
    "circumference, layers, message",
    [
        (F(4), ((F(0), 1.5),), "position 1.5 is not a Fraction"),
        (F(0), ((F(0), F(1)),), "circumference must be a positive rational, got Fraction(0, 1)"),
        (4, ((F(0), F(1)),), "circumference must be a positive rational, got 4"),
        (F(4), (), "at least one layer required"),
    ],
    ids=["float-position", "zero-circumference", "int-circumference", "no-layers"],
)
def test_circle_layers_reject_what_no_file_can_say(circumference, layers, message):
    with pytest.raises(ValueError) as err:
        CircleLayers(circumference, layers)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("circle 2\nC=4\nlayer: 2 1\nlist: 0\n", "layer 1 positions must be strictly increasing", 3),
        ("circle 2\nC=4\nlayer: 1\nlayer: 0 x\n", "layer 1 has 1 points; need >= 2", 3),
        ("circle 2\nC=4\nlayer: 1\nlayer: 0 5\n", "layer 1 has 1 points; need >= 2", 3),
        ("circle 2\nC=4\nlayer: 0 2\nlayer: 0 x\n", "malformed rational 'x'", 4),
        ("circle 2\nC=4\nlayer: 0 2\nlayer: 0 5\n", "position 5 outside [0, 4)", 4),
        ("circle 3\nC=4\nlayer: 0 2\nlayer: 0 3\nlayer: 1\n", "layer 3 has 1 points; need >= 2", 5),
    ],
    ids=["fault-before-bad-line", "fault-before-bad-number", "first-of-two-faults", "bad-number",
         "fault-not-duplicate", "later-fault-before-duplicate"],
)
def test_parse_reports_the_first_fault_in_line_order(text, message, line):
    """A layer's own fault is reported before anything a later line gets
    wrong, and before a position two layers share, as when each layer was
    checked as soon as its line was read."""
    with pytest.raises(FormatError) as err:
        parse_circle_layers(text)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_parse_checks_each_layer_once(monkeypatch):
    calls = []
    check = circles._layer_fault
    monkeypatch.setattr(circles, "_layer_fault", lambda *args: calls.append(args[0]) or check(*args))
    for cl in (INTERLEAVED, NESTED, _single(5), random_circle_layers(random.Random(4), 4)):
        calls.clear()
        assert parse_circle_layers(_layers_text(cl)) == cl
        assert calls == list(range(1, cl.j + 1))


def test_parse_malformed_number():
    with pytest.raises(FormatError) as err:
        parse_circle_layers("circle 1\nC=4\nlayer: 0 x\n")
    assert err.value.line == 3


def test_parse_rationals_and_round_trip():
    text = "circle 2\nC=9/2\nlayer: 0 2\nlayer: 1/2 3/2\n"
    cl = parse_circle_layers(text)
    assert cl.circumference == F(9, 2)
    assert parse_circle_layers(_layers_text(cl)) == cl


def test_position_outside_circumference():
    with pytest.raises(ValueError, match="outside"):
        CircleLayers(F(4), ((F(0), F(5)),))


def test_single_layer_parity_law():
    swap = Permutation.transposition(2, 1, 2)
    for m in range(3, 13):
        cl = _single(m)
        assert circle_holonomy(cl) == swap.power(m)
        witness = circle_colorable(cl)
        assert (witness is not None) == (m % 2 == 0)
        if witness is not None:
            assert verify_circle_coloring(cl, witness)


def test_interleaved_two_layers_is_a_3_cycle():
    rho = circle_holonomy(INTERLEAVED)
    # hand sweep: crossings at 1,2,3,0 move (1,2|3) to (3,1|2)
    assert rho == Permutation((3, 1, 2))
    assert rho.cycle_type() == (3,)
    assert circle_colorable(INTERLEAVED) is None
    assert brute_force_circle_colorable(INTERLEAVED) is None


def test_nested_two_layers_is_colorable():
    assert circle_holonomy(NESTED).is_identity
    witness = circle_colorable(NESTED)
    assert witness is not None
    assert verify_circle_coloring(NESTED, witness)
    assert brute_force_circle_colorable(NESTED) is not None


def test_reverse_sweep_gives_the_inverse():
    rng = random.Random(7)
    for _ in range(15):
        cl = random_circle_layers(rng)
        assert circle_holonomy(cl, reverse=True) == circle_holonomy(cl).inverse()


def test_double_sweep_squares_the_permutation():
    rng = random.Random(8)
    for _ in range(15):
        cl = random_circle_layers(rng)
        c = cl.circumference
        # the same layers run twice: every point again at p + C on a 2C circle
        doubled = CircleLayers(2 * c, tuple(ps + tuple(p + c for p in ps) for ps in cl.layers))
        rho = circle_holonomy(cl)
        assert circle_holonomy(doubled) == rho.compose(rho)


def test_brute_force_budget():
    assert brute_force_circle_colorable(_single(40)) is not None
    with pytest.raises(BudgetError):
        brute_force_circle_colorable(_single(41))


def test_sweep_matches_brute_force_on_seeded_instances():
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        cl = random_circle_layers(rng)
        if cl.arc_count() > 12:
            continue
        checked += 1
        fast = circle_colorable(cl)
        brute = brute_force_circle_colorable(cl)
        assert (fast is None) == (brute is None)
        if fast is not None:
            assert verify_circle_coloring(cl, fast)
            assert verify_circle_coloring(cl, brute)


def test_colorable_iff_identity_holonomy():
    rng = random.Random(9)
    for _ in range(30):
        cl = random_circle_layers(rng)
        assert (circle_colorable(cl) is not None) == circle_holonomy(cl).is_identity


def test_verify_rejects_a_partial_coloring():
    witness = circle_colorable(NESTED)
    del witness["l2a1"]
    with pytest.raises(ValueError, match=r"partial coloring; missing regions \['l2a1'\]"):
        verify_circle_coloring(NESTED, witness)


def _sampled_intersections(cl):
    """Reference record from sampled positions, without the sweep: every
    boundary point and the midpoint of every gap between consecutive points,
    the wrap-around gap included.  A subset meets when some sample lies in
    all its arcs, and meets in an arc when some midpoint does."""
    c = cl.circumference
    arcs = []
    for li, points in enumerate(cl.layers, start=1):
        for k, start in enumerate(points):
            end = points[(k + 1) % len(points)]
            arcs.append((f"l{li}a{k}", start, (end - start) % c))
    points = sorted(p for layer in cl.layers for p in layer)
    gaps = zip(points, points[1:] + [points[0] + c])
    samples = [(p, 0) for p in points] + [(((p + q) / 2) % c, 1) for p, q in gaps]
    record = {}
    pairs = set()
    for x, dim in samples:
        cover = sorted(aid for aid, start, length in arcs if (x - start) % c <= length)
        pairs.update(frozenset(pair) for pair in itertools.combinations(cover, 2))
        for size in range(1, len(cover) + 1):
            for q in itertools.combinations(cover, size):
                record[q] = max(record.get(q, 0), dim)
    return record, pairs


def test_intersections_and_meeting_pairs_match_sampled_coverage():
    rng = random.Random(11)
    instances = [random_circle_layers(rng, max_layers=4) for _ in range(240)]
    instances += [
        _single(2),
        _single(5),
        INTERLEAVED,
        NESTED,
        CircleLayers(F(7), ((F(0), F(3)), (F(1), F(2)), (F(1, 2), F(5)))),
        CircleLayers(F(6), ((F(5), F(11, 2)), (F(0), F(1), F(4)))),
    ]
    assert any(0 in layer for cl in instances for layer in cl.layers)
    for cl in instances:
        record, pairs = _sampled_intersections(cl)
        assert dict(circle_intersections(cl).intersections) == record, cl
        assert set(map(frozenset, _meeting_pairs(cl))) == pairs, cl


def _two_point_layers(j):
    """j layers of two points each on a circle of circumference 2j: layer
    i + 1 has the points i and i + j."""
    return CircleLayers(F(2 * j), tuple((F(i), F(i + j)) for i in range(j)))


def test_intersections_over_the_face_budget_raise_before_the_walk(monkeypatch):
    # each of the 2j points has a stab of j + 1 arcs with 2^(j+1) - 1 subsets,
    # counted as the faces of one j-simplex per point: 34 * (2^18 - 1) is
    # within the face budget, 36 * (2^19 - 1) is over it
    def walk(cl):
        raise LookupError("walked")

    monkeypatch.setattr(circles, "_crossings", walk)
    with pytest.raises(LookupError, match="walked"):
        circle_intersections(_two_point_layers(17))
    for j in (18, 20, 64):
        with pytest.raises(BudgetError, match="face budget"):
            circle_intersections(_two_point_layers(j))
    with pytest.raises(BudgetError) as err:
        circle_intersections(_two_point_layers(18))
    assert str(err.value) == (
        f"36 simplices of dimension 18 may have up to {36 * (2**19 - 1)} faces, "
        f"over the face budget of {2**24}"
    )
    with pytest.raises(BudgetError) as err:
        circle_intersections(_two_point_layers(64))
    assert str(err.value) == (
        f"one simplex of dimension 64 has 2^65 - 1 faces, over the face budget of {2**24}"
    )


def _clustered_layers(rng, circumference):
    """Up to 3 layers whose points come in clusters of up to 4 positions
    2^-70 apart, so that neighbours agree in their first 64 binary places;
    position 0 is in the pool half of the time."""
    tiny = F(1, 2**70)
    centres = rng.sample(range(1, 50), 6)
    pool = [circumference * F(c, 50) + k * tiny for c in centres for k in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        pool.append(F(0))
    rng.shuffle(pool)
    j = rng.randint(1, min(3, len(pool) // 2))
    layers = [pool[2 * i : 2 * i + 2] for i in range(j)]
    for p in pool[2 * j :]:
        rng.choice(layers).append(p)
    return CircleLayers(circumference, tuple(tuple(sorted(layer)) for layer in layers))


@pytest.mark.parametrize("circumference", [F(7, 3), F(10**400)])
def test_sweep_order_is_the_exact_sort_of_its_positions(circumference):
    """The sweep order is plain ``sorted()`` on the Fraction events, forward
    and reversed, also for positions closer than 2^-64 and for a
    circumference no float can hold.  The holonomy both ways, the coloring
    and the intersections equal those of the copy with each position
    replaced by its rank, whose integer positions sort on their own."""
    rng = random.Random(31)
    for _ in range(25):
        cl = _clustered_layers(rng, circumference)
        events = [
            (p if p > 0 else circumference, li, k)
            for li, points in enumerate(cl.layers, start=1)
            for k, p in enumerate(points)
        ]
        assert cl.sweep_order == tuple(sorted(events))
        assert cl.sweep_order[::-1] == tuple(sorted(events, reverse=True))
        positions = sorted(p for layer in cl.layers for p in layer)
        assert min(b - a for a, b in zip(positions, positions[1:])) < F(1, 2**64)
        shift = positions[0] != 0  # a point at 0 stays there, crossed last
        rank = {p: F(r + shift) for r, p in enumerate(positions)}
        layers = tuple(tuple(map(rank.get, layer)) for layer in cl.layers)
        ranked = CircleLayers(F(len(positions) + 1), layers)
        for reverse in (False, True):
            assert circle_holonomy(cl, reverse=reverse) == circle_holonomy(ranked, reverse=reverse)
        assert circle_colorable(cl) == circle_colorable(ranked)
        assert circle_intersections(cl) == circle_intersections(ranked)
