import itertools
import math
import random

import pytest

from colorplex import Permutation, subgroup_closure
from colorplex.errors import BudgetError


def _tr(degree, a, b):
    return Permutation.transposition(degree, a, b)


def _p(*images):
    return Permutation(images)


identity = Permutation.identity


def _from_cycle_string(degree, text):
    """Read cycle notation such as "(1 2)(3 4)" back, "()" being the identity."""
    images = list(range(1, degree + 1))
    for chunk in text[1:-1].split(")("):
        cycle = [int(tok) for tok in chunk.split()]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            images[x - 1] = y
    return Permutation(tuple(images))


def test_compose_transposition_with_itself():
    assert _tr(4, 1, 2).compose(_tr(4, 1, 2)) == identity(4)


def test_invert_three_cycle():
    cycle = _p(2, 3, 1)  # (1 2 3)
    assert cycle.inverse() == _p(3, 1, 2)  # (1 3 2)


def test_cycle_type_includes_fixed_points():
    assert _p(2, 1, 4, 3).cycle_type() == (2, 2)  # (1 2)(3 4)
    assert _tr(3, 1, 2).cycle_type() == (2, 1)
    assert identity(3).cycle_type() == (1, 1, 1)


def test_compose_convention_applies_right_first():
    a = _tr(3, 1, 2)
    b = _tr(3, 2, 3)
    assert a.compose(b)(3) == a(b(3)) == 1


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match="degree"):
        identity(3).compose(identity(4))


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_group_axioms_on_random_elements():
    rng = random.Random(11)
    perms = []
    for _ in range(25):
        images = list(range(1, 6))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    for p, q, r in zip(perms, perms[1:], perms[2:]):
        assert p.compose(q).compose(r) == p.compose(q.compose(r))
        assert p.compose(p.inverse()) == identity(5)
        assert p.inverse().compose(p) == identity(5)


def test_cycle_string_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        images = list(range(1, 7))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert _from_cycle_string(6, p.cycle_string()) == p
    assert identity(4).cycle_string() == "()"
    assert _from_cycle_string(4, "()") == identity(4)
    assert _tr(4, 1, 2).cycle_string() == "(1 2)"
    assert _p(2, 1, 4, 3).cycle_string() == "(1 2)(3 4)"


def test_power():
    cycle = _p(2, 3, 1)  # (1 2 3)
    assert cycle.power(3) == identity(3)
    assert cycle.power(-1) == cycle.inverse()
    assert _tr(2, 1, 2).power(5) == _tr(2, 1, 2)


def test_closure_empty_set():
    order, elements = subgroup_closure([], degree=4)
    assert order == 1
    assert elements == (identity(4),)


def test_closure_single_transposition():
    order, _ = subgroup_closure([_tr(4, 1, 2)], degree=4)
    assert order == 2


def test_closure_star_transpositions_generate_s4():
    gens = [_tr(4, 1, 2), _tr(4, 1, 3), _tr(4, 1, 4)]
    order, elements = subgroup_closure(gens, degree=4)
    assert order == math.factorial(4)
    everything = {
        Permutation(images) for images in itertools.permutations(range(1, 5))
    }
    assert set(elements) == everything


def test_closure_degree_budget():
    with pytest.raises(BudgetError):
        subgroup_closure([], degree=9)


def test_closure_rejects_a_generator_of_another_degree():
    with pytest.raises(ValueError) as err:
        subgroup_closure([_tr(4, 1, 2), _tr(3, 1, 2)], degree=4)
    assert str(err.value) == "degree mismatch: 3 vs 4"
