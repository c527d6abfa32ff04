import itertools
import json
import random
from fractions import Fraction as F

import pytest

from colorplex import (
    CircleLayers,
    LayeredIntersectionData,
    circle_colorable,
    circle_intersections,
    gamma_complex,
    gamma_coloring_transfer,
    intersection_data_from_json,
)
from colorplex import oracles
from colorplex.errors import FormatError
from colorplex.oracles import random_circle_layers

INTERLEAVED = CircleLayers(F(4), ((F(0), F(2)), (F(1), F(3))))
NESTED = CircleLayers(F(4), ((F(0), F(2)), (F(1, 2), F(3, 2))))


def _dims_by_size(data):
    out = {}
    for ids, dim in data.intersections:
        out.setdefault(len(ids), []).append(dim)
    return {k: sorted(v) for k, v in out.items()}


def test_single_layer_intersections_match_the_cell_structure():
    cl = CircleLayers(F(12), (tuple(F(p) for p in (0, 3, 6, 9)),))
    data = circle_intersections(cl)
    # 4 arcs (dim 1) and 4 adjacent pairs (dim 0); nothing else
    assert _dims_by_size(data) == {1: [1, 1, 1, 1], 2: [0, 0, 0, 0]}
    complex_ = gamma_complex(data)
    # one-layer product complex reproduces the circle's own cells
    assert complex_.census() == {0: 4, 1: 4}


def test_interleaved_intersections():
    data = circle_intersections(INTERLEAVED)
    by_size = _dims_by_size(data)
    assert by_size[1] == [1, 1, 1, 1]
    # four cross-layer overlaps plus the two same-layer contact pairs
    assert by_size[2] == [0, 0, 1, 1, 1, 1]
    # the four triples: two adjacent arcs of one layer + covering arc of the other
    assert by_size[3] == [0, 0, 0, 0]
    triples = {ids for ids, _d in data.intersections if len(ids) == 3}
    assert triples == {
        ("l1a0", "l1a1", "l2a0"),
        ("l1a0", "l1a1", "l2a1"),
        ("l1a0", "l2a0", "l2a1"),
        ("l1a1", "l2a0", "l2a1"),
    }


def test_nested_intersections_collapse_duplicate_stabs():
    # both boundary points of each layer see the same covering arc, so the
    # four contact points yield only two distinct region triples
    data = circle_intersections(NESTED)
    triples = {ids for ids, _d in data.intersections if len(ids) == 3}
    assert triples == {
        ("l1a0", "l1a1", "l2a1"),
        ("l1a0", "l2a0", "l2a1"),
    }
    gamma_complex(data)  # laws still hold


def _assert_vertex_facets_are_cells(complex_):
    # each vertex Q touches n + j edges: all its (n + j - 1)-subsets are cells
    cells = {ids for ids, _dim in complex_.cells}
    n_plus_j = complex_.n + complex_.j
    for q in complex_.vertices():
        assert len(q) == n_plus_j
        for sub in itertools.combinations(q, n_plus_j - 1):
            assert sub in cells


def test_gamma_dimension_formula_on_interleaved():
    complex_ = gamma_complex(circle_intersections(INTERLEAVED))
    assert complex_.census() == {0: 4, 1: 6, 2: 4}
    for ids, dim in complex_.cells:
        assert dim == 1 + 2 - len(ids)
    _assert_vertex_facets_are_cells(complex_)


def test_gamma_laws_on_seeded_instances():
    rng = random.Random(1)
    for _ in range(50):
        cl = random_circle_layers(rng)
        data = circle_intersections(cl)
        complex_ = gamma_complex(data)
        n_plus_j = data.n + data.j
        for ids, dim in complex_.cells:
            assert dim == n_plus_j - len(ids)
            assert len(ids) <= n_plus_j
        _assert_vertex_facets_are_cells(complex_)


def test_gamma_suite_reports_a_law_violation_as_a_counterexample(monkeypatch):
    def violating(data):
        raise ValueError("dimension law violated at ['x']")

    monkeypatch.setattr(oracles, "gamma_complex", violating)
    doc = oracles.run_suite("gamma", seed=0)
    laws = doc["properties"][0]
    assert laws["name"] == "dimension and degree laws on 50 seeded instances"
    assert not laws["passed"] and not doc["passed"]
    assert laws["counterexample"][0] == (0, "dimension law violated at ['x']")


def test_transfer_on_proper_and_improper_colorings():
    cl = CircleLayers(F(12), (tuple(F(p) for p in (0, 3, 6, 9)),))
    data = circle_intersections(cl)
    alternating = {"l1a0": 1, "l1a1": 2, "l1a2": 1, "l1a3": 2}
    assert gamma_coloring_transfer(data, alternating)
    assert not gamma_coloring_transfer(data, {k: 1 for k in alternating})


def test_transfer_on_nested_witness():
    data = circle_intersections(NESTED)
    witness = circle_colorable(NESTED)
    assert gamma_coloring_transfer(data, witness)


def test_transfer_rejects_every_3_coloring_of_interleaved():
    data = circle_intersections(INTERLEAVED)
    regions = data.region_ids()
    for combo in itertools.product((1, 2, 3), repeat=4):
        coloring = dict(zip(regions, combo))
        assert not gamma_coloring_transfer(data, coloring)


def test_transfer_requires_total_coloring():
    data = circle_intersections(NESTED)
    with pytest.raises(ValueError, match="partial"):
        gamma_coloring_transfer(data, {"l1a0": 1})


# ---------------------------------------------------------------------------
# abstract intersection data


def _json_instance():
    return {
        "n": 1,
        "j": 2,
        "regions": [
            {"id": "a", "layer": 1},
            {"id": "b", "layer": 1},
            {"id": "c", "layer": 2},
            {"id": "d", "layer": 2},
        ],
        "intersections": [
            {"regions": ["a"], "dim": 1},
            {"regions": ["b"], "dim": 1},
            {"regions": ["c"], "dim": 1},
            {"regions": ["d"], "dim": 1},
            {"regions": ["a", "b"], "dim": 0},
            {"regions": ["c", "d"], "dim": 0},
            {"regions": ["a", "c"], "dim": 1},
            {"regions": ["a", "d"], "dim": 1},
            {"regions": ["b", "c"], "dim": 1},
            {"regions": ["b", "d"], "dim": 1},
            {"regions": ["a", "b", "c"], "dim": 0},
            {"regions": ["a", "b", "d"], "dim": 0},
            {"regions": ["a", "c", "d"], "dim": 0},
            {"regions": ["b", "c", "d"], "dim": 0},
        ],
    }


def test_json_round_trip():
    obj = _json_instance()
    data = intersection_data_from_json(json.dumps(obj))
    # the record lists the entries by size, then by region ids
    entries = sorted(
        ((tuple(x["regions"]), x["dim"]) for x in obj["intersections"]),
        key=lambda kv: (len(kv[0]), kv[0]),
    )
    regions = tuple((r["id"], r["layer"]) for r in obj["regions"])
    assert data == LayeredIntersectionData(1, 2, regions, tuple(entries))
    assert gamma_complex(data).census() == {0: 4, 1: 6, 2: 4}


@pytest.mark.parametrize("value", ["ab", {"a": 0, "b": 1}, None])
def test_json_regions_of_an_intersection_must_be_an_array(value):
    # a string would otherwise be read as its characters: "ab" as {a, b}
    obj = _json_instance()
    for x in obj["intersections"]:
        if x["regions"] == ["a", "b"]:
            x["regions"] = value
    with pytest.raises(FormatError, match="regions must be an array"):
        intersection_data_from_json(json.dumps(obj))


@pytest.mark.parametrize("value", ["ab", {"a": 1}])
def test_json_region_list_must_be_an_array(value):
    obj = dict(_json_instance(), regions=value)
    with pytest.raises(FormatError, match="regions must be an array"):
        intersection_data_from_json(json.dumps(obj))


def test_json_missing_singleton_rejected():
    obj = _json_instance()
    obj["intersections"] = [x for x in obj["intersections"] if x["regions"] != ["a"]]
    with pytest.raises(ValueError, match="singleton"):
        intersection_data_from_json(json.dumps(obj))


def test_json_subset_closure_enforced():
    obj = _json_instance()
    obj["intersections"] = [
        x for x in obj["intersections"] if x["regions"] != ["a", "b"]
    ]
    with pytest.raises(ValueError, match="subset"):
        intersection_data_from_json(json.dumps(obj))


def test_json_same_layer_full_dim_rejected():
    obj = _json_instance()
    for x in obj["intersections"]:
        if x["regions"] == ["a", "b"]:
            x["dim"] = 1
    with pytest.raises(ValueError, match="one layer"):
        intersection_data_from_json(json.dumps(obj))


def test_json_bad_layer_index():
    obj = _json_instance()
    obj["regions"][0]["layer"] = 7
    with pytest.raises(ValueError, match="layer"):
        intersection_data_from_json(json.dumps(obj))


def test_json_text_that_is_not_json_raises_a_format_error():
    with pytest.raises(FormatError) as err:
        intersection_data_from_json("{")
    assert str(err.value).startswith("bad JSON: ")
    assert err.value.line is None


def _edited(edit):
    obj = _json_instance()
    edit(obj)
    return json.dumps(obj)


def _entry(obj, regions):
    return next(x for x in obj["intersections"] if x["regions"] == regions)


# three regions of three layers on a 2-manifold, {a, b} meeting in a point
# but {a, b, c} claiming a curve
_SUBSET_SMALLER = json.dumps(
    {
        "n": 2,
        "j": 3,
        "regions": [{"id": r, "layer": k} for k, r in enumerate("abc", start=1)],
        "intersections": [
            {"regions": ["a"], "dim": 2},
            {"regions": ["b"], "dim": 2},
            {"regions": ["c"], "dim": 2},
            {"regions": ["a", "b"], "dim": 0},
            {"regions": ["a", "c"], "dim": 1},
            {"regions": ["b", "c"], "dim": 1},
            {"regions": ["a", "b", "c"], "dim": 1},
        ],
    }
)


@pytest.mark.parametrize(
    "text, message",
    [
        (_edited(lambda o: o.update(n=0)), "need n >= 1 and j >= 1, got n=0, j=2"),
        (_edited(lambda o: o.update(j=0)), "need n >= 1 and j >= 1, got n=1, j=0"),
        (
            _edited(lambda o: o["regions"].append({"id": "a", "layer": 2})),
            "duplicate region id 'a'",
        ),
        (
            _edited(lambda o: o["intersections"].append({"regions": ["a", "a"], "dim": 0})),
            "repeated region in intersection ('a', 'a')",
        ),
        (
            _edited(lambda o: o["intersections"].append({"regions": ["b", "a"], "dim": 0})),
            "duplicate intersection entry ('a', 'b')",
        ),
        (
            _edited(lambda o: o["intersections"].append({"regions": ["z"], "dim": 1})),
            "intersection ('z',) names unknown regions ['z']",
        ),
        (
            _edited(lambda o: _entry(o, ["a", "c"]).update(dim=2)),
            "intersection ('a', 'c') has dimension 2",
        ),
        (
            _edited(lambda o: _entry(o, ["a"]).update(dim=0)),
            "singleton {'a'} must have dimension 1, got 0",
        ),
        (_SUBSET_SMALLER, "subset ['a', 'b'] has smaller dimension than ['a', 'b', 'c']"),
    ],
    ids=[
        "n-below-1", "j-below-1", "duplicate-region", "repeated-region", "duplicate-entry",
        "unknown-region", "dimension-outside-0..n", "singleton-below-n", "subset-smaller",
    ],
)
def test_json_entry_faults_name_the_entry(text, message):
    with pytest.raises(ValueError) as err:
        intersection_data_from_json(text)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_dimension_law_violation_reported_with_offender():
    obj = _json_instance()
    for x in obj["intersections"]:
        if x["regions"] == ["a", "c"]:
            x["dim"] = 0
    data = intersection_data_from_json(json.dumps(obj))
    with pytest.raises(ValueError, match=r"dimension law.*'a'"):
        gamma_complex(data)


def test_transfer_raises_the_dimension_law_violation():
    obj = _json_instance()
    for x in obj["intersections"]:
        if x["regions"] == ["a", "c"]:
            x["dim"] = 0
    data = intersection_data_from_json(json.dumps(obj))
    coloring = {r: k for k, r in enumerate(data.region_ids())}
    with pytest.raises(ValueError, match=r"dimension law.*'a'"):
        gamma_coloring_transfer(data, coloring)


def test_oversized_subset_rejected():
    tiny = LayeredIntersectionData(
        n=1,
        j=1,
        regions=(("a", 1), ("b", 1), ("c", 1)),
        intersections=(
            (("a",), 1),
            (("b",), 1),
            (("c",), 1),
            (("a", "b"), 0),
            (("a", "c"), 0),
            (("b", "c"), 0),
            (("a", "b", "c"), 0),
        ),
    )
    # {a, b, c} breaks the dimension law: 1 + 1 - 3 < 0, so |Q| <= n + j
    # needs no check of its own
    with pytest.raises(ValueError, match="dimension law"):
        gamma_complex(tiny)
