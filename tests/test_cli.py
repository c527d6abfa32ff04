import json
import os
import subprocess
import sys

import pytest

import colorplex
from colorplex import (
    circle_layers_to_text,
    cli,
    gem_to_text,
    holonomy,
    parse_circle_layers,
    parse_gem,
    parse_triangulation,
    triangulation_to_text,
)

TETRA = "dim 2\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
OPEN_DISK = "dim 2\n0 1 2\n0 1 3\n0 2 3\n"
MINIMAL_GEM = "gem 3\n0 1 1\n0 1 2\n0 1 3\n0 1 4\n"
TWO_LAYERS = "circle 2\nC=4\nlayer: 0 2\nlayer: 1 3\n"
# the barycentric 2-sphere with two far-apart vertices identified (as vertex
# 0): it validates, but the forced colors disagree around the pinch
PINCHED_SPHERE = (
    "dim 2\n0 1 7\n0 1 8\n0 2 7\n0 2 9\n0 3 8\n0 3 9\n0 4 10\n0 4 11\n"
    "0 5 10\n0 5 12\n0 6 11\n0 6 12\n1 4 10\n1 4 11\n1 7 10\n1 8 11\n"
    "2 5 10\n2 5 12\n2 7 10\n2 9 12\n3 6 11\n3 6 12\n3 8 11\n3 9 12\n"
)


# the child process imports the same colorplex as this one, also when the
# package directory reached sys.path only through pytest's configuration
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(colorplex.__file__)))


def run_cli(*args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "colorplex", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    code, out, _err = run_cli(*args)
    return code, json.loads(out)


def run_in_process(capsys, *args):
    code = cli.main(list(args))
    return code, json.loads(capsys.readouterr().out)


def test_validate_example_passes():
    code, doc = run_json("validate", "--example", "simplex_boundary:3")
    assert code == 0
    assert doc["tool"] == "colorplex"
    assert doc["subcommand"] == "validate"
    assert doc["input"] == "example:simplex_boundary:3"
    assert doc["result"]["validation"]["passed"]
    assert doc["result"]["euler"] == 0  # 5 - 10 + 10 - 5
    assert doc["result"]["homology"]["betti"] == [1, 0, 0, 1]


def test_validate_invalid_complex_exits_1(tmp_path):
    path = tmp_path / "disk.tri"
    path.write_text(OPEN_DISK)
    code, doc = run_json("validate", str(path))
    assert code == 1
    assert not doc["result"]["validation"]["passed"]
    assert doc["diagnostics"] == ["input failed validation"]


def test_file_not_found_exits_2():
    code, doc = run_json("validate", "nosuchfile.tri")
    assert code == 2
    assert "not found" in doc["diagnostics"][0]


def test_syntax_error_exits_2(tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("dim 2\n1 2 2\n")
    code, doc = run_json("validate", str(path))
    assert code == 2
    assert "line 2" in doc["diagnostics"][0]


@pytest.mark.parametrize(
    "args",
    [
        ("validate", "--example", "torus7:x"),
        ("validate", "--example", "nosuch"),
        ("validate", "--example", "torus7:3"),
        ("circle", "holonomy", "--example", "single:abc"),
        ("circle", "holonomy", "--example", "single:1"),
    ],
    ids=[
        "bad-parameter",
        "unknown-name",
        "wrong-arity",
        "circle-single-bad-parameter",
        "circle-single-too-few-points",
    ],
)
def test_bad_example_spec_exits_2(capsys, args):
    code, doc = run_in_process(capsys, *args)
    assert code == 2
    assert doc["result"] is None
    assert doc["diagnostics"][0].startswith(f"bad --example {args[-1]!r}")


def test_value_error_from_computation_exits_1(capsys, tmp_path):
    path = tmp_path / "pinched.tri"
    path.write_text(PINCHED_SPHERE)
    code, doc = run_in_process(capsys, "color", str(path))
    assert code == 1
    assert "manifold" in doc["diagnostics"][0]


@pytest.mark.parametrize(
    "args", [("color", "--example", "torus7"), ("holonomy", "--example", "torus7")]
)
def test_hol_generators_runs_once_per_invocation(capsys, monkeypatch, args):
    calls = []
    original = holonomy.hol_generators

    def counting(t, **kwargs):
        calls.append(t)
        return original(t, **kwargs)

    monkeypatch.setattr(holonomy, "hol_generators", counting)
    holonomy._cached_hol.cache_clear()
    run_in_process(capsys, *args)
    assert len(calls) == 1


def test_unknown_subcommand_exits_2():
    code, _out, _err = run_cli("frobnicate")
    assert code == 2


def test_two_input_sources_rejected(tmp_path):
    path = tmp_path / "t.tri"
    path.write_text(TETRA)
    code, _doc = run_json("validate", str(path), "--example", "torus7")
    assert code == 2


def test_color_torus_exits_1_with_fields():
    code, doc = run_json("color", "--example", "torus7")
    assert code == 1
    assert doc["result"]["colorable"] is False
    assert doc["result"]["holonomy_nontrivial"] is True
    assert doc["input"] == "example:torus7"


def test_color_octahedron_succeeds():
    code, doc = run_json("color", "--example", "cross_polytope_boundary:2")
    assert code == 0
    assert doc["result"]["colorable"] is True
    assert set(doc["result"]["coloring"].values()) <= {1, 2, 3}


def test_quiet_emits_result_only():
    code, doc = run_json("localcheck", "--example", "torus7", "--quiet")
    assert code == 0
    assert doc == {"locally_colorable": True, "odd_faces": []}


def test_holonomy_report():
    code, doc = run_json("holonomy", "--example", "simplex_boundary:2")
    assert code == 0
    result = doc["result"]
    assert result["trivial"] is False
    assert result["generator_count"] == 3
    assert all(g["cycle_type"] == [2, 1] for g in result["generators"])


def test_defects_report():
    code, doc = run_json("defects", "--example", "simplex_boundary:3")
    assert code == 0
    result = doc["result"]
    assert result["defect_regions"] == [0, 1, 2, 3, 4]
    assert len(result["odd_edges"]) == 10
    assert result["four_coloring"] is None


def test_subdivide_output_revalidates():
    code, doc = run_json("subdivide", "--example", "simplex_boundary:2")
    assert code == 0
    sub = parse_triangulation(doc["result"]["triangulation"])
    assert len(sub.simplices) == 24
    code2, doc2 = run_json("census", "--example", "simplex_boundary:2")
    assert code2 == 0


def test_oracle_brute_force_modes():
    code, doc = run_json("oracle", "--example", "simplex_boundary:2", "--colors", "4")
    assert code == 0 and doc["result"]["colorable"]
    code, doc = run_json("oracle", "--example", "simplex_boundary:2", "--colors", "3")
    assert code == 1 and not doc["result"]["colorable"]
    code, _doc = run_json("oracle", "--example", "simplex_boundary:2")
    assert code == 2  # neither suite nor --colors


def test_oracle_suites_pass():
    for suite in ("circle", "gem"):
        code, doc = run_json("oracle", suite)
        assert code == 0
        assert doc["result"]["passed"] is True


def test_circle_subcommands(tmp_path):
    path = tmp_path / "two.circle"
    path.write_text(TWO_LAYERS)
    code, doc = run_json("circle", "holonomy", str(path))
    assert code == 0
    assert doc["result"]["holonomy"] == "(1 3 2)"
    assert doc["subcommand"] == "circle holonomy"

    code, doc = run_json("circle", "color", str(path))
    assert code == 1
    assert doc["result"]["colorable"] is False

    code, doc = run_json("circle", "gamma", str(path))
    assert code == 0  # analysis succeeds whether or not a coloring exists
    assert doc["result"]["gamma"]["cells_by_dimension"] == {"0": 4, "1": 6, "2": 4}
    assert doc["result"]["colorable"] is False


def test_circle_gamma_on_colorable_instance():
    code, doc = run_json("circle", "gamma", "--example", "nested2")
    assert code == 0
    assert doc["result"]["colorable"] is True
    assert doc["result"]["gamma"]["cells_by_dimension"]["0"] == 2


def test_circle_single_example():
    code, doc = run_json("circle", "holonomy", "--example", "single:6")
    assert code == 0
    assert doc["result"]["holonomy"] == "()"


def test_circle_duplicate_position_is_domain_error(tmp_path):
    path = tmp_path / "dup.circle"
    path.write_text("circle 2\nC=4\nlayer: 0 2\nlayer: 0 3\n")
    code, doc = run_json("circle", "holonomy", str(path))
    assert code == 1
    assert "duplicate position" in doc["diagnostics"][0]


def test_gamma_subcommand(tmp_path):
    payload = {
        "n": 1,
        "j": 1,
        "regions": [{"id": "a", "layer": 1}, {"id": "b", "layer": 1}],
        "intersections": [
            {"regions": ["a"], "dim": 1},
            {"regions": ["b"], "dim": 1},
            {"regions": ["a", "b"], "dim": 0},
        ],
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    code, doc = run_json("gamma", str(path))
    assert code == 0
    assert doc["result"]["gamma"]["cells_by_dimension"] == {"0": 1, "1": 2}


def test_gem_report_and_dot(tmp_path):
    path = tmp_path / "min.gem"
    path.write_text(MINIMAL_GEM)
    code, doc = run_json("gem", "report", str(path))
    assert code == 0
    assert doc["result"]["F"] == 6
    assert doc["result"]["euler"] == 0

    code, out, _err = run_cli("gem", "dot", str(path))
    assert code == 0
    assert out.startswith("# gem 3")
    assert "graph gem {" in out


def test_gem_structural_fault_exits_1(tmp_path):
    path = tmp_path / "bad.gem"
    path.write_text("gem 3\n0 1 1\n0 1 2\n0 1 3\n")
    code, doc = run_json("gem", "report", str(path))
    assert code == 1
    assert "degree" in doc["diagnostics"][0]


def test_reports_are_byte_deterministic(tmp_path):
    gem_path = tmp_path / "min.gem"
    gem_path.write_text(MINIMAL_GEM)
    circle_path = tmp_path / "two.circle"
    circle_path.write_text(TWO_LAYERS)
    invocations = [
        ("validate", "--example", "cross_polytope_boundary:3"),
        ("color", "--example", "torus7"),
        ("oracle", "circle", "--seed", "7"),
        ("gem", "report", str(gem_path)),
        ("gem", "dot", str(gem_path)),
        ("circle", "gamma", str(circle_path)),
    ]
    for args in invocations:
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2
        assert out1 == out2


def test_round_trip_all_three_formats(tmp_path):
    t = parse_triangulation(TETRA)
    assert parse_triangulation(triangulation_to_text(t)) == t
    cl = parse_circle_layers(TWO_LAYERS)
    assert parse_circle_layers(circle_layers_to_text(cl)) == cl
    gem = parse_gem(MINIMAL_GEM)
    assert parse_gem(gem_to_text(gem)) == gem
