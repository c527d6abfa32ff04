import ast
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import colorplex
from colorplex import cli, holonomy, parse_triangulation, triangulation

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

# two arcs of one layer on a circle, meeting in two points
GAMMA_ARC_PAIR = {
    "n": 1,
    "j": 1,
    "regions": [{"id": "a", "layer": 1}, {"id": "b", "layer": 1}],
    "intersections": [
        {"regions": ["a"], "dim": 1},
        {"regions": ["b"], "dim": 1},
        {"regions": ["a", "b"], "dim": 0},
    ],
}


# the child process imports the same colorplex as this one, also when the
# package directory reached sys.path only through pytest's configuration
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(colorplex.__file__)))


def run_python(*args, timeout=None):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def run_cli(*args):
    proc = run_python("-m", "colorplex", *args)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_leaves_networkx_unloaded():
    proc = run_python("-c", "import sys, colorplex.cli; print('networkx' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def colorplex_modules_after(*argv):
    """The colorplex submodules a fresh process holds after ``cli.main(argv)``."""
    script = (
        "import json, sys; from colorplex import cli; code = cli.main(sys.argv[1:]); "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('colorplex.'))), "
        "file=sys.stderr); sys.exit(code)"
    )
    proc = run_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("colorplex.") for name in json.loads(proc.stderr)}


def test_validate_imports_only_the_layers_it_runs():
    loaded = colorplex_modules_after("validate", "--example", "torus7", "--quiet")
    assert {"builders", "homology", "triangulation"} <= loaded
    assert loaded.isdisjoint({"circles", "gamma", "gems", "holonomy", "oracles", "perms"})


def test_gamma_leaves_gems_and_oracles_unloaded(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(GAMMA_ARC_PAIR))
    loaded = colorplex_modules_after("gamma", str(path), "--quiet")
    assert "gamma" in loaded
    assert loaded.isdisjoint({"gems", "oracles"})


# every name the package exports, by defining module; the module names
# themselves are exported too
PACKAGE_EXPORTS = {
    "builders": [
        "barycentric_subdivide", "circle", "cross_polytope_boundary", "example", "rp2_6",
        "simplex_boundary", "torus7",
    ],
    "circles": [
        "CircleLayers", "brute_force_circle_colorable", "circle_colorable",
        "circle_holonomy", "circle_intersections", "parse_circle_layers",
        "verify_circle_coloring",
    ],
    "errors": ["BudgetError", "FormatError"],
    "gamma": [
        "GammaComplex", "LayeredIntersectionData", "gamma_complex", "gamma_coloring_transfer",
        "intersection_data_from_json",
    ],
    "gems": [
        "Gem", "GemError", "GemReport", "bicolored_cycles", "export_dot", "gem_from_coloring",
        "gem_report", "gem_to_text", "is_planar_multigraph", "parse_gem",
    ],
    "holonomy": [
        "DefectGraphs", "HolonomyData", "brute_force_colorable", "defect_free_four_coloring",
        "defect_graphs", "hol_generators", "holonomy_invariants", "is_colorable",
        "is_locally_colorable", "link_loop_permutation", "verify_coloring",
    ],
    "homology": ["HomologyProfile", "homology", "smith_invariant_factors"],
    "perms": ["Permutation", "subgroup_closure"],
    "triangulation": [
        "DualGraph", "FaceCensus", "Triangulation", "ValidationReport", "dual_graph",
        "euler_characteristic", "face_census", "is_even_cyclic", "orientability",
        "parse_triangulation", "triangulation_to_text", "validate",
    ],
}

# run in a fresh process, so that every lazy name is resolved here first
PARITY_SCRIPT = """
import importlib, json, sys
import colorplex
exports = json.loads(sys.argv[1])
report = {"mismatched": [], "missing_from_all": [], "missing_from_dir": []}
report["eager"] = sorted(m for m in sys.modules if m.startswith("colorplex."))
listed = dir(colorplex)  # before any lazy name is resolved
for module_name, names in exports.items():
    values = {name: getattr(colorplex, name) for name in names}
    # homology is the function of that name, not its module
    submodule = None if module_name == "homology" else getattr(colorplex, module_name)
    module = importlib.import_module("colorplex." + module_name)
    pairs = [(name, value, getattr(module, name)) for name, value in values.items()]
    if submodule is not None:
        pairs.append((module_name, submodule, module))
    for name, value, expected in pairs:
        if value is not expected:
            report["mismatched"].append(name)
        if name not in colorplex.__all__:
            report["missing_from_all"].append(name)
        if name not in listed:
            report["missing_from_dir"].append(name)
namespace = {}
exec("from colorplex import *", namespace)
report["star"] = sorted(name for name in namespace if name != "__builtins__")
report["has_unknown"] = hasattr(colorplex, "no_such_name")
function = sys.modules["colorplex.homology"].homology
report["homology_is_function"] = [colorplex.homology is function]
import colorplex.cli, colorplex.homology
report["homology_is_function"].append(colorplex.homology is function)
print(json.dumps(report))
"""


def test_lazy_package_keeps_every_export():
    proc = run_python("-c", PARITY_SCRIPT, json.dumps(PACKAGE_EXPORTS))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["eager"] == ["colorplex.errors", "colorplex.homology", "colorplex.triangulation"]
    assert report["mismatched"] == []
    assert report["missing_from_all"] == []
    assert report["missing_from_dir"] == []
    expected = {name for names in PACKAGE_EXPORTS.values() for name in names}
    assert set(report["star"]) == expected | set(PACKAGE_EXPORTS)
    assert report["has_unknown"] is False
    # after every lazy name was touched, then after importing the submodule
    assert report["homology_is_function"] == [True, True]


# Public definitions that no package module uses yet: the benchmark's
# workloads call dual_graph, and both leave when they no longer do
SURFACE_UNUSED = {"dual_graph", "DualGraph.degrees"}
# Fields of package dataclasses and NamedTuples that no package module reads
FIELDS_UNREAD = set()


def _package_trees():
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(pathlib.Path(colorplex.__file__).parent.glob("*.py"))
    ]


def test_every_public_definition_is_used_by_the_package():
    """A public function, class or method whose name no package module uses
    in code (a Name or an attribute; strings, docstrings and imports do not
    count) is test-only code in the library, unless listed above.  A method
    counts as used only when it is reached as an attribute: a local variable
    of the same name does not call it."""
    defined, names, attributes = set(), set(), set()
    for tree in _package_trees():
        bodies = [("", tree.body)]
        while bodies:
            owner, body = bodies.pop()
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not node.name.startswith("_"):
                        defined.add(owner + node.name)
                    if isinstance(node, ast.ClassDef):
                        bodies.append((owner + node.name + ".", node.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unused = set()
    for name in defined:
        owner, _dot, short = name.rpartition(".")
        if short not in attributes and (owner or short not in names):
            unused.add(name)
    assert unused == SURFACE_UNUSED


def _callee_name(node):
    """The name a decorator or base class is bound to: ``dataclass`` for
    ``@dataclass(frozen=True)``, ``NamedTuple`` for ``typing.NamedTuple``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_record_field_is_read_by_the_package():
    """A field of a package dataclass or ``NamedTuple`` whose name no
    package module reads as an attribute is held for tests alone, unless
    listed above."""
    fields, read = set(), set()
    for tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (
                "dataclass" in map(_callee_name, node.decorator_list)
                or "NamedTuple" in map(_callee_name, node.bases)
            ):
                fields.update(
                    (node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(fields) > 20  # a scan that missed the records would pass vacuously
    unread = {f"{owner}.{name}" for owner, name in fields if name not in read}
    assert unread == FIELDS_UNREAD


def test_gem_report_runs_without_networkx(tmp_path):
    path = tmp_path / "min.gem"
    path.write_text(MINIMAL_GEM)
    # a None entry in sys.modules makes every import of networkx fail
    script = (
        "import sys; sys.modules['networkx'] = None; from colorplex import cli; "
        f"sys.exit(cli.main(['gem', 'report', {str(path)!r}]))"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["all_planar"] is True


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


@pytest.mark.parametrize(
    "args",
    [("validate",), ("gem", "report"), ("circle", "holonomy"), ("gamma",)],
    ids=["triangulation", "gem", "circle", "gamma"],
)
def test_undecodable_file_exits_2(capsys, tmp_path, args):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe\n")
    code, doc = run_in_process(capsys, *args, str(path))
    assert code == 2
    assert doc["subcommand"] == " ".join(args)  # the action too, as on success
    assert doc["result"] is None
    assert doc["diagnostics"][0].startswith(f"cannot read {path}: 'utf-8' codec")


def test_directory_input_exits_2(capsys, tmp_path):
    code, doc = run_in_process(capsys, "validate", str(tmp_path))
    assert code == 2
    assert doc["result"] is None
    assert doc["diagnostics"][0].startswith(f"cannot read {tmp_path}: ")


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
    run_in_process(capsys, *args)
    assert len(calls) == 1


@pytest.mark.parametrize("example, euler", [("torus7", 0), ("rp2_6", 1), ("simplex_boundary:4", 2)])
def test_homology_command_prints_euler_without_a_face_census(capsys, monkeypatch, example, euler):
    """``euler`` is the Betti numbers' alternating sum, so the command never
    builds ``t.census``."""

    def refused(t):
        raise AssertionError("face census built")

    monkeypatch.setattr(triangulation, "_census", refused)
    code, doc = run_in_process(capsys, "homology", "--example", example)
    assert code == 0
    assert doc["result"]["euler"] == doc["result"]["betti_alternating_sum"] == euler


# the boundary of the 25-simplex: 26 lines after the header, a valid closed
# 24-sphere whose face lattice would hold 26 * (2^25 - 1) faces
SPHERE_24 = "dim 24\n" + "".join(
    " ".join(map(str, s)) + "\n" for s in itertools.combinations(range(26), 25)
)


def run_budgeted(*args):
    """The CLI under a 1 GiB address-space limit and a timeout, so that a
    path that lost its budget fails the test and not the machine."""
    script = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from colorplex import cli; sys.exit(cli.main(sys.argv[1:]))"
    )
    proc = run_python("-c", script, *args, timeout=120)
    return proc.returncode, json.loads(proc.stdout)


@pytest.mark.parametrize("command", ["census", "homology", "subdivide", "validate"])
def test_face_lattice_over_budget_exits_1(tmp_path, command):
    path = tmp_path / "sphere24.tri"
    path.write_text(SPHERE_24)
    code, doc = run_budgeted(command, str(path))
    assert code == 1
    assert "face budget" in doc["diagnostics"][0]


@pytest.mark.parametrize(
    "example, message",
    [
        ("simplex_boundary:99999999999", "face budget"),
        ("cross_polytope_boundary:99999999999", "face budget"),
        ("cross_polytope_boundary:12", "face budget"),
        ("circle:99999999999", "face budget"),
        # the lattice is small, but the 12 * 11! chains are not
        ("simplex_boundary:10", "subdivision would have 479001600 simplices"),
    ],
)
def test_example_over_budget_exits_1_before_it_is_built(example, message):
    code, doc = run_budgeted("subdivide", "--example", example)
    assert code == 1
    assert message in doc["diagnostics"][0]


def test_circle_gamma_over_budget_exits_1(tmp_path):
    # 20 two-point layers: every one of the 40 stabs holds 21 arcs, whose
    # 2^21 - 1 subsets the intersection record would list
    path = tmp_path / "layers20.circle"
    path.write_text("circle 20\nC=40\n" + "".join(f"layer: {i} {i + 20}\n" for i in range(20)))
    code, doc = run_budgeted("circle", "gamma", str(path))
    assert code == 1
    assert "budget" in doc["diagnostics"][0]
    code, doc = run_budgeted("circle", "holonomy", str(path))  # linear in the points
    assert code == 0
    assert doc["result"]["cycle_type"] == [21]


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


@pytest.mark.parametrize("colors", ["0", "-1"])
def test_oracle_color_count_below_one_is_a_usage_error(capsys, monkeypatch, colors):
    def search(t, colors):
        raise AssertionError("the search ran")

    monkeypatch.setattr(holonomy, "brute_force_colorable", search)
    code, doc = run_in_process(
        capsys, "oracle", "--example", "simplex_boundary:2", "--colors", colors
    )
    assert code == 2
    assert doc["result"] is None
    assert doc["diagnostics"] == [f"--colors must be at least 1, not {colors}"]


def test_oracle_suite_with_example_is_a_usage_error(capsys):
    code, doc = run_in_process(capsys, "oracle", "loc123", "--example", "torus7")
    assert code == 2
    assert doc["result"] is None
    assert "--example" in doc["diagnostics"][0]


def test_oracle_brute_force_with_seed_is_a_usage_error(capsys, monkeypatch):
    def search(t, colors):
        raise AssertionError("the search ran")

    monkeypatch.setattr(holonomy, "brute_force_colorable", search)
    code, doc = run_in_process(
        capsys, "oracle", "--example", "simplex_boundary:2", "--colors", "4", "--seed", "5"
    )
    assert code == 2
    assert doc["result"] is None
    assert "--seed" in doc["diagnostics"][0]


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
    assert doc["subcommand"] == "circle holonomy"
    assert "duplicate position" in doc["diagnostics"][0]


@pytest.mark.parametrize(
    "text",
    [
        "circle 1\nC=4\nlayer: 0\n",
        "circle 1\nC=4\nlayer: 2 1\n",
        "circle 1\nC=4\nlayer: 0 5\n",
        "circle 1\nC=0\nlayer: 0 1\n",
        "circle 0\nC=4\n",
    ],
    ids=["one-point", "decreasing", "outside", "zero-circumference", "no-layers"],
)
def test_circle_file_with_a_bad_layer_exits_2(tmp_path, text):
    path = tmp_path / "bad.circle"
    path.write_text(text)
    code, doc = run_json("circle", "holonomy", str(path))
    assert code == 2
    assert doc["result"] is None


def test_gamma_subcommand(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(GAMMA_ARC_PAIR))
    code, doc = run_json("gamma", str(path))
    assert code == 0
    assert doc["result"]["gamma"]["cells_by_dimension"] == {"0": 1, "1": 2}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 1}, "missing key 'regions'"),
        (dict(GAMMA_ARC_PAIR, n="x"), "n must be an integer, got 'x'"),
        (dict(GAMMA_ARC_PAIR, j=1.5), "j must be an integer, got 1.5"),
        (dict(GAMMA_ARC_PAIR, regions=[{"id": "a"}]), "missing key 'layer'"),
        (dict(GAMMA_ARC_PAIR, intersections=[7]), "'int' object is not subscriptable"),
        (
            dict(GAMMA_ARC_PAIR, intersections=[
                *GAMMA_ARC_PAIR["intersections"][:2], {"regions": "ab", "dim": 0},
            ]),
            "regions must be an array, got 'ab'",
        ),
        (dict(GAMMA_ARC_PAIR, regions={"a": 1}), "regions must be an array, got {'a': 1}"),
    ],
    ids=[
        "missing-key", "non-integer-n", "fractional-j", "region-without-layer", "wrong-type",
        "string-meeting-regions", "object-regions",
    ],
)
def test_malformed_gamma_file_exits_2(capsys, tmp_path, payload, message):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    code, doc = run_in_process(capsys, "gamma", str(path))
    assert code == 2
    assert doc["result"] is None
    assert doc["diagnostics"][0].startswith("malformed intersection data: " + message)


def test_gamma_cross_entry_fault_exits_1(capsys, tmp_path):
    payload = dict(GAMMA_ARC_PAIR, intersections=GAMMA_ARC_PAIR["intersections"][1:])
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    code, doc = run_in_process(capsys, "gamma", str(path))
    assert code == 1
    assert "singleton" in doc["diagnostics"][0]


def _json_fault(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(text)


@pytest.mark.parametrize(
    "args, text, code, diagnostic",
    [
        (("validate",), "dim 2\n0 1 x\n", 2, "line 2: non-integer vertex id in '0 1 x'"),
        (("validate",), OPEN_DISK, 1, "input failed validation"),
        (
            ("circle", "holonomy"),
            "circle 1\nC=4\nlayer: 2 1\n",
            2,
            "line 3: layer 1 positions must be strictly increasing",
        ),
        (
            ("circle", "holonomy"),
            "circle 2\nC=4\nlayer: 0 2\nlayer: 0 3\n",
            1,
            "duplicate position 0 (layers 1 and 2)",
        ),
        (("gem", "report"), "gem 3\n0 1 x\n", 2, "line 2: non-integer token in '0 1 x'"),
        (("gem", "report"), "gem 3\n0 1 1\n0 1 2\n0 1 3\n", 1, "vertex 0 has degree 3, expected 4"),
        (("gamma",), "{", 2, f"bad JSON: {_json_fault('{')}"),
        (
            ("gamma",),
            json.dumps(dict(GAMMA_ARC_PAIR, j=0)),
            1,
            "need n >= 1 and j >= 1, got n=1, j=0",
        ),
    ],
    ids=[
        "triangulation-syntax", "triangulation-structure", "circle-syntax", "circle-structure",
        "gem-syntax", "gem-structure", "gamma-syntax", "gamma-structure",
    ],
)
def test_each_file_format_exits_2_on_syntax_and_1_on_structure(
    capsys, tmp_path, args, text, code, diagnostic
):
    path = tmp_path / "input"
    path.write_text(text)
    status, doc = run_in_process(capsys, *args, str(path))
    assert status == code
    assert doc["diagnostics"] == [diagnostic]
    assert doc["subcommand"] == " ".join(args)


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
    assert doc["subcommand"] == "gem report"
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

