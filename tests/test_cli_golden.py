"""Golden CLI outputs: stdout and exit status of fixed invocations.

Every case runs in-process through ``cli.main`` from a fresh working
directory holding the case's input files, named by relative path, so the
documents carry no temporary paths.  ``golden_cli.json`` holds the recorded
outputs; a change that alters any byte of them fails here.  To re-record
after an intended output change, run ``PYTHONPATH=src python
tests/test_cli_golden.py`` and say in the change log which cases moved.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from colorplex import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

TETRA = "dim 2\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
OPEN_DISK = "dim 2\n0 1 2\n0 1 3\n0 2 3\n"
# the barycentric 2-sphere with two far-apart vertices identified
PINCHED_SPHERE = (
    "dim 2\n0 1 7\n0 1 8\n0 2 7\n0 2 9\n0 3 8\n0 3 9\n0 4 10\n0 4 11\n"
    "0 5 10\n0 5 12\n0 6 11\n0 6 12\n1 4 10\n1 4 11\n1 7 10\n1 8 11\n"
    "2 5 10\n2 5 12\n2 7 10\n2 9 12\n3 6 11\n3 6 12\n3 8 11\n3 9 12\n"
)
TWO_LAYERS = "circle 2\nC=4\nlayer: 0 2\nlayer: 1 3\n"
MINIMAL_GEM = "gem 3\n0 1 1\n0 1 2\n0 1 3\n0 1 4\n"
# the gem of the 4-colored octahedral 3-sphere (16 tetrahedra)
OCTAHEDRAL_GEM = (
    "gem 3\n0 1 4\n0 2 3\n0 4 2\n0 8 1\n1 3 3\n1 5 2\n1 9 1\n2 3 4\n2 6 2\n"
    "2 10 1\n3 7 2\n3 11 1\n4 5 4\n4 6 3\n4 12 1\n5 7 3\n5 13 1\n6 7 4\n"
    "6 14 1\n7 15 1\n8 9 4\n8 10 3\n8 12 2\n9 11 3\n9 13 2\n10 11 4\n"
    "10 14 2\n11 15 2\n12 13 4\n12 14 3\n13 15 3\n14 15 4\n"
)


def _gamma_file(n, j, layers, intersections):
    return json.dumps(
        {
            "n": n,
            "j": j,
            "regions": [{"id": r, "layer": layer} for r, layer in layers.items()],
            "intersections": [
                {"regions": ids.split(), "dim": dim} for ids, dim in intersections
            ],
        }
    )


# the intersection data of the circle example nested2, regions renamed
GAMMA_NESTED2 = _gamma_file(
    1,
    2,
    {"a0": 1, "a1": 1, "b0": 2, "b1": 2},
    [
        ("a0", 1), ("a1", 1), ("b0", 1), ("b1", 1),
        ("a0 a1", 0), ("a0 b0", 1), ("a0 b1", 1), ("a1 b1", 1), ("b0 b1", 0),
        ("a0 a1 b1", 0), ("a0 b0 b1", 0),
    ],
)
GAMMA_ARC_PAIR = _gamma_file(1, 1, {"a": 1, "b": 1}, [("a", 1), ("b", 1), ("a b", 0)])
# arcs of two layers overlapping in a segment, recorded as a point
GAMMA_LAW_VIOLATION = _gamma_file(1, 2, {"a": 1, "b": 2}, [("a", 1), ("b", 1), ("a b", 0)])
GAMMA_NO_SINGLETON = _gamma_file(1, 1, {"a": 1, "b": 1}, [("b", 1), ("a b", 0)])

EXAMPLES = {
    "validate": (
        "simplex_boundary:3", "cross_polytope_boundary:3", "torus7", "rp2_6", "circle:5",
    ),
    "census": ("torus7", "cross_polytope_boundary:2"),
    "homology": ("rp2_6", "torus7", "cross_polytope_boundary:3", "simplex_boundary:4"),
    "holonomy": ("simplex_boundary:2", "torus7", "rp2_6", "cross_polytope_boundary:3"),
    "color": ("cross_polytope_boundary:2", "cross_polytope_boundary:3", "torus7", "rp2_6"),
    "localcheck": ("torus7", "simplex_boundary:3", "cross_polytope_boundary:3"),
    "defects": ("simplex_boundary:3", "cross_polytope_boundary:3", "torus7"),
    "subdivide": ("simplex_boundary:2", "circle:4"),
}

# (id, argv, input files by relative name; None makes a directory)
CASES = [
    (f"{cmd}-{name}", [cmd, "--example", name], {})
    for cmd, names in EXAMPLES.items()
    for name in names
]
CASES += [
    (f"oracle-{suite}-seed{seed}", ["oracle", suite, "--seed", str(seed)], {})
    for suite in ("loc123", "gamma", "gem", "circle")
    for seed in (0, 3)
]
CASES += [
    ("localcheck-quiet", ["localcheck", "--example", "torus7", "--quiet"], {}),
    ("validate-file", ["validate", "t.tri"], {"t.tri": TETRA}),
    ("holonomy-file-quiet", ["holonomy", "t.tri", "--quiet"], {"t.tri": TETRA}),
    ("subdivide-file-quiet", ["subdivide", "t.tri", "--quiet"], {"t.tri": TETRA}),
    ("oracle-colors-4", ["oracle", "--example", "simplex_boundary:2", "--colors", "4"], {}),
    ("oracle-colors-file", ["oracle", "t.tri", "--colors", "4"], {"t.tri": TETRA}),
    ("circle-holonomy-interleaved2", ["circle", "holonomy", "--example", "interleaved2"], {}),
    ("circle-color-nested2", ["circle", "color", "--example", "nested2"], {}),
    ("circle-gamma-nested2", ["circle", "gamma", "--example", "nested2"], {}),
    ("circle-gamma-interleaved2", ["circle", "gamma", "--example", "interleaved2"], {}),
    ("circle-holonomy-single6", ["circle", "holonomy", "--example", "single:6"], {}),
    ("circle-holonomy-file", ["circle", "holonomy", "two.circle"], {"two.circle": TWO_LAYERS}),
    ("circle-gamma-file-quiet", ["circle", "gamma", "two.circle", "--quiet"],
     {"two.circle": TWO_LAYERS}),
    ("gamma-nested2", ["gamma", "data.json"], {"data.json": GAMMA_NESTED2}),
    ("gamma-arc-pair-quiet", ["gamma", "data.json", "--quiet"], {"data.json": GAMMA_ARC_PAIR}),
    ("gem-report-minimal", ["gem", "report", "min.gem"], {"min.gem": MINIMAL_GEM}),
    ("gem-report-octahedral", ["gem", "report", "oct.gem"], {"oct.gem": OCTAHEDRAL_GEM}),
    ("gem-dot-minimal", ["gem", "dot", "min.gem"], {"min.gem": MINIMAL_GEM}),
    ("gem-report-dot-flag", ["gem", "report", "oct.gem", "--dot"], {"oct.gem": OCTAHEDRAL_GEM}),
    # exit 1: domain errors
    ("exit1-validate-open-disk", ["validate", "disk.tri"], {"disk.tri": OPEN_DISK}),
    ("exit1-census-open-disk", ["census", "disk.tri"], {"disk.tri": OPEN_DISK}),
    ("exit1-color-pinched", ["color", "pinched.tri"], {"pinched.tri": PINCHED_SPHERE}),
    ("exit1-oracle-colors-3", ["oracle", "--example", "simplex_boundary:2", "--colors", "3"], {}),
    ("exit1-circle-color-interleaved2", ["circle", "color", "--example", "interleaved2"], {}),
    ("exit1-circle-duplicate-position", ["circle", "holonomy", "dup.circle"],
     {"dup.circle": "circle 2\nC=4\nlayer: 0 2\nlayer: 0 3\n"}),
    ("exit1-gamma-law-violation", ["gamma", "data.json"], {"data.json": GAMMA_LAW_VIOLATION}),
    ("exit1-gamma-no-singleton", ["gamma", "data.json"], {"data.json": GAMMA_NO_SINGLETON}),
    ("exit1-gem-structural-fault", ["gem", "report", "bad.gem"],
     {"bad.gem": "gem 3\n0 1 1\n0 1 2\n0 1 3\n"}),
    # exit 2: usage and parse errors
    ("exit2-missing-file", ["validate", "nosuchfile.tri"], {}),
    ("exit2-syntax-error", ["validate", "bad.tri"], {"bad.tri": "dim 2\n1 2 2\n"}),
    ("exit2-undecodable-file", ["gem", "report", "bad"], {"bad": b"\xff\xfe\n"}),
    ("exit2-directory", ["validate", "somedir"], {"somedir": None}),
    ("exit2-two-sources", ["validate", "t.tri", "--example", "torus7"], {"t.tri": TETRA}),
    ("exit2-no-source", ["census"], {}),
    ("exit2-bad-example", ["validate", "--example", "torus7:x"], {}),
    ("exit2-unknown-example", ["homology", "--example", "nosuch"], {}),
    ("exit2-circle-single-bad", ["circle", "holonomy", "--example", "single:abc"], {}),
    ("exit2-circle-unknown-example", ["circle", "gamma", "--example", "nosuch"], {}),
    ("exit2-circle-bad-layer", ["circle", "holonomy", "bad.circle"],
     {"bad.circle": "circle 1\nC=4\nlayer: 2 1\n"}),
    ("exit2-oracle-neither", ["oracle", "--example", "simplex_boundary:2"], {}),
    ("exit2-gamma-no-file", ["gamma"], {}),
    ("exit2-gamma-bad-json", ["gamma", "data.json"], {"data.json": "{not json"}),
    ("exit2-gamma-malformed", ["gamma", "data.json"], {"data.json": '{"n": 1}'}),
    ("exit2-unknown-subcommand", ["frobnicate"], {}),
    ("exit2-unknown-suite", ["oracle", "nosuch"], {}),
    ("exit2-gem-missing-action", ["gem"], {}),
]


def run_case(argv, files, directory: Path) -> tuple[int, str]:
    """Write ``files`` into ``directory``, run ``cli.main(argv)`` there and
    return (exit status, stdout); argparse's own exits are caught."""
    for name, content in files.items():
        path = directory / name
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert len({case_id for case_id, _argv, _files in CASES}) == len(CASES)
    assert sorted(_golden()) == sorted(case_id for case_id, _argv, _files in CASES)


@pytest.mark.parametrize("case_id, argv, files", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(tmp_path, case_id, argv, files):
    expected = _golden()[case_id]
    assert expected["argv"] == argv
    code, stdout = run_case(argv, files, tmp_path)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def record() -> None:
    golden = {}
    for case_id, argv, files in CASES:
        with tempfile.TemporaryDirectory() as directory:
            code, stdout = run_case(argv, files, Path(directory))
        golden[case_id] = {"argv": argv, "exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
