"""Command line interface: JSON reports over the three file formats.

Every invocation prints a single JSON document (or raw DOT for ``gem dot``)
with keys tool/version/input/subcommand/result/diagnostics; identical inputs
and flags produce byte-identical output.  Exit status: 0 success, 1 domain
error (invalid complex, no coloring when one was demanded, failed suite),
2 usage or parse error (bad syntax, missing file, unknown subcommand).

A handler imports what it runs.  The top of this module imports only what
every triangulation command needs, so that a process pays at start-up for
the layers its subcommand uses and no others.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BudgetError, FormatError
from .homology import homology
from .suites import SUITE_NAMES
from .triangulation import (
    euler_characteristic,
    face_census,
    is_even_cyclic,
    orientability,
    parse_triangulation,
    triangulation_to_text,
    validate,
)

TRIANGULATION_COMMANDS = (
    "validate",
    "census",
    "homology",
    "holonomy",
    "color",
    "localcheck",
    "defects",
    "subdivide",
)

CIRCLE_EXAMPLES = {
    "interleaved2": "circle 2\nC=4\nlayer: 0 2\nlayer: 1 3\n",
    "nested2": "circle 2\nC=4\nlayer: 0 2\nlayer: 1/2 3/2\n",
}


class DomainFailure(Exception):
    """Carries a result payload that should be reported with exit status 1."""

    def __init__(self, result, diagnostics, source=None):
        super().__init__("; ".join(diagnostics))
        self.result = result
        self.diagnostics = diagnostics
        self.source = source


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorplex",
        description="Forced colorings, holonomy and graph encodings of "
        "triangulated complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, with_example=True):
        p.add_argument("input", nargs="?", help="input file path")
        if with_example:
            p.add_argument(
                "--example",
                help="built-in instance, name:params (e.g. cross_polytope_boundary:3)",
            )
        p.add_argument("--quiet", action="store_true", help="print only the result")

    for name in TRIANGULATION_COMMANDS:
        p = sub.add_parser(name)
        add_input(p)

    p = sub.add_parser("oracle")
    p.add_argument(
        "input",
        nargs="?",
        metavar="suite|file",
        help=f"property suite ({', '.join(SUITE_NAMES)}), or with --colors a triangulation file",
    )
    p.add_argument("--example", help="built-in instance, name:params")
    p.add_argument("--colors", type=int, help="brute-force search with this many colors")
    p.add_argument("--seed", type=int, help="seed for a suite's random instances (default 0)")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("circle")
    p.add_argument("action", choices=("holonomy", "color", "gamma"))
    p.add_argument("input", nargs="?", help="circle-layers file")
    p.add_argument(
        "--example", help=f"built-in circle instance: {sorted(CIRCLE_EXAMPLES)} or single:m"
    )
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("gamma")
    add_input(p, with_example=False)

    p = sub.add_parser("gem")
    p.add_argument("action", choices=("report", "dot"))
    p.add_argument("input", help="gem file")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--quiet", action="store_true")

    return parser


def _read_file(path: str) -> str:
    """Read a UTF-8 input file; anything unreadable but present is a
    usage error (exit 2), and a missing file keeps its own diagnostic."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _load_triangulation(args):
    if bool(args.input) == bool(getattr(args, "example", None)):
        raise FormatError("exactly one input source required: a path or --example")
    if args.input:
        return parse_triangulation(_read_file(args.input)), args.input
    from . import builders

    name, _, params = args.example.partition(":")
    try:
        values = [int(tok) for tok in params.split(":") if tok] if params else []
        t = builders.example(name, values)
    except ValueError as exc:
        raise FormatError(f"bad --example {args.example!r}: {exc}") from None
    return t, f"example:{args.example}"


def _load_circle(args):
    from .circles import parse_circle_layers

    if bool(args.input) == bool(args.example):
        raise FormatError("exactly one input source required: a path or --example")
    if args.input:
        return parse_circle_layers(_read_file(args.input)), args.input
    name, _, param = args.example.partition(":")
    if name in CIRCLE_EXAMPLES:
        return parse_circle_layers(CIRCLE_EXAMPLES[name]), f"example:{args.example}"
    if name != "single":
        raise FormatError(f"unknown circle example {args.example!r}")
    try:
        m = int(param)
        text = f"circle 1\nC={m}\nlayer: " + " ".join(str(i) for i in range(m)) + "\n"
        layers = parse_circle_layers(text)
    except ValueError as exc:
        raise FormatError(f"bad --example {args.example!r}: {exc}") from None
    return layers, f"example:{args.example}"


def _coloring_json(coloring):
    if coloring is None:
        return None
    return {str(k): v for k, v in sorted(coloring.items())}


def _full_document(t) -> tuple[dict, bool]:
    report = validate(t)
    doc: dict = {"validation": report.to_json()}
    if report.passed:
        doc["census"] = face_census(t).to_json()
        doc["euler"] = euler_characteristic(t)
        doc["orientable"] = orientability(t)
        doc["even_cyclic"] = is_even_cyclic(t)
        doc["homology"] = homology(t).to_json()
    else:
        doc["census"] = None
        doc["euler"] = None
        doc["orientable"] = None
        doc["even_cyclic"] = None
        doc["homology"] = None
    return doc, report.passed


def _require_valid(t, source):
    report = validate(t)
    if not report.passed:
        raise DomainFailure(
            {"validation": report.to_json()},
            ["input failed validation"],
            source,
        )


def _run_triangulation_command(args):
    t, source = _load_triangulation(args)
    cmd = args.command
    if cmd == "validate":
        doc, passed = _full_document(t)
        if not passed:
            raise DomainFailure(doc, ["input failed validation"], source)
        return doc, source
    _require_valid(t, source)
    if cmd == "census":
        return face_census(t).to_json(), source
    if cmd == "homology":
        profile = homology(t)
        doc = profile.to_json()
        # the Betti numbers' alternating sum is chi, so no face census is built
        doc["euler"] = profile.betti_alternating_sum()
        doc["betti_alternating_sum"] = doc["euler"]
        return doc, source
    if cmd == "holonomy":
        from .holonomy import holonomy_invariants

        inv = holonomy_invariants(t)
        return {
            "base_simplex": list(t.simplices[0]),
            "degree": inv["degree"],
            "generator_count": inv["generator_count"],
            "generators": [
                {"cycle_notation": s, "cycle_type": list(ct)}
                for s, ct in zip(inv["cycle_strings"], inv["cycle_types"])
            ],
            "image_order": inv["image_order"],
            "trivial": inv["trivial"],
        }, source
    if cmd == "color":
        from .holonomy import is_colorable

        # is_colorable returns None exactly when the holonomy is nontrivial
        witness = is_colorable(t)
        doc = {
            "colors": t.dimension + 1,
            "colorable": witness is not None,
            "coloring": _coloring_json(witness),
            "holonomy_nontrivial": witness is None,
        }
        if witness is None:
            raise DomainFailure(doc, ["no forced coloring exists"], source)
        return doc, source
    if cmd == "localcheck":
        from .holonomy import is_locally_colorable

        locally, odd = is_locally_colorable(t)
        return {
            "locally_colorable": locally,
            "odd_faces": [list(f) for f in odd],
        }, source
    if cmd == "defects":
        from .holonomy import defect_free_four_coloring, defect_graphs

        defects = defect_graphs(t)
        return {
            "defect_regions": sorted(defects.regions),
            "odd_edges": [list(e) for e in defects.odd_edges],
            "adjacency_edges": [list(e) for e in defects.adjacency_edges],
            "odd_degrees_even": defects.odd_degrees_even,
            "adjacency_empty": defects.adjacency_empty,
            "adjacency_degrees": {
                str(v): d for v, d in sorted(defects.adjacency_degrees().items())
            },
            "adjacency_triangle_free": defects.adjacency_triangle_free(),
            "four_coloring": _coloring_json(defect_free_four_coloring(t)),
        }, source
    if cmd == "subdivide":
        from .builders import barycentric_subdivide

        sub, coloring = barycentric_subdivide(t)
        return {
            "dim": sub.dimension,
            "vertex_count": len(sub.vertices),
            "simplex_count": len(sub.simplices),
            "triangulation": triangulation_to_text(sub),
            "dimension_coloring": _coloring_json(coloring),
        }, source
    raise AssertionError(cmd)


def _run_oracle(args):
    if args.colors is None:
        if args.input is None:
            raise FormatError("oracle needs either a suite name or --colors")
        if args.example:
            raise FormatError("a suite runs on its own instances; --example needs --colors")
        from .oracles import run_suite

        doc = run_suite(args.input, seed=0 if args.seed is None else args.seed)
        if not doc["passed"]:
            raise DomainFailure(doc, ["suite reported failures"], f"suite:{args.input}")
        return doc, f"suite:{args.input}"
    if args.colors < 1:
        raise FormatError(f"--colors must be at least 1, not {args.colors}")
    if args.seed is not None:
        raise FormatError("the brute-force search draws nothing at random; --seed needs a suite")
    from .holonomy import brute_force_colorable

    t, source = _load_triangulation(args)
    _require_valid(t, source)
    witness = brute_force_colorable(t, args.colors)
    doc = {
        "colors": args.colors,
        "colorable": witness is not None,
        "coloring": _coloring_json(witness),
    }
    if witness is None:
        raise DomainFailure(doc, [f"no {args.colors}-coloring exists"], source)
    return doc, source


def _run_circle(args):
    from .circles import circle_colorable, circle_holonomy, circle_intersections
    from .gamma import gamma_complex

    cl, source = _load_circle(args)
    rho = circle_holonomy(cl)
    base = {
        "layers": cl.j,
        "arcs": cl.arc_count(),
        "holonomy": rho.cycle_string(),
        "cycle_type": list(rho.cycle_type()),
    }
    if args.action == "holonomy":
        return base, source
    witness = circle_colorable(cl)
    base["colorable"] = witness is not None
    base["witness"] = dict(sorted(witness.items())) if witness else None
    if args.action == "color":
        if witness is None:
            raise DomainFailure(base, ["no forced coloring exists"], source)
        return base, source
    data = circle_intersections(cl)
    base["gamma"] = gamma_complex(data).to_json()
    return base, source


def _run_gamma(args):
    if not args.input:
        raise FormatError("gamma needs an intersection-data JSON file")
    from .gamma import gamma_complex, intersection_data_from_json

    data = intersection_data_from_json(_read_file(args.input))
    complex_ = gamma_complex(data)
    return {
        "n": data.n,
        "j": data.j,
        "regions": len(data.regions),
        "gamma": complex_.to_json(),
    }, args.input


def _run_gem(args):
    from .gems import export_dot, gem_report, parse_gem

    gem = parse_gem(_read_file(args.input))
    if args.action == "dot" or args.dot:
        return export_dot(gem), args.input
    return gem_report(gem).to_json(), args.input


def _emit(document: dict, quiet: bool) -> None:
    payload = document["result"] if quiet else document
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and args.colors is None and args.input not in (None, *SUITE_NAMES):
        parser.error(f"oracle: unknown suite {args.input!r}; choose from {', '.join(SUITE_NAMES)}")
    subcommand = args.command
    if args.command in ("circle", "gem"):  # named before the run, so that a failure names it too
        subcommand += f" {args.action}"
    document = {
        "tool": "colorplex",
        "version": __version__,
        "subcommand": subcommand,
        "input": None,
        "result": None,
        "diagnostics": [],
    }
    try:
        if args.command in TRIANGULATION_COMMANDS:
            result, source = _run_triangulation_command(args)
        elif args.command == "oracle":
            result, source = _run_oracle(args)
        elif args.command == "circle":
            result, source = _run_circle(args)
        elif args.command == "gamma":
            result, source = _run_gamma(args)
        elif args.command == "gem":
            result, source = _run_gem(args)
        else:
            raise AssertionError(args.command)
    except FileNotFoundError as exc:
        document["diagnostics"] = [f"file not found: {exc.filename}"]
        _emit(document, args.quiet)
        return 2
    except FormatError as exc:
        document["diagnostics"] = [str(exc)]
        _emit(document, args.quiet)
        return 2
    except DomainFailure as exc:
        document["input"] = exc.source
        document["result"] = exc.result
        document["diagnostics"] = exc.diagnostics
        _emit(document, args.quiet)
        return 1
    except (ValueError, BudgetError) as exc:
        document["diagnostics"] = [str(exc)]
        _emit(document, args.quiet)
        return 1

    if args.command == "gem" and (args.action == "dot" or args.dot):
        sys.stdout.write(result)
        return 0
    document["input"] = source
    document["result"] = result
    _emit(document, args.quiet)
    return 0


if __name__ == "__main__":
    sys.exit(main())
