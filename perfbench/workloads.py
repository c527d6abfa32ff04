"""The four workloads.  Each builds its inputs from the seed at set-up and
hands out one pass at a time as a list of ``Op``s: ``run`` is the timed call
into the program, ``check`` compares its result with the benchmark's own
computation afterwards, untimed.

Program functions are always looked up on their module at call time, so the
tracer's rebinding reaches them.  Every pass relabels its triangulations
afresh (order-preserving), so no ``lru_cache`` keyed on a triangulation has
seen them; reuse inside a pass stays, as in the CLI's own commands.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import checks as C
import inputs as I


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    span_file: str | None = None  # spans written by a traced CLI process
    probe: bool = False  # timed for the cli.* layer figures only


def layer(name: str):
    # importlib returns the module: ``import colorplex.homology as h`` would
    # bind the function of that name instead.
    return importlib.import_module(f"colorplex.{name}")


def _relabeled(cx, rng):
    mapping = I.relabeling(cx, rng)
    return mapping, I.apply_map(cx, mapping)


def _map_keys(mapping, table):
    return {tuple(mapping[v] for v in f): d for f, d in table.items()}


class HomologyLadder:
    """homology() over spheres, a torus, projective planes and a 16-cell."""

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.tri, self.hom = layer("triangulation"), layer("homology")
        top = 3 if tiny else 6
        levels = 1 if tiny else 2
        torus, rp2, cell = I.torus7(), I.rp2_6(), I.cross_polytope(3)
        rp2_small = I.subdivide(rp2)[0]
        for _ in range(levels):
            torus, rp2 = I.subdivide(torus)[0], I.subdivide(rp2)[0]
        if not tiny:
            cell = I.subdivide(cell)[0]
        rungs = [(f"S{n}", "sphere", I.cross_polytope(n)) for n in range(2, top + 1)]
        rungs += [("torus", "torus", torus), ("rp2", "rp2", rp2),
                  ("rp2_small", "rp2", rp2_small), ("16-cell", "sphere", cell)]
        self.rungs = [(name, kind, cx, I.euler(cx)) for name, kind, cx in rungs]

    def ops(self, traced: bool = False):
        out = []
        for name, kind, cx, chi in self.rungs:
            t = self.tri.parse_triangulation(I.to_text(_relabeled(cx, self.rng)[1]))
            out.append(Op(name, lambda t=t: self.hom.homology(t),
                          lambda p, kind=kind, n=cx[0], chi=chi: C.check_homology(p, kind, n, chi)))
        return out


class ForcedColoring:
    """The triangulation -> holonomy pipeline on 3k-9k simplex complexes,
    two colorable and two made obstructed by one stellar move, plus one
    barycentric subdivision written back to text."""

    LOOP_SAMPLE = 8

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.tri, self.hol, self.bld = layer("triangulation"), layer("holonomy"), layer("builders")
        cell, torus = I.cross_polytope(3), I.torus7()
        for _ in range(1 if tiny else 2):
            cell = I.subdivide(cell)[0]
        for _ in range(1 if tiny else 3):
            torus = I.subdivide(torus)[0]
        bases = [("16-cell", cell, True), ("torus", torus, True),
                 ("16-cell stellar", I.stellar(cell, self.rng.randrange(len(cell[1]))), False),
                 ("torus stellar", I.stellar(torus, self.rng.randrange(len(torus[1]))), False)]
        self.inputs = []
        for name, cx, colorable in bases:
            degrees = I.codim2_degrees(cx)
            odd = sorted(f for f, d in degrees.items() if d % 2)
            even = sorted(f for f, d in degrees.items() if d % 2 == 0)
            sample = self.rng.sample(odd, min(2, len(odd)))
            sample += self.rng.sample(even, self.LOOP_SAMPLE - len(sample))
            self.inputs.append((name, cx, colorable, I.face_counts(cx), degrees, sample))
        self.to_subdivide = I.subdivide(I.cross_polytope(3))[0] if not tiny else I.cross_polytope(3)
        self.subdivided_counts = I.face_counts(self.to_subdivide)

    def _pipeline(self, text, sample, n):
        tri, hol = self.tri, self.hol
        t = tri.parse_triangulation(text)
        out = {"validation": tri.validate(t), "census": tri.face_census(t),
               "dual": tri.dual_graph(t), "orientable": tri.orientability(t),
               "coloring": hol.is_colorable(t), "invariants": hol.holonomy_invariants(t),
               "loops": [hol.link_loop_permutation(t, f) for f in sample]}
        if n == 3:
            out["defects"] = hol.defect_graphs(t)
        return out

    @staticmethod
    def _check(out, cx, colorable, counts, degrees, sample):
        C.check_validation(out["validation"])
        C.check_census(out["census"], counts, degrees)
        C.check_dual(out["dual"], cx)
        C.require(out["orientable"] is True, "orientable input reported non-orientable")
        if colorable:
            C.check_coloring(out["coloring"], cx)
        else:
            C.check_obstructed(out["coloring"], degrees)
        C.check_invariants(out["invariants"], cx, colorable)
        for face, result in zip(sample, out["loops"]):
            C.check_link_loop(result, degrees[face])
        if cx[0] == 3:
            C.check_defects(out["defects"], degrees)

    def ops(self, traced: bool = False):
        out = []
        for name, cx, colorable, counts, degrees, sample in self.inputs:
            mapping, rcx = _relabeled(cx, self.rng)
            rdeg = _map_keys(mapping, degrees)
            rsample = [tuple(mapping[v] for v in f) for f in sample]
            out.append(Op(
                name,
                lambda text=I.to_text(rcx), s=rsample, n=cx[0]: self._pipeline(text, s, n),
                lambda o, a=(rcx, colorable, counts, rdeg, rsample): self._check(o, *a)))
        rcx = _relabeled(self.to_subdivide, self.rng)[1]
        t = self.tri.parse_triangulation(I.to_text(rcx))

        def subdivide(t=t):
            sub, coloring = self.bld.barycentric_subdivide(t)
            return sub, coloring, self.tri.triangulation_to_text(sub)

        def check(o, rcx=rcx):
            sub, coloring, text = o
            C.check_subdivision(sub, coloring, rcx, self.subdivided_counts)
            C.require(I.parse_text(text) == (sub.dimension, list(sub.simplices)),
                      "triangulation_to_text does not read back to the subdivision")

        out.append(Op("subdivide", subdivide, check))
        return out


class CircleGammaGem:
    """Circle sweeps on 3 layers x ~1,000 points, the gamma complex of
    3 x 40 arcs, and gem reports on random and 16-cell gems."""

    # The median operation falls among the random gems; five of them per
    # pass make it the middle of a larger group.
    RANDOM_GEMS = 5

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.tri, self.circ = layer("triangulation"), layer("circles")
        self.gam, self.gem = layer("gamma"), layer("gems")
        self.per_layer, self.gamma_per_layer = (20, 8) if tiny else (1000, 40)
        self.gem_vertices = 40 if tiny else 2000
        self.cell, coloring = I.subdivide(I.cross_polytope(3))
        self.cell_coloring = coloring
        self.cell_degrees = I.codim2_degrees(self.cell)

    def _circle_op(self, name, obstructed):
        layers = I.random_layers(3, self.per_layer, self.rng, obstructed=obstructed)
        cl = self.circ.parse_circle_layers(layers.text())

        def run():
            circ = self.circ
            return (circ.circle_holonomy(cl), circ.circle_holonomy(cl, reverse=True),
                    circ.circle_colorable(cl))

        def check(o):
            C.check_circle_holonomy(o[0], o[1], layers)
            C.check_circle_coloring(o[2], layers)

        return Op(name, run, check)

    def _gamma_op(self):
        layers = I.random_layers(3, self.gamma_per_layer, self.rng, obstructed=False)
        cl = self.circ.parse_circle_layers(layers.text())
        coloring = C.lap(layers)[1]

        def run():
            data = self.circ.circle_intersections(cl)
            return data, self.gam.gamma_complex(data), self.gam.gamma_coloring_transfer(data, coloring)

        def check(o):
            data, complex_, verdict = o
            C.check_intersections(data, layers)
            C.check_gamma(complex_, data)
            C.check_transfer(verdict, layers, coloring)

        return Op("gamma", run, check)

    def ops(self, traced: bool = False):
        out = [self._circle_op("circle", False), self._circle_op("circle obstructed", True),
               self._gamma_op()]
        for k in range(self.RANDOM_GEMS):
            edges = I.random_gem(self.gem_vertices, self.rng)
            g = self.gem.parse_gem(I.gem_text(edges))
            out.append(Op(f"gem {k}", lambda g=g: self.gem.gem_report(g),
                          lambda r, e=edges: C.check_gem_report(r, e, self.gem_vertices)))
        mapping, rcx = _relabeled(self.cell, self.rng)
        t = self.tri.parse_triangulation(I.to_text(rcx))
        coloring = {mapping[v]: c for v, c in self.cell_coloring.items()}

        def run():
            g = self.gem.gem_from_coloring(t, coloring)
            return g, self.gem.gem_report(g)

        def check(o):
            own = I.gem_of_coloring(rcx, coloring)
            C.require(list(o[0].edges) == own, "gem_from_coloring differs from own encoding")
            C.check_gem_report(o[1], own, len(rcx[1]), codim2=self.cell_degrees)

        out.append(Op("gem 16-cell", run, check))
        return out


# ---------------------------------------------------------------------------
# the CLI, one process per invocation


def _json_report(r):
    """The fields of a gem report JSON document, shaped like a GemReport."""
    return SimpleNamespace(
        vertex_count=r["vertices"], edge_count=r["edges"], euler=r["euler"],
        cycle_lengths=[(tuple(map(int, k.split(","))), v) for k, v in r["bicolored_cycles"].items()],
        triple_components=[(tuple(map(int, k.split(","))), v["components"], v["planar"])
                           for k, v in r["three_color_subgraphs"].items()])


class CliSmall:
    """``python -m colorplex`` once per subcommand on built-in examples and
    small files written at set-up; one client, closed loop."""

    RUNS_IN_CHILDREN = True  # its memory and spans live in child processes

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.root = ROOT
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"), PYTHONHASHSEED="0")
        self.dir = os.path.join(self.root, "perfbench", "out", f"cli-{seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        ok = I.random_layers(2, 6, rng, obstructed=False)
        bad = I.random_layers(2, 6, rng, obstructed=True)
        cell = I.cross_polytope(3)
        cell_coloring = {v: v // 2 + 1 for v in range(8)}
        gem = I.gem_of_coloring(cell, cell_coloring)
        sets = C.intersections(ok)
        files = {
            "ok.circle": ok.text(), "bad.circle": bad.text(), "cell.gem": I.gem_text(gem),
            "bad.tri": "dim two\n0 1 2\n",
            "layers.json": json.dumps({
                "n": 1, "j": ok.j,
                "regions": [{"id": f"l{i + 1}a{k}", "layer": i + 1}
                            for i, pts in enumerate(ok.points) for k in range(len(pts))],
                "intersections": [{"regions": list(q), "dim": d} for q, d in sets.items()]}),
        }
        for name, text in files.items():
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        path = {name: os.path.join(self.dir, name) for name in files}
        # compile the package once, as an installed tool would be
        subprocess.run([sys.executable, "-c", "import colorplex.cli"], env=self.env, check=True)

        torus, octahedron, rp2 = I.torus7(), I.cross_polytope(2), I.rp2_6()
        ok_arcs = sum(len(p) for p in ok.points)
        by_size = {}
        for q in sets:
            by_size[len(q)] = by_size.get(len(q), 0) + 1
        gamma_cells = {str(1 + ok.j - size): count for size, count in sorted(by_size.items())}

        def cycle_type(images):
            seen, lengths = set(), []
            for start in range(1, len(images) + 1):
                length, x = 0, start
                while x not in seen:
                    seen.add(x)
                    x = images[x - 1]
                    length += 1
                if length:
                    lengths.append(length)
            return sorted(lengths, reverse=True)

        def colors(r):
            return {int(k): v for k, v in r.items()}

        def gamma_facts(g):
            C.require(g["cells_by_dimension"] == gamma_cells and g["cell_count"] == len(sets),
                      f"gamma cells {g} != own {gamma_cells}")

        def validate(r):
            C.require(r["validation"]["passed"] and r["orientable"] is True, "torus7 validation")
            C.require(r["census"]["face_counts"] == list(I.face_counts(torus)), "torus7 faces")
            C.require(r["euler"] == I.euler(torus), "torus7 Euler characteristic")
            C.require(r["homology"]["betti"] == list(C.known_homology("torus", 2)[0]), "torus7 Betti")

        def census(r):
            hist = {}
            for d in I.codim2_degrees(cell).values():
                hist[str(d)] = hist.get(str(d), 0) + 1
            C.require(r["face_counts"] == list(I.face_counts(cell)) and r["odd_faces"] == []
                      and r["codim2_degree_histogram"] == hist, "16-cell census")

        def homology(r):
            betti, torsion = C.known_homology("rp2", 2)
            C.require(r["betti"] == list(betti) and r["torsion"] == [list(t) for t in torsion]
                      and r["euler"] == I.euler(rp2), "rp2_6 homology")

        def holonomy(r):
            edges = len(I.faces(torus[1], 2))
            # the 1-skeleton is K7, which no 3 colors can color
            C.require(edges == math.comb(7, 2), "torus7 skeleton is not K7")
            C.require(r["generator_count"] == 3 * len(torus[1]) // 2 - len(torus[1]) + 1
                      and r["degree"] == 3 and r["trivial"] is False, "torus7 holonomy")

        def color(r):
            C.require(r["colorable"] is True, "octahedron reported obstructed")
            C.check_coloring(colors(r["coloring"]), octahedron)

        def obstructed(r):
            C.require(r["colorable"] is False and r["coloring"] is None, "torus7 colored")

        def defects(r):
            C.require(r["odd_edges"] == [] and r["adjacency_empty"] is True, "16-cell defects")
            C.check_coloring(colors(r["four_coloring"]), cell)

        def circle_holonomy(r):
            images, _ = C.lap(bad)
            C.require(r["layers"] == 2 and r["arcs"] == sum(len(p) for p in bad.points)
                      and r["cycle_type"] == cycle_type(images), "circle holonomy")

        def circle_color(r):
            C.require(r["colorable"] is True and r["holonomy"] == "()" and r["arcs"] == ok_arcs,
                      "circle color")
            C.require(set(r["witness"]) == set(C.lap(ok)[1]) and C.proper(r["witness"], ok),
                      "circle witness is not a proper coloring")

        def circle_gamma(r):
            gamma_facts(r["gamma"])

        def gamma(r):
            C.require(r["n"] == 1 and r["j"] == ok.j and r["regions"] == ok_arcs, "gamma header")
            gamma_facts(r["gamma"])

        def gem_report(r):
            C.check_gem_report(_json_report(r), gem, len(cell[1]), codim2=I.codim2_degrees(cell))

        def usage_error(r):
            C.require(r is None, "a parse error returned a result")

        self.cases = [
            (["validate", "--example", "torus7"], 0, validate),
            (["census", "--example", "cross_polytope_boundary:3"], 0, census),
            (["homology", "--example", "rp2_6"], 0, homology),
            (["holonomy", "--example", "torus7"], 0, holonomy),
            (["color", "--example", "cross_polytope_boundary:2"], 0, color),
            (["color", "--example", "torus7"], 1, obstructed),
            (["defects", "--example", "cross_polytope_boundary:3"], 0, defects),
            (["circle", "holonomy", path["bad.circle"]], 0, circle_holonomy),
            (["circle", "color", path["ok.circle"]], 0, circle_color),
            (["circle", "gamma", path["ok.circle"]], 0, circle_gamma),
            (["gamma", path["layers.json"]], 0, gamma),
            (["gem", "report", path["cell.gem"]], 0, gem_report),
            (["homology", path["bad.tri"]], 2, usage_error),
        ]
        self.calls = 0

    def _call(self, argv):
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode not in (0, 1, 2):
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
        return proc.returncode, json.loads(proc.stdout) if proc.stdout else None

    def ops(self, traced: bool = False):
        out = []
        if traced:
            out.append(Op("python -c pass", lambda: self._call([sys.executable, "-c", "pass"]),
                          lambda o: None, probe=True))
            out.append(Op("import colorplex",
                          lambda: self._call([sys.executable, "-c", "import colorplex"]),
                          lambda o: None, probe=True))
        for argv, code, facts in self.cases:
            span_file = None
            prefix = [sys.executable, "-m", "colorplex"]
            if traced:
                self.calls += 1
                span_file = os.path.join(self.dir, f"spans-{self.calls}.json")
                prefix = [sys.executable, os.path.join(self.root, "perfbench", "cli_traced.py"),
                          span_file]

            def check(o, argv=argv, code=code, facts=facts):
                got, doc = o
                C.require(got == code, f"{' '.join(argv)}: exit {got}, contract says {code}")
                C.require(doc["tool"] == "colorplex" and (code == 0) == (doc["diagnostics"] == []),
                          f"{' '.join(argv)}: malformed document")
                facts(doc["result"])

            name = " ".join(os.path.basename(a) for a in argv if not a.startswith("--"))
            out.append(Op(name, lambda a=prefix + argv: self._call(a), check,
                          span_file=span_file))
        return out

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "cli_small": CliSmall,
    "homology_ladder": HomologyLadder,
    "forced_coloring": ForcedColoring,
    "circle_gamma_gem": CircleGammaGem,
}
