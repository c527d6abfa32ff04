"""Tests of the benchmark itself: every check rejects a wrong answer, and a
tiny pass of every workload runs clean.

    python -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks as C  # noqa: E402
import inputs as I  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from colorplex import builders, circles, gamma, gems, holonomy, perms, triangulation  # noqa: E402
from colorplex import homology as homology_fn  # noqa: E402  (the function, see tracer.py)


def tri(cx):
    return triangulation.parse_triangulation(I.to_text(cx))


def rejects(check, *args, **kwargs):
    with pytest.raises(C.CheckFailed):
        check(*args, **kwargs)


def test_homology_check_rejects_wrong_betti_and_dropped_torsion():
    rp2 = I.subdivide(I.rp2_6())[0]
    profile = homology_fn(tri(rp2))
    C.check_homology(profile, "rp2", 2, I.euler(rp2))
    rejects(C.check_homology, dataclasses.replace(profile, torsion=((), (), ())), "rp2", 2, 1)
    rejects(C.check_homology, dataclasses.replace(profile, betti=(1, 1, 0)), "rp2", 2, 1)
    torus = homology_fn(tri(I.torus7()))
    rejects(C.check_homology, dataclasses.replace(torus, betti=(1, 2, 2)), "torus", 2, 0)
    rejects(C.check_homology, torus, "torus", 2, 1)  # Euler characteristic mismatch


def test_coloring_checks_reject_flipped_color_and_false_obstruction():
    cx = I.subdivide(I.cross_polytope(3))[0]
    coloring = holonomy.is_colorable(tri(cx))
    C.check_coloring(coloring, cx)
    flipped = dict(coloring)
    v = cx[1][0][0]
    flipped[v] = flipped[cx[1][0][1]]
    rejects(C.check_coloring, flipped, cx)
    rejects(C.check_coloring, None, cx)
    obstructed = I.stellar(cx, 5)
    degrees = I.codim2_degrees(obstructed)
    assert degrees[C.check_obstructed(None, degrees)] % 2 == 1
    rejects(C.check_obstructed, coloring, degrees)
    rejects(C.check_obstructed, None, I.codim2_degrees(cx))


def test_triangulation_checks_reject_wrong_counts():
    cx = I.stellar(I.subdivide(I.torus7())[0], 3)
    t = tri(cx)
    degrees = I.codim2_degrees(cx)
    census = triangulation.face_census(t)
    C.check_census(census, I.face_counts(cx), degrees)
    rejects(C.check_census, census, (1,) + I.face_counts(cx)[1:], degrees)
    wrong = dict(degrees)
    wrong[next(iter(wrong))] += 1
    rejects(C.check_census, census, I.face_counts(cx), wrong)
    report = triangulation.validate(t)
    C.check_validation(report)
    rejects(C.check_validation, dataclasses.replace(report, closed=False))
    graph = triangulation.dual_graph(t)
    C.check_dual(graph, cx)
    rejects(C.check_dual, dataclasses.replace(graph, edges=graph.edges[1:]), cx)


def test_holonomy_checks_reject_wrong_generators_and_loops():
    cx = I.stellar(I.subdivide(I.cross_polytope(3))[0], 7)
    t = tri(cx)
    inv = holonomy.holonomy_invariants(t)
    C.check_invariants(inv, cx, colorable=False)
    rejects(C.check_invariants, dict(inv, generator_count=inv["generator_count"] + 1), cx, False)
    rejects(C.check_invariants, dict(inv, trivial=True), cx, False)
    rejects(C.check_invariants, inv, cx, True)
    degrees = I.codim2_degrees(cx)
    odd = next(f for f, d in degrees.items() if d % 2)
    perm, degree = holonomy.link_loop_permutation(t, odd)
    C.check_link_loop((perm, degree), degrees[odd])
    rejects(C.check_link_loop, (perms.Permutation.identity(4), degree), degrees[odd])
    rejects(C.check_link_loop, (perm, degree + 1), degrees[odd])
    defects = holonomy.defect_graphs(t)
    C.check_defects(defects, degrees)
    rejects(C.check_defects, dataclasses.replace(defects, odd_edges=defects.odd_edges[1:]), degrees)


def test_subdivision_check_rejects_a_bad_coloring():
    cx = I.cross_polytope(3)
    sub, coloring = builders.barycentric_subdivide(tri(cx))
    C.check_subdivision(sub, coloring, cx, I.face_counts(cx))
    wrong = dict(coloring)
    wrong[sub.simplices[0][0]] = wrong[sub.simplices[0][1]]
    rejects(C.check_subdivision, sub, wrong, cx, I.face_counts(cx))
    rejects(C.check_subdivision, dataclasses.replace(sub, simplices=sub.simplices[1:]),
            coloring, cx, I.face_counts(cx))


def test_circle_checks_reject_wrong_lap_and_coloring():
    rng = random.Random(3)
    ok = I.random_layers(3, 20, rng, obstructed=False)
    bad = I.random_layers(3, 20, rng, obstructed=True)
    for layers in (ok, bad):
        cl = circles.parse_circle_layers(layers.text())
        forward, backward = circles.circle_holonomy(cl), circles.circle_holonomy(cl, reverse=True)
        C.check_circle_holonomy(forward, backward, layers)
        C.check_circle_coloring(circles.circle_colorable(cl), layers)
    cl = circles.parse_circle_layers(bad.text())
    forward = circles.circle_holonomy(cl)
    rejects(C.check_circle_holonomy, forward, perms.Permutation.identity(4), bad)
    rejects(C.check_circle_holonomy, perms.Permutation.identity(4),
            circles.circle_holonomy(cl, reverse=True), bad)
    coloring = circles.circle_colorable(circles.parse_circle_layers(ok.text()))
    flipped = dict(coloring)
    flipped["l1a0"] = flipped["l1a1"]
    rejects(C.check_circle_coloring, flipped, ok)
    rejects(C.check_circle_coloring, None, ok)
    rejects(C.check_circle_coloring, coloring, bad)


def test_gamma_checks_reject_missing_sets_wrong_dimension_and_verdict():
    layers = I.random_layers(3, 6, random.Random(4), obstructed=False)
    data = circles.circle_intersections(circles.parse_circle_layers(layers.text()))
    complex_ = gamma.gamma_complex(data)
    coloring = C.lap(layers)[1]
    C.check_intersections(data, layers)
    C.check_gamma(complex_, data)
    C.check_transfer(gamma.gamma_coloring_transfer(data, coloring), layers, coloring)
    rejects(C.check_intersections,
            dataclasses.replace(data, intersections=data.intersections[:-1]), layers)
    ids, dim = complex_.cells[0]
    rejects(C.check_gamma, dataclasses.replace(complex_, cells=((ids, dim + 1),) + complex_.cells[1:]),
            data)
    rejects(C.check_transfer, False, layers, coloring)
    improper = dict(coloring, l1a0=coloring["l2a0"])
    if not C.proper(improper, layers):
        rejects(C.check_transfer, True, layers, improper)


def test_gem_check_rejects_wrong_cycles_and_euler():
    edges = I.random_gem(40, random.Random(5))
    report = gems.gem_report(gems.parse_gem(I.gem_text(edges)))
    C.check_gem_report(report, edges, 40)
    pair, lengths = report.cycle_lengths[0]
    odd = ((pair, (lengths[0] - 1, lengths[0] + 1) + tuple(lengths[1:])),) + report.cycle_lengths[1:]
    rejects(C.check_gem_report, dataclasses.replace(report, cycle_lengths=odd), edges, 40)
    triple, count, flags = report.triple_components[0]
    fewer = ((triple, count + 1, flags),) + report.triple_components[1:]
    rejects(C.check_gem_report, dataclasses.replace(report, triple_components=fewer), edges, 40)
    cx, coloring = I.subdivide(I.cross_polytope(3))
    own = I.gem_of_coloring(cx, coloring)
    cell = gems.gem_report(gems.gem_from_coloring(tri(cx), coloring))
    C.check_gem_report(cell, own, len(cx[1]), codim2=I.codim2_degrees(cx))
    rejects(C.check_gem_report, report, edges, 40, codim2=I.codim2_degrees(cx))


def test_cli_checks_reject_wrong_exit_code_and_fields():
    cli = workloads.CliSmall(seed=6)
    try:
        ops = {op.name: op for op in cli.ops()}
        code, doc = ops["homology rp2_6"].run()
        ops["homology rp2_6"].check((code, doc))
        rejects(ops["homology rp2_6"].check, (1, doc))
        doc["result"]["torsion"] = [[], [], []]
        rejects(ops["homology rp2_6"].check, (code, doc))
        code, doc = ops["circle color ok.circle"].run()
        first = sorted(doc["result"]["witness"])[0]
        doc["result"]["witness"][first] = 1 + doc["result"]["witness"][first] % 3
        rejects(ops["circle color ok.circle"].check, (code, doc))
    finally:
        cli.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_of_every_workload_is_correct(name):
    workload = workloads.WORKLOADS[name](seed=7, tiny=True)
    bench = worker.Run(workload)
    try:
        bench.one_pass()
        bench.one_pass(traced=name == "cli_small")
    finally:
        getattr(workload, "close", lambda: None)()
    assert bench.errors == [] and bench.failed == 0 and bench.attempted > 0


def test_tracer_records_nested_spans():
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        cx = I.cross_polytope(4)
        fresh = tri(I.apply_map(cx, I.relabeling(cx, random.Random(8))))
        sys.modules["colorplex.homology"].homology(fresh)
    finally:
        t.uninstall()
    totals = tracer.totals(t.spans, t.sizes)[0]
    assert totals["homology.smith_invariant_factors"]["calls"] == 4
    assert totals["homology.smith_invariant_factors"]["nnz"] > 0
    assert sys.modules["colorplex.homology"].homology is homology_fn


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["pass_ms", "op_ms.p50", "peak_rss_mb",
                                                       "setup_s"]


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
