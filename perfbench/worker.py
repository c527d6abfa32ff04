"""One workload in its own process: set up, say ``ready``, run whole passes
for the given seconds, check every output and print one JSON line.

Usage (run.py starts it): worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

import timing
import tracer as tr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
# Peak memory is read after this many passes, so runs of different length
# compare; every run (and every traced half of a run) makes at least this many.
MIN_PASSES = 3

PER_LAYER_MS = (
    "homology.homology", "homology.smith_invariant_factors",
    "triangulation.parse_triangulation", "triangulation.validate", "triangulation.face_census",
    "triangulation.dual_graph", "triangulation.orientability", "triangulation.is_even_cyclic",
    "triangulation.triangulation_to_text", "builders.barycentric_subdivide",
    "holonomy.hol_generators", "holonomy.is_colorable", "holonomy.holonomy_invariants",
    "holonomy.defect_graphs", "holonomy.propagate", "holonomy.link_loop_permutation",
    "perms.subgroup_closure",
    "circles.circle_holonomy", "circles.circle_colorable", "circles.circle_intersections",
    "gamma.gamma_complex", "gamma.gamma_coloring_transfer",
    "gems.gem_report", "gems.gem_from_coloring", "gems.bicolored_cycles",
    "gems.is_planar_multigraph",
)
PER_LAYER_COUNTS = (
    "homology.smith_invariant_factors.calls", "homology.smith_invariant_factors.nnz",
    "homology.smith_invariant_factors.rank", "holonomy.propagate.calls",
    "holonomy.link_loop_permutation.calls", "gems.is_planar_multigraph.calls",
)
CLI_PROBES = ("cli.python_start_ms", "cli.import_ms", "cli.command_ms")


def per_layer_units() -> dict:
    units = {name: "ms_ref" for name in CLI_PROBES}
    units.update({f"{name}.ms": "ms_ref" for name in PER_LAYER_MS})
    units.update({name: "count" for name in PER_LAYER_COUNTS})
    units["trace.overhead_ratio"] = "ratio"
    return units


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """The passes of one run and what they measured."""

    def __init__(self, workload):
        self.workload = workload
        self.in_children = getattr(workload, "RUNS_IN_CHILDREN", False)
        self.passes = []  # (scaled s, raw s, [(scaled s, raw s) per op])
        self.factors = []  # median reference factor of each pass
        self.layers = {}  # traced pass -> {span name: {"s": scaled s, counters}}
        self.probes = []  # traced CLI pass -> {probe: scaled s}
        self.child_spans = []
        self.attempted = self.failed = 0
        self.errors = []
        self.rss_kb = 0

    def one_pass(self, traced: bool = False, tracer=None) -> None:
        ops = self.workload.ops(traced)
        if tracer is not None:
            tracer.pass_id = len(self.passes)
        done, probes = [], {}
        for op in ops:
            # Each operation starts from a collected heap, so a full collection
            # triggered by the garbage of one operation is not charged to the next.
            gc.collect()
            factor = timing.reference()
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # counted as a failed operation
                result = exc
            wall = time.perf_counter() - start
            if op.probe:
                probes[op.name] = wall * factor
            else:
                done.append((op, result, wall * factor, wall))
        self.passes.append((sum(d[2] for d in done), sum(d[3] for d in done),
                            [(d[2], d[3]) for d in done]))
        self.factors.append(statistics.median(d[2] / d[3] for d in done))
        for op, result, _scaled, _wall in done:
            self.attempted += 1
            if isinstance(result, Exception):
                self.failed += 1
                self.errors.append(f"{op.name}: failed: {type(result).__name__}: {result}")
                continue
            try:
                op.check(result)
            except AssertionError as exc:
                self.errors.append(f"{op.name}: wrong answer: {exc}")
        if traced and self.in_children:
            self._child_layers(done, probes)
        if len(self.passes) == MIN_PASSES:
            who = resource.RUSAGE_CHILDREN if self.in_children else resource.RUSAGE_SELF
            self.rss_kb = resource.getrusage(who).ru_maxrss

    def _child_layers(self, done, probes) -> None:
        """Fold the spans each traced CLI process wrote into this pass."""
        pass_id = len(self.passes) - 1
        merged = self.layers.setdefault(pass_id, {})
        for op, _result, scaled, wall in done:
            if not os.path.exists(op.span_file):  # the process failed before writing
                continue
            with open(op.span_file, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(op.span_file)
            self.child_spans.append({"pass": pass_id, "op": op.name, **data})
            for name, entry in tr.totals(data["spans"], data["sizes"], pass_of=0)[0].items():
                into = merged.setdefault(name, {"s": 0.0, "calls": 0})
                for key, value in entry.items():
                    into[key] = into.get(key, 0) + (value * scaled / wall if key == "s" else value)
        start, imported = probes["python -c pass"], probes["import colorplex"]
        self.probes.append({
            "cli.python_start_ms": start * 1000,
            "cli.import_ms": (imported - start) * 1000,
            "cli.command_ms": (median([d[2] for d in done]) - imported) * 1000,
        })

    def layer_metrics(self, first_traced: int) -> dict:
        values = {}
        for metric, unit in per_layer_units().items():
            if metric in CLI_PROBES:
                samples = [p[metric] for p in self.probes]
            elif metric == "trace.overhead_ratio":
                continue
            else:
                name, key = metric.rsplit(".", 1)
                samples = [self.layers.get(i, {}).get(name, {}).get(key if key != "ms" else "s", 0)
                           * (1000 if key == "ms" else 1)
                           for i in range(first_traced, len(self.passes))]
            values[metric] = {"value": median(samples), "unit": unit}
        untraced = median([p[0] for p in self.passes[:first_traced]])
        traced = median([p[0] for p in self.passes[first_traced:]])
        values["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
        return values


def measure(name, seed, seconds, trace, workload) -> dict:
    run = Run(workload)
    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    while len(run.passes) < MIN_PASSES or time.perf_counter() < untraced_until:
        run.one_pass()
    if not trace:
        ops = [t for p in run.passes for t in p[2]]
        print("raw " + json.dumps({
            "pass_ms": median([p[1] for p in run.passes]) * 1000,
            "op_ms.p50": median([w for _, w in ops]) * 1000,
            "passes": len(run.passes), "ops_per_pass": len(run.passes[0][2])}))
        metrics = {
            "pass_ms": {"value": median([p[0] for p in run.passes]) * 1000, "unit": "ms_ref"},
            "op_ms.p50": {"value": median([s for s, _ in ops]) * 1000, "unit": "ms_ref"},
            "peak_rss_mb": {"value": run.rss_kb / 1024, "unit": "MB"},
        }
    else:
        first = len(run.passes)
        tracer = None
        if not run.in_children:
            tracer = tr.Tracer()
            tracer.install()
        try:
            while len(run.passes) - first < MIN_PASSES or time.perf_counter() < start + seconds:
                run.one_pass(True, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{name}-{seed}.json")
        if tracer is not None:
            tracer.dump(path)
            for pass_id, entries in tr.totals(tracer.spans, tracer.sizes).items():
                for entry in entries.values():
                    entry["s"] *= run.factors[pass_id]
                run.layers[pass_id] = entries
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"processes": run.child_spans}, fh)
        metrics = run.layer_metrics(first)
    for error in run.errors[:20]:
        print(error, file=sys.stderr)
    wrong = len(run.errors) - run.failed
    return {"correct": wrong == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "colorplex", "__init__.py")):
        print(f"no colorplex sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    try:
        print("ready", flush=True)
        if "--setup-only" not in argv:
            print(json.dumps(measure(name, seed, seconds, trace, workload)), flush=True)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
