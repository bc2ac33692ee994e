"""Spans around the public entry points of the six `kcol3` layers.

`Tracer.install` rebinds every public function of the layer modules (each
module's `__all__`, and `main` for the CLI) in every `kcol3` namespace
that holds it, so calls between modules are timed too. It also patches
`Graph.__post_init__` and the `ReductionMap` methods `to_json`,
`from_json` and `reconstruct_graph` on their classes. The program itself
is not changed; `uninstall` puts every original back.

A span is `[name, start, end, parent index or -1, job]`. Spans stay in
memory until `write` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "graphs", "gadgets", "reduction", "solver", "sat_route")

# `cli.main` alone stands for the CLI layer, so argument parsing and the
# file I/O of the `_cmd_*` handlers count as its self time.
CLI_ENTRY_POINTS = ("main",)

# Per-layer metric stem -> the spans whose self time and calls it sums.
SPAN_GROUPS = {
    "cli.self": ("cli.main",),
    "graphs.parse": ("graphs.parse_dimacs_col",),
    "graphs.emit": ("graphs.emit_dimacs_col",),
    "graphs.graph_build": ("graphs.Graph.__post_init__",),
    "graphs.check_coloring": ("graphs.is_proper_coloring",),
    "gadgets.attach": ("gadgets.attach_base_gadget", "gadgets.attach_chain_gadget"),
    "gadgets.extend": ("gadgets.extend_coloring",),
    "reduction.reduce": ("reduction.reduce_to_3col",),
    "reduction.lift": ("reduction.lift_witness",),
    "reduction.project": ("reduction.project_witness",),
    "reduction.reconstruct": ("reduction.ReductionMap.reconstruct_graph",),
    "reduction.map_to_json": ("reduction.ReductionMap.to_json",),
    "reduction.map_from_json": ("reduction.ReductionMap.from_json",),
    "reduction.size_report": ("reduction.size_report",),
    "solver.solve": ("solver.solve", "solver.decide"),
    "sat_route.encode_cnf": ("sat_route.encode_col_as_cnf",),
    "sat_route.encode_3col": ("sat_route.encode_cnf_as_3col",),
    "sat_route.compare": ("sat_route.compare_routes",),
}


def _note_solve(args, outcome):
    return outcome.status, outcome.nodes, outcome.wall_time


def _note_graph_build(args, _):
    return len(args[0].edges)


def _note_to_json(args, text):
    return len(text.encode())


NOTES = {
    "solver.solve": _note_solve,
    "graphs.Graph.__post_init__": _note_graph_build,
    "reduction.ReductionMap.to_json": _note_to_json,
}


class Tracer:
    """Records spans while installed; `job` tags each span with the job
    (or `"setup"`) that was running when it started."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[int, object] = {}
        self.current = -1
        self.job: object = "setup"
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, notes, clock = self.spans, self.notes, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            index = len(spans)
            span = [name, 0.0, 0.0, parent, self.job]
            spans.append(span)
            self.current = index
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.current = parent
            if note is not None:
                notes[index] = note(args, result)
            return result

        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"kcol3.{layer}") for layer in LAYERS}
        namespaces = [sys.modules["kcol3"], *modules.values()]
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", CLI_ENTRY_POINTS):
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key in [key for key, value in vars(ns).items() if value is fn]:
                        self._originals.append((ns, key, fn))
                        setattr(ns, key, traced)
        graph_cls = modules["graphs"].Graph
        map_cls = modules["reduction"].ReductionMap
        for layer, cls, attr in (
            ("graphs", graph_cls, "__post_init__"),
            ("reduction", map_cls, "to_json"),
            ("reduction", map_cls, "reconstruct_graph"),
        ):
            fn = cls.__dict__[attr]
            self._originals.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", fn))
        from_json = map_cls.__dict__["from_json"]
        self._originals.append((map_cls, "from_json", from_json))
        map_cls.from_json = classmethod(self.wrap("reduction.ReductionMap.from_json", from_json.__func__))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path):
        """Save every span as one tab-separated line:
        index, name, start, end, parent, job."""
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\tjob\n")
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                out.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def pass_metrics(spans, notes, selfs, indices, wall: float, roundtrip_jobs) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `indices` are the spans of the pass, `selfs` the self time of every
    span, `wall` the summed job time of the pass and `roundtrip_jobs` the
    jobs whose first solve is on G and second on G'.
    """
    group_of = {name: stem for stem, names in SPAN_GROUPS.items() for name in names}
    out: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    solves_by_job: dict[object, list[int]] = defaultdict(list)
    solve_time = 0.0
    for i in indices:
        name, job = spans[i][0], spans[i][4]
        layer_self[name.split(".", 1)[0]] += selfs[i]
        stem = group_of.get(name)
        if stem is not None:
            out[f"{stem}_s"] += selfs[i]
            out[f"{stem}_calls"] += 1
        note = notes.get(i)
        if note is None:  # no note kept, or the call raised
            continue
        if name == "graphs.Graph.__post_init__":
            out["graphs.graph_build_edges"] += note
        elif name == "reduction.ReductionMap.to_json":
            out["reduction.sidecar_bytes"] += note
        elif name == "solver.solve":
            status, nodes, seconds = note
            out["solver.nodes"] += nodes
            out["solver.timeouts"] += status == "timeout"
            solve_time += seconds
            solves_by_job[job].append(nodes)
    out["solver.nodes_per_s"] = out["solver.nodes"] / solve_time if solve_time > 0 else 0.0
    g_nodes = sum(solves_by_job[job][0] for job in roundtrip_jobs if len(solves_by_job[job]) == 2)
    gprime_nodes = sum(solves_by_job[job][1] for job in roundtrip_jobs if len(solves_by_job[job]) == 2)
    out["solver.gprime_nodes_ratio"] = gprime_nodes / g_nodes if g_nodes else 0.0
    for layer in LAYERS:
        out[f"{layer}.wall_share"] = layer_self[layer] / wall if wall > 0 else 0.0
    return out
