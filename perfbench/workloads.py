"""The benchmark's workloads: seeded inputs, user jobs and their checks.

`setup` makes a workload's input graphs from the seed and writes them as
DIMACS files. `jobs` then hands out one pass of jobs at a time. A job's
`run` is the timed user action: a CLI command through `kcol3.cli.main`,
or public library calls. Its `check` runs afterwards, untimed, and
returns what is wrong with the result, or None.

Entry points are looked up on their modules at call time (`kcol3.cli.main`,
`kcol3.solver.solve`, ...) so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kcol3
import kcol3.cli
from checks import parse_col, sane_sizes, sat_route_sizes, witness_problem

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Instance:
    key: str
    graph: kcol3.Graph
    k: int
    path: Path
    colorable: bool | None = None  # the MILP oracle's label

    @property
    def sizes(self) -> tuple[int, int]:
        return sane_sizes(self.graph.n, self.graph.e, self.k)


def instance_seed(workload: str, seed: int, index: int) -> int:
    """The generator seed of a workload's index-th candidate instance."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One `kcol3` command in-process: (exit code, stdout and stderr)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = kcol3.cli.main(argv)
    return code, out.getvalue()


def expect_output(result: tuple[int, str], code: int, phrase: str) -> str | None:
    got, text = result
    if got != code:
        return f"exit {got}, expected {code}: {text.strip()[-200:]}"
    if phrase not in text:
        return f"output lacks {phrase!r}: {text.strip()[-200:]}"
    return None


def compare_problem(record_path: Path, inst: Instance, decision) -> str | None:
    """Check a `compare` record's sizes against the closed forms and both
    decisions against `decision` (None when no decision was asked for)."""
    record = json.loads(record_path.read_text())
    n, e, k = inst.graph.n, inst.graph.e, inst.k
    vertices, edges = inst.sizes
    if record["sane"] != {"vertices": vertices, "edges": edges}:
        return f"sane route sizes {record['sane']} != ({vertices}, {edges})"
    if record["sat_route"] != sat_route_sizes(n, e, k):
        return f"sat route sizes {record['sat_route']} != {sat_route_sizes(n, e, k)}"
    if record["decisions"] != {"sane": decision, "sat_route": decision}:
        return f"decisions {record['decisions']}, expected {decision} on both routes"
    return None


def roundtrip_job(inst: Instance) -> Job:
    outcome = "decisions agree (colorable)" if inst.colorable else "decisions agree (uncolorable)"
    argv = ["roundtrip", "--k", str(inst.k), "--input", str(inst.path)]
    return Job("roundtrip", lambda: run_cli(argv), lambda result: expect_output(result, 0, outcome))


def compare_job(inst: Instance, record: Path, decide: bool = True) -> Job:
    """`compare` at the default solver budget, or at budget 0 (sizes only,
    both decisions null) when `decide` is False."""
    argv = ["compare", "--k", str(inst.k), "--input", str(inst.path), "--output", str(record)]
    if not decide:
        argv += ["--timeout", "0"]
    return Job(
        "compare",
        lambda: run_cli(argv),
        lambda result: expect_output(result, 0, "sane")
        or compare_problem(record, inst, inst.colorable if decide else None),
    )


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.instances: list[Instance] = []

    def graphs(self) -> list[tuple[str, kcol3.Graph, int]]:
        """(key, graph, k) for every input instance, made from the seed."""
        raise NotImplementedError

    def setup(self):
        self.instances = []
        for i, (key, graph, k) in enumerate(self.graphs()):
            path = self.workdir / f"input{i}.col"
            path.write_text(kcol3.emit_dimacs_col(graph))
            self.instances.append(Instance(key, graph, k, path))

    def jobs(self) -> list[Job]:
        raise NotImplementedError


class ReduceLarge(Workload):
    """The ROADMAP top row: reduce one large G, translate a witness across
    G', verify it and compare sizes against the SAT detour."""

    name = "reduce_large"
    N, P, K = 2000, 0.00197, 5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        golden = json.loads(GOLDEN_PATH.read_text())
        self.golden: dict[str, dict[str, str]] = golden[self.name]
        self.reference: dict[str, dict[str, str]] = {}  # first pass's hashes, for inputs without a golden entry

    def graphs(self):
        s = instance_seed(self.name, self.seed, 0)
        return [(f"gnp(n={self.N},p={self.P},seed={s}),k={self.K}", kcol3.gen_gnp(self.N, self.P, s), self.K)]

    def jobs(self) -> list[Job]:
        inst = self.instances[0]
        g, k = inst.graph, inst.k
        gprime, sidecar, witness, record = (
            self.workdir / name for name in ("gprime.col", "gprime.map.json", "lifted.txt", "compare.json")
        )
        for path in (gprime, sidecar, witness, record):
            path.unlink(missing_ok=True)
        vertices, edges = inst.sizes
        gprime_edges: list[tuple[int, int]] = []

        def check_reduce(result):
            problem = expect_output(result, 0, f"vertices={vertices} edges={edges}")
            if problem:
                return problem
            col, sidecar_bytes = gprime.read_bytes(), sidecar.read_bytes()
            n, e, parsed = parse_col(col.decode())
            if (n, e, len(parsed)) != (vertices, edges, edges):
                return f"G' file declares {n}v/{e}e with {len(parsed)} edge lines, expected {vertices}v/{edges}e"
            gprime_edges.extend(parsed)
            hashes = {"col_sha256": hashlib.sha256(col).hexdigest(), "map_sha256": hashlib.sha256(sidecar_bytes).hexdigest()}
            expected = self.golden.get(inst.key) or self.reference.setdefault(inst.key, hashes)
            if hashes != expected:
                return f"G' file hashes {hashes} != {expected}"
            return None

        def translate():
            rmap = kcol3.reduction.ReductionMap.from_json(sidecar.read_text())
            source = kcol3.solver.solve(g, k)
            lifted = kcol3.reduction.lift_witness(g, source.witness, rmap)
            projected = kcol3.reduction.project_witness(rmap, lifted, g)
            return source, lifted, projected

        def check_translate(result):
            source, lifted, projected = result
            if source.status != "colorable" or not inst.colorable:
                return f"source solve says {source.status}, oracle says colorable={inst.colorable}"
            problem = witness_problem(g.n, g.edges, k, source.witness.assignment)
            if problem:
                return f"source witness: {problem}"
            if not gprime_edges:
                return "no G' edges to check the lifted witness against"
            problem = witness_problem(vertices, gprime_edges, 3, lifted.assignment)
            if problem:
                return f"lifted witness: {problem}"
            if projected.assignment != source.witness.assignment:
                return "projected witness differs from the source witness"
            witness.write_text("".join(f"v {v + 1} {c}\n" for v, c in enumerate(lifted.assignment)))
            return None

        reduce_argv = ["reduce", "--k", str(k), "--input", str(inst.path), "--output", str(gprime), "--map", str(sidecar)]
        verify_argv = ["verify", "--k", "3", "--input", str(gprime), "--witness", str(witness)]
        return [
            Job("reduce", lambda: run_cli(reduce_argv), check_reduce),
            Job("translate", translate, check_translate),
            Job("verify", lambda: run_cli(verify_argv), lambda r: expect_output(r, 0, "witness valid")),
            compare_job(inst, record, decide=False),
        ]


def smallest_last_relabel(n: int, edges) -> tuple[list[tuple[int, int]], int]:
    """Renumber vertices so each has as few lower-numbered neighbours as
    possible (reverse smallest-last order); returns the edges and that
    largest count, the graph's degeneracy."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    degree = [len(a) for a in adj]
    left = set(range(n))
    removal, degeneracy = [], 0
    while left:
        v = min(left, key=lambda x: (degree[x], x))
        degeneracy = max(degeneracy, degree[v])
        left.remove(v)
        removal.append(v)
        for w in adj[v]:
            if w in left:
                degree[w] -= 1
    position = {v: i for i, v in enumerate(reversed(removal))}
    return [(position[u], position[v]) for u, v in edges], degeneracy


class SolveColorable(Workload):
    """`roundtrip` on colorable G' of about 5.3k vertices, where the
    solver's per-node scan for the most constrained vertex dominates."""

    name = "solve_colorable"
    N, P, K, COUNT = 250, 0.0095, 3, 8

    def graphs(self):
        out = []
        index = 0
        while len(out) < self.COUNT:
            s = instance_seed(self.name, self.seed, index)
            index += 1
            g = kcol3.gen_gnp(self.N, self.P, s)
            # In this order greedy coloring never runs out of 3 colors,
            # which keeps the G' search free of backtracking (see README).
            edges, degeneracy = smallest_last_relabel(g.n, g.edges)
            if degeneracy <= 2:
                key = f"gnp(n={self.N},p={self.P},seed={s}),smallest-last,k={self.K}"
                out.append((key, kcol3.Graph(g.n, tuple(edges)), self.K))
        return out

    def jobs(self) -> list[Job]:
        return [roundtrip_job(inst) for inst in self.instances]


def mycielskian_of_cycle(m: int) -> list[tuple[int, int]]:
    """Edges of the Mycielskian of the odd cycle C_m: 2m + 1 vertices,
    triangle-free and 4-chromatic, so never 3-colorable."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, (i + 1) % m) for i in range(m)] + [(m + i, (i - 1) % m) for i in range(m)]
    edges += [(2 * m, m + i) for i in range(m)]
    return edges


class RefuteUncolorable(Workload):
    """`roundtrip` and `compare` on uncolorable instances, where the solver
    spends its time backtracking on G' rather than choosing vertices."""

    name = "refute_uncolorable"
    CYCLE, K, COUNT = 7, 3, 20

    def graphs(self):
        base = mycielskian_of_cycle(self.CYCLE)
        n = 2 * self.CYCLE + 1
        out = []
        for index in range(self.COUNT):
            s = instance_seed(self.name, self.seed, index)
            label = list(range(n))
            random.Random(s).shuffle(label)
            edges = tuple((label[u], label[v]) for u, v in base)
            out.append((f"mycielskian(C{self.CYCLE}),shuffle={s},k={self.K}", kcol3.Graph(n, edges), self.K))
        return out

    def jobs(self) -> list[Job]:
        jobs = []
        for i, inst in enumerate(self.instances):
            record = self.workdir / f"compare{i}.json"
            record.unlink(missing_ok=True)
            jobs += [roundtrip_job(inst), compare_job(inst, record)]
        return jobs


WORKLOADS = {cls.name: cls for cls in (ReduceLarge, SolveColorable, RefuteUncolorable)}
