"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kcol3  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import sane_sizes, sat_route_sizes, witness_problem  # noqa: E402
from workloads import (  # noqa: E402
    Job,
    ReduceLarge,
    RefuteUncolorable,
    WORKLOADS,
    Workload,
    expect_output,
    instance_seed,
    run_cli,
    smallest_last_relabel,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SmallReduce(ReduceLarge):
    N, P, K = 40, 0.1, 3


class SmallRefute(RefuteUncolorable):
    CYCLE, COUNT = 5, 2


def prepared(cls, tmp_path, colorable):
    workload = cls(0, tmp_path)
    workload.setup()
    for inst in workload.instances:
        inst.colorable = colorable
    return workload


def test_metric_names_are_valid_and_match_the_benchmark_file():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert pattern.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_every_metric_is_emitted(tmp_path):
    workload = prepared(SmallRefute, tmp_path, colorable=False)
    tracer = tracing.Tracer()
    passes = [run.run_pass(workload, 0)]
    tracer.install()
    try:
        passes.append(run.run_pass(workload, 1, tracer))
    finally:
        tracer.uninstall()
    assert not [f for p in passes for f in p.failures]
    end_to_end = run.end_to_end_metrics(passes, 0.01, [0.02])
    assert set(end_to_end) == set(run.END_TO_END)
    assert all(v > 0 for v in end_to_end.values())
    per_layer = run.per_layer_metrics(passes, tracer, 0)
    assert set(per_layer) == set(run.PER_LAYER)
    assert all(math.isfinite(v) for v in per_layer.values())
    assert per_layer["solver.solve_calls"] == 8  # two per roundtrip and two per compare, two instances
    assert per_layer["reduction.reduce_calls"] == 4
    assert per_layer["solver.gprime_nodes_ratio"] > 1


def test_uninstall_restores_every_entry_point():
    before = {name: getattr(kcol3, name) for name in ("solve", "reduce_to_3col", "parse_dimacs_col")}
    post_init = kcol3.Graph.__post_init__
    tracer = tracing.Tracer()
    tracer.install()
    assert kcol3.solve is not before["solve"]
    assert kcol3.cli.solve is kcol3.solver.solve is kcol3.solve
    tracer.uninstall()
    assert {name: getattr(kcol3, name) for name in before} == before
    assert kcol3.Graph.__post_init__ is post_init


def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        ["root", 0.0, 10.0, -1, "j"],
        ["a", 1.0, 3.0, 0, "j"],  # back to back with b
        ["a.child", 1.5, 2.5, 1, "j"],
        ["b", 3.0, 6.0, 0, "j"],
        ["c", 7.0, 8.0, 0, "j"],
        ["overlap1", 7.0, 7.6, 4, "j"],  # overlapping children count once
        ["overlap2", 7.4, 7.8, 4, "j"],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 3.0, 0.2, 0.6, 0.4])


@pytest.mark.parametrize("k", [2, 3])
def test_milp_oracle_matches_brute_force_on_all_small_graphs(k):
    nx = pytest.importorskip("networkx")
    from oracle import milp_colorable

    for atlas_graph in nx.graph_atlas_g()[1:]:
        n = atlas_graph.number_of_nodes()
        if n > 6:
            break
        edges = list(atlas_graph.edges())
        brute = any(all(a[u] != a[v] for u, v in edges) for a in product(range(k), repeat=n))
        assert milp_colorable(n, edges, k) == brute, (n, edges, k)


def test_closed_forms_match_the_program():
    for seed in range(6):
        g = kcol3.gen_gnp(9, 0.4, seed)
        for k in (2, 3, 4):
            gprime, _ = kcol3.reduce_to_3col(g, k)
            assert sane_sizes(g.n, g.e, k) == (gprime.n, gprime.e)
            record = kcol3.compare_routes(g, k, with_decisions=False)
            assert sat_route_sizes(g.n, g.e, k) == record["sat_route"]


def test_smallest_last_relabel_bounds_lower_neighbours():
    g = kcol3.gen_gnp(60, 0.05, 3)
    edges, degeneracy = smallest_last_relabel(g.n, g.edges)
    lower = [0] * g.n
    for u, v in edges:
        lower[max(u, v)] += 1
    assert max(lower) == degeneracy
    assert len({frozenset(e) for e in edges}) == g.e


def test_reduce_large_pass_checks_every_output(tmp_path):
    workload = prepared(SmallReduce, tmp_path, colorable=True)
    assert run.run_pass(workload, 0).failures == []
    assert run.run_pass(workload, 1).failures == []  # second pass matches the first's hashes


def test_witness_check():
    assert witness_problem(3, [(0, 1), (1, 2)], 2, [0, 1, 0]) is None
    assert "monochromatic" in witness_problem(3, [(0, 1), (1, 2)], 2, [0, 1, 1])
    assert "outside" in witness_problem(2, [(0, 1)], 2, [0, 2])
    assert "covers" in witness_problem(3, [(0, 1)], 2, [0, 1])


def test_bad_golden_hash_counts_as_a_failed_job(tmp_path):
    workload = prepared(SmallReduce, tmp_path, colorable=True)
    workload.golden = {workload.instances[0].key: {"col_sha256": "0" * 64, "map_sha256": "0" * 64}}
    result = run.run_pass(workload, 0)
    assert len(result.times) == 4  # the pass went on
    assert len(result.failures) == 1
    assert "(reduce): G' file hashes" in result.failures[0]


def test_wrong_exit_code_and_exceptions_count_as_failed_jobs(tmp_path):
    graph_file = tmp_path / "g.col"
    graph_file.write_text("p edge 2 1\ne 1 2\n")
    witness = tmp_path / "w.txt"
    witness.write_text("v 1 0\nv 2 0\n")  # improper: verify exits 1

    class Injected(Workload):
        def jobs(self):
            verify = ["verify", "--k", "2", "--input", str(graph_file), "--witness", str(witness)]
            return [
                Job("verify", lambda: run_cli(verify), lambda r: expect_output(r, 0, "witness valid")),
                Job("verify", lambda: 1 / 0, lambda r: None),
                Job("verify", lambda: run_cli(["verify", "--k", "2"]), lambda r: expect_output(r, 0, "")),
                Job("verify", lambda: run_cli(verify), lambda r: expect_output(r, 1, "witness invalid")),
            ]

    result = run.run_pass(Injected(0, tmp_path), 0)
    assert len(result.times) == 4
    assert len(result.failures) == 3
    assert "exit 1, expected 0" in result.failures[0]
    assert "ZeroDivisionError" in result.failures[1]
    assert "SystemExit" in result.failures[2]


def test_default_seed_reduce_input_has_a_golden_entry(tmp_path):
    workload = ReduceLarge(0, tmp_path)
    key = f"gnp(n=2000,p=0.00197,seed={instance_seed('reduce_large', 0, 0)}),k=5"
    assert key in workload.golden


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "reduce_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
