"""Run one workload of the kcol3 benchmark and print its metrics.

    python3 perfbench/run.py --workload reduce_large --seed 0 --seconds 20 --trace 0

Each invocation is one fresh interpreter running one workload, so state
that `kcol3` leaves in a process (the recursion limit `solve` raises, GC
state, the RSS high-water mark) never carries over to another workload.
The program is imported from `src/` of the checkout this file sits in.

After set-up the workload runs passes of its jobs back to back, one
client in a closed loop, until `--seconds` have passed. With `--trace 0`
it reports end-to-end metrics; with `--trace 1` it alternates untraced
and traced passes and reports per-layer metrics. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; details go to `perfbench/.work/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKDIR = HERE / ".work"
WORKLOAD_NAMES = ("reduce_large", "solve_colorable", "refute_uncolorable")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import kcol3, kcol3.cli; print(time.perf_counter() - start)"
)

END_TO_END = {"wall_s": "s", "job_geomean_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.self_s": "s",
    "graphs.parse_s": "s",
    "graphs.parse_calls": "count",
    "graphs.emit_s": "s",
    "graphs.graph_build_s": "s",
    "graphs.graph_build_calls": "count",
    "graphs.graph_build_edges": "count",
    "graphs.check_coloring_s": "s",
    "graphs.check_coloring_calls": "count",
    "gadgets.attach_s": "s",
    "gadgets.attach_calls": "count",
    "gadgets.extend_s": "s",
    "gadgets.extend_calls": "count",
    "reduction.reduce_s": "s",
    "reduction.reduce_calls": "count",
    "reduction.lift_s": "s",
    "reduction.project_s": "s",
    "reduction.reconstruct_s": "s",
    "reduction.reconstruct_calls": "count",
    "reduction.map_to_json_s": "s",
    "reduction.map_from_json_s": "s",
    "reduction.size_report_s": "s",
    "reduction.sidecar_bytes": "B",
    "solver.solve_s": "s",
    "solver.solve_calls": "count",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.timeouts": "count",
    "solver.gprime_nodes_ratio": "ratio",
    "solver.recursionlimit_raised": "count",
    "sat_route.encode_cnf_s": "s",
    "sat_route.encode_3col_s": "s",
    "sat_route.compare_s": "s",
    "cli.wall_share": "ratio",
    "graphs.wall_share": "ratio",
    "gadgets.wall_share": "ratio",
    "reduction.wall_share": "ratio",
    "solver.wall_share": "ratio",
    "sat_route.wall_share": "ratio",
    "job.reduce_s": "s",
    "job.translate_s": "s",
    "job.verify_s": "s",
    "job.compare_s": "s",
    "job.roundtrip_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


@dataclass
class PassResult:
    index: int
    traced: bool
    times: list[tuple[str, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(t for _, t in self.times)

    def kind_total(self, kind: str) -> float:
        return sum(t for k, t in self.times if k == kind)


def run_pass(workload, index: int, tracer=None) -> PassResult:
    """Run one pass of the workload's jobs; a job that raises, exits wrongly
    or returns a wrong answer is recorded as failed and the pass goes on."""
    result = PassResult(index, tracer is not None)
    for seq, job in enumerate(workload.jobs()):
        if tracer is not None:
            tracer.job = (index, job.kind, seq)
        start = time.perf_counter()
        try:
            outcome = job.run()
        except (Exception, SystemExit) as exc:
            outcome = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.job = None
        if isinstance(outcome, BaseException):
            problem = f"raised {type(outcome).__name__}: {outcome}"
        else:
            try:
                problem = job.check(outcome)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        result.times.append((job.kind, elapsed))
        if problem:
            result.failures.append(f"pass {index} job {seq} ({job.kind}): {problem}")
    return result


def label_instances(instances):
    """Ask the MILP oracle, in its own process, which inputs are k-colorable."""
    (k,) = {inst.k for inst in instances}
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), str(k), *(str(inst.path) for inst in instances)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    for inst, label in zip(instances, json.loads(proc.stdout.splitlines()[-1]), strict=True):
        inst.colorable = label


def import_seconds() -> float:
    """Median time to import `kcol3` and its CLI in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SOURCE)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end_metrics(passes, import_s, setup_times) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "job_geomean_s": statistics.median(geomean(t for _, t in p.times) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_s + statistics.median(setup_times),
    }


def per_layer_metrics(passes, tracer, recursion_raised: int) -> dict[str, float]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    selfs = tracing.self_times(tracer.spans)
    by_pass = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        if isinstance(span[4], tuple):
            by_pass[span[4][0]].append(i)
    per_pass = []
    for p in traced:
        roundtrips = [(p.index, kind, seq) for seq, (kind, _) in enumerate(p.times) if kind == "roundtrip"]
        per_pass.append(tracing.pass_metrics(tracer.spans, tracer.notes, selfs, by_pass[p.index], p.wall, roundtrips))
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_pass) for name in PER_LAYER}
    for kind in ("reduce", "translate", "verify", "compare", "roundtrip"):
        metrics[f"job.{kind}_s"] = statistics.median(p.kind_total(kind) for p in plain)
    metrics["solver.recursionlimit_raised"] = recursion_raised
    metrics["trace.overhead_ratio"] = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1
    attempted = sum(len(p.times) for p in passes)
    metrics["failed_ratio"] = sum(len(p.failures) for p in passes) / attempted
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SOURCE / "kcol3"
    if not (package / "__init__.py").is_file():
        print(f"error: no kcol3 sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    recursion_limit = sys.getrecursionlimit()
    import kcol3
    import kcol3.cli

    if Path(kcol3.__file__).resolve().parent != package.resolve():
        print(f"error: imported kcol3 from {kcol3.__file__}, not from {package}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None

    if tracer is not None:
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()
    label_instances(workload.instances)

    passes: list[PassResult] = []
    start = time.perf_counter()
    while len(passes) < (2 if tracer else 1) or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(workload, len(passes), tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()

    if tracer is None:
        metrics = end_to_end_metrics(passes, import_seconds(), setup_times)
        units = END_TO_END
    else:
        metrics = per_layer_metrics(passes, tracer, sys.getrecursionlimit() - recursion_limit)
        units = PER_LAYER
        tracer.write(workdir / "spans.tsv")
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.times) for p in passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_walls_s": [p.wall for p in passes],
        "instances": [inst.key for inst in workload.instances],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "failures": failures,
    }
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "failures"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
