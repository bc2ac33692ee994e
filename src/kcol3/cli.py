"""Command-line surface.

Script-first design: decisions are communicated through exit codes
(0 success / decision-true, 1 decision-false, 2 usage or parse error,
3 timeout, 4 internal error: a violated invariant or any other exception
nothing else catches); human-readable detail goes to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .graphs import Graph, _emit_witness, _read_witness, emit_dimacs_col, gen_gnp, is_proper_coloring, parse_dimacs_col
from .reduction import _MAX_VERTICES, _project, lift_witness, reduce_to_3col, size_report
from .sat_route import compare_routes, comparison_to_json
from .solver import DEFAULT_BUDGET, solve

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INVARIANT = 4


def _read_source(args, least: int = 2) -> Graph:
    if args.k < least:  # before any file is read, so a bad palette is reported whatever the paths
        raise ValueError(f"--k must be at least {least}")
    return parse_dimacs_col(Path(args.input).read_bytes())


def _read_capped(args) -> Graph:
    """The source of `solve` or `verify`, refused above the G' cap before either makes a list of n entries."""
    g = _read_source(args, 1)
    if g.n > _MAX_VERTICES:
        raise ValueError(f"graph has {g.n} vertices, above the cap of {_MAX_VERTICES}")
    return g


def _cmd_reduce(args) -> int:
    g = _read_source(args)
    gprime, rmap = reduce_to_3col(g, args.k)
    Path(args.output).write_text(emit_dimacs_col(gprime), newline="")
    if args.map:
        Path(args.map).write_text(rmap.to_json(), newline="")
    rep = size_report(g, args.k)
    print(
        f"reduced n={rep.n} e={rep.e} k={rep.k} -> vertices={rep.vertices} edges={rep.edges} "
        f"(bounds: vertices<={rep.crude_bound_vertices} {'holds' if rep.vertex_bound_holds else 'fails'}, "
        f"edges<={rep.crude_bound_edges} {'holds' if rep.edge_bound_holds else 'fails'})"
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _read_capped(args)
    outcome = solve(g, args.k, args.timeout)
    if outcome.status == "timeout":
        print(f"timeout after {outcome.wall_time:.2f}s ({outcome.nodes} nodes)")
        return EXIT_TIMEOUT
    if outcome.status == "uncolorable":
        print(f"uncolorable with {args.k} colors ({outcome.nodes} nodes)")
        return EXIT_FALSE
    print(f"colorable with {args.k} colors ({outcome.nodes} nodes)")
    if args.witness:
        Path(args.witness).write_text(_emit_witness(outcome.witness), newline="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_capped(args)
    c = _read_witness(Path(args.witness).read_bytes(), g.n, args.k)
    if is_proper_coloring(g, c):
        print("witness valid")
        return EXIT_OK
    print("witness invalid")
    return EXIT_FALSE


def _cmd_roundtrip(args) -> int:
    g = _read_source(args)
    gprime, rmap = reduce_to_3col(g, args.k)
    src = solve(g, args.k, args.timeout)
    dst = solve(gprime, 3, args.timeout)
    if src.status == "timeout" or dst.status == "timeout":
        print("timeout before both decisions completed")
        return EXIT_TIMEOUT
    if src.status != dst.status:
        print(f"DISAGREEMENT: source {src.status}, reduced {dst.status}")
        return EXIT_INVARIANT
    if src.status == "colorable":
        # Both G' colorings are checked already: dst.witness by solve, lifted by lift_witness.
        lifted = lift_witness(g, src.witness, rmap)
        _project(rmap, dst.witness)  # raises InvariantViolation if not proper on g
        if _project(rmap, lifted) != src.witness:
            print("round-trip witness mismatch")
            return EXIT_INVARIANT
        print("decisions agree (colorable); witnesses translate both ways")
    else:
        print("decisions agree (uncolorable)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    g = _read_source(args)
    record = compare_routes(g, args.k, args.timeout)
    Path(args.output).write_text(comparison_to_json(record), newline="")
    sane, sat = record["sane"], record["sat_route"]
    print(
        f"sane {sane['vertices']}v/{sane['edges']}e vs sat-route "
        f"{sat['vertices']}v/{sat['edges']}e (ratio {record['ratios']['vertices']:.2f}x vertices)"
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = gen_gnp(args.n, args.p, args.seed)
    Path(args.output).write_text(emit_dimacs_col(g), newline="")
    print(f"wrote G({args.n}, {args.p}) seed={args.seed}: {g.e} edges")
    return EXIT_OK


@functools.cache  # built once per process; every caller shares it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kcol3", description="k-colorability to 3-colorability reduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--k", type=int, required=True)
    instance.add_argument("--input", required=True)

    def seconds(text: str) -> float:  # NaN fails too: no budget check would ever stop it
        if float(text) >= 0:
            return float(text)
        raise argparse.ArgumentTypeError(f"must be at least 0 seconds, got {text!r}")

    budget = dict(type=seconds, default=DEFAULT_BUDGET)
    timed = argparse.ArgumentParser(add_help=False, parents=[instance])
    timed.add_argument("--timeout", **budget)

    p = sub.add_parser("reduce", help="reduce a k-coloring instance to a 3-coloring instance", parents=[instance])
    p.add_argument("--output", required=True)
    p.add_argument("--map", help="write the reduction-map sidecar JSON here")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="decide k-colorability exactly", parents=[timed])
    p.add_argument("--witness", help="write the coloring witness here if colorable")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a coloring witness file", parents=[instance])
    p.add_argument("--witness", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("roundtrip", help="solve both sides of the reduction and translate witnesses", parents=[timed])
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("compare", help="compare the direct route against the SAT detour", parents=[instance])
    p.add_argument("--output", required=True)
    p.add_argument("--timeout", **budget, help="seconds per route; 0: sizes only, both decisions null")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gen", help="generate a random graph deterministically")
    p.add_argument("--model", required=True, choices=["gnp"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError and ConstructionError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # InvariantViolation, ExtensionError or a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
