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

from .errors import ParseError
from .graphs import Coloring, Graph, _bulk_columns, _fields, emit_dimacs_col, gen_gnp, is_proper_coloring
from .graphs import parse_dimacs_col
from .reduction import lift_witness, project_witness, reduce_to_3col, size_report
from .sat_route import compare_routes, comparison_to_json
from .solver import DEFAULT_BUDGET, solve

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INVARIANT = 4


def _read_graph(path: str) -> Graph:
    return parse_dimacs_col(Path(path).read_bytes())


def _read_source(args) -> Graph:
    if args.k < 2:  # before the file is read, so a bad palette is reported whatever the path
        raise ValueError("--k must be at least 2")
    return _read_graph(args.input)


def _write_witness(path: str, c: Coloring):
    lines = [f"v {v + 1} {color}" for v, color in enumerate(c.assignment)]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_witness(path: str, n: int, k: int) -> Coloring:
    """The layout `_write_witness` writes is read in bulk, any other by `_walk_witness`, which alone raises."""
    data, colors = Path(path).read_bytes(), []
    for block in _bulk_columns(data, 0, b"v"):
        in_order = block and block[0] == list(range(len(colors) + 1, len(colors) + len(block[0]) + 1))
        if not (in_order and 0 <= min(block[1]) <= max(block[1]) < k):
            return _walk_witness(data, n, k)
        colors += block[1]
    return Coloring(k, colors) if len(colors) == n else _walk_witness(data, n, k)


def _walk_witness(text: bytes, n: int, k: int) -> Coloring:
    assignment: list[int | None] = [None] * n
    for lineno, line, parts in _fields(text):
        if len(parts) != 3 or parts[0] != "v":
            raise ParseError(f"malformed witness line {line!r}", lineno)
        try:
            v, color = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        if not (1 <= v <= n):
            raise ParseError(f"vertex {v} out of range 1..{n}", lineno)
        if not (0 <= color < k):
            raise ParseError(f"color {color} out of range 0..{k - 1}", lineno)
        if assignment[v - 1] is not None:
            raise ParseError(f"duplicate line for vertex {v}", lineno)
        assignment[v - 1] = color
    if None in assignment:
        raise ParseError(f"witness missing vertex {assignment.index(None) + 1}", 1)
    return Coloring(k, assignment)


def _cmd_reduce(args) -> int:
    g = _read_source(args)
    gprime, rmap = reduce_to_3col(g, args.k)
    Path(args.output).write_text(emit_dimacs_col(gprime))
    if args.map:
        Path(args.map).write_text(rmap.to_json())
    rep = size_report(g, args.k)
    print(
        f"reduced n={rep.n} e={rep.e} k={rep.k} -> vertices={rep.vertices} edges={rep.edges} "
        f"(bounds: vertices<={rep.crude_bound_vertices} {'holds' if rep.vertex_bound_holds else 'fails'}, "
        f"edges<={rep.crude_bound_edges} {'holds' if rep.edge_bound_holds else 'fails'})"
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _read_graph(args.input)
    outcome = solve(g, args.k, args.timeout)
    if outcome.status == "timeout":
        print(f"timeout after {outcome.wall_time:.2f}s ({outcome.nodes} nodes)")
        return EXIT_TIMEOUT
    if outcome.status == "uncolorable":
        print(f"uncolorable with {args.k} colors ({outcome.nodes} nodes)")
        return EXIT_FALSE
    print(f"colorable with {args.k} colors ({outcome.nodes} nodes)")
    if args.witness:
        _write_witness(args.witness, outcome.witness)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_graph(args.input)
    c = _read_witness(args.witness, g.n, args.k)
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
        lifted = lift_witness(g, src.witness, rmap)
        project_witness(rmap, dst.witness, g)  # raises InvariantViolation if not proper on g
        back = project_witness(rmap, lifted, g)
        if back != src.witness:
            print("round-trip witness mismatch")
            return EXIT_INVARIANT
        print("decisions agree (colorable); witnesses translate both ways")
    else:
        print("decisions agree (uncolorable)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    g = _read_source(args)
    record = compare_routes(g, args.k, args.timeout)
    Path(args.output).write_text(comparison_to_json(record))
    sane, sat = record["sane"], record["sat_route"]
    print(
        f"sane {sane['vertices']}v/{sane['edges']}e vs sat-route "
        f"{sat['vertices']}v/{sat['edges']}e (ratio {record['ratios']['vertices']:.2f}x vertices)"
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = gen_gnp(args.n, args.p, args.seed)
    Path(args.output).write_text(emit_dimacs_col(g))
    print(f"wrote G({args.n}, {args.p}) seed={args.seed}: {g.e} edges")
    return EXIT_OK


@functools.cache  # built once per process; every caller shares it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kcol3", description="k-colorability to 3-colorability reduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--k", type=int, required=True)
    instance.add_argument("--input", required=True)
    budget = dict(type=float, default=DEFAULT_BUDGET)
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
