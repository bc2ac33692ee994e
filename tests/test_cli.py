import json
import os
import subprocess
import sys
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcol3.cli
import kcol3.graphs
import kcol3.reduction
from kcol3 import Coloring, ParseError, SolveOutcome, complete_graph, emit_dimacs_col
from kcol3.cli import build_parser, main
from kcol3.graphs import _bulk_columns, _emit_witness, _read_witness, _walk_witness
from test_graphs import MUTATIONS, _outcome, _read_noting_walker, mutate
from test_solver import cycle_graph


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text(emit_dimacs_col(complete_graph(3)), newline="")
    return path


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.col"
    path.write_text(emit_dimacs_col(complete_graph(4)), newline="")
    return path


def test_reduce_writes_expected_header(tmp_path, k3_file):
    out = tmp_path / "out.col"
    rc = main(["reduce", "--k", "3", "--input", str(k3_file), "--output", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "p edge 63 132"


def test_reduce_writes_map_sidecar(tmp_path, k3_file):
    out, sidecar = tmp_path / "out.col", tmp_path / "map.json"
    rc = main(["reduce", "--k", "3", "--input", str(k3_file), "--output", str(out), "--map", str(sidecar)])
    assert rc == 0
    doc = json.loads(sidecar.read_text())
    assert (doc["k"], doc["n"], doc["e"]) == (3, 3, 3)
    assert (doc["t"], doc["f"], doc["r"]) == (0, 1, 2)
    assert len(doc["indicator"]) == 3 and all(len(row) == 3 for row in doc["indicator"])
    assert {g["tag"].split(":")[0] for g in doc["gadgets"]} == {"at-least-one", "at-most-one", "edge-conflict"}


def test_reduce_rejects_k1(tmp_path, k3_file):
    rc = main(["reduce", "--k", "1", "--input", str(k3_file), "--output", str(tmp_path / "o.col")])
    assert rc == 2


@pytest.mark.parametrize("command", ["roundtrip", "compare"])
def test_k1_is_usage_error(tmp_path, k3_file, capsys, command):
    argv = [command, "--k", "1", "--input", str(k3_file)]
    if command == "compare":
        argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "--k must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["reduce", "roundtrip", "compare"])
def test_palette_is_checked_before_the_file(tmp_path, capsys, command):
    argv = [command, "--k", "1", "--input", str(tmp_path / "nope.col")]
    if command != "roundtrip":
        argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --k must be at least 2\n"


@pytest.mark.parametrize("k", ["0", "-2"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_empty_palette_is_checked_before_the_files(tmp_path, capsys, command, k):
    argv = [command, "--k", k, "--input", str(tmp_path / "nope.col")]
    if command == "verify":
        argv += ["--witness", str(tmp_path / "nope.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --k must be at least 1\n"


def test_one_color_solves_and_verifies_an_edgeless_graph(tmp_path, capsys):
    graph, witness = tmp_path / "g.col", tmp_path / "w.txt"
    graph.write_text("p edge 2 0\n", newline="")
    assert main(["solve", "--k", "1", "--input", str(graph), "--witness", str(witness)]) == 0
    assert main(["verify", "--k", "1", "--input", str(graph), "--witness", str(witness)]) == 0
    assert capsys.readouterr().out.endswith("witness valid\n")


_K_INPUT, _PARSED_K_INPUT = ["--k", "3", "--input", "g.col"], {"k": 3, "input": "g.col"}
# Per subcommand: one argv with only the required options, one with every option; each after --k and --input.
_PARSED = [
    (["reduce", "--output", "o.col"], {"output": "o.col", "map": None}),
    (["reduce", "--output", "o.col", "--map", "m.json"], {"output": "o.col", "map": "m.json"}),
    (["solve"], {"timeout": 10.0, "witness": None}),
    (["solve", "--timeout", "0.5", "--witness", "w.txt"], {"timeout": 0.5, "witness": "w.txt"}),
    (["verify", "--witness", "w.txt"], {"witness": "w.txt"}),
    (["roundtrip"], {"timeout": 10.0}),
    (["roundtrip", "--timeout", "2"], {"timeout": 2.0}),
    (["compare", "--output", "c.json"], {"output": "c.json", "timeout": 10.0}),
    (["compare", "--output", "c.json", "--timeout", "0"], {"output": "c.json", "timeout": 0.0}),
]


@pytest.mark.parametrize("argv, expected", _PARSED, ids=[" ".join(argv) for argv, _ in _PARSED])
def test_parser_contract(argv, expected):
    argv = [argv[0], *_K_INPUT, *argv[1:]]
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("func") is getattr(kcol3.cli, f"_cmd_{argv[0]}")
    assert parsed == {"command": argv[0], **_PARSED_K_INPUT, **expected}
    for at in (1, 3):  # without --k, then without --input
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv[:at] + argv[at + 2 :])
        assert exc.value.code == 2


def test_gen_parser_contract():
    argv = ["gen", "--model", "gnp", "--n", "8", "--p", "0.5", "--seed", "42", "--output", "g.col"]
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("func") is kcol3.cli._cmd_gen
    assert parsed == {"command": "gen", "model": "gnp", "n": 8, "p": 0.5, "seed": 42, "output": "g.col"}


def test_reduce_deterministic(tmp_path, k3_file):
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    main(["reduce", "--k", "3", "--input", str(k3_file), "--output", str(a)])
    main(["reduce", "--k", "3", "--input", str(k3_file), "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_reduce_malformed_input(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 1\n", newline="")
    rc = main(["reduce", "--k", "3", "--input", str(bad), "--output", str(tmp_path / "o.col")])
    assert rc == 2


def test_solve_rejects_wrong_declared_edge_count(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 7\ne 1 2\n", newline="")
    assert main(["solve", "--k", "3", "--input", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["e \u0661 2".encode(), b"e 1 2\xff"], ids=["arabic-indic-digit", "byte-0xff"])
def test_solve_rejects_non_ascii_graph(tmp_path, capsys, line):
    path = tmp_path / "g.col"
    path.write_bytes(b"c two vertices\np edge 2 1\n" + line + b"\n")
    assert main(["solve", "--k", "2", "--input", str(path)]) == 2
    assert "line 3: non-ASCII character" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["v 3 \u0662".encode(), b"v 3 2\xff"], ids=["arabic-indic-digit", "byte-0xff"])
def test_verify_rejects_non_ascii_witness(tmp_path, k3_file, capsys, line):
    witness = tmp_path / "w.txt"
    witness.write_bytes(b"v 1 0\nv 2 1\n" + line + b"\n")
    assert main(["verify", "--k", "3", "--input", str(k3_file), "--witness", str(witness)]) == 2
    assert "line 3: non-ASCII character" in capsys.readouterr().err


def test_solve_exit_codes(tmp_path, k4_file):
    assert main(["solve", "--k", "3", "--input", str(k4_file)]) == 1
    assert main(["solve", "--k", "4", "--input", str(k4_file)]) == 0


def test_solve_witness_then_verify(tmp_path, k4_file):
    witness = tmp_path / "w.txt"
    assert main(["solve", "--k", "4", "--input", str(k4_file), "--witness", str(witness)]) == 0
    assert main(["verify", "--k", "4", "--input", str(k4_file), "--witness", str(witness)]) == 0


def test_written_files_are_byte_exact_under_text_mode_newlines(tmp_path, monkeypatch):
    """Every file the CLI writes has LF line ends even where text mode writes a newline as CRLF, as on Windows."""

    class CrlfTextModePath(type(Path())):
        def write_text(self, data, encoding=None, errors=None, newline=None):
            data = data.replace("\n", "\r\n") if newline is None else data
            return super().write_text(data, encoding, errors, newline)

    monkeypatch.setattr(kcol3.cli, "Path", CrlfTextModePath)
    g, witness, gprime, sidecar, record = (tmp_path / name for name in ("g.col", "w.txt", "g3.col", "g3.json", "c.json"))
    instance = ["--k", "4", "--input", str(g)]
    assert main(["gen", "--model", "gnp", "--n", "12", "--p", "0.3", "--seed", "7", "--output", str(g)]) == 0
    assert main(["solve", *instance, "--witness", str(witness)]) == 0
    assert main(["reduce", *instance, "--output", str(gprime), "--map", str(sidecar)]) == 0
    assert main(["compare", *instance, "--output", str(record)]) == 0
    for path in (g, witness, gprime, sidecar, record):
        data = path.read_bytes()
        assert b"\n" in data and b"\r" not in data, path.name


def test_verify_rejects_monochromatic_edge(tmp_path, k3_file):
    witness = tmp_path / "w.txt"
    witness.write_text("v 1 0\nv 2 0\nv 3 1\n", newline="")
    assert main(["verify", "--k", "3", "--input", str(k3_file), "--witness", str(witness)]) == 1


def test_verify_missing_vertex_is_usage_error(tmp_path, k3_file):
    witness = tmp_path / "w.txt"
    witness.write_text("v 1 0\nv 2 1\n", newline="")
    assert main(["verify", "--k", "3", "--input", str(k3_file), "--witness", str(witness)]) == 2


def test_verify_rejects_duplicate_vertex_line(tmp_path, k3_file, capsys):
    witness = tmp_path / "w.txt"
    witness.write_text("v 1 0\nv 2 1\nv 3 2\nv 1 1\n", newline="")
    assert main(["verify", "--k", "3", "--input", str(k3_file), "--witness", str(witness)]) == 2
    assert "line 4" in capsys.readouterr().err


# text -> (message, line) of the ParseError that reading a witness for
# n = 3, k = 3 raises: one case for each check, then two texts with two
# faults each, where the first faulty line wins.
_WITNESS_ERRORS = {
    "v 1 0\nw 2 1\n": ("malformed witness line 'w 2 1'", 2),
    "c comment\nv 1\n": ("malformed witness line 'v 1'", 2),
    "v 1 x\n": ("non-integer field in 'v 1 x'", 1),
    "v 1_2 0\n": ("non-integer field in 'v 1_2 0'", 1),  # the integer grammar: digits after at most one `-`
    "v 1 -0\nv 2 +1\n": ("non-integer field in 'v 2 +1'", 2),
    "v 4 0\n": ("vertex 4 out of range 1..3", 1),
    "v 0 0\n": ("vertex 0 out of range 1..3", 1),
    "v 1 3\n": ("color 3 out of range 0..2", 1),
    "v 1 0\nv 2 1\nv 3 2\nv 1 1\n": ("duplicate line for vertex 1", 4),
    "v 1 0\n\nv 3 2\n": ("witness missing vertex 2", 1),
    "": ("witness missing vertex 1", 1),
    b"v 1 0\nv 2 \xff\n": ("non-ASCII character", 2),
    "v 1 0\nv 1 5\nv 9 0\n": ("color 5 out of range 0..2", 2),
    "v 2 0\nv 2 1\nx\n": ("duplicate line for vertex 2", 2),
    "v\n1 0 v 2 1\nv 3 2\n": ("malformed witness line 'v'", 1),  # as many fields as three witness lines
}


@pytest.mark.parametrize("text", list(_WITNESS_ERRORS))
def test_witness_errors(tmp_path, text):
    message, line = _WITNESS_ERRORS[text]
    path = tmp_path / "w.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ParseError) as exc:
        _read_witness(path.read_bytes(), 3, 3)
    assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)


# Layouts other than the one _emit_witness writes, each read by the line
# walker for n = 4, k = 3 to the coloring (2, 0, 1, 0), or to the ParseError
# it names: `+1` and `0_0`, which int() reads, are outside the integer grammar.
@pytest.mark.parametrize(
    "text, read",
    [
        ("v\t1 2\nv 2\t0\nv 3 1\nv 4 0\n", None),
        ("v 1 2\r\nv 2 0\r\nv 3 1\r\nv 4 0\r\n", None),
        ("v 1  2\nv 2 0\nv 3 1\nv 4 0\n", None),
        ("  v 1 2\nv 2 0\nv 3 1\nv 4 0\n", None),
        ("v 1 2\nv 2 0\nv 3 1\nv 4 0", None),
        ("v 1 2\nv 2 0\nv 3 1\nv 4 0\n\n\n", None),
        ("v 1 2\nc between lines\nv 2 0\nv 3 1\nv 4 0\n", None),
        ("v +1 2\nv 2 0\nv 3 +1\nv 4 0_0\n", ("line 1: non-integer field in 'v +1 2'", 1)),
        ("v 3 1\nv 1 2\nv 4 0\nv 2 0\n", None),
    ],
    ids=[
        "tabs", "crlf", "double-space", "leading-spaces", "no-final-newline", "trailing-blank-lines",
        "comment-between-lines", "plus-and-underscore", "out-of-order",
    ],
)
def test_witness_other_layouts(tmp_path, text, read):
    canonical, path = tmp_path / "canonical.txt", tmp_path / "w.txt"
    canonical.write_text(_emit_witness(Coloring(3, (2, 0, 1, 0))), newline="")
    assert _read_witness(canonical.read_bytes(), 4, 3) == Coloring(3, (2, 0, 1, 0))
    path.write_text(text, newline="")
    assert _read_noting_walker(_read_witness, "_walk_witness", kcol3.graphs, path.read_bytes(), 4, 3) == (
        read or Coloring(3, (2, 0, 1, 0)),
        True,
    )


def test_written_witness_is_read_in_bulk(tmp_path):
    """A format change that sends every written witness to the line walker fails here."""
    path, coloring = tmp_path / "w.txt", Coloring(3, tuple(v * 7 % 3 for v in range(20000)))
    path.write_text(_emit_witness(coloring), newline="")
    data = path.read_bytes()
    assert len(data) > 2 * kcol3.graphs._BULK_BLOCK  # three blocks at least
    assert _bulk_columns(data, 0, b"v", 0) == (array("I", range(1, 20001)), array("I", coloring.assignment))
    assert _read_noting_walker(_read_witness, "_walk_witness", kcol3.graphs, data, 20000, 3) == (coloring, False)
    # Any doubt in any block sends the whole text to the walker, which names the line.
    for n, k, message, line in ((20001, 3, "witness missing vertex 20001", 1), (20000, 2, "color 2 out of range 0..1", 3)):
        assert _read_noting_walker(_read_witness, "_walk_witness", kcol3.graphs, path.read_bytes(), n, k) == (
            (f"line {line}: {message}", line),
            True,
        )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.integers(0, 3), max_size=8), MUTATIONS, st.integers(0, 9), st.integers(1, 4))
def test_witness_read_equals_walker_on_mutated_files(tmp_path_factory, colors, edits, n, k):
    text = mutate("".join(f"v {v + 1} {c}\n" for v, c in enumerate(colors)), edits)
    path = tmp_path_factory.getbasetemp() / "mutated-witness.txt"
    path.write_bytes(text.encode())
    assert _outcome(_read_witness, path.read_bytes(), n, k) == _outcome(_walk_witness, text.encode(), n, k)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=40))),
       st.randoms(use_true_random=False))
def test_witness_round_trip(tmp_path_factory, case, rng):
    k, colors = case
    coloring, n, path = Coloring(k, colors), len(colors), tmp_path_factory.getbasetemp() / "round-trip-witness.txt"
    path.write_text(_emit_witness(coloring), newline="")
    read, by_walker = _read_noting_walker(_read_witness, "_walk_witness", kcol3.graphs, path.read_bytes(), n, k)
    assert read == coloring and not by_walker
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(rng.sample(lines, len(lines))), newline="")
    assert _read_witness(path.read_bytes(), n, k) == _walk_witness(path.read_bytes(), n, k) == coloring


def test_solve_on_reduced_instance(tmp_path, k3_file):
    out = tmp_path / "out.col"
    main(["reduce", "--k", "3", "--input", str(k3_file), "--output", str(out)])
    assert main(["solve", "--k", "3", "--input", str(out)]) == 0


def test_roundtrip_colorable(k3_file):
    assert main(["roundtrip", "--k", "3", "--input", str(k3_file)]) == 0


def test_roundtrip_builds_gprime_columns_once(k3_file):
    # reduce, lift and both projections share the map's cached columns
    with mock.patch.object(kcol3.reduction, "_link_columns", wraps=kcol3.reduction._link_columns) as link_columns:
        assert main(["roundtrip", "--k", "3", "--input", str(k3_file)]) == 0
    assert link_columns.call_count == 1


def test_roundtrip_checks_gprime_colorings_once(k3_file, capsys):
    # solve checks the G' witness on G'; of the rest, only lift_witness checks a G' coloring
    with mock.patch.object(
        kcol3.reduction, "_is_proper_on_gprime", wraps=kcol3.reduction._is_proper_on_gprime
    ) as is_proper_on_gprime:
        assert main(["roundtrip", "--k", "3", "--input", str(k3_file)]) == 0
    assert is_proper_on_gprime.call_count == 1
    assert "decisions agree (colorable)" in capsys.readouterr().out


def test_roundtrip_uncolorable(k4_file):
    assert main(["roundtrip", "--k", "3", "--input", str(k4_file)]) == 0


def test_roundtrip_timeout(tmp_path):
    big = tmp_path / "big.col"
    big.write_text(emit_dimacs_col(complete_graph(9)), newline="")
    assert main(["roundtrip", "--k", "5", "--input", str(big), "--timeout", "0"]) == 3


def test_solve_timeout_zero(k3_file, capsys):
    assert main(["solve", "--k", "3", "--input", str(k3_file), "--timeout", "0"]) == 3
    assert capsys.readouterr().out.startswith("timeout after ")


@pytest.mark.parametrize("value", ["nan", "NaN", "-1", "-0.5", "-inf"])
@pytest.mark.parametrize("command", ["solve", "roundtrip", "compare"])
def test_timeout_must_be_at_least_zero(tmp_path, k3_file, capsys, command, value):
    argv = [command, "--k", "3", "--input", str(k3_file), f"--timeout={value}"]
    if command == "compare":
        argv += ["--output", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --timeout: must be at least 0 seconds, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, code", [("inf", 0), ("-0", 3)])
def test_timeout_inf_and_negative_zero_are_accepted(k3_file, value, code):
    assert main(["roundtrip", "--k", "3", "--input", str(k3_file), "--timeout", value]) == code


def test_compare_record(tmp_path, k3_file):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--k", "3", "--input", str(k3_file), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sane"]["vertices"] == 63
    assert set(doc) == {"sane", "sat_route", "ratios", "decisions"}


def test_compare_edgeless_single_vertex(tmp_path):
    src = tmp_path / "one.col"
    src.write_text("p edge 1 0\n", newline="")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--k", "2", "--input", str(src), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["sane"]["vertices"] == 9


def test_compare_malformed_input(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("hello\n", newline="")
    assert main(["compare", "--k", "3", "--input", str(bad), "--output", str(tmp_path / "o.json")]) == 2


def test_gen_extremes(tmp_path):
    empty, full = tmp_path / "e.col", tmp_path / "f.col"
    assert main(["gen", "--model", "gnp", "--n", "5", "--p", "0", "--seed", "1", "--output", str(empty)]) == 0
    assert empty.read_text() == "p edge 5 0\n"
    assert main(["gen", "--model", "gnp", "--n", "4", "--p", "1", "--seed", "1", "--output", str(full)]) == 0
    assert full.read_text() == emit_dimacs_col(complete_graph(4))


def test_gen_rejects_unknown_model(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--model", "er", "--n", "4", "--p", "0.5", "--seed", "1", "--output", str(tmp_path / "g.col")])
    assert exc.value.code == 2


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    for path in (a, b):
        main(["gen", "--model", "gnp", "--n", "8", "--p", "0.5", "--seed", "42", "--output", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_missing_input_file(tmp_path):
    assert main(["solve", "--k", "3", "--input", str(tmp_path / "nope.col")]) == 2


def test_solve_odd_cycle(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text(emit_dimacs_col(cycle_graph(5)), newline="")
    assert main(["solve", "--k", "2", "--input", str(path)]) == 1
    assert main(["solve", "--k", "3", "--input", str(path)]) == 0


def test_unexpected_exception_is_internal_error(monkeypatch, k3_file, capsys):
    def broken_solve(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("kcol3.cli.solve", broken_solve)
    assert main(["solve", "--k", "3", "--input", str(k3_file)]) == 4
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_roundtrip_disagreement_is_internal_error(k3_file, capsys, monkeypatch):
    real_solve = kcol3.cli.solve

    def gprime_uncolorable(g, k, budget):  # the source K3 has 3 vertices, its G' 63
        outcome = real_solve(g, k, budget)
        return outcome if g.n == 3 else SolveOutcome("uncolorable", None, outcome.wall_time)

    monkeypatch.setattr("kcol3.cli.solve", gprime_uncolorable)
    assert main(["roundtrip", "--k", "3", "--input", str(k3_file)]) == 4
    assert capsys.readouterr().out == "DISAGREEMENT: source colorable, reduced uncolorable\n"


def test_roundtrip_witness_mismatch_is_internal_error(k3_file, capsys, monkeypatch):
    real_project = kcol3.cli._project

    def shifted(rmap, c3):  # a proper coloring of g, but not the one lifted
        c = real_project(rmap, c3)
        return Coloring(c.palette_size, tuple((color + 1) % c.palette_size for color in c.assignment))

    monkeypatch.setattr("kcol3.cli._project", shifted)
    assert main(["roundtrip", "--k", "3", "--input", str(k3_file)]) == 4
    assert capsys.readouterr().out == "round-trip witness mismatch\n"


# The CLI, run after its own process limits its address space to 1 GiB.
_CAPPED_CLI = "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); import kcol3.cli"
_CAPPED_CLI += "; sys.exit(kcol3.cli.main(sys.argv[1:]))"


@pytest.mark.parametrize("command", ["reduce", "roundtrip", "compare"])
def test_size_cap_refuses_before_memory_runs_out(tmp_path, command):
    # In a child process under the 1 GiB limit, so a cap that regresses ends the child, not the machine: without the
    # cap this G' (about 2 * 10**10 vertices) is built until memory runs out, and that is exit 4.
    (tmp_path / "k2.col").write_text(emit_dimacs_col(complete_graph(2)))
    argv = [command, "--k", "100000", "--input", "k2.col"] + {"roundtrip": []}.get(command, ["--output", "out"])
    env = {**os.environ, "PYTHONPATH": str(Path(kcol3.cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: reduced graph would have 20000799995 vertices, above the cap of 1789569\n"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_source_cap_refuses_before_memory_runs_out(tmp_path, command):
    # Without the cap, solve's per-vertex lists and the witness walker's list of n entries run out of the 1 GiB:
    # that is exit 4.
    (tmp_path / "big.col").write_text("p edge 200000000 0\n")
    (tmp_path / "w.txt").write_text("v 1 0\n")
    argv = [command, "--k", "3", "--input", "big.col"] + {"verify": ["--witness", "w.txt"]}.get(command, [])
    env = {**os.environ, "PYTHONPATH": str(Path(kcol3.cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == "error: graph has 200000000 vertices, above the cap of 1789569\n"


def test_sizes_only_compare_is_not_capped(tmp_path, capsys):
    # The G' of K2 at k = 100,000 is far above the cap, but at --timeout 0 no graph is built.
    src, out = tmp_path / "k2.col", tmp_path / "big.json"
    src.write_text(emit_dimacs_col(complete_graph(2)), newline="")
    assert main(["compare", "--k", "100000", "--input", str(src), "--output", str(out), "--timeout", "0"]) == 0
    record = json.loads(out.read_text())
    assert record["sane"] == {"vertices": 20000799995, "edges": 50001199993}
    assert record["decisions"] == {"sane": None, "sat_route": None}
    expected = "sane 20000799995v/50001199993e vs sat-route 30000999997v/70001599997e (ratio 1.50x vertices)\n"
    assert capsys.readouterr().out == expected
