import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kcol3.cli
import kcol3.reduction
from kcol3 import Coloring, ParseError, complete_graph, cycle_graph, emit_dimacs_col
from kcol3.cli import _read_witness, _walk_witness, _write_witness, build_parser, main
from kcol3.graphs import _bulk_columns
from test_graphs import MUTATIONS, _outcome, _read_noting_walker, mutate


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.col"
    path.write_text(emit_dimacs_col(complete_graph(3)))
    return path


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.col"
    path.write_text(emit_dimacs_col(complete_graph(4)))
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
    bad.write_text("p edge 2 1\ne 1 1\n")
    rc = main(["reduce", "--k", "3", "--input", str(bad), "--output", str(tmp_path / "o.col")])
    assert rc == 2


def test_solve_rejects_wrong_declared_edge_count(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 7\ne 1 2\n")
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


def test_verify_rejects_monochromatic_edge(tmp_path, k3_file):
    witness = tmp_path / "w.txt"
    witness.write_text("v 1 0\nv 2 0\nv 3 1\n")
    assert main(["verify", "--k", "3", "--input", str(k3_file), "--witness", str(witness)]) == 1


def test_verify_missing_vertex_is_usage_error(tmp_path, k3_file):
    witness = tmp_path / "w.txt"
    witness.write_text("v 1 0\nv 2 1\n")
    assert main(["verify", "--k", "3", "--input", str(k3_file), "--witness", str(witness)]) == 2


def test_verify_rejects_duplicate_vertex_line(tmp_path, k3_file, capsys):
    witness = tmp_path / "w.txt"
    witness.write_text("v 1 0\nv 2 1\nv 3 2\nv 1 1\n")
    assert main(["verify", "--k", "3", "--input", str(k3_file), "--witness", str(witness)]) == 2
    assert "line 4" in capsys.readouterr().err


# text -> (message, line) of the ParseError that reading a witness for
# n = 3, k = 3 raises: one case for each check, then two texts with two
# faults each, where the first faulty line wins.
_WITNESS_ERRORS = {
    "v 1 0\nw 2 1\n": ("malformed witness line 'w 2 1'", 2),
    "c comment\nv 1\n": ("malformed witness line 'v 1'", 2),
    "v 1 x\n": ("non-integer field in 'v 1 x'", 1),
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
        _read_witness(str(path), 3, 3)
    assert (str(exc.value), exc.value.line) == (f"line {line}: {message}", line)


# Layouts the line walker accepts other than the one _write_witness writes,
# each read for n = 4, k = 3 to the coloring (2, 0, 1, 0).
@pytest.mark.parametrize(
    "text",
    [
        "v\t1 2\nv 2\t0\nv 3 1\nv 4 0\n",
        "v 1 2\r\nv 2 0\r\nv 3 1\r\nv 4 0\r\n",
        "v 1  2\nv 2 0\nv 3 1\nv 4 0\n",
        "  v 1 2\nv 2 0\nv 3 1\nv 4 0\n",
        "v 1 2\nv 2 0\nv 3 1\nv 4 0",
        "v 1 2\nv 2 0\nv 3 1\nv 4 0\n\n\n",
        "v 1 2\nc between lines\nv 2 0\nv 3 1\nv 4 0\n",
        "v +1 2\nv 2 0\nv 3 +1\nv 4 0_0\n",
        "v 3 1\nv 1 2\nv 4 0\nv 2 0\n",
    ],
    ids=[
        "tabs", "crlf", "double-space", "leading-spaces", "no-final-newline", "trailing-blank-lines",
        "comment-between-lines", "plus-and-underscore", "out-of-order",
    ],
)
def test_witness_other_layouts(tmp_path, text):
    canonical, path = tmp_path / "canonical.txt", tmp_path / "w.txt"
    _write_witness(str(canonical), Coloring(3, (2, 0, 1, 0)))
    assert _read_witness(str(canonical), 4, 3) == Coloring(3, (2, 0, 1, 0))
    path.write_text(text, newline="")
    assert _read_noting_walker(_read_witness, "_walk_witness", kcol3.cli, str(path), 4, 3) == (
        Coloring(3, (2, 0, 1, 0)),
        True,
    )


def test_written_witness_is_read_in_bulk(tmp_path):
    """A format change that sends every written witness to the line walker fails here."""
    path, coloring = tmp_path / "w.txt", Coloring(3, tuple(v * 7 % 3 for v in range(20000)))
    _write_witness(str(path), coloring)
    data = path.read_bytes()
    blocks = list(_bulk_columns(data, 0, b"v"))
    assert len(blocks) >= 3 and None not in blocks
    assert [c for _, colors in blocks for c in colors] == list(coloring.assignment)
    assert _read_noting_walker(_read_witness, "_walk_witness", kcol3.cli, str(path), 20000, 3) == (coloring, False)
    # Any doubt in any block sends the whole text to the walker, which names the line.
    for n, k, message, line in ((20001, 3, "witness missing vertex 20001", 1), (20000, 2, "color 2 out of range 0..1", 3)):
        assert _read_noting_walker(_read_witness, "_walk_witness", kcol3.cli, str(path), n, k) == (
            (f"line {line}: {message}", line),
            True,
        )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.integers(0, 3), max_size=8), MUTATIONS, st.integers(0, 9), st.integers(1, 4))
def test_witness_read_equals_walker_on_mutated_files(tmp_path_factory, colors, edits, n, k):
    text = mutate("".join(f"v {v + 1} {c}\n" for v, c in enumerate(colors)), edits)
    path = tmp_path_factory.getbasetemp() / "mutated-witness.txt"
    path.write_bytes(text.encode())
    assert _outcome(_read_witness, str(path), n, k) == _outcome(_walk_witness, text.encode(), n, k)


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


def test_roundtrip_uncolorable(k4_file):
    assert main(["roundtrip", "--k", "3", "--input", str(k4_file)]) == 0


def test_roundtrip_timeout(tmp_path):
    big = tmp_path / "big.col"
    big.write_text(emit_dimacs_col(complete_graph(9)))
    assert main(["roundtrip", "--k", "5", "--input", str(big), "--timeout", "0"]) == 3


def test_compare_record(tmp_path, k3_file):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--k", "3", "--input", str(k3_file), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sane"]["vertices"] == 63
    assert set(doc) == {"sane", "sat_route", "ratios", "decisions"}


def test_compare_edgeless_single_vertex(tmp_path):
    src = tmp_path / "one.col"
    src.write_text("p edge 1 0\n")
    out = tmp_path / "cmp.json"
    assert main(["compare", "--k", "2", "--input", str(src), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["sane"]["vertices"] == 9


def test_compare_malformed_input(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("hello\n")
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
    path.write_text(emit_dimacs_col(cycle_graph(5)))
    assert main(["solve", "--k", "2", "--input", str(path)]) == 1
    assert main(["solve", "--k", "3", "--input", str(path)]) == 0


def test_unexpected_exception_is_internal_error(monkeypatch, k3_file, capsys):
    def broken_solve(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("kcol3.cli.solve", broken_solve)
    assert main(["solve", "--k", "3", "--input", str(k3_file)]) == 4
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err
