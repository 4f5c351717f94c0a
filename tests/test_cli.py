import json

import pytest

from qtchar.cli import UsageError, parse_diagram, parse_factors, run
from qtchar.yalgebra import character_from_json, character_to_json
from qtchar.rootdata import DynkinDiagram


def test_parse_diagram():
    assert parse_diagram("A:2").kind == "A"
    assert parse_diagram("D:4").rank == 4
    for bad in ("E:6", "A2", "D:3", "A:x", "A:0"):
        with pytest.raises(UsageError):
            parse_diagram(bad)


def test_parse_factors_position_precise_errors():
    d = DynkinDiagram.type_d(4)
    fs = parse_factors(d, "1:a:0,spin+:b:2")
    assert [(f.node, f.spectral.base, f.spectral.qexp) for f in fs] == [
        (1, "a", 0),
        (4, "b", 2),
    ]
    with pytest.raises(UsageError, match="factor 2"):
        parse_factors(d, "1:a:0,9:a:0")
    with pytest.raises(UsageError, match="factor 1"):
        parse_factors(d, "1:a")
    a2 = DynkinDiagram.type_a(2)
    with pytest.raises(UsageError, match="spin"):
        parse_factors(a2, "spin+:a:0")


def test_standard_dot_output():
    code, text = run(
        ["--diagram", "A:2", "standard", "--factors", "1:a:0,2:a:1", "--output", "dot"]
    )
    assert code == 0
    assert text.startswith("digraph")
    assert text.count("->") == 10
    assert "(1 + t^2)" in text


def test_fundamental_t_eval_total():
    code, text = run(
        ["--diagram", "D:4", "fundamental", "--factors", "2:a:-1", "--t-eval", "1"]
    )
    assert code == 0
    assert text.splitlines()[-1] == "total 29"


def test_verify_passes():
    for diagram in ("A:2", "A:3", "D:4", "D:5"):
        code, text = run(["--diagram", diagram, "verify", "--seed", "5"])
        assert code == 0, text
        assert "verify passed" in text


def test_deterministic_output():
    argv = ["--diagram", "A:3", "standard", "--factors", "1:a:0,3:a:1", "--output", "json"]
    assert run(argv) == run(argv)


def test_json_round_trips_through_parser():
    code, text = run(
        ["--diagram", "A:2", "standard", "--factors", "1:a:0,1:a:0", "--output", "json"]
    )
    assert code == 0
    data = json.loads(text)
    d = DynkinDiagram.type_a(2)
    chi = character_from_json(d, data)
    assert character_to_json(chi) == data


def test_graph_json_includes_edges():
    code, text = run(
        ["--diagram", "A:2", "graph", "--factors", "1:a:0,1:a:2", "--output", "json"]
    )
    assert code == 0
    payload = json.loads(text)
    assert len(payload["edges"]) == 12
    assert {e["node"] for e in payload["edges"]} == {1, 2}


def test_crystal_command():
    code, text = run(["--diagram", "A:2", "crystal", "--factors", "1:a:0,2:a:1"])
    assert code == 0
    assert "vertices 8 edges 8" in text
    assert "axioms ok" in text


def test_spin_command():
    code, text = run(["--diagram", "D:4", "spin", "--factors", "spin+:a:0", "--t-eval", "1"])
    assert code == 0
    assert text.splitlines()[-1] == "total 8"


def test_restrict_command():
    code, text = run(["--diagram", "D:4", "restrict", "--factors", "2:a:0"])
    assert code == 0
    assert text.splitlines()[-1] == "total 28"


def test_usage_errors_exit_two():
    code, text = run(["--diagram", "A:2", "standard", "--factors", "1:a:zz"])
    assert code == 2 and "factor 1" in text
    code, _ = run(["--diagram", "E:8", "standard", "--factors", "1:a:0"])
    assert code == 2
    code, _ = run(["--diagram", "A:2", "fundamental", "--factors", "1:a:0,2:a:1"])
    assert code == 2
