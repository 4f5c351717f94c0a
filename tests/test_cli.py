import hashlib
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qtchar import tableaux_a
from qtchar.cli import UsageError, main, parse_diagram, parse_factors, run
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


def test_parse_factors_refuses_bases_that_print_ambiguously():
    # such bases can print like another factor: 1:aq:0 and 1:a:1 both print Y(1,aq)
    d = DynkinDiagram.type_a(2)
    cases = ((1, "1:aq:0"), (1, "1:aq:0,1:a:1"), (2, "1:a:1,1:q:0"), (1, "1: a :0"))
    for pos, factors in cases:
        with pytest.raises(UsageError, match=f"factor {pos} .*bad base symbol"):
            parse_factors(d, factors)
    for base in ("a1", "a_b", "é", "Q\n"):
        with pytest.raises(UsageError, match="bad base symbol"):
            parse_factors(d, f"1:{base}:0")
    assert [f.spectral.base for f in parse_factors(d, "1:Ab:0,2:xyz:1")] == ["Ab", "xyz"]
    code, text = run(["--diagram", "A:2", "standard", "--factors", "1:a:1,1:aq:0"])
    assert code == 2
    assert text == (
        "error: factor 2 ('1:aq:0'): bad base symbol 'aq': expected ASCII letters other than q"
    )


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


def test_verify_reports_a_failed_check(monkeypatch):
    # a wrong closed pair statistic fails its check, and verify exits 1
    d_columns = tableaux_a.d_columns
    monkeypatch.setattr(tableaux_a, "d_columns", lambda x, y: d_columns(x, y) + 1)
    code, text = run(["--diagram", "A:2", "verify"])
    lines = text.splitlines()
    assert code == 1
    assert "FAIL  closed pair statistic matches the pairing" in lines
    assert lines[-1] == "verify failed (1)"


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


def test_crystal_refuses_json_output():
    code, text = run(
        ["--diagram", "A:2", "crystal", "--factors", "1:a:0,2:a:1", "--output", "json"]
    )
    assert code == 2
    assert text == "error: crystal supports --output text or dot, not json"


# sha256 of the graph and crystal outputs on the benchmark's four large graph
# cases and the A2 worked example, pinned so any change to their text, JSON or
# DOT (vertex names, edge order, labels) shows up.
PINNED_OUTPUTS = {
    ("D:4", "1:a:0,2:a:1,3:a:2", "graph", "dot"): (0, "20a6ce416cb253291c07185447fd4dad6fff912bda5d1a792666fa64980ed45f"),
    ("D:4", "1:a:0,2:a:1,3:a:2", "graph", "text"): (0, "092acfcc0145ff81fe2300776a7b938c418ea1ce92fb130a9a7e7dec04329d4c"),
    ("D:4", "1:a:0,2:a:1,3:a:2", "graph", "json"): (0, "eab916e9c21d84b3b23355e4c24a1951de116159305ec87975b79062422c0863"),
    ("D:4", "1:a:0,2:a:1,3:a:2", "crystal", "dot"): (0, "7d495d91dd133d4c2cebd31346faec564f4992f00f9e7929ad2595165b2f9232"),
    ("D:4", "1:a:0,2:a:1,3:a:2", "crystal", "text"): (0, "692a60a058dca35aafb6b4eb557a1df801ea92288be5a6fb6dcbbdbc26d5e6cd"),
    ("D:5", "1:a:0,spin+:a:1", "graph", "dot"): (0, "f42066fb3c2eec6c2c906a15798264248c683ab56451fc99dea200c04860db2b"),
    ("D:5", "1:a:0,spin+:a:1", "graph", "text"): (0, "0186ab06f483935a28c59380dcfb0276fe0d2e6fcda86ebfbbd0289d1e73983a"),
    ("D:5", "1:a:0,spin+:a:1", "graph", "json"): (0, "4e888c3a8630682de69690e126f88892ffc65d31bd93f24f2fba70c5ffdae6a7"),
    ("D:5", "1:a:0,spin+:a:1", "crystal", "dot"): (0, "dd00140afa26bdbd828ca5c8fe2fb0df2701b62ff440d4a9c47a692fe5f8a7d0"),
    ("D:5", "1:a:0,spin+:a:1", "crystal", "text"): (0, "a4b5efeb760015c6a6c81d85de89007ef6b85b8b1f65940aa0a5af4fc7aeb06e"),
    ("A:3", "1:a:0,2:a:1,1:a:2,2:a:3", "graph", "dot"): (0, "392b5db352b49666d898ccb8ca2f9f467f17720c85377bd41289f5e155a697d1"),
    ("A:3", "1:a:0,2:a:1,1:a:2,2:a:3", "graph", "text"): (0, "e3451699c79d29e5ca4c08c6a67f5a8286038f3a2cf2d10ec00ad49ceb9f4582"),
    ("A:3", "1:a:0,2:a:1,1:a:2,2:a:3", "graph", "json"): (0, "7fcb077c781f618b563054c86271b34b98d1ca6c9344e2df93370f1a9d93850c"),
    ("A:3", "1:a:0,2:a:1,1:a:2,2:a:3", "crystal", "dot"): (0, "b273c51a2a421500eb5aad2c9427878684866ae953f42b8a9a3e62191ee6c473"),
    ("A:3", "1:a:0,2:a:1,1:a:2,2:a:3", "crystal", "text"): (0, "4f52112fb616537dfee5c6b0e504de1cc15e3d8f33e31d62ed48f8930bb3d8cd"),
    ("A:4", "1:a:0,2:a:1,1:a:4", "graph", "dot"): (0, "8a9faa857b6115ba5d682f1b8202f26c32e28d1b39b4bfe39d504e665d969a02"),
    ("A:4", "1:a:0,2:a:1,1:a:4", "graph", "text"): (0, "2cbc89fbbfe3879c8e7c46f055e614b4cbdec601a2952d5409b4df3312c96afd"),
    ("A:4", "1:a:0,2:a:1,1:a:4", "graph", "json"): (0, "930c3a9241059dfce0eed50c879d4b4c06725dd904ba66ef7723c24809fc0b79"),
    ("A:4", "1:a:0,2:a:1,1:a:4", "crystal", "dot"): (0, "400e9342bcf844d64ded9007af65b764a0e6797928c2c29f4abac8b30718d8b6"),
    ("A:4", "1:a:0,2:a:1,1:a:4", "crystal", "text"): (0, "197c82484463efac8cc2dcccab6b9049e35b64984ffd556c970c0c88756b7b65"),
    ("A:2", "1:a:0,2:a:1", "graph", "dot"): (0, "7cc70bbae304f68b28ec1a2eb6a19116e1bd29923678021fcfb24c80d376a8b8"),
    ("A:2", "1:a:0,2:a:1", "graph", "text"): (0, "df58396cc0db3d1fa235337d53fa327fb16568442bcf581cfabce68bdad28451"),
    ("A:2", "1:a:0,2:a:1", "graph", "json"): (0, "986eca96b6ac09b5b2fabd996ff9328c7779835ada98ecf9aaf8f89a8a548d8f"),
    ("A:2", "1:a:0,2:a:1", "crystal", "dot"): (0, "5ae006f3cbed3aec87e59b693dcb58669c11a597fe02312c8d3226f720514b8c"),
    ("A:2", "1:a:0,2:a:1", "crystal", "text"): (0, "8613f9b2bf92956d32a33693624728ee2b7bbd308221d6ebae5d9cec4af26cea"),
}


@pytest.mark.parametrize("diagram,factors,command,output", sorted(PINNED_OUTPUTS))
def test_graph_and_crystal_outputs_are_pinned(diagram, factors, command, output):
    code, text = run(["--diagram", diagram, command, "--factors", factors, "--output", output])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest) == PINNED_OUTPUTS[diagram, factors, command, output]


# sha256 of the character commands' text, JSON and --t-eval outputs: single-
# and multi-class standard characters, a large fundamental, a spin character
# and a signed t value, pinned so any change to their terms or layout shows up.
PINNED_CHARACTERS = {
    ("A:2", "standard", "1:a:0,2:a:1", ()): (0, "e7c29c5a0196fd2a0379a4de7a55744933cc492b9747f1d5a4a839d029a9f694"),
    ("A:2", "standard", "1:a:0,2:a:1", ("--output", "json")): (0, "745af0e9469db4c16b0c5bf29ef1bb2c6533510ccec1b54e5deaa9aaaf1a1942"),
    ("A:2", "standard", "1:a:0,2:a:1", ("--t-eval", "1", "--output", "json")): (0, "ee2da630b9dd21172cbe1525c320ea967a56d43abcfd14921abe8a84d5f692f4"),
    ("A:4", "standard", "1:a:0,2:a:0,2:a:0,1:b:0", ()): (0, "8413583c34ca58b9d8348439d7cf8e5f29adc6917e70d68805f27f6d67d56495"),
    ("D:5", "standard", "1:a:0,spin-:a:1,1:b:0", ()): (0, "06f263c1365f61759bacd38bc36b760ff4b199cada3ec69af5ba5969664c401b"),
    ("D:5", "standard", "1:a:0,spin-:a:1,1:b:0", ("--output", "json")): (0, "802cc378edf8f275a186c285fb157d37c828f0220da5f8a1673575065c1b0ce6"),
    ("D:7", "fundamental", "4:a:0", ()): (0, "14e7fc72c9141cf99712c33210f1fc1e74e984fbcab40b8ba7a0eb1f9d074bea"),
    ("D:4", "spin", "spin+:a:0", ()): (0, "ca7fe4c65cd5978be629b869393ed07b7c49b4894375696e5ef0d6494b67465d"),
    ("D:4", "fundamental", "2:a:-1", ("--t-eval", "-1")): (0, "b832bd7a0c4b6075f480e9a86a65d75d4db3b3d823f99232ca94ed939ff38432"),
}


@pytest.mark.parametrize("diagram,command,factors,options", sorted(PINNED_CHARACTERS))
def test_character_outputs_are_pinned(diagram, command, factors, options):
    code, text = run(["--diagram", diagram, command, "--factors", factors, *options])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest) == PINNED_CHARACTERS[diagram, command, factors, options]


def test_spin_command():
    code, text = run(["--diagram", "D:4", "spin", "--factors", "spin+:a:0", "--t-eval", "1"])
    assert code == 0
    assert text.splitlines()[-1] == "total 8"


def test_restrict_command():
    code, text = run(["--diagram", "D:4", "restrict", "--factors", "2:a:0"])
    assert code == 0
    assert text.splitlines()[-1] == "total 28"


def test_argparse_refusals_are_one_stderr_line(capsys):
    cases = (
        (["--diagram", "A:2", "standard", "--factors", "-1:a:0"],
         "argument --factors: expected one argument"),
        (["standard", "--factors", "1:a:0"], "the following arguments are required: --diagram"),
    )
    for argv, message in cases:
        assert run(argv) == (2, "")
        captured = capsys.readouterr()
        assert captured.err == f"qtchar: error: {message}\n"
        assert captured.out == ""


def test_capped_commands_exit_two_with_one_stderr_line(capsys, monkeypatch):
    cases = (
        ("8", ["--diagram", "A:2", "standard", "--factors", "1:a:0,1:a:0"],
         "error: product step exceeded 8 term pairs: 9"),
        ("100", ["--diagram", "D:7", "fundamental", "--factors", "4:a:0"],
         "error: closure exceeded 100 monomials"),
        ("100", ["--diagram", "D:8", "spin", "--factors", "spin+:a:0"],
         "error: tableaux sum exceeded 100 terms: 128"),
    )
    for cap, argv, message in cases:
        monkeypatch.setenv("QCHAR_MAX_TERMS", cap)
        monkeypatch.setattr(sys, "argv", ["qtchar"] + argv)
        with pytest.raises(SystemExit) as exit:
            main()
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""
    # other usage errors keep their one line on stdout
    monkeypatch.setattr(sys, "argv", ["qtchar", "--diagram", "A:2", "standard", "--factors", "1:a:zz"])
    with pytest.raises(SystemExit) as exit:
        main()
    assert exit.value.code == 2
    captured = capsys.readouterr()
    assert "factor 1" in captured.out and captured.err == ""


def test_malformed_cap_variables_are_usage_errors(capsys, monkeypatch):
    cases = (
        ("QCHAR_MAX_TERMS", "abc", ["standard", "--factors", "1:a:0,1:a:2"]),
        ("QCHAR_MAX_TERMS", "0", ["crystal", "--factors", "1:a:0"]),
    )
    for name, value, argv in cases:
        monkeypatch.setenv(name, value)
        monkeypatch.setattr(sys, "argv", ["qtchar", "--diagram", "A:2"] + argv)
        with pytest.raises(SystemExit) as exit:
            main()
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == f"error: {name} must be a positive integer, got '{value}'\n"
        assert captured.err == ""
        monkeypatch.delenv(name)


def test_usage_errors_exit_two():
    code, text = run(["--diagram", "A:2", "standard", "--factors", "1:a:zz"])
    assert code == 2 and "factor 1" in text
    code, _ = run(["--diagram", "E:8", "standard", "--factors", "1:a:0"])
    assert code == 2
    code, _ = run(["--diagram", "A:2", "fundamental", "--factors", "1:a:0,2:a:1"])
    assert code == 2
    # each command's own refusals: one line on stdout, and the exit-1 path for
    # a QtcharError that is not a usage error
    cases = (
        (["--diagram", "A:2", "standard"], 2, "standard expects at least one factor"),
        (["--diagram", "A:2", "fundamental"], 2, "fundamental expects exactly one factor"),
        # the diagram type is refused before the factor count
        (["--diagram", "A:3", "spin"], 2, "spin expects a type D diagram"),
        (["--diagram", "A:3", "restrict", "--factors", "1:a:0,2:a:0"], 2,
         "restrict expects a type D diagram"),
        (["--diagram", "D:4", "spin", "--factors", "spin+:a:0,spin-:a:0"], 2,
         "spin expects exactly one spin factor"),
        (["--diagram", "D:4", "spin"], 2, "spin expects exactly one spin factor"),
        (["--diagram", "A:3", "spin", "--factors", "1:a:0"], 2, "spin expects a type D diagram"),
        (["--diagram", "D:4", "spin", "--factors", "1:a:0"], 2, "spin expects exactly one spin factor"),
        (["--diagram", "A:2", "graph"], 2, "graph expects at least one factor"),
        (["--diagram", "A:2", "crystal"], 2, "crystal expects at least one factor"),
        (["--diagram", "A:3", "restrict", "--factors", "1:a:0"], 2, "restrict expects a type D diagram"),
        (["--diagram", "D:4", "restrict"], 2, "restrict expects exactly one factor"),
        (["--diagram", "D:5", "restrict", "--factors", "4:a:0"], 2, "restrict expects a vector node 1..3"),
        (["--diagram", "D:5", "restrict", "--factors", "spin+:a:0"], 2, "restrict expects a vector node 1..3"),
        (["--diagram", "A:2", "crystal", "--factors", "1:a:0,1:a:1"], 1,
         "Y(1,a) Y(1,aq) fits neither two-coloring"),
        # an option the command would ignore
        (["--diagram", "D:4", "restrict", "--factors", "2:a:0", "--output", "json"], 2,
         "restrict supports --output text, not json"),
        (["--diagram", "D:4", "restrict", "--factors", "2:a:0", "--output", "dot"], 2,
         "restrict supports --output text, not dot"),
        (["--diagram", "A:2", "verify", "--output", "json"], 2, "verify supports --output text, not json"),
        (["--diagram", "A:2", "verify", "--output", "dot"], 2, "verify supports --output text, not dot"),
        (["--diagram", "A:2", "graph", "--factors", "1:a:0", "--t-eval", "1"], 2,
         "graph does not read --t-eval"),
        (["--diagram", "A:2", "crystal", "--factors", "1:a:0", "--t-eval", "0"], 2,
         "crystal does not read --t-eval"),
        (["--diagram", "D:4", "restrict", "--factors", "2:a:0", "--t-eval", "1"], 2,
         "restrict does not read --t-eval"),
        (["--diagram", "A:2", "verify", "--t-eval", "1"], 2, "verify does not read --t-eval"),
        (["--diagram", "A:2", "standard", "--factors", "1:a:0", "--t-eval", "1", "--output", "dot"], 2,
         "standard --t-eval supports --output text or json, not dot"),
        (["--diagram", "A:2", "fundamental", "--factors", "1:a:0", "--t-eval", "1", "--output", "dot"], 2,
         "fundamental --t-eval supports --output text or json, not dot"),
        (["--diagram", "D:4", "spin", "--factors", "spin+:a:0", "--t-eval", "1", "--output", "dot"], 2,
         "spin --t-eval supports --output text or json, not dot"),
        (["--diagram", "A:2", "standard", "--factors", "1:a:0", "--seed", "1"], 2,
         "standard does not read --seed"),
        (["--diagram", "A:2", "graph", "--factors", "1:a:0", "--seed", "1"], 2,
         "graph does not read --seed"),
        (["--diagram", "A:2", "verify", "--factors", "1:a:0"], 2, "verify does not read --factors"),
    )
    for argv, code, message in cases:
        assert run(argv) == (code, f"error: {message}"), argv


def test_restrict_reads_only_the_node():
    # restriction to the finite-type subalgebra forgets the spectral parameter
    code, text = run(["--diagram", "D:5", "restrict", "--factors", "2:a:0"])
    assert code == 0 and text.endswith("total 45")
    assert run(["--diagram", "D:5", "restrict", "--factors", "2:b:7"]) == (0, text)


HEADS = {
    "A:1": ["1"],
    "A:2": ["1", "2"],
    "A:3": ["1", "2", "3"],
    # node 2 of D4 (29 terms) is left out: three of them take ~0.15 s to fold
    "D:4": ["1", "3", "4", "spin+", "spin-"],
}
BAD_HEADS = ["0", "5", "-1", "+1", " 1", "x", "", "spin", "spin+ "]
BASES = ["a", "b", "aq", "q", " a ", "", "a b", "A", "é", "a1"]
QEXPS = ["+3", "-0", " 2", "", "x", "1.5", "1_0", "\u0663"]


@st.composite
def factor_strings(draw):
    diagram = draw(st.sampled_from(sorted(HEADS)))
    tokens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            parts = [
                draw(st.sampled_from(HEADS[diagram] + BAD_HEADS)),
                draw(st.sampled_from(BASES)),
                draw(st.one_of(st.integers(-(10**12), 10**12).map(str), st.sampled_from(QEXPS))),
            ]
            cut = draw(st.integers(1, 4))
            token = ":".join(parts[:cut] if cut <= 3 else parts + ["0"])
        else:
            token = draw(st.text(":,+-0123456789aqs pin", max_size=8))
        tokens.append(token)
    return diagram, ",".join(tokens)


@settings(max_examples=80, deadline=None)
@given(factor_strings(), st.sampled_from(["fundamental", "standard", "spin", "restrict"]))
def test_cli_fuzz_ends_in_an_exit_code(case, command):
    diagram, factors = case
    code, text = run(["--diagram", diagram, command, "--factors", factors])
    assert code in (0, 1, 2)
    if code:
        assert text.count("\n") == 0
