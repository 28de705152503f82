"""The direct command-line parser against argparse, which answers everything it declines."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitnorm import cli
from orbitnorm.cli import COMMANDS, _build_parser, _parse, main

PARSER = _build_parser()

#: Canonical values of each option that has no choices (every one converts), and bad values.
GOOD = {
    "--eps": ["1", "+1", "-1"],
    "--max-size": ["0", "12", "40", "-1", "-7", "١٢", " 9", "1_0"],
    "--size": ["0", "3", "16", "-2", "٣", "+4"],
    "--partition": ["6,1,1", "7,2,2", "1", "", "3 1", "x", "-5", "4,-2"],
    "--top": ["6,1,1", "5", "a"],
    "--bottom": ["4,2,2", "1,1,1,1,1"],
    "--cache": ["cache.jsonl", "c=d", "h"],
}
BAD = ["2", "-2", "0", "x", "-x", "-", "--", "-h", "--eps", "-١", "-²", "-.5", "-1 2", "JSON", "xml",
       "--partition=1"]


def _argparse(argv):
    """argparse alone on argv: ("ns", vars) or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("ns", vars(PARSER.parse_args(argv)))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


@st.composite
def command_lines(draw):
    """argv drawn from the command table, then perhaps perturbed; and whether it is canonical."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[name].options
    canonical = True
    tokens = []
    for opt in draw(st.permutations(options)):
        if not opt.required and draw(st.booleans()):
            continue
        if opt.convert is None:
            tokens.append([opt.flag])
            continue
        values = GOOD[opt.flag] if opt.choices is None else list(opt.choices)
        if draw(st.integers(0, 9)) == 0:
            value = draw(st.sampled_from(BAD))
            canonical = False
        else:
            value = draw(st.sampled_from(values))
        tokens.append([opt.flag, value])
    perturb = draw(st.sampled_from(
        ["none"] * 4 + ["abbrev", "equals", "repeat", "dashdash", "help", "drop", "unknown",
                        "version", "command"]))
    if perturb != "none" and tokens:
        canonical = False
        i = draw(st.integers(0, len(tokens) - 1))
        flag = tokens[i][0]
        if perturb == "abbrev":
            tokens[i][0] = flag[:draw(st.integers(1, len(flag) - 1))]
        elif perturb == "equals" and len(tokens[i]) == 2:
            tokens[i] = [f"{flag}={tokens[i][1]}"]
        elif perturb == "repeat":
            tokens.insert(draw(st.integers(0, len(tokens))), list(tokens[i]))
        elif perturb == "dashdash":
            tokens.insert(i, ["--"])
        elif perturb == "help":
            tokens.insert(i, [draw(st.sampled_from(["-h", "--help"]))])
        elif perturb == "drop":
            del tokens[i]
        elif perturb == "unknown":
            tokens.insert(i, [draw(st.sampled_from(["--bogus", "-e", "--Eps", "stray"]))])
        elif perturb == "version":
            tokens.insert(i, ["--version"])
        elif perturb == "command":
            name = draw(st.sampled_from(["chec", "Check", "", "--eps", "help"]))
    argv = [name] + [t for pair in tokens for t in pair]
    return argv, canonical


class TestAgainstArgparse:
    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_a_direct_parse_is_what_argparse_returns(self, drawn):
        argv, canonical = drawn
        ns = _parse(argv)
        if ns is not None:
            assert _argparse(argv) == ("ns", vars(ns))
        # the drawn canonical lines that argparse accepts must not fall back
        if canonical and _argparse(argv)[0] == "ns":
            assert ns is not None

    @pytest.mark.parametrize("argv", [
        ["check", "--eps", "-1", "--partition", "6,1,1"],
        ["check", "--partition", "-3", "--oracle", "--cache", "c", "--eps", "+1",
         "--max-size", "-1", "--format", "json"],
        ["survey", "--size", "16", "--eps", "1", "--format", "csv"],
        ["hasse", "--eps", "-1", "--size", "18", "--format", "json"],
        ["reduce", "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2"],
        ["classify", "--bottom", "4,2,2", "--top", "6,1,1", "--eps", "-1", "--format", "text"],
        ["dim", "--eps", "1", "--partition", "9,7,3,3,1,1"],
        ["verify", "--eps", "-1", "--partition", "6,1,1", "--format", "text"],
    ], ids=lambda argv: argv[0])
    def test_canonical_lines_parse_directly(self, argv):
        ns = _parse(argv)
        assert ns is not None and _argparse(argv) == ("ns", vars(ns))


#: Help, version and error command lines; main must print and exit as argparse alone does.
HELP_AND_ERRORS = [
    [], ["-h"], ["--help"], ["--version"], ["--version", "check"], ["nope"], ["--eps", "1"],
    *([name, "-h"] for name in COMMANDS),
    *([name] for name in COMMANDS),
    ["check", "--eps", "-1", "--part", "6,1,1", "-h"],
    ["check", "--eps", "-1", "--part"],
    ["check", "--eps", "2", "--partition", "6,1,1"],
    ["check", "--eps", "-1"],
    ["check", "--eps", "-1", "--partition"],
    ["check", "--eps", "-1", "--partition", "6,1,1", "--format", "csv"],
    ["check", "--eps", "-1", "--partition", "6,1,1", "--oracle", "yes"],
    ["check", "--eps", "-1", "--partition", "6,1,1", "--", "x"],
    ["check", "--eps", "-1", "--partition", "6,1,1", "--version"],
    ["check", "--eps", "-١", "--partition", "6,1,1"],
    ["survey", "--eps", "-1", "--size", "x"],
    ["survey", "--eps", "-1", "--size", "-x"],
    ["hasse", "--eps", "-1", "--size", "4", "--format", "text"],
    ["reduce", "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2", "--max-size", "5"],
    ["verify", "--eps", "-1", "--partition", "6,1,1", "--format", "json"],
]


@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_help_and_errors_are_argparse_output(capsys, argv):
    expected = _argparse(argv)
    assert expected[0] == "exit"
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (expected[1] or 0, *expected[2:])


@pytest.mark.parametrize("argv,canonical", [
    (["check", "--eps=-1", "--partition", "6,1,1"], ["check", "--eps", "-1", "--partition", "6,1,1"]),
    (["check", "--eps", "-1", "--part", "7,2,2"], ["check", "--eps", "-1", "--partition", "7,2,2"]),
    (["check", "--eps", "1", "--partition", "7,2,2", "--eps", "-1"],
     ["check", "--eps", "-1", "--partition", "7,2,2"]),
    (["survey", "--eps", "-1", "--size", "-٣"], ["survey", "--eps", "-1", "--size", "-3"]),
    (["hasse", "--eps", "-1", "--format", "json", "--", "--size", "4"], None),
], ids=lambda argv: " ".join(argv or []))
def test_other_accepted_spellings_run_through_argparse(capsys, argv, canonical):
    assert _parse(argv) is None
    if canonical is None:
        assert _argparse(argv)[0] == "exit"
    else:
        assert _argparse(argv)[0] == "ns"
        expected = (main(canonical), *capsys.readouterr())
        assert (main(argv), *capsys.readouterr()) == expected


def test_a_canonical_line_never_builds_the_argparse_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert main(["check", "--eps", "-1", "--partition", "6,1,1"]) == 0
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == cli.__version__
