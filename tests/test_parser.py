"""The one command-line parser against a reference reader written from the table's rules."""

import contextlib
import io
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitnorm import cli
from orbitnorm.cli import COMMANDS, _parse, main

#: Canonical values of each option that has no choices (every one converts), and bad values.
#: A canonical line is read, and then its size may still be refused by its bound.
GOOD = {
    "--eps": ["1", "+1", "-1"],
    "--max-size": ["0", "12", "40", "-1", "-7", "007"],
    "--size": ["0", "3", "16", "-2", "-0"],
    "--partition": ["6,1,1", "7,2,2", "1", "", "3 1", "007,1", "13"],
    "--top": ["6,1,1", "5", "9 3"],
    "--bottom": ["4,2,2", "1,1,1,1,1"],
    "--cache": ["cache.jsonl", "c=d", "h"],
}
BAD = ["2", "-2", "0", "x", "a", "-x", "-", "--", "-h", "--eps", "-١", "-²", "-.5", "-1 2",
       "-1,", "-,1", "- 1", "-5", "4,-2", "-3,1", "-3 1", "-3,x", "JSON", "xml",
       "--partition=1", "١٢", " 9", "9 ", "1_0", "+4", "٣"]

HELP = ("-h", "--help")
#: A value, as the grammar reads it: any text that does not start with "-", or text whose
#: head, up to its first comma or whitespace, is an ASCII negative integer.
VALUE = re.compile(r"(?!-).*|-[0-9]+([,\s].*)?", re.DOTALL)


#: The options whose value is a partition.
PARTITIONS = ("--partition", "--top", "--bottom")


def partition(text):
    """The parts of partition text, largest first: parts split at commas and whitespace,
    each a positive integer in ASCII digits; ValueError for any other text."""
    tokens = text.replace(",", " ").split()
    if not all(re.fullmatch("0*[1-9][0-9]*", token) for token in tokens):
        raise ValueError(f"not a partition: {text!r}")
    return tuple(sorted(map(int, tokens), reverse=True))


def bound(fields):
    """The exit code and error line of a read line whose size its bound refuses, else None.

    The size is --size, or the sum of the largest partition the line carries.
    """
    sizes = [sum(value) for value in fields.values() if isinstance(value, tuple)]
    size, most = max(sizes) if sizes else fields["size"], fields["max_size"]
    if size < 0:
        return 2, f"error: n must be nonnegative, got {size}"
    if most < 0:
        return 2, f"error: the size bound must be nonnegative, got {most}"
    if size > most:
        return 3, f"error: size {size} exceeds the size bound {most}"
    return None


def reference(argv):
    """What the table's rules make of argv, read without cli._parse: "help", the namespace's
    fields as a dict, (exit code, error line) for a read line its bound refuses, or None for
    a line that is refused as it is read."""
    if argv in (["-h"], ["--help"]):
        return "help"
    if argv == ["--version"]:
        return {"func": cli._print_version}
    if not argv or argv[0] not in COMMANDS:
        return None
    by_flag = {opt.flag: opt for opt in COMMANDS[argv[0]].options}
    given_values, i = {}, 1
    while i < len(argv):
        token = argv[i]
        if token in HELP:
            return "help"
        if token not in by_flag or token in given_values:
            return None
        opt = by_flag[token]
        if opt.convert is None:
            given_values[token], i = True, i + 1
            continue
        if i + 1 == len(argv) or not VALUE.fullmatch(argv[i + 1]):
            return None
        try:
            value = (partition if token in PARTITIONS else opt.convert)(argv[i + 1])
        except ValueError:
            return None
        if opt.choices and value not in opt.choices:
            return None
        given_values[token], i = value, i + 2
    if not all(flag in given_values for flag, opt in by_flag.items() if opt.required):
        return None
    fields = {flag.lstrip("-").replace("-", "_"): given_values.get(flag, opt.default)
              for flag, opt in by_flag.items()}
    return bound(fields) or {"func": COMMANDS[argv[0]].run, **fields}


def run(argv):
    """main's exit code, stdout and stderr on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def refused(argv):
    """The one stderr line of a refused argv, once main gave exit 2 and no stdout."""
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    return err.removesuffix("\n")


def help_text(argv):
    """The help main prints for argv, with exit 0 and nothing on stderr."""
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: orbitnorm ")
    return out


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
            tokens.insert(i, [draw(st.sampled_from(HELP))])
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


class TestAgainstAReferenceReader:
    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_a_line_is_read_as_the_reference_reads_it_or_refused_in_one_line(self, drawn):
        argv, canonical = drawn
        expected = reference(argv)
        if canonical:
            assert isinstance(expected, (dict, tuple))
        if isinstance(expected, dict):
            assert vars(_parse(argv)) == expected
        elif isinstance(expected, tuple):
            code, line = expected
            assert run(argv) == (code, "", line + "\n")
        elif expected == "help":
            assert help_text(argv) == help_text([argv[0], "--help"])
        else:
            refused(argv)

    @pytest.mark.parametrize("argv", [
        ["check", "--eps", "-1", "--partition", "6,1,1"],
        ["check", "--partition", "3", "--oracle", "--cache", "c", "--eps", "+1",
         "--max-size", "003", "--format", "json"],
        ["survey", "--size", "16", "--eps", "1", "--format", "csv"],
        ["hasse", "--eps", "-1", "--size", "18", "--format", "json"],
        ["reduce", "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2"],
        ["classify", "--bottom", "4,2,2", "--top", "6,1,1", "--eps", "-1", "--format", "text"],
        ["dim", "--eps", "1", "--partition", "9,7,3,3,1,1"],
        ["verify", "--eps", "-1", "--partition", "6,1,1"],
        ["--version"],
    ], ids=lambda argv: argv[0])
    def test_canonical_lines_parse_as_the_reference_reads_them(self, argv):
        expected = reference(argv)
        assert isinstance(expected, dict) and vars(_parse(argv)) == expected


#: Refused command lines and the one error line each prints: what is wrong, named.
ERRORS = [
    ([], "missing command; expected check, survey, hasse, reduce, classify, dim, verify,"
         " or --help or --version alone"),
    (["nope"], "unknown command 'nope'; expected check, survey, hasse, reduce, classify, dim,"
               " verify, or --help or --version alone"),
    (["--version", "check"], "unknown command '--version'; expected check, survey, hasse,"
                             " reduce, classify, dim, verify, or --help or --version alone"),
    (["-h", "check"], "unknown command '-h'; expected check, survey, hasse, reduce, classify,"
                      " dim, verify, or --help or --version alone"),
    (["--eps", "1"], "unknown command '--eps'; expected check, survey, hasse, reduce, classify,"
                     " dim, verify, or --help or --version alone"),
    *(([name], f"{name} requires {', '.join(o.flag for o in COMMANDS[name].options if o.required)}")
      for name in COMMANDS),
    (["check", "--eps", "-1"], "check requires --partition"),
    (["reduce", "--eps", "-1", "--top", "6,1,1"], "reduce requires --bottom"),
    (["check", "--eps", "-1", "--part", "6,1,1", "-h"], "check has no option '--part'"),
    (["check", "--ep", "1", "--partition", "3,1"], "check has no option '--ep'"),
    (["check", "--eps=1", "--partition=3,1"], "check has no option '--eps=1'"),
    (["check", "--eps", "-1", "--partition", "6,1,1", "--", "x"], "check has no option '--'"),
    (["check", "--eps", "-1", "--partition", "6,1,1", "--version"],
     "check has no option '--version'"),
    (["check", "--eps", "-1", "--partition", "6,1,1", "--oracle", "yes"],
     "check has no option 'yes'"),
    (["reduce", "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2", "--size", "5"],
     "reduce has no option '--size'"),
    (["check", "--eps", "1", "--eps", "1", "--partition", "3,1"], "--eps is given twice"),
    (["check", "--eps", "-1", "--oracle", "--oracle", "--partition", "3,1"],
     "--oracle is given twice"),
    (["check", "--eps", "-1", "--partition"], "--partition needs a value"),
    (["check", "--eps", "-1", "--part"], "check has no option '--part'"),
    (["check", "--eps", "--partition", "6,1,1"], "--eps needs a value, not '--partition'"),
    (["check", "--eps", "-١", "--partition", "6,1,1"], "--eps needs a value, not '-١'"),
    (["survey", "--eps", "-1", "--size", "-x"], "--size needs a value, not '-x'"),
    (["check", "--eps", "-1", "--partition", "-h"], "--partition needs a value, not '-h'"),
    (["check", "--eps", "-1", "--partition", "--format", "json"],
     "--partition needs a value, not '--format'"),
    (["check", "--eps", "-1", "--partition", "-x,1"], "--partition needs a value, not '-x,1'"),
    (["check", "--eps", "-1", "--partition", "-,3"], "--partition needs a value, not '-,3'"),
    (["check", "--eps", "0", "--partition", "3,1"], "eps must be +1 or -1, got '0'"),
    (["check", "--eps", "2", "--partition", "6,1,1"], "eps must be +1 or -1, got '2'"),
    (["survey", "--eps", "+-1", "--size", "3"], "eps must be +1 or -1, got '+-1'"),
    (["survey", "--eps", "-1", "--size", "x"], "--size must be an integer, got 'x'"),
    (["check", "--eps", "1", "--partition", "3,1", "--max-size", "1.5"],
     "--max-size must be an integer, got '1.5'"),
    (["check", "--eps", "-1", "--partition", "6,1,1", "--format", "csv"],
     "--format must be one of json, text, got 'csv'"),
    (["hasse", "--eps", "-1", "--size", "4", "--format", "text"],
     "--format must be one of dot, json, got 'text'"),
    (["verify", "--eps", "-1", "--partition", "6,1,1", "--format", "text"],
     "verify has no option '--format'"),
]


@pytest.mark.parametrize("argv, message", ERRORS, ids=[" ".join(argv) for argv, _ in ERRORS])
def test_a_refused_line_is_one_error_line_that_names_what_is_wrong(argv, message):
    assert reference(argv) is None
    assert refused(argv) == f"error: {message}"


@pytest.mark.parametrize("argv", [
    ["check", "--eps=-1", "--partition", "6,1,1"],
    ["check", "--eps", "-1", "--part", "7,2,2"],
    ["check", "--eps", "1", "--partition", "7,2,2", "--eps", "-1"],
    ["survey", "--eps", "-1", "--size", "-٣"],
    ["hasse", "--eps", "-1", "--format", "json", "--", "--size", "4"],
], ids=" ".join)
def test_other_spellings_are_refused(argv):
    # abbreviations, --opt=value, repeats, non-ASCII negative numbers and -- are not read
    assert reference(argv) is None
    refused(argv)


def _reads_integers(opt):
    """Whether opt's value is integer text: its converter reads "12" as 12."""
    try:
        return opt.convert is not None and opt.convert("12") == 12
    except ValueError:
        return False


#: (command, flag) of every option whose value is integer text, drawn from the table.
INTEGER_OPTIONS = [(name, opt.flag) for name, command in COMMANDS.items()
                   for opt in command.options if _reads_integers(opt)]
#: A value of each required option that the command line takes as it stands.
REQUIRED = {"--eps": "1", "--partition": "3,1", "--size": "3", "--top": "3,1",
            "--bottom": "1,1,1,1"}
#: Values of the required options that make a line of size 0, within any bound of 0 or more.
EMPTY = {**REQUIRED, "--partition": "", "--size": "0", "--top": "", "--bottom": ""}


def with_value(name, flag, text, required=REQUIRED):
    """name's command line with its required options as in required and flag set to text."""
    argv = [name]
    for opt in COMMANDS[name].options:
        if opt.flag == flag:
            argv += [flag, text]
        elif opt.required:
            argv += [opt.flag, required[opt.flag]]
    return argv


def test_the_integer_options_are_the_sizes_and_bounds():
    # every command takes --max-size, its one size bound
    assert sorted(INTEGER_OPTIONS) == sorted([*((name, "--max-size") for name in COMMANDS),
                                              ("hasse", "--size"), ("survey", "--size")])


@pytest.mark.parametrize("name, flag", INTEGER_OPTIONS, ids=map(" ".join, INTEGER_OPTIONS))
@pytest.mark.parametrize("text", ["1_0", "+3", " 4", "4 ", "٣", "٤٠", "-٣"])
def test_an_integer_option_takes_only_integer_text(name, flag, text):
    # int() reads each of these; an integer is an optional "-" and then ASCII digits
    problem = "needs a value, not" if text.startswith("-") else "must be an integer, got"
    assert refused(with_value(name, flag, text)) == f"error: {flag} {problem} {text!r}"


@pytest.mark.parametrize("name, flag", INTEGER_OPTIONS, ids=map(" ".join, INTEGER_OPTIONS))
@pytest.mark.parametrize("text, value", [("0", 0), ("-1", -1), ("007", 7)])
def test_an_integer_option_takes_zero_negatives_and_leading_zeros(name, flag, text, value):
    # on a line of size 0, so that a bound of 0 holds; a negative value is read, and the
    # bound's check names it
    argv = with_value(name, flag, text, EMPTY)
    if value < 0:
        what = "n" if flag == "--size" else "the size bound"
        assert refused(argv) == f"error: {what} must be nonnegative, got {value}"
    else:
        assert getattr(_parse(argv), flag[2:].replace("-", "_")) == value


@pytest.mark.parametrize("argv, message", [
    (["survey", "--eps", "1", "--size", "-3"], "n must be nonnegative, got -3"),
    (["hasse", "--eps", "1", "--size", "4", "--max-size", "-1"],
     "the size bound must be nonnegative, got -1"),
    (["check", "--eps", "1", "--partition", "3,0,1"], "parts must be positive, got '0'"),
    (["check", "--eps", "1", "--partition", "3,-1"], "parts must be positive, got '-1'"),
    # a value that starts with "-" is read when its head, up to a comma or whitespace, is
    (["check", "--eps", "1", "--partition", "-3,1"], "parts must be positive, got '-3'"),
    (["check", "--eps", "1", "--partition", "-3 1"], "parts must be positive, got '-3'"),
    (["check", "--eps", "1", "--partition", "1,-3"], "parts must be positive, got '-3'"),
    (["reduce", "--eps", "1", "--top", "-3,1", "--bottom", "1"],
     "parts must be positive, got '-3'"),
    (["survey", "--eps", "1", "--size", "-3,1"], "--size must be an integer, got '-3,1'"),
], ids=" ".join)
def test_a_negative_integer_reaches_the_check_that_words_it(argv, message):
    assert refused(argv) == f"error: {message}"


def _too_long():
    digits = sys.get_int_max_str_digits()
    if not digits:
        pytest.skip("int from str conversion has no digit limit here")
    return "9" * (digits + 1)  # 4,301 digits by default


@pytest.mark.parametrize("argv, what", [
    (["check", "--eps", "1", "--partition", "3,{}"], "partition part"),
    (["survey", "--eps", "1", "--size", "{}"], "--size"),
    (["survey", "--eps", "1", "--size", "-{}"], "--size"),
    (["check", "--eps", "1", "--partition", "3,1", "--max-size", "{}"], "--max-size"),
    (["survey", "--eps", "1", "--size", "3", "--max-size", "{}"], "--max-size"),
], ids=["partition", "size", "negative-size", "max-size", "survey-max-size"])
def test_more_digits_than_int_converts_is_one_error_line(argv, what):
    text = _too_long()
    argv = [token.format(text) for token in argv]
    got = argv[-1].removeprefix("3,")
    assert refused(argv) == f"error: {what} must be an integer, got {got!r}"


def test_the_program_help_lists_each_command_with_its_help():
    text = help_text(["--help"])
    assert help_text(["-h"]) == text
    listed = [line.split(None, 1) for line in text.splitlines() if line.startswith("  ")]
    assert listed == [[name, command.help] for name, command in COMMANDS.items()]


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_help_names_each_option_with_its_choices_and_help(name):
    text = help_text([name, "--help"])
    assert help_text([name, "-h"]) == text
    assert COMMANDS[name].help in text.splitlines()
    options = COMMANDS[name].options
    rows = [line for line in text.splitlines() if line.startswith("  ")]
    assert [row.split()[0] for row in rows] == [opt.flag for opt in options]
    for opt, row in zip(options, rows):
        if opt.choices is not None:
            assert f" {{{','.join(opt.choices)}}} " in row
        if opt.convert is not None and opt.default is not None:  # a flag is off unless given
            assert f"default {opt.default}" in row
        if opt.help is not None:
            assert row.endswith(opt.help)
        assert ("required" in row) == opt.required


def test_help_may_stand_where_an_option_flag_is_expected():
    text = help_text(["check", "--help"])
    assert help_text(["check", "--eps", "-1", "-h"]) == text
    assert help_text(["check", "--oracle", "--help", "--bogus"]) == text


def test_version_alone_prints_the_package_version():
    assert run(["--version"]) == (0, cli.__version__ + "\n", "")
