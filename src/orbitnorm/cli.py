"""Command-line front end.

Subcommands: check, survey, hasse, reduce, classify, dim, verify, all in the table COMMANDS,
from which the one parser reads a command line and help is written.
Exit codes: 0 Normal/success, 10 NotNormal, 11 Undetermined, 2 input error (a ContractError),
3 capacity exceeded (a CapacityError), 1 a failed verify or output that cannot be written.
All output is byte-deterministic for fixed inputs.  Every JSON output, and each cache
record, is written here from fragments, as the text json.dumps gives with sorted keys
and no spaces.  A cache line is read back by comparing its bytes with the record the
program would write, so the json module is imported nowhere.
"""

import atexit
import os
import stat
import sys
from collections import namedtuple
from functools import lru_cache
from types import SimpleNamespace

from . import __version__
from .classification import classify_minimal_degeneration
from .degeneration import DegenPair, PosetGraph, Witness, hasse, table_pair
from .errors import CapacityError, ContractError
from .matrix_oracle import (algebra_dim, build_nilpotent_model, centralizer_dim, jordan_type,
                            orbit_dim, restrict_to_image)
from .normality import NORMAL, NOT_NORMAL, UNDETERMINED, NormalityVerdict, decide
from .partitions import (EpsDiagram, Partition, enumerate_eps_diagrams, integer, is_integer,
                         parse_partition, size_text)
from .reduction import ReductionResult, irreducible_core
from .table import DegenType

EXIT_NORMAL = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_NOT_NORMAL = 10
EXIT_UNDETERMINED = 11

VERDICT_EXIT = {NORMAL: EXIT_NORMAL, NOT_NORMAL: EXIT_NOT_NORMAL, UNDETERMINED: EXIT_UNDETERMINED}

DEFAULT_MAX_SIZE = 40  #: the size bound, unless --max-size sets another


def check_size(n: int, bound: int) -> None:
    """ContractError if n or the bound is < 0, CapacityError if n exceeds the bound."""
    if n < 0:
        raise ContractError(f"n must be nonnegative, got {n}")
    if bound < 0:
        raise ContractError(f"the size bound must be nonnegative, got {bound}")
    if n > bound:
        raise CapacityError(f"size {size_text(n)} exceeds the size bound {bound}")


def _parse_eps(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise ContractError(f"eps must be +1 or -1, got {text!r}")


def _stderr(line: str) -> None:
    """Print one line on stderr; nothing when fd 2 was closed, so sys.stderr is None."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def _partition_csv(parts) -> str:
    """A partition, or any list of ints, as the comma-separated text every format prints."""
    return ",".join(map(str, parts))


# --- cache -----------------------------------------------------------------

#: Longest cache line read whole; a record the program writes is a few kB at most.
_CACHE_LINE_LIMIT = 1 << 20

#: Most digits of a codim_oracle that is read: more than any codimension the oracle can
#: reach, and far fewer than int() refuses.
_CODIM_DIGITS = 20


def _record_codims(line: bytes, fresh: bytes, witnesses: int) -> list | None:
    """Each witness's codim_oracle, or None for each, when line is fresh with
    `"codim_oracle":N,` before every witness's `"core":` or before none; else None.

    N is a codimension, so even and positive (orbit dimensions are even, and a strict
    degeneration lowers them), in canonical decimal: no sign, no leading zero, at most
    _CODIM_DIGITS digits.
    """
    first, *pieces = line.split(b'"codim_oracle":')
    kept, codims = [first], []
    for piece in pieces:
        digits, core, rest = piece.partition(b',"core":')
        if not (core and len(digits) <= _CODIM_DIGITS and digits.isdigit() and digits != b"0"
                and digits == b"%d" % int(digits) and digits[-1] in b"02468"):
            return None
        kept.append(core[1:] + rest)
        codims.append(int(digits))
    if b"".join(kept) != fresh or len(codims) not in (0, witnesses):
        return None
    return codims or [None] * witnesses


def _cache_lookup(path: str, verdict: NormalityVerdict, oracle: bool) -> list | None:
    """Each witness's codim_oracle (None where it has none) from the first line that is
    the verdict's record as the program writes it, but for those; with oracle, from one
    that has them all.

    Only a line that starts as the orbit's record does is read further, and one of
    those that is not such a record warns.
    The cache must be a regular file or not exist yet: a FIFO would block the
    read and a device need not end, so either is an input error.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ContractError(f"cannot write cache {path}: {exc.strerror or exc}")
    if not stat.S_ISREG(mode):
        raise ContractError(f"cannot write cache {path}: not a regular file")
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    fresh = _verdict_json(verdict).encode()
    own = fresh[:fresh.index(b'"verdict":')]  # the orbit's eps and partition
    with handle:
        while line := handle.readline(_CACHE_LINE_LIMIT):
            if len(line) == _CACHE_LINE_LIMIT and not line.endswith(b"\n"):
                _stderr("warning: ignoring over-long cache line")
                while line and not line.endswith(b"\n"):  # skip the rest, a bounded piece at a time
                    line = handle.readline(_CACHE_LINE_LIMIT)
                continue
            if not line.startswith(own):
                continue  # another orbit's record, a blank or a garbled line: skipped unread
            codims = _record_codims(line.removesuffix(b"\n"), fresh, len(verdict.witnesses))
            if codims is None:
                _stderr("warning: ignoring malformed cache record for"
                        f" [{_partition_csv(verdict.eta.partition)}]")
            elif not (oracle and None in codims):
                return codims
    return None


def _cache_append(path: str, record: str) -> None:
    try:
        with open(path, "ab") as handle:
            try:  # the record starts a line of its own, also after a last line with no newline
                with open(path, "rb") as tail:
                    tail.seek(max(handle.tell() - 1, 0))  # to the last byte, if there is one
                    lead = b"" if tail.read(1) in (b"", b"\n") else b"\n"
            except OSError:  # a cache that cannot be read is appended to as it is
                lead = b""
            handle.write(lead + record.encode() + b"\n")
    except OSError as exc:
        raise ContractError(f"cannot write cache {path}: {exc.strerror or exc}")


# --- subcommand bodies -----------------------------------------------------

@lru_cache(maxsize=None)
def _type_texts(t: DegenType) -> tuple[str, str]:
    """What a witness's type fixes, built once per type from its table pair: the text
    from its core on, and the JSON from its core up to its sigma."""
    core = table_pair(t)
    return ((f" -> core ([{_partition_csv(core.bottom)}] <= [{_partition_csv(core.top)}],"
             f" eps {core.eps:+d}) type {t.family} codim {t.codim}"),
            (f'"core":{_pair_json(core)},"family":"{t.family}",'
             f'"n":{"null" if t.n is None else t.n},"sigma":['))


def _verdict_text(verdict: NormalityVerdict, codims: list | None = None) -> str:
    """The verdict and its witnesses, each with its oracle codim where codims has one."""
    eta = verdict.eta
    lines = [f"partition [{_partition_csv(eta.partition)}] eps {eta.eps:+d}: {verdict.verdict}"]
    for w, codim in zip(verdict.witnesses, codims or [None] * len(verdict.witnesses)):
        lines.append(f"  witness [{_partition_csv(w.sigma)}]{_type_texts(w.degen_type)[0]}"
                     + ("" if codim is None else f" oracle_codim {codim}"))
    return "\n".join(lines)


def _pair_json(pair: DegenPair) -> str:
    return (f'{{"bottom":[{_partition_csv(pair.bottom)}],"eps":{pair.eps},'
            f'"top":[{_partition_csv(pair.top)}]}}')


def _witness_json(w: Witness, codim: int | None) -> str:
    """A witness, with codim_oracle where codim is given."""
    t = w.degen_type
    oracle = "" if codim is None else f'"codim_oracle":{codim},'
    return f'{{"codim":{t.codim},{oracle}{_type_texts(t)[1]}{_partition_csv(w.sigma)}]}}'


def _verdict_json(verdict: NormalityVerdict, codims: list | None = None) -> str:
    """The verdict and its witnesses, each with its oracle codim where codims has one:
    check's JSON and its cache record."""
    witnesses = ",".join([_witness_json(w, codim) for w, codim in
                          zip(verdict.witnesses, codims or [None] * len(verdict.witnesses))])
    return (f'{{"eps":{verdict.eta.eps},"partition":[{_partition_csv(verdict.eta.partition)}],'
            f'"verdict":"{verdict.verdict}","witnesses":[{witnesses}]}}')


def run_check(args) -> tuple[int, str]:
    eta = EpsDiagram(args.partition, args.eps)
    verdict = decide(eta)  # always: the cache holds oracle codims, not verdicts
    codims = None if args.cache is None else _cache_lookup(args.cache, verdict, args.oracle)
    code, record = VERDICT_EXIT[verdict.verdict], None
    if codims is None:
        top = orbit_dim(eta.partition, eta.eps) if args.oracle and verdict.witnesses else None
        codims = [None if top is None else top - orbit_dim(w.sigma, eta.eps)
                  for w in verdict.witnesses]
        if args.cache is not None:  # the record appended is check's JSON output, built once
            _cache_append(args.cache, record := _verdict_json(verdict, codims))
    if args.format == "text":
        return code, _verdict_text(verdict, codims)
    return code, record or _verdict_json(verdict, codims)


def run_survey(args) -> tuple[int, str]:
    verdicts = [decide(eta) for eta in enumerate_eps_diagrams(args.size, args.eps)]
    counts = {NORMAL: 0, NOT_NORMAL: 0, UNDETERMINED: 0}
    for v in verdicts:
        counts[v.verdict] += 1
    if args.format == "json":
        results = ",".join([_verdict_json(v) for v in verdicts])
        tally = ",".join(f'"{name}":{count}' for name, count in sorted(counts.items()))
        return EXIT_NORMAL, (f'{{"counts":{{{tally}}},"eps":{args.eps},"n":{args.size},'
                             f'"results":[{results}]}}')
    if args.format == "csv":
        lines = ["partition;verdict;witness_families"]
        for v in verdicts:
            families = ",".join(w.degen_type.family for w in v.witnesses)
            lines.append(f"{_partition_csv(v.eta.partition)};{v.verdict};{families}")
        return EXIT_NORMAL, "\n".join(lines)
    lines = [_verdict_text(v) for v in verdicts]
    lines.append(
        f"summary: {counts[NORMAL]} Normal, {counts[NOT_NORMAL]} NotNormal,"
        f" {counts[UNDETERMINED]} Undetermined"
    )
    return EXIT_NORMAL, "\n".join(lines)


def _hasse_json(graph: PosetGraph) -> str:
    edges = ",".join([
        f'{{"bottom":[{_partition_csv(e.bottom)}],"codim":{e.codim},'
        f'"top":[{_partition_csv(e.top)}],"type":"{e.family}"}}' for e in graph.edges])
    nodes = ",".join([f"[{_partition_csv(d.partition)}]" for d in graph.nodes])
    return f'{{"edges":[{edges}],"eps":{graph.eps},"n":{graph.n},"nodes":[{nodes}]}}'


def run_hasse(args) -> tuple[int, str]:
    graph = hasse(args.size, args.eps)
    if args.format == "json":
        return EXIT_NORMAL, _hasse_json(graph)
    nodes = [f'  "{node.partition}";' for node in graph.nodes]
    edges = [f'  "{e.top}" -> "{e.bottom}" [label="{e.family},{e.codim}"];' for e in graph.edges]
    return EXIT_NORMAL, "\n".join(["digraph hasse {", *nodes, *edges, "}"])


def _reduction_json(reduction: ReductionResult) -> str:
    return (f'{{"core":{_pair_json(reduction.core)},'
            f'"erased_rows":[{_partition_csv(reduction.erased_rows)}],'
            f'"r":{len(reduction.erased_rows)},"s":{reduction.erased_columns}}}')


def run_reduce(args) -> tuple[int, str]:
    reduction = irreducible_core(DegenPair(args.eps, args.bottom, args.top))
    if args.format == "json":
        return EXIT_NORMAL, _reduction_json(reduction)
    core = reduction.core
    return EXIT_NORMAL, (
        f"core: [{_partition_csv(core.bottom)}] <= [{_partition_csv(core.top)}]"
        f" eps' {core.eps:+d}; erased {len(reduction.erased_rows)} rows"
        f" [{_partition_csv(reduction.erased_rows)}], {reduction.erased_columns} columns"
    )


def run_classify(args) -> tuple[int, str]:
    pair = DegenPair(args.eps, args.bottom, args.top)
    reduction, degen_type = classify_minimal_degeneration(pair)
    if args.format == "json":
        return EXIT_NORMAL, (f'{{"reduction":{_reduction_json(reduction)},"type":{{"codim":'
                             f'{degen_type.codim},"family":"{degen_type.family}","n":'
                             f'{"null" if degen_type.n is None else degen_type.n}}}}}')
    return EXIT_NORMAL, (
        f"core [{_partition_csv(reduction.core.bottom)}] <="
        f" [{_partition_csv(reduction.core.top)}]: {degen_type}"
    )


def run_dim(args) -> tuple[int, str]:
    p = args.partition
    cent = centralizer_dim(build_nilpotent_model(p, args.eps))  # the builder checks the diagram
    total = algebra_dim(p.size, args.eps)
    if args.format == "json":
        return EXIT_NORMAL, (f'{{"algebra_dim":{total},"centralizer_dim":{cent},"eps":{args.eps},'
                             f'"orbit_dim":{total - cent},"partition":[{_partition_csv(p)}]}}')
    return EXIT_NORMAL, (
        f"[{_partition_csv(p)}] eps {args.eps:+d}: orbit dim {total - cent},"
        f" centralizer dim {cent}, algebra dim {total}"
    )


def run_verify(args) -> tuple[int, str]:
    p = args.partition
    restricted = restrict_to_image(build_nilpotent_model(p, args.eps))
    got, expected = jordan_type(restricted.D), p.erase_first_column()
    ok = got == expected and restricted.eps == -args.eps
    status = "PASS" if ok else "FAIL"
    return EXIT_NORMAL if ok else EXIT_INTERNAL, (
        f"restriction type [{_partition_csv(got)}] eps {restricted.eps:+d},"
        f" expected [{_partition_csv(expected)}] eps {-args.eps:+d}: {status}"
    )


# --- argument wiring -------------------------------------------------------

#: One option of a subcommand.  convert turns the text of its value into the value (str
#: keeps the text), or is None for a flag that takes no value.
_Option = namedtuple("_Option", "flag convert required help choices default",
                     defaults=(False, None, None, None))

#: One subcommand.  options is every option it takes, --eps first, in the order help lists them.
_Command = namedtuple("_Command", "run help options")


def _format(*choices: str, default: str = "text") -> _Option:
    return _Option("--format", str, choices=choices, default=default)


_EPS = _Option("--eps", _parse_eps, required=True, help="+1 orthogonal, -1 symplectic")
_MAX_SIZE = _Option("--max-size", lambda text: integer(text, "--max-size"),
                    help="the largest size the command takes", default=DEFAULT_MAX_SIZE)
_PARTITION = _Option("--partition", parse_partition, required=True)
_SIZE = _Option("--size", lambda text: integer(text, "--size"), required=True)
_PAIR = (_Option("--top", parse_partition, required=True),
         _Option("--bottom", parse_partition, required=True))

#: The whole command line, in the order help lists it; the parser and help read it.
COMMANDS = {
    "check": _Command(run_check, "normality verdict for one orbit", (
        _EPS, _format("json", "text"), _MAX_SIZE, _PARTITION,
        _Option("--cache", str, help="append-only JSONL verdict cache"),
        _Option("--oracle", None, help="cross-check codims with the matrix oracle", default=False),
    )),
    "survey": _Command(run_survey, "verdicts for every diagram of a size",
                       (_EPS, _format("json", "csv", "text"), _MAX_SIZE, _SIZE)),
    "hasse": _Command(run_hasse, "annotated cover graph as DOT or JSON",
                      (_EPS, _format("dot", "json", default="dot"), _MAX_SIZE, _SIZE)),
    "reduce": _Command(run_reduce, "irreducible core of a degeneration pair",
                       (_EPS, _format("json", "text"), _MAX_SIZE, *_PAIR)),
    "classify": _Command(run_classify, "reduce and classify a minimal degeneration",
                         (_EPS, _format("json", "text"), _MAX_SIZE, *_PAIR)),
    "dim": _Command(run_dim, "orbit/centralizer dimensions from the matrix oracle",
                    (_EPS, _format("json", "text"), _MAX_SIZE, _PARTITION)),
    "verify": _Command(run_verify, "check the column-erasure identity on one orbit",
                       (_EPS, _MAX_SIZE, _PARTITION)),
}


def _print_version(args) -> tuple[int, str]:
    return EXIT_NORMAL, __version__


def _print_help(args) -> tuple[int, str]:
    """The program's help, each command with its help; or args.command's, each option
    with its value or choices, whether it is required, its default and its help."""
    if args.command is None:
        return EXIT_NORMAL, "\n".join([
            "usage: orbitnorm COMMAND OPTION..., orbitnorm [COMMAND] --help or orbitnorm --version",
            "Decide normality of orthogonal/symplectic nilpotent orbit closures.", "", "commands:",
            *(f"  {name:<10}{command.help}" for name, command in COMMANDS.items())])
    command = COMMANDS[args.command]
    lines = [f"usage: orbitnorm {args.command} OPTION..., each once, as --option VALUE or --flag",
             command.help, "", "options:"]
    for opt in command.options:
        value = ("" if opt.convert is None else f" {{{','.join(opt.choices)}}}" if opt.choices
                 else f" {opt.flag[2:].upper().replace('-', '_')}")
        default = None if opt.convert is None or opt.default is None else f"default {opt.default}"
        notes = ("required" if opt.required else None, default, opt.help)
        lines.append(f"  {opt.flag + value:<24}  {'; '.join(filter(None, notes))}")
    return EXIT_NORMAL, "\n".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of a command line: its command's run function and option values, or
    help or --version; any other line is a ContractError that names what is wrong.

    A line is `--help`, `-h` or `--version` alone, or a command and then its options,
    each spelled in full and given once, as `--opt value` or `--flag`; `--help` or `-h`
    where an option flag may stand asks for the command's help.  No value starts with
    "-" unless its text up to the first comma or whitespace is integer text (is_integer),
    every value converts and is among its choices, and every required option is there.
    Then the line's size, --size or its largest partition, is held to --max-size
    (check_size), before any rule of what its values mean runs.
    """
    if argv in (["--help"], ["-h"]):
        return SimpleNamespace(command=None, func=_print_help)
    if argv == ["--version"]:
        return SimpleNamespace(func=_print_version)
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        problem = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise ContractError(f"{problem}; expected {', '.join(COMMANDS)},"
                            " or --help or --version alone")
    options = {opt.flag: opt for opt in command.options}
    found = {}
    rest = iter(argv[1:])
    for flag in rest:
        if flag in ("--help", "-h"):
            return SimpleNamespace(command=argv[0], func=_print_help)
        opt = options.get(flag)
        if opt is None:
            raise ContractError(f"{argv[0]} has no option {flag!r}")
        if flag in found:
            raise ContractError(f"{flag} is given twice")
        if opt.convert is None:
            found[flag] = True
            continue
        text = next(rest, None)
        if text is None or (text.startswith("-")
                            and not is_integer(text.replace(",", " ").split()[0])):
            raise ContractError(f"{flag} needs a value"
                                + ("" if text is None else f", not {text!r}"))
        value = opt.convert(text)  # a ContractError that names what is wrong, if any
        if opt.choices is not None and value not in opt.choices:
            raise ContractError(f"{flag} must be one of {', '.join(opt.choices)}, got {text!r}")
        found[flag] = value
    missing = [flag for flag, opt in options.items() if opt.required and flag not in found]
    if missing:
        raise ContractError(f"{argv[0]} requires {', '.join(missing)}")
    values = {flag[2:].replace("-", "_"): found.get(flag, opt.default)
              for flag, opt in options.items()}
    sizes = [value.size for value in values.values() if isinstance(value, Partition)]
    check_size(max(sizes) if sizes else values["size"], values["max_size"])
    return SimpleNamespace(func=command.run, **values)


def _run(argv: list[str]) -> tuple[int, str | None]:
    """The exit code and the output of a command line; messages go to stderr as they arise."""
    try:
        args = _parse(argv)
        return args.func(args)
    except ContractError as exc:
        _stderr(f"error: {exc}")
        return EXIT_INPUT, None
    except CapacityError as exc:
        _stderr(f"error: {exc}")
        return EXIT_CAPACITY, None


def _write(code: int, text: str | None) -> int:
    """Print text and flush stdout; a failed write is one line on stderr and exit 1."""
    try:
        if text is not None:
            print(text)
        if sys.stdout is not None:  # None when fd 1 was closed: nothing is written, as print does
            sys.stdout.flush()
    except OSError as exc:
        # what is still buffered then goes to os.devnull, so no later flush fails again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _stderr(f"error: cannot write output: {exc.strerror or exc}")
        return EXIT_INTERNAL
    return code


def main(argv: list[str] | None = None) -> int:
    if argv is not None:
        return _write(*_run(argv))
    # run as the program: once the output is out and the atexit handlers have run,
    # leave without the interpreter's teardown, which only frees what exit drops
    code = _write(*_run(sys.argv[1:]))
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
