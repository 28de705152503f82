"""Command-line front end.

Subcommands: check, survey, hasse, reduce, classify, dim, verify.
Exit codes: 0 Normal/success, 10 NotNormal, 11 Undetermined,
2 input error, 3 capacity exceeded, 1 internal error.
All output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import gc
import json
import os
import stat
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import __version__
from .classification import classify_core
from .degeneration import DegenPair, hasse
from .errors import CapacityError, ContractError, NotMinimalIrreducible, PartitionParseError
from .matrix_oracle import (
    algebra_dim,
    build_nilpotent_model,
    centralizer_dim,
    codim_oracle,
    jordan_type,
    restrict_to_image,
)
from .normality import NORMAL, NOT_NORMAL, UNDETERMINED, decide, survey
from .partitions import EpsDiagram, Partition, check_size, parse_partition
from .reduction import irreducible_core

EXIT_NORMAL = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_NOT_NORMAL = 10
EXIT_UNDETERMINED = 11

VERDICT_EXIT = {NORMAL: EXIT_NORMAL, NOT_NORMAL: EXIT_NOT_NORMAL, UNDETERMINED: EXIT_UNDETERMINED}


def _parse_eps(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise PartitionParseError(f"eps must be +1 or -1, got {text!r}")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _partition_csv(parts) -> str:
    """A partition, or a report's list of parts, as the comma-separated text every format prints."""
    return ",".join(map(str, parts))


# --- cache -----------------------------------------------------------------

def _is_parts(value) -> bool:
    """A list of positive ints.  JSON true loads as a bool, an int subclass, so types are exact."""
    return isinstance(value, list) and all(type(x) is int and x > 0 for x in value)


def _valid_report(record: dict) -> bool:
    """A known verdict and witnesses carrying every key the text output reads, of its type.

    The lookup matched eps and partition by ==, which JSON true and 7.0 pass for 1 and 7.
    """
    witnesses = record.get("witnesses")
    orbit = type(record.get("eps")) is int and _is_parts(record.get("partition"))
    return orbit and record.get("verdict") in VERDICT_EXIT and isinstance(witnesses, list) and all(
        isinstance(w, dict) and isinstance(w.get("core"), dict)
        and _is_parts(w.get("sigma")) and isinstance(w.get("family"), str)
        and type(w.get("codim")) is int and type(w.get("codim_oracle", 0)) is int
        and type(w["core"].get("eps")) is int and w["core"]["eps"] in (1, -1)
        and _is_parts(w["core"].get("top")) and _is_parts(w["core"].get("bottom"))
        for w in witnesses)


#: _dumps sorts keys, so every record the program writes starts with one of these.
_RECORD_PREFIXES = (b'{"eps":1,"partition":[', b'{"eps":-1,"partition":[')


#: Longest cache line read whole; a record the program writes is a few kB at most.
_CACHE_LINE_LIMIT = 1 << 20


def _cache_lookup(path: str, eps: int, partition: Partition, oracle: bool) -> dict | None:
    """First usable record for the orbit; with oracle, only one that has oracle codims.

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
    own = f'{{"eps":{eps},"partition":[{_partition_csv(partition)}],'.encode()
    with handle:
        while line := handle.readline(_CACHE_LINE_LIMIT):
            if len(line) == _CACHE_LINE_LIMIT and not line.endswith(b"\n"):
                print("warning: ignoring over-long cache line", file=sys.stderr)
                while line and not line.endswith(b"\n"):  # skip the rest, a bounded piece at a time
                    line = handle.readline(_CACHE_LINE_LIMIT)
                continue
            if line.startswith(_RECORD_PREFIXES) and not line.startswith(own):
                continue  # a record the program wrote for another orbit: skip it unparsed
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                print("warning: ignoring unparseable cache line", file=sys.stderr)
                continue
            if not isinstance(record, dict):
                print("warning: ignoring cache line that is not a record", file=sys.stderr)
                continue
            if record.get("eps") != eps or record.get("partition") != list(partition):
                continue
            if not _valid_report(record):
                print(f"warning: ignoring malformed cache record for {partition}", file=sys.stderr)
                continue
            if oracle and not all("codim_oracle" in w for w in record["witnesses"]):
                continue
            return record
    return None


def _cache_append(path: str, record: dict) -> None:
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(_dumps(record) + "\n")
    except OSError as exc:
        raise ContractError(f"cannot write cache {path}: {exc.strerror or exc}")


# --- subcommand bodies -----------------------------------------------------

def _verdict_text(report: dict) -> str:
    lines = [f"partition [{_partition_csv(report['partition'])}] eps {report['eps']:+d}: {report['verdict']}"]
    for w in report["witnesses"]:
        lines.append(
            f"  witness [{_partition_csv(w['sigma'])}]"
            f" -> core ([{_partition_csv(w['core']['bottom'])}] <="
            f" [{_partition_csv(w['core']['top'])}], eps {w['core']['eps']:+d})"
            f" type {w['family']} codim {w['codim']}"
            + (f" oracle_codim {w['codim_oracle']}" if "codim_oracle" in w else "")
        )
    return "\n".join(lines)


def run_check(args) -> int:
    eta = EpsDiagram(parse_partition(args.partition), args.eps)
    check_size(eta.size, args.max_size)  # before the cache, so a hit honours the bound too
    if args.oracle:
        check_size(eta.size)  # the oracle's bound, which --max-size does not lift
    report = None
    if args.cache:
        report = _cache_lookup(args.cache, eta.eps, eta.partition, args.oracle)
    if report is None:
        verdict = decide(eta, args.max_size)
        report = verdict.to_json()
        if args.oracle:
            for w, pair_w in zip(report["witnesses"], verdict.witnesses):
                pair = DegenPair(eta.eps, pair_w.sigma, eta.partition)
                w["codim_oracle"] = codim_oracle(pair)
        if args.cache:
            _cache_append(args.cache, report)
    if args.format == "json":
        _emit(_dumps(report))
    else:
        _emit(_verdict_text(report))
    return VERDICT_EXIT[report["verdict"]]


def run_survey(args) -> int:
    verdicts = survey(args.size, args.eps, args.max_size)
    reports = [v.to_json() for v in verdicts]
    counts = {NORMAL: 0, NOT_NORMAL: 0, UNDETERMINED: 0}
    for r in reports:
        counts[r["verdict"]] += 1
    if args.format == "json":
        _emit(_dumps({"eps": args.eps, "n": args.size, "results": reports, "counts": counts}))
    elif args.format == "csv":
        lines = ["partition;verdict;witness_families"]
        for r in reports:
            families = ",".join(w["family"] for w in r["witnesses"])
            lines.append(f"{_partition_csv(r['partition'])};{r['verdict']};{families}")
        _emit("\n".join(lines))
    else:
        lines = [_verdict_text(r) for r in reports]
        lines.append(
            f"summary: {counts[NORMAL]} Normal, {counts[NOT_NORMAL]} NotNormal,"
            f" {counts[UNDETERMINED]} Undetermined"
        )
        _emit("\n".join(lines))
    return EXIT_NORMAL


def run_hasse(args) -> int:
    graph = hasse(args.size, args.eps, args.max_size)
    if args.format == "json":
        _emit(_dumps(graph.to_json()))
        return EXIT_NORMAL
    lines = ["digraph hasse {"]
    for node in graph.nodes:
        lines.append(f'  "{node.partition}";')
    for edge in graph.edges:
        lines.append(
            f'  "{edge.top}" -> "{edge.bottom}"'
            f' [label="{edge.family},{edge.codim}"];'
        )
    lines.append("}")
    _emit("\n".join(lines))
    return EXIT_NORMAL


def _pair(args) -> DegenPair:
    """The --bottom <= --top pair, within the enumeration bound, checked before any reduction."""
    pair = DegenPair(args.eps, parse_partition(args.bottom), parse_partition(args.top))
    check_size(pair.size)
    return pair


def run_reduce(args) -> int:
    pair = _pair(args)
    if not pair.is_strict:
        raise ContractError("top and bottom are equal; nothing to reduce")
    reduction = irreducible_core(pair)
    report = reduction.to_json()
    if args.format == "json":
        _emit(_dumps(report))
    else:
        core = reduction.core
        _emit(
            f"core: [{_partition_csv(core.bottom)}] <= [{_partition_csv(core.top)}]"
            f" eps' {core.eps:+d}; erased {reduction.row_count} rows"
            f" {list(reduction.erased_rows)}, {reduction.erased_columns} columns"
        )
    return EXIT_NORMAL


def run_classify(args) -> int:
    reduction = irreducible_core(_pair(args))
    try:
        degen_type = classify_core(reduction.core)
    except NotMinimalIrreducible as exc:  # the user's pair, not a gap in the table
        raise ContractError(f"not a minimal degeneration: {exc}") from None
    report = {"reduction": reduction.to_json(), "type": degen_type.to_json()}
    if args.format == "json":
        _emit(_dumps(report))
    else:
        _emit(
            f"core [{_partition_csv(reduction.core.bottom)}] <="
            f" [{_partition_csv(reduction.core.top)}]: {degen_type}"
        )
    return EXIT_NORMAL


def run_dim(args) -> int:
    p = parse_partition(args.partition)
    EpsDiagram(p, args.eps)  # rejects a diagram that breaks the parity rule
    model = build_nilpotent_model(p, args.eps)
    cent = centralizer_dim(model)
    total = algebra_dim(p.size, args.eps)
    report = {
        "eps": args.eps,
        "partition": list(p),
        "algebra_dim": total,
        "centralizer_dim": cent,
        "orbit_dim": total - cent,
    }
    if args.format == "json":
        _emit(_dumps(report))
    else:
        _emit(
            f"[{_partition_csv(p)}] eps {args.eps:+d}: orbit dim {report['orbit_dim']},"
            f" centralizer dim {cent}, algebra dim {report['algebra_dim']}"
        )
    return EXIT_NORMAL


def run_verify(args) -> int:
    p = parse_partition(args.partition)
    EpsDiagram(p, args.eps)  # rejects a diagram that breaks the parity rule
    model = build_nilpotent_model(p, args.eps)
    expected = p.erase_first_column()
    if expected:
        restricted = restrict_to_image(model)
        got, image_eps = jordan_type(restricted.D), restricted.eps
    else:  # a zero map: its image is the zero space, whose empty form counts as either type
        got, image_eps = expected, -args.eps
    ok = got == expected and image_eps == -args.eps
    status = "PASS" if ok else "FAIL"
    _emit(
        f"restriction type [{_partition_csv(got)}] eps {image_eps:+d},"
        f" expected [{_partition_csv(expected)}] eps {-args.eps:+d}: {status}"
    )
    return EXIT_NORMAL if ok else EXIT_INTERNAL


# --- argument wiring -------------------------------------------------------

#: One option of a subcommand.  convert is argparse's type (str for plain text),
#: or None for a flag that takes no value.
_Option = namedtuple("_Option", "flag convert required help choices default",
                     defaults=(False, None, None, None))

#: One subcommand.  Each takes --eps and --format (from formats, default_format),
#: the bounded ones also --max-size, and then its own options.
_Command = namedtuple("_Command", "run help formats default_format bounded options")

_EPS = _Option("--eps", _parse_eps, required=True, help="+1 orthogonal, -1 symplectic")
_MAX_SIZE = _Option("--max-size", int, help="override the enumeration bound")
_PARTITION = (_Option("--partition", str, required=True),)
_SIZE = (_Option("--size", int, required=True),)
_PAIR = (_Option("--top", str, required=True), _Option("--bottom", str, required=True))

#: The whole command line, in the order help lists it; both parsers derive from it.
COMMANDS = {
    "check": _Command(run_check, "normality verdict for one orbit", ("json", "text"), "text", True,
                      _PARTITION + (
                          _Option("--cache", str, help="append-only JSONL verdict cache"),
                          _Option("--oracle", None, help="cross-check codims with the matrix oracle",
                                  default=False),
                      )),
    "survey": _Command(run_survey, "verdicts for every diagram of a size",
                       ("json", "csv", "text"), "text", True, _SIZE),
    "hasse": _Command(run_hasse, "annotated cover graph as DOT or JSON",
                      ("dot", "json"), "dot", True, _SIZE),
    "reduce": _Command(run_reduce, "irreducible core of a degeneration pair",
                       ("json", "text"), "text", False, _PAIR),
    "classify": _Command(run_classify, "reduce and classify a minimal degeneration",
                         ("json", "text"), "text", False, _PAIR),
    "dim": _Command(run_dim, "orbit/centralizer dimensions from the matrix oracle",
                    ("json", "text"), "text", False, _PARTITION),
    "verify": _Command(run_verify, "check the column-erasure identity on one orbit",
                       ("text",), "text", False, _PARTITION),
}


def _options(command: _Command) -> list[_Option]:
    """Every option of a command, in the order help lists them."""
    fmt = _Option("--format", str, choices=command.formats, default=command.default_format)
    # only the commands that enumerate take a bound
    return [_EPS, fmt, *([_MAX_SIZE] if command.bounded else []), *command.options]


def _print_version(args) -> int:
    _emit(__version__)
    return EXIT_NORMAL


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the whole command line: its help, usage and error output."""
    import argparse  # a well-formed command line never gets here; see _parse

    parser = argparse.ArgumentParser(
        prog="orbitnorm",
        description="Decide normality of orthogonal/symplectic nilpotent orbit closures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in _options(command):
            if opt.convert is None:
                p.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, type=opt.convert, required=opt.required,
                               choices=opt.choices, default=opt.default, help=opt.help)
        p.set_defaults(func=command.run)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a canonical command line, else None.

    Canonical is `--version` alone, or a command and then its options, each
    spelled in full and given once, as `--opt value` or `--flag`.  No value
    starts with "-" unless it is an ASCII negative integer, every value
    converts and is among its choices, and every required option is there.
    Anything else (help, abbreviations, `--opt=value`, repeats, `--`, any
    error) gives None, so argparse answers it with its own output.
    """
    if argv == ["--version"]:
        return SimpleNamespace(func=_print_version)
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {opt.flag: opt for opt in _options(command)}
    found = {}
    rest = iter(argv[1:])
    for flag in rest:
        opt = options.get(flag)
        if opt is None or flag in found:
            return None
        if opt.convert is None:
            found[flag] = True
            continue
        text = next(rest, None)
        if text is None or text.startswith("-") and not (text.isascii() and text[1:].isdigit()):
            return None
        try:
            value = opt.convert(text)
        except (TypeError, ValueError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        found[flag] = value
    if any(opt.required and flag not in found for flag, opt in options.items()):
        return None
    values = {flag[2:].replace("-", "_"): found.get(flag, opt.default)
              for flag, opt in options.items()}
    return SimpleNamespace(command=argv[0], func=command.run, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # run as the program: no later collection, the one at exit included,
        # rescans the objects that start-up made
        gc.freeze()
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse uses 2 for usage errors, which matches our input-error code
            return int(exc.code or 0)
    try:
        return args.func(args)
    except (PartitionParseError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NotMinimalIrreducible as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
