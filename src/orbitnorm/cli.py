"""Command-line front end.

Subcommands: check, survey, hasse, reduce, classify, dim, verify.
Exit codes: 0 Normal/success, 10 NotNormal, 11 Undetermined,
2 input error, 3 capacity exceeded, 1 internal error.
All output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .classification import annotate, classify_minimal_degeneration
from .degeneration import DegenPair, hasse
from .errors import CapacityError, ContractError, NotMinimalIrreducible, PartitionParseError
from .matrix_oracle import (
    algebra_dim,
    build_nilpotent_model,
    centralizer_dim,
    codim_oracle,
    jordan_type,
    orbit_dim,
    restrict_to_image,
)
from .normality import NORMAL, NOT_NORMAL, UNDETERMINED, decide, survey
from .partitions import EpsDiagram, Partition, parse_partition
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


def _partition_csv(p: Partition) -> str:
    return ",".join(str(x) for x in p)


# --- cache -----------------------------------------------------------------

def _valid_report(record: dict) -> bool:
    """A known verdict and witnesses carrying every key the text output reads."""
    witnesses = record.get("witnesses")
    return (
        record.get("verdict") in VERDICT_EXIT
        and isinstance(witnesses, list)
        and all(
            isinstance(w, dict)
            and {"sigma", "core", "family", "codim"} <= w.keys()
            and isinstance(w["core"], dict)
            and {"eps", "top", "bottom"} <= w["core"].keys()
            for w in witnesses
        )
    )


def _cache_lookup(path: str, eps: int, partition: Partition, oracle: bool) -> dict | None:
    """First usable record for the orbit; with oracle, only one that has oracle codims."""
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    with handle:
        for line in handle:
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
            f"  witness [{','.join(map(str, w['sigma']))}]"
            f" -> core ([{','.join(map(str, w['core']['bottom']))}] <="
            f" [{','.join(map(str, w['core']['top']))}], eps {w['core']['eps']:+d})"
            f" type {w['family']} codim {w['codim']}"
            + (f" oracle_codim {w['codim_oracle']}" if "codim_oracle" in w else "")
        )
    return "\n".join(lines)


def run_check(args) -> int:
    eta = EpsDiagram(parse_partition(args.partition), args.eps)
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
            lines.append(f"{','.join(map(str, r['partition']))};{r['verdict']};{families}")
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
    graph = annotate(hasse(args.size, args.eps, args.max_size))
    if args.format == "json":
        _emit(_dumps(graph.to_json()))
        return EXIT_NORMAL
    lines = ["digraph hasse {"]
    for node in graph.nodes:
        lines.append(f'  "{node.partition}";')
    for edge in graph.edges:
        lines.append(
            f'  "{Partition(edge.top)}" -> "{Partition(edge.bottom)}"'
            f' [label="{edge.family},{edge.codim}"];'
        )
    lines.append("}")
    _emit("\n".join(lines))
    return EXIT_NORMAL


def run_reduce(args) -> int:
    pair = DegenPair(args.eps, parse_partition(args.bottom), parse_partition(args.top))
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
    pair = DegenPair(args.eps, parse_partition(args.bottom), parse_partition(args.top))
    reduction, degen_type = classify_minimal_degeneration(pair)
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
    eta = EpsDiagram(p, args.eps)
    model = build_nilpotent_model(p, args.eps)
    cent = centralizer_dim(model)
    report = {
        "eps": args.eps,
        "partition": list(p),
        "algebra_dim": algebra_dim(p.size, args.eps),
        "centralizer_dim": cent,
        "orbit_dim": orbit_dim(p, args.eps),
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
    eta = EpsDiagram(p, args.eps)
    model = build_nilpotent_model(p, args.eps)
    restricted = restrict_to_image(model)
    got = jordan_type(restricted.D)
    expected = p.erase_first_column()
    ok = got == expected and restricted.eps == -args.eps
    status = "PASS" if ok else "FAIL"
    _emit(
        f"restriction type [{_partition_csv(got)}] eps {restricted.eps:+d},"
        f" expected [{_partition_csv(expected)}] eps {-args.eps:+d}: {status}"
    )
    return EXIT_NORMAL if ok else EXIT_INTERNAL


# --- argument wiring -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitnorm",
        description="Decide normality of orthogonal/symplectic nilpotent orbit closures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices, fmt_default, bounded=False):
        p.add_argument("--eps", required=True, type=_parse_eps, help="+1 orthogonal, -1 symplectic")
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)
        if bounded:
            # only the commands that enumerate take a bound
            p.add_argument("--max-size", type=int, default=None, help="override the enumeration bound")

    p = sub.add_parser("check", help="normality verdict for one orbit")
    common(p, ["json", "text"], "text", bounded=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--cache", default=None, help="append-only JSONL verdict cache")
    p.add_argument("--oracle", action="store_true", help="cross-check codims with the matrix oracle")
    p.set_defaults(func=run_check)

    p = sub.add_parser("survey", help="verdicts for every diagram of a size")
    common(p, ["json", "csv", "text"], "text", bounded=True)
    p.add_argument("--size", required=True, type=int)
    p.set_defaults(func=run_survey)

    p = sub.add_parser("hasse", help="annotated cover graph as DOT or JSON")
    common(p, ["dot", "json"], "dot", bounded=True)
    p.add_argument("--size", required=True, type=int)
    p.set_defaults(func=run_hasse)

    p = sub.add_parser("reduce", help="irreducible core of a degeneration pair")
    common(p, ["json", "text"], "text")
    p.add_argument("--top", required=True)
    p.add_argument("--bottom", required=True)
    p.set_defaults(func=run_reduce)

    p = sub.add_parser("classify", help="reduce and classify a minimal degeneration")
    common(p, ["json", "text"], "text")
    p.add_argument("--top", required=True)
    p.add_argument("--bottom", required=True)
    p.set_defaults(func=run_classify)

    p = sub.add_parser("dim", help="orbit/centralizer dimensions from the matrix oracle")
    common(p, ["json", "text"], "text")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=run_dim)

    p = sub.add_parser("verify", help="check the column-erasure identity on one orbit")
    common(p, ["text"], "text")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=run_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
