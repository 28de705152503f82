"""Correctness checks on every operation's answer.

Two kinds of check run on each answer:

* comparison with the answer recorded at the seed commit in
  ``expected.json`` (only the fields named here are compared, so keys that a
  later version adds to the output are ignored);
* independent checks computed by this file's own code: dominance of every
  witness, the e -> d -> Normal verdict rule, the exit code, the paper's
  golden verdicts, ``codim_oracle == 2`` for families a-e, and the
  Collingwood-McGovern closed form for orbit dimensions.

``check_answer`` raises ``WrongAnswer`` for an answer the program got wrong
and ``MissingExpectation`` when the benchmark itself cannot check an input;
the caller counts the first as a failed operation and stops on the second.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import accumulate

from inputs import GOLDENS, csv, diagrams, eps_arg, is_diagram

VERDICT_EXIT = {"Normal": 0, "NotNormal": 10, "Undetermined": 11}
FAMILIES = "abcdefgh"
CODIM2 = "abcde"


class WrongAnswer(Exception):
    """The program's answer failed a check."""


class MissingExpectation(Exception):
    """No recorded answer exists for an input, so it cannot be checked."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# --- independent mathematics ----------------------------------------------

def strictly_dominates(top, bottom) -> bool:
    """bottom < top in the dominance order (equal sizes, prefix sums)."""
    if sum(top) != sum(bottom) or tuple(top) == tuple(bottom):
        return False
    width = max(len(top), len(bottom))
    tops = list(accumulate(list(top) + [0] * (width - len(top))))
    bots = list(accumulate(list(bottom) + [0] * (width - len(bottom))))
    return all(b <= t for t, b in zip(tops, bots))


def dual(parts) -> list[int]:
    return [sum(1 for p in parts if p >= j) for j in range(1, (max(parts) if parts else 0) + 1)]


def closed_form_orbit_dim(parts, eps: int) -> int:
    """dim O = N(N-eps)/2 - (sum of squared column heights - eps * #odd parts)/2."""
    n = sum(parts)
    odd = sum(1 for p in parts if p % 2)
    return n * (n - eps) // 2 - (sum(h * h for h in dual(parts)) - eps * odd) // 2


def verdict_rule(families) -> str:
    if "e" in families:
        return "NotNormal"
    if "d" in families:
        return "Undetermined"
    return "Normal"


GOLDEN_VERDICTS = {(eps, tuple(parts)): verdict for eps, parts, verdict in GOLDENS}


def _check_report(report: dict, eps: int, parts, oracle: bool) -> None:
    """Independent checks on one verdict report."""
    _require(report.get("eps") == eps and report.get("partition") == list(parts),
             f"report names {report.get('eps')} {report.get('partition')}")
    families = []
    for w in report["witnesses"]:
        sigma = w["sigma"]
        _require(is_diagram(sigma, eps), f"witness {sigma} is not an eps-diagram")
        _require(strictly_dominates(parts, sigma), f"witness {sigma} is not below {list(parts)}")
        _require(w["family"] in FAMILIES, f"unknown family {w['family']!r}")
        if oracle:
            _require("codim_oracle" in w, f"--oracle report lacks codim_oracle for {sigma}")
            if w["family"] in CODIM2:
                _require(w["codim_oracle"] == 2,
                         f"family {w['family']} has oracle codim {w['codim_oracle']}")
        families.append(w["family"])
    _require(report["verdict"] == verdict_rule(families),
             f"verdict {report['verdict']} contradicts witness families {sorted(families)}")
    golden = GOLDEN_VERDICTS.get((eps, tuple(parts)))
    _require(golden is None or report["verdict"] == golden,
             f"golden {list(parts)} eps {eps:+d} should be {golden}")


# --- canonical answers (the fields compared with expected.json) -----------

def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:32]


def canonical_check(report: dict, oracle: bool) -> dict:
    if oracle:
        witnesses = sorted([w["sigma"], w["family"], w.get("codim_oracle")]
                           for w in report["witnesses"])
    else:
        witnesses = sorted([w["sigma"], w["family"]] for w in report["witnesses"])
    return {"verdict": report["verdict"], "witnesses": witnesses}


def canonical_survey(doc: dict) -> dict:
    rows = sorted([r["partition"], r["verdict"], sorted([w["sigma"], w["family"]]
                                                        for w in r["witnesses"])]
                  for r in doc["results"])
    return {"orbits": len(rows), "digest": _digest(rows)}


def canonical_hasse(doc: dict) -> dict:
    nodes = sorted(doc["nodes"])
    edges = sorted([e["top"], e["bottom"], e["type"], e["codim"]] for e in doc["edges"])
    return {"nodes": len(nodes), "edges": len(edges), "digest": _digest([nodes, edges])}


def canonical_dim(doc: dict) -> dict:
    return {k: doc[k] for k in ("algebra_dim", "centralizer_dim", "orbit_dim")}


def parse(op: dict, stdout: str):
    """The answer as a document: the text for verify, parsed JSON otherwise."""
    if op["kind"] == "verify":
        return stdout.strip()
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"output is not JSON: {exc}") from None


def canonical(op: dict, doc):
    """The recorded form of a parsed answer."""
    kind = op["kind"]
    if kind == "verify":
        return doc
    if kind == "survey":
        return canonical_survey(doc)
    if kind == "hasse":
        return canonical_hasse(doc)
    if kind == "dim":
        return canonical_dim(doc)
    return canonical_check(doc, op.get("oracle", False))


# --- per-kind checks -------------------------------------------------------

def _check_sweep(op: dict, doc: dict) -> None:
    eps, n = op["eps"], op["n"]
    nodes = sorted(diagrams(n, eps))
    if op["kind"] == "survey":
        got = sorted(tuple(r["partition"]) for r in doc["results"])
        _require(got == nodes, f"survey lists {len(got)} orbits, expected {len(nodes)}")
        for r in doc["results"]:
            _check_report(r, eps, r["partition"], oracle=False)
        counts = Counter(r["verdict"] for r in doc["results"])
        _require(all(doc["counts"].get(v, 0) == c for v, c in counts.items()),
                 "survey counts disagree with its results")
    else:
        got = sorted(tuple(p) for p in doc["nodes"])
        _require(got == nodes, f"hasse lists {len(got)} nodes, expected {len(nodes)}")
        for e in doc["edges"]:
            _require(strictly_dominates(e["top"], e["bottom"]),
                     f"edge {e['top']} -> {e['bottom']} is not a strict degeneration")
            _require(e["type"] in FAMILIES, f"edge label {e['type']!r}")
            _require(e["type"] not in CODIM2 or e["codim"] == 2,
                     f"family {e['type']} edge has codim {e['codim']}")


def _check_dim(op: dict, doc: dict) -> None:
    parts, eps = op["partition"], op["eps"]
    n = sum(parts)
    _require(doc["orbit_dim"] == closed_form_orbit_dim(parts, eps),
             f"orbit_dim {doc['orbit_dim']} != closed form {closed_form_orbit_dim(parts, eps)}")
    _require(doc["algebra_dim"] == n * (n - eps) // 2, "algebra_dim is wrong")
    _require(doc["algebra_dim"] - doc["centralizer_dim"] == doc["orbit_dim"],
             "orbit_dim != algebra_dim - centralizer_dim")


def _check_verify(op: dict, line: str) -> None:
    parts, eps = op["partition"], op["eps"]
    erased = sorted((p - 1 for p in parts if p > 1), reverse=True)
    want = f"expected [{csv(erased)}] eps {eps_arg(-eps)}: PASS"
    _require(line.endswith(want), f"verify printed {line!r}")


def check_answer(op: dict, returncode: int, stdout: str, stderr: str, expected: dict) -> None:
    """Raise WrongAnswer unless the answer to op passes every check."""
    if op["key"] not in expected:
        raise MissingExpectation(f"no recorded answer for {op['key']}")
    want = expected[op["key"]]
    _require("Traceback (most recent call last)" not in stderr, "traceback on stderr")
    _require(returncode == want["exit"], f"exit code {returncode}, recorded {want['exit']}")
    doc = parse(op, stdout)
    try:
        got = canonical(op, doc)
        kind = op["kind"]
        if kind in ("survey", "hasse"):
            _check_sweep(op, doc)
        elif kind == "dim":
            _check_dim(op, doc)
        elif kind == "verify":
            _check_verify(op, doc)
        else:
            _check_report(doc, op["eps"], op["partition"], op.get("oracle", False))
            _require(returncode == VERDICT_EXIT[got["verdict"]],
                     f"exit code {returncode} for verdict {got['verdict']}")
    except (KeyError, TypeError, ValueError) as exc:
        raise WrongAnswer(f"malformed answer: {exc!r}") from None
    _require(got == want["answer"], f"answer differs from the recorded one: {got} != {want['answer']}")
