"""The census of the answers: one row per (eps, n) with n <= 40, checked in as census.txt.

Each row holds the number of eps-diagrams of size n, their covers per family a..h,
and the Normal, NotNormal and Undetermined tallies.  The test recomputes every row
through the package and compares.  With no package code, the diagram counts are also
derived from their generating functions, and every row again from the run-pattern
rule, which reads each cover's family off the diagram's runs of equal parts.  A
deliberate change of the answers edits census.txt, which this module prints when it
is run:

    PYTHONPATH=src python tests/test_census.py > tests/census.txt
"""

from collections import Counter
from functools import lru_cache
from itertools import groupby
from pathlib import Path

import pytest

from orbitnorm.normality import NORMAL, NOT_NORMAL, UNDETERMINED, decide
from orbitnorm.partitions import enumerate_eps_diagrams

CENSUS = Path(__file__).with_name("census.txt")
LARGEST = 40
ORBIT_BY_ORBIT = 30  #: the largest size at which the rule is held to each orbit's witnesses
FAMILIES = "abcdefgh"
HEADER = ("eps", "n", "diagrams", *FAMILIES, NORMAL, NOT_NORMAL, UNDETERMINED)


def census_row(eps, n):
    """The census row of (eps, n), as the package answers it."""
    covers = dict.fromkeys(FAMILIES, 0)
    verdicts = dict.fromkeys((NORMAL, NOT_NORMAL, UNDETERMINED), 0)
    diagrams = enumerate_eps_diagrams(n, eps)
    for eta in diagrams:
        verdict = decide(eta)
        verdicts[verdict.verdict] += 1
        for w in verdict.witnesses:
            covers[w.degen_type.family] += 1
    return (eps, n, len(diagrams), *covers.values(), *verdicts.values())


def render(rows):
    """The census as census.txt holds it: the header, then one row a line, in columns."""
    table = [HEADER, *rows]
    widths = [max(len(str(row[i])) for row in table) for i in range(len(HEADER))]
    return "".join(" ".join(str(x).rjust(w) for x, w in zip(row, widths)) + "\n" for row in table)


def checked_in_rows(eps):
    header, *lines = CENSUS.read_text(encoding="utf-8").splitlines()
    assert tuple(header.split()) == HEADER
    rows = [tuple(map(int, line.split())) for line in lines]
    return [row for row in rows if row[0] == eps]


def series_product(factors, length):
    """The first length coefficients of the product of the given power series."""
    product = [1] + [0] * (length - 1)
    for factor in factors:
        product = [sum(product[i] * factor[k - i] for i in range(k + 1)) for k in range(length)]
    return product


def geometric(step, length):
    """1 / (1 - x^step) up to x^(length - 1)."""
    return [int(k % step == 0) for k in range(length)]


def diagram_counts(eps, length):
    """The number of eps-diagrams of each size below length, from generating functions.

    eps +1 (even parts of even multiplicity): prod over odd k of 1/(1 - x^k) times
    prod over even k of 1/(1 - x^(2k)).  eps -1 (odd parts of even multiplicity):
    size 2m is counted by the overpartitions of m, prod over k of (1 + q^k)/(1 - q^k),
    and an odd size by none.
    """
    if eps == 1:
        return series_product([geometric(k if k % 2 else 2 * k, length)
                               for k in range(1, length)], length)
    half = length // 2 + 1
    over = series_product([geometric(k, half) for k in range(1, half)]
                          + [[1] + [int(i == k) for i in range(1, half)] for k in range(1, half)],
                          half)
    return [0 if n % 2 else over[n // 2] for n in range(length)]


@lru_cache(maxsize=None)
def diagram_runs(n, largest):
    """Every diagram of size n with parts at most largest, for both eps, as its runs of
    equal parts (part, multiplicity), largest part first: {eps: tuple of run tuples}."""
    if n == 0:
        return {1: ((),), -1: ((),)}
    found = {1: [], -1: []}
    for part in range(min(n, largest), 0, -1):
        for mult in range(1, n // part + 1):
            for eps, rests in diagram_runs(n - part * mult, part - 1).items():
                # eps +1 pairs its even parts, eps -1 its odd ones
                if mult % 2 == 0 or part % 2 == (eps == 1):
                    found[eps] += [((part, mult), *rest) for rest in rests]
    return {eps: tuple(diagrams) for eps, diagrams in found.items()}


def rule_covers(runs, eps):
    """The (family, n) of each cover of the eps-diagram with these runs, by the run-pattern
    rule, written from the a-h table's shapes.

    The rows drop below each run: from x to the next run's part s, or to s = 0 below the
    last.  The cover there erases the s columns left of the drop, which turns the form
    type to e = (-1)^s eps, and is one of the table's tops of width k = x - s: one row
    (a, b, c), two equal rows (d, e), or, for k = 1, a 2,2,1.. or 2,1.. shape that takes
    t rows of part s + 2 right above the run (f, g, h).
    """
    found = []
    for i, (x, r) in enumerate(runs):
        s = runs[i + 1][0] if i + 1 < len(runs) else 0
        k, e = x - s, eps * (-1) ** s
        if e == -1 and k % 2 == 0:
            found.append(("a", None) if k == 2 else ("b", k // 2))
        if e == 1 and k % 2 == 1 and k >= 3:
            found.append(("c", (k - 1) // 2))
        if r >= 2 and e == -1 and k % 2 == 1 and k >= 3:
            found.append(("d", (k - 1) // 2))
        if r >= 2 and e == 1 and k % 2 == 0:
            found.append(("e", k // 2))
        t = runs[i - 1][1] if k == 1 and i > 0 and runs[i - 1][0] == s + 2 else 0
        if e == 1 and t >= 2:
            found.append(("f", (r + 3) // 2) if r % 2 else ("h", r // 2 + 2))
        if e == -1 and r % 2 == 0 and t >= 1:
            found.append(("g", r // 2 + 1))
    return found


def rule_row(eps, n):
    """The census row of (eps, n), from the run-pattern rule alone: an e cover makes an
    orbit NotNormal, else a d cover Undetermined, else it is Normal."""
    covers = dict.fromkeys(FAMILIES, 0)
    verdicts = dict.fromkeys((NORMAL, NOT_NORMAL, UNDETERMINED), 0)
    diagrams = diagram_runs(n, n)[eps]
    for runs in diagrams:
        families = [family for family, _ in rule_covers(runs, eps)]
        for family in families:
            covers[family] += 1
        verdicts[NOT_NORMAL if "e" in families else UNDETERMINED if "d" in families
                 else NORMAL] += 1
    return (eps, n, len(diagrams), *covers.values(), *verdicts.values())


@pytest.mark.parametrize("eps", [1, -1])
def test_the_census_is_the_checked_in_one(eps):
    assert [census_row(eps, n) for n in range(LARGEST + 1)] == checked_in_rows(eps)


@pytest.mark.parametrize("eps", [1, -1])
def test_the_run_pattern_rule_gives_the_checked_in_census(eps):
    # every row's diagrams, a-h covers and verdict tallies, derived with no package code
    assert [rule_row(eps, n) for n in range(LARGEST + 1)] == checked_in_rows(eps)


@pytest.mark.parametrize("eps", [1, -1])
def test_the_run_pattern_rule_gives_each_orbit_its_witness_types(eps):
    # orbit by orbit, the rule's (family, n) multiset is the package's witnesses'
    for n in range(ORBIT_BY_ORBIT + 1):
        for eta in enumerate_eps_diagrams(n, eps):
            runs = tuple((part, len(list(run))) for part, run in groupby(eta.partition))
            assert Counter(rule_covers(runs, eps)) == Counter(
                tuple(w.degen_type) for w in decide(eta).witnesses), eta


@pytest.mark.parametrize("eps", [1, -1])
def test_the_diagram_counts_follow_their_generating_functions(eps):
    counts = [row[2] for row in checked_in_rows(eps)]
    assert counts == diagram_counts(eps, LARGEST + 1)


def test_the_census_at_forty():
    rows = {row[0]: row for eps in (1, -1) for row in checked_in_rows(eps) if row[1] == LARGEST}
    # diagrams, covers, and the Normal, NotNormal and Undetermined tallies
    assert [(row[2], sum(row[3:11]), row[11:]) for row in rows.values()] == [
        (5096, 15194, (3415, 946, 735)), (7336, 22429, (5056, 1144, 1136))]


if __name__ == "__main__":
    print(render([census_row(eps, n) for eps in (1, -1) for n in range(LARGEST + 1)]), end="")
