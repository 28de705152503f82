"""The census of the answers: one row per (eps, n) with n <= 40, checked in as census.txt.

Each row holds the number of eps-diagrams of size n, their covers per family a..h,
and the Normal, NotNormal and Undetermined tallies.  The test recomputes every row
through the package and compares; the diagram counts are also derived from their
generating functions with no package code.  A deliberate change of the answers
edits census.txt, which this module prints when it is run:

    PYTHONPATH=src python tests/test_census.py > tests/census.txt
"""

from pathlib import Path

import pytest

from orbitnorm.normality import NORMAL, NOT_NORMAL, UNDETERMINED, decide
from orbitnorm.partitions import enumerate_eps_diagrams

CENSUS = Path(__file__).with_name("census.txt")
LARGEST = 40
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


@pytest.mark.parametrize("eps", [1, -1])
def test_the_census_is_the_checked_in_one(eps):
    assert [census_row(eps, n) for n in range(LARGEST + 1)] == checked_in_rows(eps)


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
