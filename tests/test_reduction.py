import json
import re

import pytest

from orbitnorm import reduction
from orbitnorm.degeneration import DegenPair, dominates, minimal_degenerations
from orbitnorm.cli import main
from orbitnorm.errors import ContractError
from orbitnorm.partitions import EpsDiagram, Partition, enumerate_eps_diagrams
from orbitnorm.reduction import (
    ReductionResult,
    common_leading_columns,
    common_leading_rows,
    irreducible_core,
    is_irreducible,
    reconstruct,
)


def pair(eps, bottom, top):
    return DegenPair(eps, Partition(bottom), Partition(top))


def fixpoint_core(pair, columns_first=False):
    """Reference reduction: erase common rows and single columns until neither is left.

    It erases with its own slices and arithmetic, none of irreducible_core's.
    """
    current = pair
    steps = []

    def take_rows():
        nonlocal current
        r = common_leading_rows(current)
        if r == 0:
            return False
        steps.extend(("row", length) for length in current.top[:r])
        current = DegenPair(current.eps, current.bottom[r:], current.top[r:])
        return True

    def take_columns():
        nonlocal current
        changed = False
        while common_leading_columns(current) > 0:
            steps.append(("col", current.top.dual()[0]))
            current = DegenPair(-current.eps, [x - 1 for x in current.bottom if x > 1],
                                [x - 1 for x in current.top if x > 1])
            changed = True
        return changed

    order = (take_columns, take_rows) if columns_first else (take_rows, take_columns)
    while True:
        changed = False
        for step in order:
            changed |= step()
        if not changed:
            break
    return ReductionResult(core=current, steps=tuple(steps))


def all_strict_pairs(n, eps):
    diagrams = enumerate_eps_diagrams(n, eps)
    for eta in diagrams:
        for sigma in diagrams:
            if sigma.partition != eta.partition and dominates(eta.partition, sigma.partition):
                yield DegenPair(eps, sigma.partition, eta.partition)


class TestLeadingRowsColumns:
    def test_rows(self):
        assert common_leading_rows(pair(1, [7, 1, 1, 1, 1], [7, 2, 2])) == 1
        assert common_leading_rows(pair(-1, [4, 2, 2], [6, 1, 1])) == 0
        p = pair(-1, [4, 2], [4, 2])
        assert common_leading_rows(p) == 2

    def test_columns(self):
        assert common_leading_columns(pair(-1, [4, 2, 2], [6, 1, 1])) == 1
        assert common_leading_columns(pair(1, [1, 1, 1, 1], [2, 2])) == 0
        p = pair(-1, [4, 2], [4, 2])
        assert common_leading_columns(p) == 4


class TestIrreducible:
    def test_examples(self):
        assert is_irreducible(pair(1, [1, 1, 1, 1], [2, 2]))
        assert not is_irreducible(pair(1, [7, 1, 1, 1, 1], [7, 2, 2]))
        assert not is_irreducible(pair(-1, [4, 2, 2], [6, 1, 1]))

    def test_equal_pair_rejected(self):
        with pytest.raises(ContractError):
            is_irreducible(pair(-1, [2], [2]))


class TestIrreducibleCore:
    def test_row_reduction(self):
        result = irreducible_core(pair(-1, [4, 4, 2, 2, 2], [4, 4, 3, 3]))
        assert result.core == pair(-1, [2, 2, 2], [3, 3])
        assert len(result.erased_rows) == 2
        assert result.erased_columns == 0

    def test_column_reduction(self):
        result = irreducible_core(pair(-1, [4, 2, 2], [6, 1, 1]))
        assert result.core == pair(1, [3, 1, 1], [5])
        assert len(result.erased_rows) == 0
        assert result.erased_columns == 1

    def test_already_irreducible(self):
        p = pair(-1, [1, 1], [2])
        result = irreducible_core(p)
        assert result.core == p
        assert len(result.erased_rows) == 0 and result.erased_columns == 0

    def test_equal_pair_rejected(self):
        with pytest.raises(ContractError):
            irreducible_core(pair(-1, [2], [2]))

    def test_builds_one_pair_per_non_empty_phase(self, monkeypatch):
        # irreducible_core builds one pair per non-empty phase: the row-erased one, then the
        # column-erased one
        built = []

        def counted(*args):
            built.append(args)
            return DegenPair(*args)

        monkeypatch.setattr(reduction, "DegenPair", counted)
        result = irreducible_core(pair(-1, [6, 4, 2, 2], [6, 6, 1, 1]))
        assert result.core == pair(1, [3, 1, 1], [5])
        assert result.steps == (("row", 6), ("col", 3))
        assert len(built) == 2

    def test_json_shape(self, capsys):
        assert main(["reduce", "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "core": {"eps": 1, "top": [5], "bottom": [3, 1, 1]},
            "r": 0,
            "s": 1,
            "erased_rows": [],
        }


class TestReductionProperties:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_order_independence_and_round_trip(self, eps):
        for n in range(2, 13):
            for p in all_strict_pairs(n, eps):
                rows_first = irreducible_core(p)
                cols_first = irreducible_core(p, columns_first=True)
                assert rows_first.core == cols_first.core, p
                assert reconstruct(rows_first) == p
                assert reconstruct(cols_first) == p

    @pytest.mark.parametrize("columns_first", [False, True], ids=["rows-first", "columns-first"])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_fixed_sequence_is_the_fixpoint(self, eps, columns_first):
        # the same core and the same ledger, entry for entry, as erasing to a fixpoint
        for n in range(2, 13):
            for p in all_strict_pairs(n, eps):
                got = irreducible_core(p, columns_first=columns_first)
                assert got == fixpoint_core(p, columns_first=columns_first), p
                assert is_irreducible(got.core), p

    @pytest.mark.parametrize("steps, message", [
        ((("col", 1),), "column of height 1 too short for [1,1]"),
        ((("row", 1),), "row of length 1 too short for [2]"),
    ], ids=["column", "row"])
    def test_replay_refuses_a_ledger_that_does_not_fit_the_core(self, steps, message):
        # a ledger irreducible_core never writes: a column shorter than the core's
        # bottom, or a row shorter than the top's first part
        result = ReductionResult(core=DegenPair(-1, [1, 1], [2]), steps=steps)
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            reconstruct(result)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_sign_rule(self, eps):
        for n in range(2, 13):
            for p in all_strict_pairs(n, eps):
                result = irreducible_core(p)
                assert result.core.eps == (-1) ** result.erased_columns * eps

    @pytest.mark.parametrize("eps", [1, -1])
    def test_minimality_preserved(self, eps):
        # the core of a covering pair covers in its own smaller poset
        for n in range(2, 13):
            for eta in enumerate_eps_diagrams(n, eps):
                for p in minimal_degenerations(eta):
                    core = irreducible_core(p).core
                    covers = minimal_degenerations(EpsDiagram(core.top, core.eps))
                    assert core in covers, (p, core)
