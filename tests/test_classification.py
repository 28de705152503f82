import pytest

from orbitnorm.classification import (
    FAMILY_RANGES,
    classify_core,
    classify_minimal_degeneration,
    instantiate,
    table_codim,
)
from orbitnorm.degeneration import DegenPair, cover_family, minimal_degenerations
from orbitnorm.errors import ContractError, NotMinimalIrreducible
from orbitnorm.partitions import EpsDiagram, Partition, enumerate_eps_diagrams


def pair(eps, bottom, top):
    return DegenPair(eps, Partition(bottom), Partition(top))


class TestClassifyCore:
    @pytest.mark.parametrize(
        "eps,bottom,top,family,n",
        [
            (1, [1, 1, 1, 1], [2, 2], "e", 1),
            (1, [3, 1, 1], [5], "c", 2),
            (-1, [2, 2, 2], [3, 3], "d", 1),
            (-1, [1, 1], [2], "a", None),
            (-1, [2, 2], [4], "b", 2),
            (1, [1, 1, 1, 1, 1], [2, 2, 1], "f", 2),
            (-1, [1, 1, 1, 1], [2, 1, 1], "g", 2),
            (1, [1, 1, 1, 1, 1, 1], [2, 2, 1, 1], "h", 3),
        ],
    )
    def test_known_shapes(self, eps, bottom, top, family, n):
        t = classify_core(pair(eps, bottom, top))
        assert (t.family, t.n) == (family, n)

    def test_codims(self):
        assert classify_core(pair(1, [1, 1, 1, 1], [2, 2])).codim == 2
        assert classify_core(pair(-1, [1] * 6, [2, 1, 1, 1, 1])).codim == 6  # g, n=3

    def test_no_match_raises(self):
        with pytest.raises(NotMinimalIrreducible):
            classify_core(pair(-1, [2, 2, 1, 1], [4, 2]))

    def test_reducible_input_rejected(self):
        with pytest.raises(ContractError):
            classify_core(pair(1, [7, 1, 1, 1, 1], [7, 2, 2]))


class TestTieBreaks:
    def test_a_beats_g1(self):
        # the (2)/(1,1) symplectic shape is both a and g at n=1; a is reported
        assert classify_core(pair(-1, [1, 1], [2])).family == "a"

    def test_e1_beats_h2(self):
        # (2,2)/(1^4) orthogonal is e at n=1; h starts at n=3 so cannot claim it
        t = classify_core(pair(1, [1, 1, 1, 1], [2, 2]))
        assert (t.family, t.n, t.codim) == ("e", 1, 2)


class TestTableCodim:
    def test_constant_families(self):
        for family, n in [("b", 5), ("c", 3), ("d", 2), ("e", 2)]:
            assert table_codim(classify_core(instantiate(family, n))) == 2

    def test_g_growth(self):
        assert classify_core(instantiate("g", 3)).codim == 6
        assert classify_core(instantiate("g", 1)).codim == 2  # coincides with a

    def test_f_h_printed_values(self):
        assert classify_core(instantiate("f", 2)).codim == 6  # printed 4n-2
        assert classify_core(instantiate("h", 3)).codim == 10


class TestInstantiate:
    def test_a_takes_no_parameter(self):
        with pytest.raises(ContractError):
            instantiate("a", 1)

    def test_range_enforced(self):
        with pytest.raises(ContractError):
            instantiate("b", 1)
        with pytest.raises(ContractError):
            instantiate("h", 2)

    def test_round_trip_all_families(self):
        cases = [("a", None)]
        cases += [(f, n) for f, lo in FAMILY_RANGES.items() for n in range(lo, lo + 4)]
        for family, n in cases:
            p = instantiate(family, n)
            t = classify_core(p)
            if family == "g" and n == 1:
                assert t.family == "a"  # documented tie-break
            else:
                assert (t.family, t.n) == (family, n), (family, n)


class TestClassifyMinimalDegeneration:
    def test_row_reducible(self):
        reduction, t = classify_minimal_degeneration(pair(1, [7, 1, 1, 1, 1], [7, 2, 2]))
        assert reduction.core == pair(1, [1, 1, 1, 1], [2, 2])
        assert (t.family, t.codim) == ("e", 2)

    def test_column_reducible(self):
        reduction, t = classify_minimal_degeneration(pair(-1, [4, 2, 2], [6, 1, 1]))
        assert reduction.core == pair(1, [3, 1, 1], [5])
        assert (t.family, t.codim) == ("c", 2)

    def test_already_irreducible(self):
        reduction, t = classify_minimal_degeneration(pair(-1, [6, 2], [8]))
        assert reduction.core == pair(-1, [6, 2], [8])
        assert (t.family, t.n) == ("b", 4)


class TestExhaustiveClosure:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_every_cover_classifies(self, eps):
        # operational form of the completeness of the eight-family table
        seen = set()
        for n in range(0, 15):
            for eta in enumerate_eps_diagrams(n, eps):
                for p in minimal_degenerations(eta):
                    _, t = classify_minimal_degeneration(p)
                    seen.add(t.family)
        assert seen  # at least something classified

    @pytest.mark.parametrize("eps", [1, -1])
    def test_generated_family_matches_classification(self, eps):
        # the generator's table row and the reduce-then-classify path agree
        for n in range(0, 21):
            for eta in enumerate_eps_diagrams(n, eps):
                for p in minimal_degenerations(eta):
                    _, t = classify_minimal_degeneration(p)
                    assert cover_family(p) == t.family, p

    @pytest.mark.parametrize("eps", [1, -1])
    def test_codim2_families(self, eps):
        for n in range(0, 15):
            for eta in enumerate_eps_diagrams(n, eps):
                for p in minimal_degenerations(eta):
                    _, t = classify_minimal_degeneration(p)
                    if t.codim == 2:
                        assert t.family in "abcde" or (t.family == "g" and t.n == 1)
