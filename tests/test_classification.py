import pytest

from orbitnorm import table
from orbitnorm.classification import (
    classify_core,
    classify_minimal_degeneration,
    instantiate,
    table_codim,
)
from orbitnorm.degeneration import DegenPair, covers, minimal_degenerations
from orbitnorm.errors import ContractError, NotMinimalIrreducible
from orbitnorm.partitions import ORTHOGONAL, SYMPLECTIC, Partition, enumerate_eps_diagrams
from orbitnorm.reduction import irreducible_core
from orbitnorm.table import DegenType, table_row
from test_partitions import partitions_of


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
        cases += [(f, n) for f in "bcdefgh"
                  for n in range(table.TABLE[f].least, table.TABLE[f].least + 4)]
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
        # the generator's core and table row equal what reduce-then-classify finds
        sizes = list(range(0, 23)) + ([30] if eps == SYMPLECTIC else [])
        for n in sizes:
            for eta in enumerate_eps_diagrams(n, eps):
                for c in covers(eta):
                    core = irreducible_core(DegenPair(eps, c.sigma, eta.partition)).core
                    assert core == c.core, (eta, c)
                    assert classify_core(core) == c.degen_type, (eta, c)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_codim2_families(self, eps):
        for n in range(0, 15):
            for eta in enumerate_eps_diagrams(n, eps):
                for p in minimal_degenerations(eta):
                    _, t = classify_minimal_degeneration(p)
                    if t.codim == 2:
                        assert t.family in "abcde" or (t.family == "g" and t.n == 1)


# --- the former table lookup, kept as a reference --------------------------

def reference_shapes(family, n):
    """(eps, top, bottom, algebra label) for one family instance: the former table.shapes."""
    if family == "a":
        return SYMPLECTIC, Partition([2]), Partition([1, 1]), "sp_2"
    if family == "b":
        return SYMPLECTIC, Partition([2 * n]), Partition([2 * n - 2, 2]), f"sp_{2 * n}"
    if family == "c":
        return ORTHOGONAL, Partition([2 * n + 1]), Partition([2 * n - 1, 1, 1]), f"so_{2 * n + 1}"
    if family == "d":
        return (SYMPLECTIC, Partition([2 * n + 1, 2 * n + 1]), Partition([2 * n, 2 * n, 2]),
                f"sp_{4 * n + 2}")
    if family == "e":
        return (ORTHOGONAL, Partition([2 * n, 2 * n]),
                Partition([2 * n - 1, 2 * n - 1, 1, 1]), f"so_{4 * n}")
    if family == "f":
        return (ORTHOGONAL, Partition([2, 2] + [1] * (2 * n - 3)), Partition([1] * (2 * n + 1)),
                f"so_{2 * n + 1}")
    if family == "g":
        return (SYMPLECTIC, Partition([2] + [1] * (2 * n - 2)), Partition([1] * (2 * n)),
                f"sp_{2 * n}")
    if family == "h":
        return (ORTHOGONAL, Partition([2, 2] + [1] * (2 * n - 4)), Partition([1] * (2 * n)),
                f"so_{2 * n}")
    raise ContractError(f"unknown family {family!r}")


def reference_candidates(top):
    """Family parameters solvable from the top shape alone: the former table._candidates."""
    out = []
    if len(top) == 1:
        if top[0] % 2 == 0:
            out.append(("b", top[0] // 2))
        else:
            out.append(("c", (top[0] - 1) // 2))
    if len(top) == 2 and top[0] == top[1]:
        if top[0] % 2 == 1:
            out.append(("d", (top[0] - 1) // 2))
        else:
            out.append(("e", top[0] // 2))
    if top and top[0] == 2:
        ones = sum(1 for p in top if p == 1)
        twos = sum(1 for p in top if p == 2)
        if twos == 1 and ones % 2 == 0:
            out.append(("g", (ones + 2) // 2))
        if twos == 2:
            if ones % 2 == 1:
                out.append(("f", (ones + 3) // 2))
            else:
                out.append(("h", (ones + 4) // 2))
    return out


REFERENCE_RANGES = {"b": 2, "c": 1, "d": 1, "e": 1, "f": 2, "g": 1, "h": 3}


def reference_table_row(eps, top):
    """(family, n, bottom, algebra label) or None: the former table.table_row, unmemoized."""
    if (eps, top) == (SYMPLECTIC, (2,)):
        _, _, bottom, algebra = reference_shapes("a", 0)
        return "a", None, bottom, algebra
    for family, n in reference_candidates(top):
        if n < REFERENCE_RANGES[family]:
            continue
        row_eps, row_top, bottom, algebra = reference_shapes(family, n)
        if (row_eps, row_top) == (eps, top):
            return family, n, bottom, algebra
    return None


def _without_label(row):
    return None if row is None else row[:3]


class TestTableAgainstReference:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_every_partition_up_to_20(self, eps):
        # tuple and Partition keys, as the cover generator and classify_core pass them
        hits = 0
        for n in range(0, 21):
            for p in partitions_of(n):
                expected = _without_label(reference_table_row(eps, tuple(p)))
                assert table_row(eps, tuple(p)) == expected, p
                assert table_row(eps, p) == expected, p
                hits += expected is not None
        assert hits > 0

    def test_ranges(self):
        assert {f: table.TABLE[f].least for f in "abcdefgh"} == {"a": None, **REFERENCE_RANGES}
        assert list(table.TABLE) == list("abcdefgh")

    def test_every_bottom_has_more_rows_than_its_top(self):
        # the cover generator's candidate rule rests on this: with s > 0 erased
        # columns, a row of length exactly s must sit right below the top
        for name, family in table.TABLE.items():
            for n in [None] if family.least is None else range(family.least, 61):
                assert len(family.bottom(n)) > len(family.top(n)), (name, n)

    def test_top_heads_index(self):
        # every table top is a diagram of its form type; the former lookup finds them all
        expected = set()
        for size in range(0, 41):
            for eps in (1, -1):
                for d in enumerate_eps_diagrams(size, eps, 40):
                    top = tuple(d.partition)
                    if reference_table_row(eps, top) is not None:
                        expected.add((eps, len(top), top[0]))
            assert table.top_heads(size) == expected, size

    @pytest.mark.parametrize("family", sorted(REFERENCE_RANGES))
    def test_large_instance_is_solved_not_searched(self, family, monkeypatch):
        # a lookup that tried n = least, least + 1, ... would evaluate tops hundreds of times
        calls = []

        def counted(top):
            return lambda n: calls.append(n) or top(n)

        monkeypatch.setattr(table, "TABLE", {
            name: f._replace(top=counted(f.top)) for name, f in table.TABLE.items()
        })
        eps, top, bottom, _ = reference_shapes(family, 500)
        row = table_row(eps, tuple(top))
        assert row == (family, 500, bottom)
        assert row == _without_label(reference_table_row(eps, tuple(top)))
        assert len(calls) <= 3 * len(table.TABLE)

    def test_degen_type_holds_only_family_and_n(self):
        assert DegenType._fields == ("family", "n")
        assert DegenType("a", None).codim == 2
        assert DegenType("g", 4).codim == 8
        assert DegenType("h", 5).codim == 18

    def test_instantiate_matches_reference(self):
        assert instantiate("a") == DegenPair(*[reference_shapes("a", 0)[i] for i in (0, 2, 1)])
        for family, lo in REFERENCE_RANGES.items():
            for n in (lo, lo + 1, 500):
                eps, top, bottom, _ = reference_shapes(family, n)
                assert instantiate(family, n) == DegenPair(eps, bottom, top)

    @pytest.mark.parametrize("family,n,message", [
        ("a", 1, "family a takes no parameter"),
        ("z", 1, "unknown family 'z'"),
        ("b", None, r"family b needs n >= 2"),
        ("h", 2, r"family h needs n >= 3"),
    ])
    def test_instantiate_errors(self, family, n, message):
        with pytest.raises(ContractError, match=message):
            instantiate(family, n)
