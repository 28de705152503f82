import re
import sys
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, strategies as st

from orbitnorm.errors import ContractError
from orbitnorm.partitions import (
    EpsDiagram,
    Partition,
    _diagrams_desc,
    enumerate_eps_diagrams,
    eps_violation,
    integer,
    is_integer,
    parse_partition,
    size_text,
)


def is_eps_diagram(p, eps):
    """Whether p is the Jordan type of a nilpotent element for form type eps."""
    return eps_violation(p, eps) is None


partitions = st.lists(st.integers(min_value=1, max_value=12), max_size=10).map(Partition)


# Reference implementations: the straightforward forms the library used
# before its helpers were rewritten for speed.  The tests below require the
# library to agree with them exactly, error messages included.

def reference_partition(parts):
    """Sort, then check every part."""
    norm = sorted((int(p) for p in parts), reverse=True)
    for p in norm:
        if p <= 0:
            raise ContractError(f"partition parts must be positive, got {p}")
    return tuple(norm)


def reference_eps_violation(p, eps):
    """Count every part, then scan the counts from the largest part down."""
    if eps not in (1, -1):
        raise ContractError(f"eps must be +1 or -1, got {eps}")
    for part, mult in sorted(Counter(p).items(), reverse=True):
        if eps == 1 and part % 2 == 0 and mult % 2 == 1:
            return f"even part {part} has odd multiplicity"
        if eps == -1 and part % 2 == 1 and mult % 2 == 1:
            return f"odd part {part} has odd multiplicity"
    return None


def reference_integer(text, what):
    """An optional "-" and then ASCII digits, matched by a regex, as int() reads them."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ContractError(f"{what} must be an integer, got {text!r}")
    return int(text)


def reference_parse_partition(text):
    """Split on runs of commas and whitespace with a regex, then parse each token."""
    parts = []
    for tok in [t for t in re.split(r"[,\s]+", text.strip()) if t]:
        value = reference_integer(tok, "partition part")
        if value <= 0:
            raise ContractError(f"parts must be positive, got {tok!r}")
        parts.append(value)
    return Partition(parts)


@cache
def _partitions_desc(n, cap):
    """All partitions of n with parts <= cap, in reverse-lexicographic order."""
    if n == 0:
        return (Partition(),)
    return tuple(Partition((first, *rest))
                 for first in range(min(n, cap), 0, -1) for rest in _partitions_desc(n - first, first))


def partitions_of(n):
    """Every partition of n in reverse-lexicographic order.

    The enumeration the library used before it generated diagrams directly;
    the other test modules use it as the list of all partitions of a size.
    """
    return iter(_partitions_desc(n, n))


def reference_dual(p):
    """Column j has one cell per part of length at least j."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= j) for j in range(1, p[0] + 1))


def outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except ContractError as exc:
        return ("error", type(exc), str(exc))


SMALL = [p for n in range(17) for p in partitions_of(n)]


class TestAgainstReference:
    def test_construction(self):
        for p in SMALL:
            for parts in (list(p), list(reversed(p)), tuple(p)):
                built = Partition(parts)
                assert type(built) is Partition
                assert built == reference_partition(parts)

    def test_partition_is_returned_unchanged(self):
        for p in SMALL:
            assert Partition(p) is p

    def test_repr_and_str(self):
        assert repr(Partition([1, 3, 1])) == "Partition([3, 1, 1])"
        assert str(Partition([1, 3, 1])) == "[3,1,1]"
        assert (repr(Partition()), str(Partition())) == ("Partition([])", "[]")

    @pytest.mark.parametrize("parts,bad", [
        ([2.5, 1.9], "2.5"), (["3", "1"], "'3'"), ((p for p in [3, 2.0]), "2.0"), ([2, 1.0], "1.0"),
    ], ids=["float", "str", "generator", "integral-float"])
    def test_non_integer_part_is_refused(self, parts, bad):
        # int() would truncate 2.5 to 2 and parse "3"; a part must be an integer already
        with pytest.raises(ContractError, match=rf"^partition parts must be integers, got {bad}$"):
            Partition(parts)

    @pytest.mark.parametrize("parts,bad", [
        ([True, 2], "True"), ([2, False], "False"), ([3, True, 1.5], "True"), ((True,), "True"),
    ])
    def test_bool_part_is_refused(self, parts, bad):
        # True == 1 and operator.index(True) is 1, so a bool once passed as the part 1
        with pytest.raises(ContractError, match=rf"^partition parts must be integers, got {bad}$"):
            Partition(parts)

    def test_a_part_is_an_int_not_a_subclass_or_an_index(self):
        class Part(int):
            pass

        class Index:
            def __index__(self):
                return 2

            def __repr__(self):
                return "Index()"

        for parts, bad in (([3, Part(2)], "2"), ([Index(), 1], r"Index\(\)")):
            with pytest.raises(ContractError, match=rf"^partition parts must be integers, got {bad}$"):
                Partition(parts)

    def test_diagram_of_float_parts_is_refused(self):
        # [2.7, 2.2] once truncated to the valid diagram [2,2]
        with pytest.raises(ContractError, match=r"^partition parts must be integers, got 2\.7$"):
            EpsDiagram([2.7, 2.2], -1)

    @pytest.mark.parametrize("bad", [[0], [-1], [-2, 0], [0, -5], [-1, -3]])
    def test_nonpositive_parts_same_error(self, bad):
        for p in SMALL[:60]:
            for parts in (list(p) + bad, bad + list(p)):
                got = outcome(Partition, parts)
                assert got == outcome(reference_partition, parts)
                assert got[0] == "error"

    @pytest.mark.parametrize("eps", [1, -1])
    def test_eps_violation(self, eps):
        for p in SMALL:
            want = reference_eps_violation(p, eps)
            assert eps_violation(p, eps) == want, p
            assert eps_violation(list(reversed(p)), eps) == want, p

    def test_bad_eps_same_error(self):
        p = Partition([2, 1])
        for eps in (0, 2, -2):
            assert outcome(eps_violation, p, eps) == outcome(reference_eps_violation, p, eps)

    def test_dual(self):
        for p in SMALL:
            assert p.dual() == reference_dual(p)
            assert type(p.dual()) is Partition


class TestParse:
    def test_normalizes_identity(self):
        assert parse_partition("7,2,2") == (7, 2, 2)

    def test_sorts_input(self):
        assert parse_partition("1,6,1") == (6, 1, 1)

    def test_whitespace_and_spaces(self):
        assert parse_partition(" 4 2,2 ") == (4, 2, 2)

    def test_zero_part_rejected(self):
        with pytest.raises(ContractError, match=r"^parts must be positive, got '0'$"):
            parse_partition("6,0,1")

    def test_non_integer_rejected(self):
        with pytest.raises(ContractError, match=r"^partition part must be an integer, got 'x'$"):
            parse_partition("3,x")

    @pytest.mark.parametrize("tok", ["1_0", "+3", "٣", "٤٠", "-٣", "3.0", "0x3", "³", "-"])
    def test_only_integer_text_is_a_part(self, tok):
        # int() reads the first five; a part is an optional "-" and ASCII digits only
        with pytest.raises(ContractError,
                           match=rf"^partition part must be an integer, got '{re.escape(tok)}'$"):
            parse_partition(f"2,{tok}")

    def test_a_part_keeps_its_leading_zeros_and_the_sign_is_named(self):
        assert parse_partition("007,1") == (7, 1)
        with pytest.raises(ContractError, match=r"^parts must be positive, got '-3'$"):
            parse_partition("2,-3")

    def test_empty_text_is_empty_partition(self):
        assert parse_partition("") == ()

    def test_every_separator_splits_as_the_regex_did(self):
        separators = [",", *(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())]
        for c in separators:
            for text in (f"3{c}1{c}{c}2", f"{c}x{c}"):
                outcomes = []
                for parse in (parse_partition, reference_parse_partition):
                    try:
                        outcomes.append(parse(text))
                    except ContractError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], repr(c)


class TestDual:
    def test_known(self):
        assert Partition([6, 1, 1]).dual() == (3, 1, 1, 1, 1, 1)
        assert Partition([4, 2, 2]).dual() == (3, 3, 1, 1)

    def test_empty(self):
        assert Partition().dual() == ()

    @given(partitions)
    def test_involution(self, p):
        assert p.dual().dual() == p

    @given(partitions)
    def test_size_preserved(self, p):
        assert p.dual().size == p.size


class TestEpsDiagram:
    def test_orthogonal_examples(self):
        assert is_eps_diagram(Partition([7, 2, 2]), 1)
        assert is_eps_diagram(Partition([2, 2]), 1)
        assert not is_eps_diagram(Partition([2]), 1)

    def test_symplectic_examples(self):
        assert not is_eps_diagram(Partition([3, 1]), -1)
        assert is_eps_diagram(Partition([6, 1, 1]), -1)

    def test_empty_valid_for_both(self):
        assert is_eps_diagram(Partition(), 1)
        assert is_eps_diagram(Partition(), -1)

    def test_bad_eps_rejected(self):
        with pytest.raises(ContractError):
            is_eps_diagram(Partition([1]), 2)

    def test_diagram_constructor_validates(self):
        with pytest.raises(ContractError, match="odd part 3"):
            EpsDiagram(Partition([3, 1]), -1)

    def test_very_even_orthogonal_is_single_diagram(self):
        # all-even partitions do not split under the full orthogonal group
        assert is_eps_diagram(Partition([4, 4, 2, 2]), 1)


class TestEnumerate:
    def test_symplectic_four(self):
        got = [list(d.partition) for d in enumerate_eps_diagrams(4, -1)]
        assert got == [[4], [2, 2], [2, 1, 1], [1, 1, 1, 1]]

    def test_zero(self):
        assert [d.partition for d in enumerate_eps_diagrams(0, 1)] == [()]

    def test_orthogonal_two(self):
        assert [list(d.partition) for d in enumerate_eps_diagrams(2, 1)] == [[1, 1]]

    def test_negative_size(self):
        # the domain check stays the library's; only the size bound moved to the command line
        with pytest.raises(ContractError, match=r"^n must be nonnegative, got -1$"):
            enumerate_eps_diagrams(-1, 1)

    def test_bad_eps_is_refused_before_anything_is_memoized(self):
        # enumerated first, eps 5 would leave 11 entries in the memo before EpsDiagram refused it
        before = _diagrams_desc.cache_info().currsize
        with pytest.raises(ContractError, match=r"^eps must be \+1 or -1, got 5$"):
            enumerate_eps_diagrams(6, 5)
        assert _diagrams_desc.cache_info().currsize == before

    @pytest.mark.parametrize("eps", [1, -1])
    def test_direct_generation_matches_filtered_partitions(self, eps):
        # the generator against the filter it replaced, order included
        for n in range(0, 31):
            expected = [EpsDiagram(p, eps) for p in partitions_of(n) if is_eps_diagram(p, eps)]
            got = enumerate_eps_diagrams(n, eps)
            assert got == expected, n
            assert all(type(d) is EpsDiagram and type(d.partition) is Partition for d in got)

    def test_counts_at_the_default_bound(self):
        assert len(enumerate_eps_diagrams(40, 1)) == 5096
        assert len(enumerate_eps_diagrams(40, -1)) == 7336

    def test_subset_of_all_partitions(self):
        for n in range(0, 10):
            everything = set(partitions_of(n))
            for eps in (1, -1):
                assert {d.partition for d in enumerate_eps_diagrams(n, eps)} <= everything


class TestEraseFirstColumn:
    def test_examples(self):
        assert Partition([6, 1, 1]).erase_first_column() == (5,)
        assert Partition([1, 1, 1]).erase_first_column() == ()
        assert Partition([4, 2, 2]).erase_first_column() == (3, 1, 1)

    def test_flips_validity(self):
        # exhaustive up to size 20: erasure sends eps-diagrams to (-eps)-diagrams
        for n in range(0, 21):
            for eps in (1, -1):
                for d in enumerate_eps_diagrams(n, eps):
                    erased = d.partition.erase_first_column()
                    assert is_eps_diagram(erased, -eps), d


class TestSizeText:
    def test_decimal_up_to_the_digit_limit(self):
        digits = sys.get_int_max_str_digits()
        if not digits:
            pytest.skip("int to str conversion has no digit limit here")
        assert size_text(0) == "0" and size_text(40) == "40"
        assert size_text(10 ** digits - 1) == "9" * digits
        assert size_text(10 ** digits) == size_text(3 * 10 ** digits) == f">=10^{digits}"

    def test_follows_a_lowered_limit(self):
        # the smallest limit CPython allows: a sum of two 640-digit parts has 641 digits
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            parts = parse_partition(",".join(["9" * 640] * 2))
            assert size_text(parts.size) == ">=10^640"
            assert size_text(parts[0]) == "9" * 640
        finally:
            sys.set_int_max_str_digits(previous)


class TestInteger:
    @given(st.text(alphabet="-+_ 0123456789٣٤x", max_size=6) | st.text(max_size=4))
    def test_agrees_with_a_regex_reference(self, text):
        assert is_integer(text) == bool(re.fullmatch(r"-?[0-9]+", text))
        assert outcome(integer, text, "it") == outcome(reference_integer, text, "it")

    @pytest.mark.parametrize("text,value", [("0", 0), ("-1", -1), ("007", 7), ("-0", 0)])
    def test_reads_integer_text(self, text, value):
        assert integer(text, "it") == value

    def test_more_digits_than_int_converts_is_refused_in_words(self):
        digits = sys.get_int_max_str_digits()
        if not digits:
            pytest.skip("int from str conversion has no digit limit here")
        assert integer("9" * digits, "it") == 10 ** digits - 1
        for text in ("9" * (digits + 1), "-" + "9" * (digits + 1)):
            assert is_integer(text)
            with pytest.raises(ContractError, match=r"^it must be an integer, got '-?9+'$"):
                integer(text, "it")
