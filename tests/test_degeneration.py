import json
import random
from itertools import accumulate, combinations

import pytest

from orbitnorm import cli
from orbitnorm.classification import classify_minimal_degeneration
from orbitnorm.degeneration import DegenPair, covers, dominates, hasse, minimal_degenerations
from orbitnorm.errors import ContractError
from orbitnorm.partitions import EpsDiagram, Partition, enumerate_eps_diagrams
from test_cli import pair_json
from test_partitions import partitions_of


def degenerations(eta, diagrams=None):
    """All strictly smaller valid diagrams below eta, in enumeration order.

    diagrams, if given, is enumerate_eps_diagrams(eta.size, eta.eps), built once.
    """
    if diagrams is None:
        diagrams = enumerate_eps_diagrams(eta.size, eta.eps)
    return [d for d in diagrams
            if d.partition != eta.partition and dominates(eta.partition, d.partition)]


def linear_extension_covers(eta, diagrams=None):
    """Test oracle: the covers of eta from one pass over the diagrams below it.

    Enumeration (reverse-lexicographic) order is a linear extension of
    dominance, so every diagram between eta and sigma comes before sigma, and
    so does a cover of eta above it.  A diagram below eta is therefore a cover
    exactly when no cover found before it dominates it: O(k * #covers) for
    the k diagrams below eta, against O(k^2) for the pairwise search.
    """
    found = []
    for sigma in degenerations(eta, diagrams):
        if not any(dominates(cover, sigma.partition) for cover in found):
            found.append(sigma.partition)
    return found


#: Seeded diagrams per eps on which covers() meets the oracle at n = 40.
SAMPLE_AT_40 = 25


def brute_force_minimal_degenerations(eta):
    """Test oracle: the maximal elements of everything strictly below eta.

    This pairwise search over all diagrams of eta's size was the library's
    cover finder before covers were generated locally.
    """
    below = degenerations(eta)
    pairs = []
    for sigma in below:
        if any(
            nu.partition != sigma.partition and dominates(nu.partition, sigma.partition)
            for nu in below
        ):
            continue
        pairs.append(DegenPair(eta.eps, sigma.partition, eta.partition))
    return pairs


def reference_dominates(top, bottom):
    """Test reference: compare prefix sums padded with the total.

    The library's dominance check before it became a single pass.
    """
    top, bottom = Partition(top), Partition(bottom)
    if top.size != bottom.size:
        raise ContractError(
            f"dominance needs equal sizes, got {top.size} and {bottom.size}"
        )
    tops = list(accumulate(top))
    bots = list(accumulate(bottom))
    n = max(len(tops), len(bots))
    total = top.size
    tops += [total] * (n - len(tops))
    bots += [total] * (n - len(bots))
    return all(b <= t for t, b in zip(tops, bots))


class TestDominates:
    def test_paper_pair(self):
        assert dominates(Partition([6, 1, 1]), Partition([4, 2, 2]))

    def test_prefix_violation(self):
        assert not dominates(Partition([6, 1, 1]), Partition([4, 4]))

    def test_reflexive(self):
        p = Partition([3, 2, 1])
        assert dominates(p, p)

    def test_unsorted_lists_are_sorted_first(self):
        # [1, 3] is [3, 1], which lies above [2, 2]; compared as given, 1 < 2 would refuse it
        assert dominates([1, 3], [2, 2]) is True

    def test_size_mismatch(self):
        with pytest.raises(ContractError):
            dominates(Partition([3]), Partition([2]))

    @pytest.mark.parametrize("n", range(17))
    def test_matches_reference(self, n):
        parts = list(partitions_of(n))
        for a in parts:
            for b in parts:
                assert dominates(a, b) == reference_dominates(a, b), (a, b)

    def test_size_mismatch_same_error(self):
        for a, b in [([3], [2]), ([1], []), ([], [2, 1]), ([4, 4], [5, 2])]:
            with pytest.raises(ContractError) as got:
                dominates(Partition(a), Partition(b))
            with pytest.raises(ContractError) as want:
                reference_dominates(Partition(a), Partition(b))
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_partial_order(self, n):
        parts = list(partitions_of(n))
        for a, b in combinations(parts, 2):
            # antisymmetry
            assert not (dominates(a, b) and dominates(b, a))
        for a in parts:
            for b in parts:
                if not dominates(a, b):
                    continue
                for c in parts:
                    if dominates(b, c):
                        assert dominates(a, c)  # transitivity


class TestDegenPair:
    def test_validates_order(self):
        with pytest.raises(ContractError):
            DegenPair(-1, Partition([6, 1, 1]), Partition([4, 2, 2]))

    def test_validates_diagrams(self):
        with pytest.raises(ContractError):
            DegenPair(-1, Partition([3, 1]), Partition([4]))

    def test_validates_the_top_diagram(self):
        # the bottom is a diagram and lies below the top, so only the top's parity refuses it
        with pytest.raises(ContractError, match=r"^\[2,1,1\] is not a valid diagram for eps=\+1:"
                                                r" even part 2 has odd multiplicity$"):
            DegenPair(1, [1, 1, 1, 1], [2, 1, 1])

    def test_float_part_is_refused(self):
        with pytest.raises(ContractError, match=r"^partition parts must be integers, got 1\.5$"):
            DegenPair(-1, [4, 2, 1.5, 0.5], [6, 1, 1])

    def test_json(self):
        pair = DegenPair(-1, Partition([4, 2, 2]), Partition([6, 1, 1]))
        assert json.loads(cli._pair_json(pair)) == pair_json(pair) == {
            "eps": -1, "top": [6, 1, 1], "bottom": [4, 2, 2]}


class TestDegenerations:
    def test_minimal_orbit(self):
        eta = EpsDiagram(Partition([2]), -1)
        assert [list(d.partition) for d in degenerations(eta)] == [[1, 1]]

    def test_zero_orbit_has_none(self):
        assert degenerations(EpsDiagram(Partition([1, 1, 1, 1]), -1)) == []

    def test_below_611(self):
        got = [tuple(d.partition) for d in degenerations(EpsDiagram(Partition([6, 1, 1]), -1))]
        assert (4, 2, 2) in got
        assert (3, 3, 2) in got
        assert (4, 2, 1, 1) in got
        assert (4, 4) not in got


class TestMinimalDegenerations:
    def test_sole_cover_of_611(self):
        pairs = minimal_degenerations(EpsDiagram(Partition([6, 1, 1]), -1))
        assert [tuple(p.bottom) for p in pairs] == [(4, 2, 2)]

    def test_zero_orbit(self):
        assert minimal_degenerations(EpsDiagram(Partition([1] * 6), -1)) == []

    def test_722_cover(self):
        pairs = minimal_degenerations(EpsDiagram(Partition([7, 2, 2]), 1))
        assert (7, 1, 1, 1, 1) in {tuple(p.bottom) for p in pairs}

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n", range(0, 19))
    def test_matches_brute_force(self, n, eps):
        for eta in enumerate_eps_diagrams(n, eps):
            assert minimal_degenerations(eta) == brute_force_minimal_degenerations(eta), eta

    def test_large_orbit_covers(self):
        found = covers(EpsDiagram(Partition([13, 13, 7, 5, 1, 1]), 1))
        assert [(tuple(c.sigma), c.degen_type.family) for c in found] == [
            ((13, 13, 7, 3, 3, 1), "b"),
            ((13, 13, 6, 6, 1, 1), "a"),
            ((13, 11, 9, 5, 1, 1), "b"),
        ]

    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_linear_extension_oracle(self, eps):
        for n in range(0, 23):
            diagrams = enumerate_eps_diagrams(n, eps)
            for eta in diagrams:
                got = [w.sigma for w in covers(eta)]
                assert got == linear_extension_covers(eta, diagrams), eta

    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_linear_extension_oracle_at_40(self, eps):
        # the top diagram has every other diagram of the size below it
        diagrams = enumerate_eps_diagrams(40, eps)
        for eta in [diagrams[0], *random.Random(40).sample(diagrams, SAMPLE_AT_40)]:
            got = [w.sigma for w in covers(eta)]
            assert got == linear_extension_covers(eta, diagrams), eta

    @pytest.mark.parametrize("eps", [1, -1])
    def test_nothing_strictly_between(self, eps):
        # brute-force covering check against the full poset
        for n in range(0, 15):
            diagrams = enumerate_eps_diagrams(n, eps)
            for eta in diagrams:
                for pair in minimal_degenerations(eta):
                    between = [
                        nu.partition
                        for nu in diagrams
                        if nu.partition not in (pair.top, pair.bottom)
                        and dominates(pair.top, nu.partition)
                        and dominates(nu.partition, pair.bottom)
                    ]
                    assert not between, (pair, between)


class TestHasse:
    def test_sp2(self):
        graph = hasse(2, -1)
        assert [tuple(d.partition) for d in graph.nodes] == [(2,), (1, 1)]
        assert [(tuple(e.top), tuple(e.bottom)) for e in graph.edges] == [((2,), (1, 1))]

    def test_so2_single_node(self):
        graph = hasse(2, 1)
        assert [tuple(d.partition) for d in graph.nodes] == [(1, 1)]
        assert graph.edges == []

    def test_sp8_covers(self):
        graph = hasse(8, -1)
        edges = {(tuple(e.top), tuple(e.bottom)) for e in graph.edges}
        assert ((6, 1, 1), (4, 2, 2)) in edges
        assert ((6, 1, 1), (3, 3, 2)) not in edges

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n", range(0, 13))
    def test_transitive_reduction(self, n, eps):
        # independent pairwise pass: an edge iff comparable with nothing between;
        # each edge's label is the one reduce-then-classify gives
        graph = hasse(n, eps)
        nodes = [d.partition for d in graph.nodes]
        expected = set()
        for top in nodes:
            for bottom in nodes:
                if top == bottom or not dominates(top, bottom):
                    continue
                if any(
                    nu != top and nu != bottom and dominates(top, nu) and dominates(nu, bottom)
                    for nu in nodes
                ):
                    continue
                expected.add((top, bottom))
        assert {(e.top, e.bottom) for e in graph.edges} == expected
        for e in graph.edges:
            _, t = classify_minimal_degeneration(DegenPair(eps, e.bottom, e.top))
            assert (e.family, e.codim) == (t.family, t.codim), e

    def test_acyclic(self):
        graph = hasse(10, -1)
        order = {d.partition: i for i, d in enumerate(graph.nodes)}
        # enumeration is a linear extension: every edge goes downward in it
        for e in graph.edges:
            assert order[e.top] < order[e.bottom]
