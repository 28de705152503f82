"""The package's records: immutable, hashable, and validated on every way in."""

import pickle

import pytest

from orbitnorm.classification import DegenType
from orbitnorm.degeneration import DegenPair, PosetEdge, PosetGraph, hasse
from orbitnorm.errors import ContractError
from orbitnorm.matrix_oracle import NilpotentModel, build_nilpotent_model
from orbitnorm.normality import NormalityVerdict, Witness, decide
from orbitnorm.partitions import EpsDiagram, Partition
from orbitnorm.reduction import ReductionResult, irreducible_core

BAD_PARITY = "[3,1] is not a valid diagram for eps=-1: odd part 3 has odd multiplicity"
NOT_BELOW = "[6,1,1] is not a degeneration of [4,2,2]"

ETA = EpsDiagram(Partition([4]), -1)
PAIR = DegenPair(-1, Partition([4, 2, 2]), Partition([6, 1, 1]))


def _error(build):
    with pytest.raises(ContractError) as info:
        build()
    return str(info.value)


class TestValidatedRecords:
    @pytest.mark.parametrize("build", [
        lambda: EpsDiagram(Partition([3, 1]), -1),
        lambda: EpsDiagram([1, 3], -1),
        lambda: EpsDiagram(partition=[3, 1], eps=-1),
        lambda: EpsDiagram._make(([3, 1], -1)),
        lambda: ETA._replace(partition=[3, 1]),
        lambda: EpsDiagram([3, 1], 1)._replace(eps=-1),
    ], ids=["new", "unsorted", "keywords", "make", "replace-partition", "replace-eps"])
    def test_eps_diagram_rejects_bad_parity(self, build):
        assert _error(build) == BAD_PARITY

    @pytest.mark.parametrize("build", [
        lambda: DegenPair(-1, Partition([3, 1]), Partition([4])),
        lambda: DegenPair._make((-1, [3, 1], [4])),
        lambda: PAIR._replace(bottom=[3, 1], top=[4]),
    ], ids=["new", "make", "replace"])
    def test_degen_pair_rejects_bad_parity(self, build):
        assert _error(build) == BAD_PARITY

    @pytest.mark.parametrize("build", [
        lambda: DegenPair(-1, Partition([6, 1, 1]), Partition([4, 2, 2])),
        lambda: DegenPair._make((-1, [6, 1, 1], [4, 2, 2])),
        lambda: PAIR._replace(bottom=PAIR.top, top=PAIR.bottom),
    ], ids=["new", "make", "replace"])
    def test_degen_pair_rejects_a_non_dominating_pair(self, build):
        assert _error(build) == NOT_BELOW

    def test_good_input_is_normalised(self):
        eta = EpsDiagram._make(([1, 1, 6], -1))
        assert type(eta.partition) is Partition and eta.partition == (6, 1, 1)
        assert ETA._replace(partition=[2, 2]) == EpsDiagram(Partition([2, 2]), -1)
        pair = PAIR._replace(eps=1, bottom=[3, 1, 1], top=[5])
        assert type(pair.bottom) is Partition and pair.to_json() == {
            "eps": 1, "top": [5], "bottom": [3, 1, 1]}

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(PAIR)) == PAIR
        assert type(pickle.loads(pickle.dumps(ETA))) is EpsDiagram


def _records():
    """One freshly built record of each type, keyed by its class."""
    verdict = decide(EpsDiagram(Partition([7, 2, 2]), 1))
    graph = hasse(4, 1)
    return {
        EpsDiagram: EpsDiagram(Partition([4]), -1),
        DegenPair: DegenPair(-1, Partition([4, 2, 2]), Partition([6, 1, 1])),
        Witness: verdict.witnesses[0],
        NormalityVerdict: verdict,
        PosetEdge: graph.edges[0],
        PosetGraph: graph,
        ReductionResult: irreducible_core(PAIR),
        NilpotentModel: build_nilpotent_model(Partition([2, 2]), 1),
        DegenType: DegenType("g", 4),
    }


class TestImmutability:
    @pytest.mark.parametrize("cls", list(_records()), ids=lambda cls: cls.__name__)
    def test_fields_cannot_be_assigned(self, cls):
        record = _records()[cls]
        assert type(record) is cls
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no per-instance __dict__ either


class TestHashing:
    # a PosetGraph's fields cannot be reassigned, but it holds lists, so it has no hash
    @pytest.mark.parametrize("cls", [c for c in _records() if c is not PosetGraph],
                             ids=lambda cls: cls.__name__)
    def test_equal_records_hash_equal(self, cls):
        first, second = _records()[cls], _records()[cls]
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_rebuilt_validated_records_hash_equal(self):
        assert hash(EpsDiagram([1, 1, 6], -1)) == hash(ETA._replace(partition=[6, 1, 1]))
        assert hash(DegenPair(-1, (2, 2, 4), (1, 1, 6))) == hash(PAIR)


class TestDerivedFields:
    def test_verdict_is_derived_from_the_witnesses(self):
        assert NormalityVerdict._fields == ("eta", "witnesses")
        verdict = decide(EpsDiagram(Partition([7, 2, 2]), 1))
        assert verdict.verdict == "NotNormal"
        assert verdict._replace(witnesses=()).verdict == "Normal"

    def test_model_dimension_is_derived_from_the_gram_matrix(self):
        assert NilpotentModel._fields == ("eps", "gram", "nilpotent")
        assert build_nilpotent_model(Partition([3, 3, 1]), 1).dim == 7
