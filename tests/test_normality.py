import json
import sys

import pytest

from orbitnorm import classification, reduction
from orbitnorm.cli import main
from orbitnorm.normality import NORMAL, NOT_NORMAL, UNDETERMINED, decide
from orbitnorm.partitions import EpsDiagram, Partition, enumerate_eps_diagrams


def verdict(parts, eps):
    return decide(EpsDiagram(Partition(parts), eps))


def survey(n, eps):
    """decide() over every eps-diagram of n, in enumeration order, as `survey` runs it."""
    return [decide(eta) for eta in enumerate_eps_diagrams(n, eps)]


class TestGoldenVerdicts:
    def test_so11_not_normal(self):
        v = verdict([7, 2, 2], 1)
        assert v.verdict == NOT_NORMAL
        e_witnesses = [w for w in v.witnesses if w.degen_type.family == "e"]
        assert [tuple(w.sigma) for w in e_witnesses] == [(7, 1, 1, 1, 1)]

    def test_sp8_normal(self):
        v = verdict([6, 1, 1], -1)
        assert v.verdict == NORMAL
        assert len(v.witnesses) == 1
        w = v.witnesses[0]
        assert tuple(w.sigma) == (4, 2, 2)
        assert w.degen_type.family == "c"

    def test_sp14_undetermined(self):
        v = verdict([4, 4, 3, 3], -1)
        assert v.verdict == UNDETERMINED
        d_witnesses = [w for w in v.witnesses if w.degen_type.family == "d"]
        assert (4, 4, 2, 2, 2) in {tuple(w.sigma) for w in d_witnesses}

    def test_regular_sp8(self):
        v = verdict([8], -1)
        assert v.verdict == NORMAL
        assert {w.degen_type.family for w in v.witnesses} == {"b"}

    def test_zero_orbit(self):
        v = verdict([1] * 6, -1)
        assert v.verdict == NORMAL
        assert v.witnesses == ()

    def test_minimal_orbit_sp6(self):
        v = verdict([2, 1, 1, 1, 1], -1)
        assert v.verdict == NORMAL
        assert [(w.degen_type.family, w.degen_type.n) for w in v.witnesses] == [("g", 3)]


class TestVerdictRules:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_rules_match_witness_families(self, eps):
        for n in range(0, 15):
            for v in survey(n, eps):
                families = {w.degen_type.family for w in v.witnesses}
                if "e" in families:
                    assert v.verdict == NOT_NORMAL
                elif "d" in families:
                    assert v.verdict == UNDETERMINED
                else:
                    assert v.verdict == NORMAL

    @pytest.mark.parametrize("eps", [1, -1])
    def test_obstructions_have_codim_2(self, eps):
        for n in range(0, 15):
            for v in survey(n, eps):
                for w in v.witnesses:
                    if w.degen_type.family in ("d", "e"):
                        assert w.degen_type.codim == 2


class TestNilpotentCones:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_symplectic_cone_normal(self, n):
        assert verdict([2 * n], -1).verdict == NORMAL

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orthogonal_cone_normal(self, n):
        assert verdict([2 * n + 1], 1).verdict == NORMAL


class TestSurvey:
    def test_sp2(self):
        results = survey(2, -1)
        assert [(tuple(v.eta.partition), v.verdict) for v in results] == [
            ((2,), NORMAL),
            ((1, 1), NORMAL),
        ]

    def test_size_zero(self):
        results = survey(0, 1)
        assert [(tuple(v.eta.partition), v.verdict) for v in results] == [((), NORMAL)]

    def test_so11_contains_not_normal(self):
        results = {tuple(v.eta.partition): v.verdict for v in survey(11, 1)}
        assert results[(7, 2, 2)] == NOT_NORMAL

    def test_json_schema(self, capsys):
        assert main(["check", "--eps", "1", "--partition", "7,2,2", "--format", "json"]) == 10
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == NOT_NORMAL
        assert doc["partition"] == [7, 2, 2]
        w = doc["witnesses"][0]
        assert set(w) == {"sigma", "core", "family", "n", "codim"}


class TestSinglePass:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_decide_does_not_reduce_or_classify(self, eps):
        # witnesses come from the cover generator; matched by code object, so a
        # by-name import of either function is caught as well
        redone = {reduction.irreducible_core.__code__, classification.classify_core.__code__}
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in redone:
                seen.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            results = survey(16, eps)
        finally:
            sys.setprofile(None)
        assert results
        assert seen == set()
