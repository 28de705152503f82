import errno
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from orbitnorm import cli, matrix_oracle, partitions
from orbitnorm.cli import main
from orbitnorm.classification import classify_core
from orbitnorm.degeneration import DegenPair, dominates, hasse
from orbitnorm.errors import NotMinimalIrreducible
from orbitnorm.matrix_oracle import algebra_dim, build_nilpotent_model, centralizer_dim, codim_oracle
from orbitnorm.normality import NORMAL, NOT_NORMAL, UNDETERMINED, decide, survey
from orbitnorm.partitions import enumerate_eps_diagrams
from orbitnorm.reduction import irreducible_core


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- reference encoder ------------------------------------------------------
# The records as the dicts json.dumps writes, with sorted keys, as the command line's JSON.
# The program writes that text from fragments; these are what it must equal.

def pair_json(pair):
    return {"eps": pair.eps, "top": list(pair.top), "bottom": list(pair.bottom)}


def type_json(t):
    return {"family": t.family, "n": t.n, "codim": t.codim}


def witness_json(w):
    return {
        "sigma": list(w.sigma),
        "core": pair_json(w.core),
        "family": w.degen_type.family,
        "n": w.degen_type.n,
        "codim": w.degen_type.codim,
    }


def verdict_json(verdict, codims=()):
    """check's JSON and cache record: codim_oracle on each witness that codims gives one."""
    witnesses = [witness_json(w) for w in verdict.witnesses]
    for w, codim in zip(witnesses, codims):
        if codim is not None:
            w["codim_oracle"] = codim
    return {
        "eps": verdict.eta.eps,
        "partition": list(verdict.eta.partition),
        "verdict": verdict.verdict,
        "witnesses": witnesses,
    }


def edge_json(edge):
    return {"top": list(edge.top), "bottom": list(edge.bottom), "type": edge.family,
            "codim": edge.codim}


def graph_json(graph):
    return {
        "eps": graph.eps,
        "n": graph.n,
        "nodes": [list(d.partition) for d in graph.nodes],
        "edges": [edge_json(e) for e in graph.edges],
    }


def reduction_json(result):
    return {
        "core": pair_json(result.core),
        "r": result.row_count,
        "s": result.erased_columns,
        "erased_rows": list(result.erased_rows),
    }


class TestCheck:
    def test_not_normal_exit_10(self, capsys):
        code, out, _ = run(capsys, "check", "--eps", "+1", "--partition", "7,2,2")
        assert code == 10
        assert "NotNormal" in out

    def test_normal_exit_0(self, capsys):
        code, out, _ = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1")
        assert code == 0
        assert "Normal" in out

    def test_undetermined_exit_11(self, capsys):
        code, _, _ = run(capsys, "check", "--eps", "-1", "--partition", "4,4,3,3")
        assert code == 11

    def test_invalid_diagram_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "--eps", "-1", "--partition", "3,1")
        assert code == 2
        assert "odd part 3 has odd multiplicity" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["verdict"] == "Normal"
        assert doc["witnesses"][0]["family"] == "c"

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                           "--format", "json", "--oracle")
        doc = json.loads(out)
        assert doc["witnesses"][0]["codim_oracle"] == 2

    def test_capacity_exit_3(self, capsys):
        code, _, err = run(capsys, "check", "--eps", "-1", "--partition",
                           ",".join(["2"] * 30), "--max-size", "20")
        assert code == 3


class TestCache:
    def test_cache_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--format", "json",
                "--cache", cache)
        _, fresh, _ = run(capsys, *args)
        _, cached, _ = run(capsys, *args)
        assert fresh == cached
        assert len(open(cache).readlines()) == 1

    def test_corrupt_lines_ignored(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("{not json}\n")
        code, out, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                             "--format", "json", "--cache", str(cache))
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["verdict"] == "Normal"

    def test_oracle_after_plain_recomputes(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        args = ("check", "--eps", "+1", "--partition", "7,2,2", "--format", "json",
                "--cache", cache)
        _, plain, _ = run(capsys, *args)
        code, first, _ = run(capsys, *args, "--oracle")
        assert code == 10
        assert [w["codim_oracle"] for w in json.loads(first)["witnesses"]] == [2, 2]
        assert len(open(cache).readlines()) == 2
        _, second, _ = run(capsys, *args, "--oracle")
        assert second == first
        assert len(open(cache).readlines()) == 2
        _, again, _ = run(capsys, *args)
        assert again == plain

    @pytest.mark.parametrize("line", [
        '{"eps":-1,"partition":[6,1,1],"verdict":"Maybe","witnesses":[]}',
        '{"eps":-1,"partition":[6,1,1],"witnesses":[]}',
        '{"eps":-1,"partition":[6,1,1],"verdict":"Normal"}',
        '{"eps":-1,"partition":[6,1,1],"verdict":"Normal","witnesses":[{"sigma":[4,2,2]}]}',
        '[6,1,1]',
        b'\xff\xfe{"eps":-1,"partition":[6,1,1],"verdict":"Normal","witnesses":[]}',
    ])
    def test_malformed_record_is_miss(self, capsys, tmp_path, line):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes((line if isinstance(line, bytes) else line.encode()) + b"\n")
        code, out, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                             "--cache", str(cache))
        assert code == 0
        assert out.startswith("partition [6,1,1] eps -1: Normal\n")
        assert [l for l in err.splitlines() if l] == [err.strip()]
        assert err.startswith("warning: ")
        assert len(cache.read_bytes().splitlines()) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("field,value", [
        ("eps", True), ("partition", [7.0, 2, 2]),
        ("w.sigma", 5), ("w.sigma", [7, 0, 1, 1, 1]), ("w.sigma", ["7", 1, 1, 1, 1]),
        ("w.sigma", [True, 1, 1, 1, 1]), ("w.core.top", "2,2"), ("w.core.top", [2.0, 2]),
        ("w.core.bottom", None), ("w.core.bottom", [1, 1, -1, 1]), ("w.core.eps", "x"),
        ("w.core.eps", 2), ("w.core.eps", True), ("w.family", 5), ("w.codim", "2"),
        ("w.codim", 2.0), ("w.codim_oracle", "2"), ("w.core", [1, 1, 1, 1]),
    ])
    def test_record_with_a_field_of_the_wrong_type_is_a_miss(self, capsys, tmp_path, fmt,
                                                               field, value):
        # w is the first witness; eps and partition equal the orbit's under ==, not in type
        args = ("check", "--eps", "+1", "--partition", "7,2,2", "--format", fmt)
        fresh = run(capsys, *args)
        record = json.loads(run(capsys, *args[:-1], "json")[1])
        *path, key = field.split(".")
        target = record
        for step in path:
            target = target["witnesses"][0] if step == "w" else target[step]
        target[key] = value
        cache = tmp_path / "cache.jsonl"
        cache.write_text(json.dumps(record) + "\n")
        code, out, err = run(capsys, *args, "--cache", str(cache))
        assert (code, out) == (10, fresh[1])
        assert err == "warning: ignoring malformed cache record for [7,2,2]\n"
        assert len(cache.read_bytes().splitlines()) == 2

    def test_garbled_line_for_another_orbit_is_skipped_silently(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--cache", str(cache))
        _, fresh, _ = run(capsys, *args)
        cache.write_bytes(b'{"eps":-1,"partition":[4,4],garbage\n' + cache.read_bytes())
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (0, fresh, "")
        assert len(cache.read_bytes().splitlines()) == 2  # a hit appends nothing

    def test_garbled_line_for_this_orbit_still_warns(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(b'{"eps":-1,"partition":[6,1,1],garbage\n')
        code, _, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                           "--cache", str(cache))
        assert (code, err) == (0, "warning: ignoring unparseable cache line\n")
        assert len(cache.read_bytes().splitlines()) == 2

    @pytest.mark.parametrize("rewrite", [
        lambda record: json.dumps(record),
        lambda record: json.dumps(dict(reversed(record.items())), separators=(",", ":")),
        lambda record: "  " + json.dumps(record, separators=(",", ":")),
    ], ids=["spaces", "key-order", "leading-blanks"])
    def test_hand_written_record_for_this_orbit_hits(self, capsys, tmp_path, rewrite):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "+1", "--partition", "7,2,2", "--format", "json")
        _, fresh, _ = run(capsys, *args)
        cache.write_text(rewrite(json.loads(fresh)) + "\n")
        code, out, err = run(capsys, *args, "--cache", str(cache))
        assert (code, out, err) == (10, fresh, "")
        assert len(cache.read_bytes().splitlines()) == 1

    @pytest.mark.parametrize("eps,cached,asked", [
        ("+1", "7,1", "7,1,1"), ("+1", "7,1,1", "7,1"),
        ("-1", "6,1,1", "6,1,1,1,1"), ("-1", "6,1,1,1,1", "6,1,1"),
    ])
    def test_record_for_a_longer_or_shorter_partition_does_not_answer(
            self, capsys, tmp_path, eps, cached, asked):
        cache = str(tmp_path / "cache.jsonl")
        check = ("check", "--eps", eps, "--format", "json", "--partition")
        run(capsys, *check, cached, "--cache", cache)
        fresh = run(capsys, *check, asked)
        assert run(capsys, *check, asked, "--cache", cache) == fresh
        assert [json.loads(line)["partition"] for line in open(cache)] == [
            [int(x) for x in cached.split(",")], [int(x) for x in asked.split(",")]]

    @pytest.mark.parametrize("bound,env,code,message", [
        ("5", None, 3, "error: size 11 exceeds the enumeration bound 5"),
        (None, "abc", 2, "error: ORBIT_MAX_SIZE is not an integer: 'abc'"),
    ], ids=["max-size", "bad-env"])
    def test_hit_honours_the_bound(self, capsys, tmp_path, monkeypatch, bound, env, code, message):
        cache = str(tmp_path / "cache.jsonl")
        args = ("check", "--eps", "+1", "--partition", "7,2,2", "--cache", cache)
        assert run(capsys, *args)[0] == 10
        if env is not None:
            monkeypatch.setenv("ORBIT_MAX_SIZE", env)
        got, out, err = run(capsys, *args, *(("--max-size", bound) if bound else ()))
        assert (got, out, err.strip()) == (code, "", message)
        assert len(open(cache).readlines()) == 1

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_cache_exit_2(self, capsys, tmp_path, target):
        cache = tmp_path if target == "directory" else tmp_path / "absent" / "cache.jsonl"
        code, out, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                             "--cache", str(cache))
        assert code == 2
        assert out == ""
        assert [l for l in err.splitlines() if l] == [err.strip()]
        assert err.startswith("error: cannot write cache ")

    @pytest.mark.parametrize("kind", ["fifo", "device"])
    def test_cache_that_is_not_a_regular_file_exit_2(self, capsys, tmp_path, monkeypatch, kind):
        if kind == "fifo":
            if not hasattr(os, "mkfifo"):
                pytest.skip("no FIFOs on this platform")
            cache = tmp_path / "fifo"
            os.mkfifo(cache)
        else:
            cache = Path("/dev/zero")
            if not cache.exists():
                pytest.skip("no /dev/zero on this platform")

        def no_open(*args, **kwargs):
            raise AssertionError("the cache was opened")

        # refused by its stat alone: a read would block on the FIFO and never end on /dev/zero
        monkeypatch.setattr(cli, "open", no_open, raising=False)
        code, out, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                             "--cache", str(cache))
        assert (code, out, err) == (2, "", f"error: cannot write cache {cache}: not a regular file\n")

    def test_over_long_line_warns_once_and_the_scan_goes_on(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--cache", str(cache))
        _, fresh, _ = run(capsys, *args)
        record = cache.read_bytes()
        monkeypatch.setattr(cli, "_CACHE_LINE_LIMIT", len(record))  # the record just fits
        cache.write_bytes(b"x" * (3 * len(record)) + b"\n" + record)
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (0, fresh, "warning: ignoring over-long cache line\n")
        assert cache.read_bytes().endswith(b"\n" + record)  # a hit appends nothing

    def test_over_long_record_is_a_miss(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--cache", str(cache))
        _, fresh, _ = run(capsys, *args)
        record = cache.read_bytes()
        monkeypatch.setattr(cli, "_CACHE_LINE_LIMIT", len(record) - 1)
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (0, fresh, "warning: ignoring over-long cache line\n")
        assert cache.read_bytes() == record + record  # the miss decided again and appended

    def test_stale_record_warns_on_every_lookup_and_the_fresh_one_answers(self, capsys, tmp_path):
        # [7,2,2] has an e cover, so no record can make it Normal
        cache = tmp_path / "cache.jsonl"
        stale = b'{"eps":1,"partition":[7,2,2],"verdict":"Normal","witnesses":[]}\n'
        cache.write_bytes(stale)
        args = ("check", "--eps", "1", "--partition", "7,2,2")
        fresh = run(capsys, *args)
        warning = "warning: ignoring malformed cache record for [7,2,2]\n"
        assert run(capsys, *args, "--cache", str(cache)) == (10, fresh[1], warning)
        lines = cache.read_bytes().splitlines(keepends=True)
        assert lines[0] == stale and len(lines) == 2
        assert run(capsys, *args, "--cache", str(cache)) == (10, fresh[1], warning)
        assert cache.read_bytes().splitlines(keepends=True) == lines  # the appended record hit

    @pytest.mark.parametrize("edit", [
        lambda record: record["witnesses"][0].update(codim=3),
        lambda record: record["witnesses"][1].update(family="d"),
        lambda record: record.update(verdict="Undetermined"),
        lambda record: record["witnesses"].pop(),
        lambda record: record["witnesses"][0].update(codim_oracle=None),
        lambda record: record.update(note="x"),
    ], ids=["codim", "family", "verdict", "witness-dropped", "null-oracle-codim", "extra-key"])
    def test_program_written_record_that_disagrees_is_a_miss(self, capsys, tmp_path, edit):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "1", "--partition", "7,2,2", "--cache", str(cache))
        fresh = run(capsys, *args)
        record = json.loads(cache.read_bytes())
        edit(record)
        cache.write_text(cli._dumps(record) + "\n")
        code, out, err = run(capsys, *args)
        assert (code, out) == fresh[:2]
        assert err == "warning: ignoring malformed cache record for [7,2,2]\n"
        assert len(cache.read_bytes().splitlines()) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_oracle_record_serves_its_codims_to_a_plain_check(self, capsys, tmp_path, fmt):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "1", "--partition", "7,2,2", "--format", fmt)
        oracle = run(capsys, *args, "--oracle")
        run(capsys, *args, "--oracle", "--cache", str(cache))
        primed = cache.read_bytes()
        assert run(capsys, *args, "--cache", str(cache)) == oracle
        assert cache.read_bytes() == primed

    def test_cache_under_a_regular_file_exit_2(self, capsys, tmp_path, monkeypatch):
        # stat fails with ENOTDIR, which is no missing file: the cache can never be
        # written, so the call is refused at the lookup, before the oracle runs
        def no_oracle(pair):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "codim_oracle", no_oracle)
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache.jsonl"
        check = ("check", "--eps", "-1", "--partition", "6,1,1", "--oracle", "--cache", str(cache))
        assert run(capsys, *check) == (
            2, "", f"error: cannot write cache {cache}: {os.strerror(errno.ENOTDIR)}\n")

    def test_cache_that_cannot_be_read_is_a_miss(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--cache", str(cache))
        fresh = run(capsys, *args)
        record = cache.read_bytes()

        def no_read(path, mode="r", *rest, **kwargs):
            if "r" in mode:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, mode, *rest, **kwargs)

        monkeypatch.setattr(cli, "open", no_read, raising=False)
        assert run(capsys, *args) == fresh
        assert cache.read_bytes() == record + record  # the miss decided again and appended

    def test_blank_lines_are_skipped(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--cache", str(cache))
        fresh = run(capsys, *args)
        cache.write_bytes(b"\n  \n\t\r\n" + cache.read_bytes())
        primed = cache.read_bytes()
        assert run(capsys, *args) == fresh
        assert cache.read_bytes() == primed  # a hit appends nothing

    def test_hand_written_record_for_another_orbit_is_skipped_silently(self, capsys, tmp_path):
        # spaced, so it is parsed before its orbit is compared
        cache = tmp_path / "cache.jsonl"
        other = ("check", "--eps", "-1", "--partition", "6,1,1", "--format", "json")
        cache.write_text(json.dumps(json.loads(run(capsys, *other)[1])) + "\n")
        primed = cache.read_bytes()
        args = ("check", "--eps", "-1", "--partition", "4,2,2", "--format", "json")
        fresh = run(capsys, *args)
        assert run(capsys, *args, "--cache", str(cache)) == fresh
        assert cache.read_bytes() == primed + fresh[1].encode()  # the miss appended


class TestSurvey:
    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "survey", "--eps", "-1", "--size", "8",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "partition;verdict;witness_families"
        assert "6,1,1;Normal;c" in lines

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "survey", "--eps", "+1", "--size", "2",
                           "--format", "csv")
        assert out.strip().splitlines()[1:] == ["1,1;Normal;"]

    def test_not_normal_row(self, capsys):
        _, out, _ = run(capsys, "survey", "--eps", "+1", "--size", "11",
                        "--format", "csv")
        assert any(line.startswith("7,2,2;NotNormal") for line in out.splitlines())

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "survey", "--eps", "-1", "--size", "8", "--format", "json")
        _, second, _ = run(capsys, "survey", "--eps", "-1", "--size", "8", "--format", "json")
        assert first == second


class TestHasse:
    def test_sp2_dot(self, capsys):
        code, out, _ = run(capsys, "hasse", "--eps", "-1", "--size", "2")
        assert code == 0
        assert out.count("->") == 1
        assert 'label="a,2"' in out

    def test_so4_edge_label(self, capsys):
        _, out, _ = run(capsys, "hasse", "--eps", "+1", "--size", "4")
        assert '"[2,2]" -> "[1,1,1,1]" [label="e,2"]' in out

    def test_size_zero(self, capsys):
        _, out, _ = run(capsys, "hasse", "--eps", "-1", "--size", "0")
        assert '"[]";' in out
        assert "->" not in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "hasse", "--eps", "-1", "--size", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["edges"] == [{"top": [2], "bottom": [1, 1], "type": "a", "codim": 2}]


class TestJsonFragments:
    """Every JSON output is written from fragments: the text _dumps makes of the reference."""

    @staticmethod
    def survey_reference(n, eps):
        reports = [verdict_json(v) for v in survey(n, eps)]
        counts = {NORMAL: 0, NOT_NORMAL: 0, UNDETERMINED: 0}
        for r in reports:
            counts[r["verdict"]] += 1
        return cli._dumps({"eps": eps, "n": n, "results": reports, "counts": counts})

    @staticmethod
    def codims(verdict):
        eta = verdict.eta
        return [codim_oracle(DegenPair(eta.eps, w.sigma, eta.partition)) for w in verdict.witnesses]

    @pytest.mark.parametrize("eps", [1, -1])
    def test_survey_and_hasse(self, capsys, eps):
        for n in [*range(21), 40]:
            size = ("--eps", str(eps), "--size", str(n), "--format", "json")
            assert run(capsys, "survey", *size) == (0, self.survey_reference(n, eps) + "\n", "")
            graph = cli._dumps(graph_json(hasse(n, eps)))
            assert run(capsys, "hasse", *size) == (0, graph + "\n", "")

    @pytest.mark.parametrize("eps", [1, -1])
    def test_check(self, capsys, eps):
        diagrams = [eta for n in range(21) for eta in enumerate_eps_diagrams(n, eps)]
        at_40 = enumerate_eps_diagrams(40, eps)
        for eta in [*diagrams, *random.Random(40).sample(at_40, 25)]:
            verdict = decide(eta)
            code, out, _ = run(capsys, "check", "--eps", str(eps), "--partition",
                               cli._partition_csv(eta.partition), "--format", "json")
            assert (code, out) == (cli.VERDICT_EXIT[verdict.verdict],
                                   cli._dumps(verdict_json(verdict)) + "\n")

    @pytest.mark.parametrize("eps", [1, -1])
    def test_check_oracle(self, capsys, eps):
        diagrams = [eta for n in range(13) for eta in enumerate_eps_diagrams(n, eps)]
        at_40 = enumerate_eps_diagrams(40, eps)
        for eta in [*diagrams, *random.Random(40).sample(at_40, 25)]:
            verdict = decide(eta)
            code, out, _ = run(capsys, "check", "--eps", str(eps), "--partition",
                               cli._partition_csv(eta.partition), "--format", "json", "--oracle")
            assert (code, out) == (cli.VERDICT_EXIT[verdict.verdict],
                                   cli._dumps(verdict_json(verdict, self.codims(verdict))) + "\n")

    @pytest.mark.parametrize("eps", [1, -1])
    def test_dim_reduce_and_classify(self, capsys, eps):
        for n in range(11):
            diagrams = enumerate_eps_diagrams(n, eps)
            for eta in diagrams:
                p = eta.partition
                total, cent = algebra_dim(n, eps), centralizer_dim(build_nilpotent_model(p, eps))
                dim = {"eps": eps, "partition": list(p), "algebra_dim": total,
                       "centralizer_dim": cent, "orbit_dim": total - cent}
                assert run(capsys, "dim", "--eps", str(eps), "--partition", cli._partition_csv(p),
                           "--format", "json") == (0, cli._dumps(dim) + "\n", "")
            pairs = [DegenPair(eps, bottom.partition, top.partition) for top in diagrams
                     for bottom in diagrams
                     if bottom != top and dominates(top.partition, bottom.partition)]
            covers = {DegenPair(eps, w.sigma, eta.partition) for eta in diagrams
                      for w in decide(eta).witnesses}
            for pair in pairs:
                argv = ("--eps", str(eps), "--top", cli._partition_csv(pair.top),
                        "--bottom", cli._partition_csv(pair.bottom), "--format", "json")
                result = irreducible_core(pair)
                assert run(capsys, "reduce", *argv) == (
                    0, cli._dumps(reduction_json(result)) + "\n", "")
                if pair in covers:
                    doc = {"reduction": reduction_json(result),
                           "type": type_json(classify_core(result.core))}
                    assert run(capsys, "classify", *argv) == (0, cli._dumps(doc) + "\n", "")

    @pytest.mark.parametrize("eps", [1, -1])
    def test_cache_records(self, capsys, tmp_path, eps):
        cache = tmp_path / "cache.jsonl"
        expected = []
        for eta in [eta for n in range(9) for eta in enumerate_eps_diagrams(n, eps)]:
            verdict = decide(eta)
            check = ("check", "--eps", str(eps), "--partition",
                     cli._partition_csv(eta.partition), "--cache", str(cache))
            run(capsys, *check)
            run(capsys, *check, "--oracle")
            expected.append(cli._dumps(verdict_json(verdict)) + "\n")
            if verdict.witnesses:  # a plain record with no witnesses serves --oracle too
                expected.append(cli._dumps(verdict_json(verdict, self.codims(verdict))) + "\n")
        assert cache.read_text().splitlines(keepends=True) == expected


def csv(parts):
    return ",".join(map(str, parts))


class TestTextOutput:
    """The default text of reduce, classify and dim: literal cases, then the text a
    formatter makes of each JSON answer, on every pair and diagram with n <= 8."""

    @staticmethod
    def reduce_text(doc):
        core = doc["core"]
        return (f"core: [{csv(core['bottom'])}] <= [{csv(core['top'])}] eps' {core['eps']:+d};"
                f" erased {doc['r']} rows {doc['erased_rows']}, {doc['s']} columns")

    @staticmethod
    def classify_text(doc):
        core, t = doc["reduction"]["core"], doc["type"]
        n = "" if t["n"] is None else f"(n={t['n']})"
        return (f"core [{csv(core['bottom'])}] <= [{csv(core['top'])}]:"
                f" type {t['family']}{n}, codim {t['codim']}")

    @staticmethod
    def dim_text(doc):
        return (f"[{csv(doc['partition'])}] eps {doc['eps']:+d}: orbit dim {doc['orbit_dim']},"
                f" centralizer dim {doc['centralizer_dim']}, algebra dim {doc['algebra_dim']}")

    @pytest.mark.parametrize("argv, text", [
        (("reduce", "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2"),
         "core: [3,1,1] <= [5] eps' +1; erased 0 rows [], 1 columns"),
        (("reduce", "--eps", "-1", "--top", "6,4,4,1,1", "--bottom", "6,3,3,2,2"),
         "core: [2,2,1,1] <= [3,3] eps' +1; erased 1 rows [6], 1 columns"),
        (("classify", "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2"),
         "core [3,1,1] <= [5]: type c(n=2), codim 2"),
        (("classify", "--eps", "-1", "--top", "2", "--bottom", "1,1"),
         "core [1,1] <= [2]: type a, codim 2"),
        (("classify", "--eps", "1", "--top", "2,2,1", "--bottom", "1,1,1,1,1"),
         "core [1,1,1,1,1] <= [2,2,1]: type f(n=2), codim 6"),
        (("dim", "--eps", "-1", "--partition", "1,1"),
         "[1,1] eps -1: orbit dim 0, centralizer dim 3, algebra dim 3"),
        (("dim", "--eps", "1", "--partition", "7,2,2"),
         "[7,2,2] eps +1: orbit dim 44, centralizer dim 11, algebra dim 55"),
    ])
    def test_literal(self, capsys, argv, text):
        assert run(capsys, *argv) == (0, text + "\n", "")
        assert run(capsys, *argv, "--format", "text") == (0, text + "\n", "")

    @pytest.mark.parametrize("eps", [1, -1])
    def test_text_is_the_json_answer(self, capsys, eps):
        def answer(*argv):
            code, text, err = run(capsys, *argv)
            doc = json.loads(run(capsys, *argv, "--format", "json")[1])
            assert (code, err) == (0, "")
            return text.removesuffix("\n"), doc

        for n in range(9):
            diagrams = enumerate_eps_diagrams(n, eps)
            for eta in diagrams:
                text, doc = answer("dim", "--eps", str(eps), "--partition", csv(eta.partition))
                assert text == self.dim_text(doc)
            covers = {(w.sigma, eta.partition) for eta in diagrams for w in decide(eta).witnesses}
            for top in diagrams:
                for bottom in diagrams:
                    if bottom == top or not dominates(top.partition, bottom.partition):
                        continue
                    argv = ("--eps", str(eps), "--top", csv(top.partition),
                            "--bottom", csv(bottom.partition))
                    text, doc = answer("reduce", *argv)
                    assert text == self.reduce_text(doc)
                    if (bottom.partition, top.partition) in covers:
                        text, doc = answer("classify", *argv)
                        assert text == self.classify_text(doc)


class TestMaxSize:
    @pytest.mark.parametrize("argv", [
        ("reduce", "--top", "6,1,1", "--bottom", "4,2,2"),
        ("classify", "--top", "6,1,1", "--bottom", "4,2,2"),
        ("dim", "--partition", "6,1,1"),
        ("verify", "--partition", "6,1,1"),
    ], ids=lambda argv: argv[0])
    def test_rejected_where_not_honoured(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--eps", "-1", "--max-size", "5")
        assert code == 2
        assert out == ""
        assert "--max-size" in err

    @pytest.mark.parametrize("command", ["survey", "hasse"])
    def test_honoured_by_whole_size_commands(self, capsys, command):
        code, _, err = run(capsys, command, "--eps", "-1", "--size", "6", "--max-size", "4")
        assert code == 3
        assert "enumeration bound 4" in err

    @pytest.mark.parametrize("command", ["survey", "hasse"])
    def test_whole_size_commands_read_the_bound_once(self, capsys, monkeypatch, command):
        reads = []
        real = partitions.max_size
        monkeypatch.setattr(partitions, "max_size", lambda: reads.append(1) or real())
        code, _, _ = run(capsys, command, "--eps", "-1", "--size", "10")
        assert code == 0
        assert len(reads) == 1

    def test_hasse_env_override(self, capsys, monkeypatch):
        code, _, err = run(capsys, "hasse", "--eps", "-1", "--size", "41")
        assert code == 3
        assert "enumeration bound 40" in err
        monkeypatch.setenv("ORBIT_MAX_SIZE", "3")
        code, _, err = run(capsys, "hasse", "--eps", "-1", "--size", "4")
        assert code == 3
        assert "enumeration bound 3" in err
        monkeypatch.setenv("ORBIT_MAX_SIZE", "4")
        code, out, _ = run(capsys, "hasse", "--eps", "-1", "--size", "4")
        assert code == 0
        assert out.count("->") == 3

    @pytest.mark.parametrize("argv,env", [
        (("hasse", "--size", "0", "--max-size", "-1"), None),
        (("survey", "--size", "0"), "-1"),
        (("check", "--partition", "3,1", "--max-size", "-1"), None),
        (("check", "--partition", "3,1"), "-1"),
    ], ids=["hasse-max-size", "survey-env", "check-max-size", "check-env"])
    def test_negative_bound_is_input_error(self, capsys, monkeypatch, argv, env):
        # a bound below 0 is bad input, not a size beyond the capacity
        if env is not None:
            monkeypatch.setenv("ORBIT_MAX_SIZE", env)
        assert run(capsys, *argv, "--eps", "1") == (
            2, "", "error: the enumeration bound must be nonnegative, got -1\n")


class TestOracleBound:
    """The oracle obeys the one enumeration bound, so it answers every orbit check answers."""

    @pytest.mark.parametrize("eps,parts", [
        ("1", "39,1"), ("1", "9,9,7,7,3,3,1,1"), ("-1", "40"), ("-1", "10,10,6,6,4,4"),
    ])
    def test_oracle_commands_answer_at_40(self, capsys, monkeypatch, eps, parts):
        monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
        orbit = ("--eps", eps, "--partition", parts)
        code, out, err = run(capsys, "check", *orbit, "--format", "json")
        oracle_code, oracle_out, oracle_err = run(capsys, "check", *orbit, "--format", "json",
                                                  "--oracle")
        assert (oracle_code, oracle_err) == (code, err) == (code, "")
        report = json.loads(oracle_out)
        codims = [(w["family"], w.pop("codim_oracle")) for w in report["witnesses"]]
        assert report == json.loads(out)
        assert all(codim == 2 for family, codim in codims if family in "abcde")
        code, out, err = run(capsys, "dim", *orbit, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["algebra_dim"] == 40 * (40 - int(eps)) // 2
        code, out, err = run(capsys, "verify", *orbit)
        assert (code, err) == (0, "")
        assert out.endswith(": PASS\n")

    def test_env_bound_caps_the_oracle(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBIT_MAX_SIZE", "20")
        assert run(capsys, "dim", "--eps", "-1", "--partition", "22") == (
            3, "", "error: size 22 exceeds the enumeration bound 20\n")

    def test_max_size_above_the_bound_does_not_lift_the_oracle(self, capsys, monkeypatch):
        # --max-size bounds check's enumeration only; the oracle keeps the enumeration bound
        monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
        orbit = ("check", "--eps", "1", "--partition", "43,1,1", "--max-size", "50")
        assert run(capsys, *orbit)[0] == 0
        assert run(capsys, *orbit, "--oracle") == (
            3, "", "error: size 45 exceeds the enumeration bound 40\n")

    @pytest.mark.parametrize("parts", ["43,1,1", ",".join(["1"] * 45)], ids=["43,1,1", "1^45"])
    def test_oracle_refuses_before_the_cache_and_decide(self, capsys, monkeypatch, tmp_path,
                                                         parts):
        # [43,1,1] has a witness for the oracle to check and [1^45] has none; both refuse
        monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
        orbit = ("check", "--eps", "1", "--partition", parts, "--max-size", "50")
        cache = tmp_path / "cache.jsonl"
        assert run(capsys, *orbit, "--cache", str(cache))[0] == 0
        primed = cache.read_bytes()

        def no_decide(*args):
            raise AssertionError("decide ran")

        monkeypatch.setattr(cli, "decide", no_decide)
        refusal = (3, "", "error: size 45 exceeds the enumeration bound 40\n")
        assert run(capsys, *orbit, "--oracle") == refusal
        # the plain record of [1^45] has no witness, so the cache would serve it to --oracle
        assert run(capsys, *orbit, "--oracle", "--cache", str(cache)) == refusal
        assert cache.read_bytes() == primed


def _program(argv, unbuffered=False, **kwargs):
    """Run main() as the installed script runs it, in a fresh process; kwargs go to subprocess.run.

    An atexit handler registered before main() writes to stderr, and so would
    a statement after main(), which must never run.  sys.executable, not a
    launcher script, runs it, so a file descriptor the test closes stays closed.
    """
    src = str(Path(cli.__file__).parent.parent)
    script = ("import atexit, os\natexit.register(os.write, 2, b'atexit ran\\n')\n"
              "from orbitnorm.cli import main\nmain()\nos.write(2, b'after main\\n')")
    # stdout buffered unless asked, as it is by default when it is not a terminal
    env = {k: v for k, v in os.environ.items() if k not in ("ORBIT_MAX_SIZE", "PYTHONUNBUFFERED")}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-c", script, *argv],
                          env={**env, "PYTHONPATH": src, "COLUMNS": "80"}, timeout=60, **kwargs)


class TestExitFreeze:
    SURVEY = ("survey", "--eps", "-1", "--size", "8", "--format", "json")

    @pytest.mark.parametrize("argv, code", [
        (SURVEY, 0),
        (("check", "--eps", "1", "--partition", "7,2,2"), 10),
        (("check", "--eps", "-1", "--partition", "4,4,3,3", "--format", "json"), 11),
        (("check", "--eps", "-1", "--partition", "3,1"), 2),
        (("check", "--eps", "-1"), 2),
        (("check", "--eps", "-1", "--partition", ",".join(["2"] * 30), "--max-size", "20"), 3),
    ], ids=["normal", "not-normal", "undetermined", "input-error", "usage-error", "capacity"])
    def test_program_entry_exits_with_the_code_and_output_of_main(self, capsys, monkeypatch,
                                                                   argv, code):
        proc = _program(argv, capture_output=True)
        assert proc.returncode == code
        assert proc.stderr.endswith(b"atexit ran\n")
        err = proc.stderr.decode().removesuffix("atexit ran\n")
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == (code, proc.stdout.decode(), err)

    def test_in_process_call_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = run(capsys, *self.SURVEY)
        assert code == 0
        assert gc.get_freeze_count() == before


class TestWriteFailure:
    MESSAGE = "error: cannot write output: {}\n"

    def test_full_device_is_one_line_and_exit_1(self):
        with open("/dev/full", "wb") as full:
            proc = _program(["check", "--eps", "1", "--partition", "7,2,2", "--format", "json"],
                            stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 1
        message = self.MESSAGE.format(os.strerror(errno.ENOSPC))
        assert proc.stderr.decode() == message + "atexit ran\n"

    @pytest.mark.parametrize("argv", [
        ("survey", "--eps", "-1", "--size", "16"),  # more than the buffer: print itself fails
        ("check", "--eps", "1", "--partition", "7,2,2"),  # buffered: the flush fails
        ("--help",),  # argparse's own output
    ])
    def test_pipe_closed_by_its_reader_is_one_line_and_exit_1(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _program(argv, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert proc.returncode == 1
        message = self.MESSAGE.format(os.strerror(errno.EPIPE))
        assert proc.stderr.decode() == message + "atexit ran\n"

    def test_unbuffered_help_to_a_full_device_is_one_line_and_exit_1(self):
        # argparse swallows a failed write of its own; its help goes out through main's write
        with open("/dev/full", "wb") as full:
            proc = _program(["--help"], unbuffered=True, stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 1
        message = self.MESSAGE.format(os.strerror(errno.ENOSPC))
        assert proc.stderr.decode() == message + "atexit ran\n"

    @pytest.mark.parametrize("argv", [
        ("check", "--eps", "-1", "--partition", "3,1"),  # the package's error line
        ("check", "--eps", "-1"),  # argparse's usage error
    ], ids=["input-error", "usage-error"])
    def test_closed_stderr_leaves_stdout_empty_and_exit_2(self, argv):
        # sys.stderr is None then, and print(file=None) would fall back to stdout
        proc = _program(argv, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_closed_stdout_is_silent_and_exit_0(self):
        proc = _program(["survey", "--eps", "-1", "--size", "8", "--format", "json"],
                        stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 0
        assert proc.stderr == b"atexit ran\n"

    def test_in_process_call_reports_once_and_returns_1(self):
        # no second flush fails when the interpreter exits after main([...]) returned
        src = str(Path(cli.__file__).parent.parent)
        script = ("import sys\nfrom orbitnorm.cli import main\n"
                  "print(main(['check', '--eps', '1', '--partition', '7,2,2']), file=sys.stderr)")
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-c", script], stdout=full,
                                  stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                                  timeout=60)
        assert proc.returncode == 0
        assert proc.stderr.decode() == self.MESSAGE.format(os.strerror(errno.ENOSPC)) + "1\n"


class TestOtherCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--eps", "-1", "--top", "6,1,1",
                           "--bottom", "4,2,2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["core"] == {"eps": 1, "top": [5], "bottom": [3, 1, 1]}
        assert doc["s"] == 1

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--eps", "-1", "--top", "6,1,1",
                           "--bottom", "4,2,2", "--format", "json")
        doc = json.loads(out)
        assert doc["type"] == {"family": "c", "n": 2, "codim": 2}

    def test_classify_not_minimal_exit_2(self, capsys):
        # (1^5) <= (5) is a degeneration but not a minimal one: an input error
        code, out, err = run(capsys, "classify", "--eps", "1", "--top", "5",
                             "--bottom", "1,1,1,1,1")
        assert code == 2
        assert out == ""
        assert err == ("error: not a minimal degeneration:"
                       " no family matches ([1,1,1,1,1] <= [5], eps=+1)\n")

    @pytest.mark.parametrize("command", ["reduce", "classify"])
    def test_reduction_that_stops_short_is_an_internal_error(self, capsys, monkeypatch, command):
        # a gap in the reduction, not the user's pair: exit 1, not the input error of exit 2
        def stuck(pair):
            raise NotMinimalIrreducible(f"reduction of {pair} stopped at the reducible {pair}")

        monkeypatch.setattr(cli, "irreducible_core", stuck)
        assert run(capsys, command, "--eps", "-1", "--top", "6,1,1", "--bottom", "4,2,2") == (
            1, "", "internal error: reduction of ([4,2,2] <= [6,1,1], eps=-1) stopped at the"
                   " reducible ([4,2,2] <= [6,1,1], eps=-1)\n")

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "--eps", "-1", "--partition", "1,1",
                           "--format", "json")
        assert json.loads(out)["orbit_dim"] == 0

    def test_dim_solves_the_centralizer_once(self, capsys, monkeypatch):
        calls = []
        solve = matrix_oracle.centralizer_dim

        def counted(model):
            calls.append(model.dim)
            return solve(model)

        monkeypatch.setattr(matrix_oracle, "centralizer_dim", counted)
        monkeypatch.setattr(cli, "centralizer_dim", counted)
        matrix_oracle._orbit_dim_cached.cache_clear()  # an earlier test may have filled it
        code, out, _ = run(capsys, "dim", "--eps", "+1", "--partition", "9,7,3,3,1,1",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0 and calls == [24]
        assert doc["orbit_dim"] == doc["algebra_dim"] - doc["centralizer_dim"]
        assert doc["orbit_dim"] == matrix_oracle.orbit_dim([9, 7, 3, 3, 1, 1], 1)

    def test_verify_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--eps", "-1", "--partition", "6,1,1")
        assert code == 0
        assert "PASS" in out
        assert "restriction type [5]" in out

    @pytest.mark.parametrize("eps,parts,image_eps", [("1", "1,1,1", "-1"), ("-1", "1,1", "+1")])
    def test_verify_zero_map_passes(self, capsys, eps, parts, image_eps):
        # [1^k] erases to [], and the zero image carries the empty form of the other type
        assert run(capsys, "verify", "--eps", eps, "--partition", parts) == (
            0, f"restriction type [] eps {image_eps}, expected [] eps {image_eps}: PASS\n", "")

    @pytest.mark.parametrize("command", ["reduce", "classify"])
    def test_pair_commands_obey_the_enumeration_bound(self, capsys, monkeypatch, command):
        pair = (command, "--eps", "1", "--top", "41", "--bottom", "39,1,1")
        monkeypatch.delenv("ORBIT_MAX_SIZE", raising=False)
        assert run(capsys, *pair) == (3, "", "error: size 41 exceeds the enumeration bound 40\n")
        monkeypatch.setenv("ORBIT_MAX_SIZE", "41")
        code, out, err = run(capsys, *pair, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        reduction = doc if command == "reduce" else doc["reduction"]
        assert reduction["core"] == {"eps": 1, "top": [41], "bottom": [39, 1, 1]}

    @pytest.mark.parametrize("command", ["reduce", "classify"])
    def test_equal_pair_is_input_error(self, capsys, command):
        assert run(capsys, command, "--eps", "1", "--top", "3", "--bottom", "3") == (
            2, "", "error: cannot reduce an equal pair\n")

    def test_bad_order_is_input_error(self, capsys):
        code, _, err = run(capsys, "reduce", "--eps", "-1", "--top", "4,2,2",
                           "--bottom", "6,1,1")
        assert code == 2
