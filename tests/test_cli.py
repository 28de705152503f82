import errno
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from orbitnorm import cli, matrix_oracle
from orbitnorm.cli import main
from orbitnorm.classification import classify_core
from orbitnorm.degeneration import DegenPair, dominates, hasse, table_pair
from orbitnorm.matrix_oracle import algebra_dim, build_nilpotent_model, centralizer_dim, codim_oracle
from orbitnorm.normality import NORMAL, NOT_NORMAL, UNDETERMINED, decide
from orbitnorm.partitions import enumerate_eps_diagrams
from orbitnorm.reduction import irreducible_core


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- reference encoder ------------------------------------------------------
# The records as the dicts json.dumps writes, with sorted keys, as the command line's JSON.
# The program writes that text from fragments; these are what it must equal.

def dumps(obj):
    """obj as the program writes JSON: compact, with sorted keys."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def pair_json(pair):
    return {"eps": pair.eps, "top": list(pair.top), "bottom": list(pair.bottom)}


def type_json(t):
    return {"family": t.family, "n": t.n, "codim": t.codim}


def witness_json(w):
    return {
        "sigma": list(w.sigma),
        "core": pair_json(table_pair(w.degen_type)),
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
        "r": len(result.erased_rows),
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
        # a line that does not start as the orbit's record is skipped unread, without a warning
        cache = tmp_path / "cache.jsonl"
        cache.write_text("{not json}\n")
        code, out, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                             "--format", "json", "--cache", str(cache))
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "Normal"
        assert cache.read_text().splitlines() == ["{not json}", out.strip()]  # the miss appended

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
        # a line that starts as the orbit's record warns once; any other is skipped silently
        line = line if isinstance(line, bytes) else line.encode()
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(line + b"\n")
        code, out, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                             "--cache", str(cache))
        assert code == 0
        assert out.startswith("partition [6,1,1] eps -1: Normal\n")
        own = line.startswith(b'{"eps":-1,"partition":[6,1,1],')
        assert err == ("warning: ignoring malformed cache record for [6,1,1]\n" if own else "")
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
        # w is the first witness; eps and partition equal the orbit's under ==, not in type,
        # so with either changed the record no longer starts as the orbit's does: no warning
        args = ("check", "--eps", "+1", "--partition", "7,2,2", "--format", fmt)
        fresh = run(capsys, *args)
        record = json.loads(run(capsys, *args[:-1], "json")[1])
        *path, key = field.split(".")
        target = record
        for step in path:
            target = target["witnesses"][0] if step == "w" else target[step]
        target[key] = value
        cache = tmp_path / "cache.jsonl"
        cache.write_text(dumps(record) + "\n")
        code, out, err = run(capsys, *args, "--cache", str(cache))
        assert (code, out) == (10, fresh[1])
        assert err == ("" if field in ("eps", "partition")
                       else "warning: ignoring malformed cache record for [7,2,2]\n")
        assert len(cache.read_bytes().splitlines()) == 2

    def test_garbled_line_for_another_orbit_is_skipped_silently(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--cache", str(cache))
        _, fresh, _ = run(capsys, *args)
        cache.write_bytes(b'{"eps":-1,"partition":[4,4],garbage\n' + cache.read_bytes())
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (0, fresh, "")
        assert len(cache.read_bytes().splitlines()) == 2  # a hit appends nothing

    def test_record_after_an_unended_last_line_starts_a_line(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        first = ("check", "--eps", "1", "--partition", "3,1", "--cache", str(cache))
        second = ("check", "--eps", "1", "--partition", "5,3", "--cache", str(cache))
        fresh = run(capsys, *first), run(capsys, *second)
        cache.write_bytes(cache.read_bytes().splitlines()[0])  # 3,1 alone, its newline cut
        assert run(capsys, *second) == fresh[1]  # a miss, appended on a line of its own
        lines = cache.read_bytes().split(b"\n")
        assert len(lines) == 3 and lines[2] == b""
        assert json.loads(lines[0])["partition"] == [3, 1]
        assert json.loads(lines[1])["partition"] == [5, 3]
        primed = cache.read_bytes()
        assert (run(capsys, *first), run(capsys, *second)) == fresh  # both hit, with no warning
        assert cache.read_bytes() == primed

    def test_garbled_line_for_this_orbit_still_warns(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(b'{"eps":-1,"partition":[6,1,1],garbage\n')
        code, _, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                           "--cache", str(cache))
        assert (code, err) == (0, "warning: ignoring malformed cache record for [6,1,1]\n")
        assert len(cache.read_bytes().splitlines()) == 2

    @pytest.mark.parametrize("rewrite", [
        lambda record: json.dumps(record),
        lambda record: json.dumps(dict(reversed(record.items())), separators=(",", ":")),
        lambda record: "  " + json.dumps(record, separators=(",", ":")),
    ], ids=["spaces", "key-order", "leading-blanks"])
    def test_hand_written_record_for_this_orbit_hits(self, capsys, tmp_path, rewrite):
        # only the program's own bytes hit: a hand-written record is a silent miss, the
        # record is appended once in the program's form, and that one hits
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "+1", "--partition", "7,2,2", "--format", "json")
        _, fresh, _ = run(capsys, *args)
        hand = rewrite(json.loads(fresh)) + "\n"
        cache.write_text(hand)
        assert run(capsys, *args, "--cache", str(cache)) == (10, fresh, "")
        assert cache.read_text() == hand + fresh
        assert run(capsys, *args, "--cache", str(cache)) == (10, fresh, "")
        assert cache.read_text() == hand + fresh

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
        ("5", None, 3, "error: size 11 exceeds the size bound 5"),
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

    def test_over_long_line_with_a_short_tail_warns_once(self, capsys, tmp_path, monkeypatch):
        # the last piece of the line is shorter than the limit, and is skipped, not parsed
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--cache", str(cache))
        _, fresh, _ = run(capsys, *args)
        record = cache.read_bytes()
        monkeypatch.setattr(cli, "_CACHE_LINE_LIMIT", len(record))
        cache.write_bytes(b"x" * (3 * len(record) + 5) + b"\n" + record)
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (0, fresh, "warning: ignoring over-long cache line\n")
        assert cache.read_bytes().endswith(b"\n" + record)

    @pytest.mark.parametrize("fmt, miss, hit", [("json", 2, 2), ("text", 2, 1)])
    @pytest.mark.parametrize("oracle", [(), ("--oracle",)])
    def test_check_builds_the_cache_record_once(self, capsys, tmp_path, monkeypatch, fmt, miss,
                                                hit, oracle):
        # the lookup builds the record to compare, and a miss builds the one it appends;
        # with --format json that record is the output, so it is not built a third time
        cache = tmp_path / "cache.jsonl"
        run(capsys, "check", "--eps", "-1", "--partition", "4,2", "--cache", str(cache))
        calls = []
        verdict_json = cli._verdict_json

        def counted(*args):
            calls.append(args)
            return verdict_json(*args)

        monkeypatch.setattr(cli, "_verdict_json", counted)
        args = ("check", "--eps", "-1", "--partition", "6,1,1", "--format", fmt,
                "--cache", str(cache), *oracle)
        code, out, err = run(capsys, *args)
        record = cache.read_text().splitlines()[-1]
        assert (code, err, len(calls)) == (0, "", miss)
        assert record == verdict_json(*calls[-1])
        if fmt == "json":
            assert out == record + "\n"
        calls.clear()
        assert run(capsys, *args) == (code, out, err)
        assert len(calls) == hit

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
        lambda record: record.update(source="x"),  # sorts after the orbit's eps and partition
    ], ids=["codim", "family", "verdict", "witness-dropped", "null-oracle-codim", "extra-key"])
    def test_program_written_record_that_disagrees_is_a_miss(self, capsys, tmp_path, edit):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "1", "--partition", "7,2,2", "--cache", str(cache))
        fresh = run(capsys, *args)
        record = json.loads(cache.read_bytes())
        edit(record)
        cache.write_text(dumps(record) + "\n")
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
        def no_oracle(lam, eps):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(cli, "orbit_dim", no_oracle)
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

    @pytest.mark.parametrize("own", [False, True], ids=["bare", "own-prefix"])
    @pytest.mark.parametrize("body", [b"1" * 5000, b"[" * 100_000 + b"]" * 100_000],
                             ids=["5000-digits", "100000-deep"])
    def test_line_json_cannot_decode_is_a_miss(self, capsys, tmp_path, own, body):
        # json would raise ValueError on the int past its digit limit and RecursionError on
        # the nesting; the lookup compares bytes, so the line is a miss that warns only
        # when it starts as the orbit's record does
        args = ("check", "--eps", "1", "--partition", "3,1,1")
        fresh = run(capsys, *args)
        line = b'{"eps":1,"partition":[3,1,1],"verdict":' + body + b"}" if own else body
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(line + b"\n")
        warning = "warning: ignoring malformed cache record for [3,1,1]\n" if own else ""
        assert run(capsys, *args, "--cache", str(cache)) == (fresh[0], fresh[1], warning)
        assert cache.read_bytes().splitlines()[1:] == [
            run(capsys, *args, "--format", "json")[1].strip().encode()]  # the miss appended

    def test_deepest_record_that_decodes_is_a_miss_not_a_crash(self, capsys, tmp_path):
        # no line is decoded, so no depth reaches a recursion limit: a record of the orbit
        # nested 100,000 deep is one malformed record, and the miss is appended
        args = ("check", "--eps", "1", "--partition", "3,1,1")
        fresh = run(capsys, *args)
        cache = tmp_path / "cache.jsonl"
        nested = b"[" * 100_000 + b"]" * 100_000
        cache.write_bytes(b'{"eps":1,"partition":[3,1,1],"verdict":' + nested + b"}\n")
        assert run(capsys, *args, "--cache", str(cache)) == (
            *fresh[:2], "warning: ignoring malformed cache record for [3,1,1]\n")
        assert len(cache.read_bytes().splitlines()) == 2

    def test_empty_cache_path_is_refused_not_ignored(self, capsys):
        assert run(capsys, "check", "--eps", "1", "--partition", "3,1,1", "--cache", "") == (
            2, "", "error: cannot write cache : No such file or directory\n")

    def test_hand_written_record_for_another_orbit_is_skipped_silently(self, capsys, tmp_path):
        # spaced, so it does not start as any record the program writes
        cache = tmp_path / "cache.jsonl"
        other = ("check", "--eps", "-1", "--partition", "6,1,1", "--format", "json")
        cache.write_text(json.dumps(json.loads(run(capsys, *other)[1])) + "\n")
        primed = cache.read_bytes()
        args = ("check", "--eps", "-1", "--partition", "4,2,2", "--format", "json")
        fresh = run(capsys, *args)
        assert run(capsys, *args, "--cache", str(cache)) == fresh
        assert cache.read_bytes() == primed + fresh[1].encode()  # the miss appended


def oracle_codims(verdict):
    """Each witness's codim_oracle, as check --oracle computes it."""
    eta = verdict.eta
    return [codim_oracle(DegenPair(eta.eps, w.sigma, eta.partition)) for w in verdict.witnesses]


@pytest.fixture(scope="module")
def written_records(tmp_path_factory):
    """(verdict, line, codims) for every record check --cache writes on the eps-diagrams with
    n <= 8, both eps, plain and with --oracle (a plain record with no witnesses serves both)."""
    cache = tmp_path_factory.mktemp("records") / "cache.jsonl"
    expected = []
    for eps in (1, -1):
        for eta in [eta for n in range(9) for eta in enumerate_eps_diagrams(n, eps)]:
            verdict = decide(eta)
            check = ["check", "--eps", str(eps), "--partition",
                     cli._partition_csv(eta.partition), "--cache", str(cache)]
            with redirect_stdout(io.StringIO()):
                main(check)
                main([*check, "--oracle"])
            expected.append((verdict, [None] * len(verdict.witnesses)))
            if verdict.witnesses:
                expected.append((verdict, oracle_codims(verdict)))
    lines = cache.read_bytes().splitlines()
    assert len(lines) == len(expected) == 112
    return [(verdict, line, codims) for line, (verdict, codims) in zip(lines, expected)]


def recognized(verdict, line):
    return cli._record_codims(line, cli._verdict_json(verdict).encode(), len(verdict.witnesses))


def edited(line, codims, i, replacement):
    """What the recognizer must make of line with byte i replaced: within a codim_oracle value
    a canonical number is that codim, edited (a hit the bytes cannot tell from the
    oracle's); anywhere else, or a number with a leading zero or no digit, a miss (None)."""
    for k, value in enumerate(re.finditer(rb'"codim_oracle":([0-9]+),', line)):
        start, end = value.span(1)
        if start <= i < end:
            digits = line[start:i] + replacement + line[i + 1:end]
            if digits and digits == str(int(digits)).encode():
                return [*codims[:k], int(digits), *codims[k + 1:]]
    return None


class TestNoFalseHit:
    """Only a record the program writes hits: each one as written, with its own codims, and
    no line one byte or one digit away from it, but for its codim_oracle values."""

    def test_every_record_the_program_writes_hits_with_its_own_codims(self, written_records):
        for verdict, line, codims in written_records:
            assert recognized(verdict, line) == codims, line

    def test_every_byte_deleted_is_a_miss(self, written_records):
        for verdict, line, codims in written_records:
            for i in range(len(line)):
                assert (recognized(verdict, line[:i] + line[i + 1:])
                        == edited(line, codims, i, b"")), (line, i)

    def test_every_digit_changed_is_a_miss(self, written_records):
        for verdict, line, codims in written_records:
            for i in [i for i, byte in enumerate(line) if chr(byte).isdigit()]:
                for digit in set(b"0123456789") - {line[i]}:
                    changed = line[:i] + bytes([digit]) + line[i + 1:]
                    assert (recognized(verdict, changed)
                            == edited(line, codims, i, bytes([digit]))), (changed, i)

    def test_a_mutated_record_through_the_command_is_a_miss_with_at_most_one_warning(
            self, capsys, tmp_path, written_records):
        rng = random.Random(8)
        cache = tmp_path / "cache.jsonl"
        for verdict, line, codims in rng.sample(written_records, 12):
            i = rng.randrange(len(line))
            replacement = b"" if i % 2 else b"x"
            if edited(line, codims, i, replacement) is not None:
                continue  # a codim_oracle edited to another number: a hit, as above
            mutated = line[:i] + replacement + line[i + 1:]
            eta = verdict.eta
            args = ("check", "--eps", str(eta.eps), "--partition",
                    cli._partition_csv(eta.partition), "--format", "json")
            fresh = run(capsys, *args)
            cache.write_bytes(mutated + b"\n")
            code, out, err = run(capsys, *args, "--cache", str(cache))
            own = mutated.startswith(line[:line.index(b'"verdict":')])
            assert (code, out) == fresh[:2]
            assert err == (f"warning: ignoring malformed cache record for"
                           f" [{cli._partition_csv(eta.partition)}]\n" if own else "")
            assert cache.read_bytes() == mutated + b"\n" + fresh[1].encode()  # the miss appended

    @pytest.mark.parametrize("value", [b"1" * 5000, b"-2", b"02", b"+2", b" 2", b"2_0", b"2.0"],
                             ids=["5000-digits", "negative", "zero-padded", "plus", "space",
                                  "underscore", "float"])
    def test_a_codim_oracle_that_is_not_canonical_decimal_is_malformed(self, capsys, tmp_path,
                                                                        value):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "1", "--partition", "7,2,2", "--cache", str(cache))
        fresh = run(capsys, *args, "--oracle")
        record = cache.read_bytes()
        assert record.count(b'"codim_oracle":2,') == 2
        cache.write_bytes(record.replace(b'"codim_oracle":2,', b'"codim_oracle":' + value + b",", 1))
        warning = "warning: ignoring malformed cache record for [7,2,2]\n"
        assert run(capsys, *args, "--oracle") == (*fresh[:2], warning)
        assert cache.read_bytes().endswith(b"\n" + record)  # the miss appended

    @pytest.mark.parametrize("edit", [
        lambda record: record.replace(b'"codim_oracle":2,', b"", 1),
        lambda record: record.replace(b'"codim_oracle":2,', b'"codim_oracle":2,"codim_oracle":2,', 1),
        lambda record: record.replace(b'"codim":2,"codim_oracle":2,', b'"codim_oracle":2,"codim":2,', 1),
        lambda record: record[:-1].replace(b'"codim_oracle":2,', b"", 1) + b'"codim_oracle":2\n',
        lambda record: record[:-1] + b"\r\n",
        lambda record: record[:-1] + b" \n",
    ], ids=["on-one-witness", "twice-on-one-witness", "before-codim", "one-at-the-end", "crlf",
            "trailing-space"])
    def test_codims_on_some_witnesses_or_out_of_place_are_malformed(self, capsys, tmp_path, edit):
        cache = tmp_path / "cache.jsonl"
        args = ("check", "--eps", "1", "--partition", "7,2,2", "--cache", str(cache))
        fresh = run(capsys, *args, "--oracle")
        record = cache.read_bytes()
        cache.write_bytes(edit(record))
        warning = "warning: ignoring malformed cache record for [7,2,2]\n"
        assert run(capsys, *args, "--oracle") == (*fresh[:2], warning)
        assert run(capsys, *args) == (*fresh[:2], warning)  # a plain check: a hit on the append
        assert cache.read_bytes().endswith(b"\n" + record)


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

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_enumerates_once_then_decides_each_diagram_once(self, capsys, monkeypatch, eps,
                                                            fmt):
        # the two stages of a survey, in the command itself, so each can be timed
        enumerated, decided = [], []
        real_enumerate, real_decide = cli.enumerate_eps_diagrams, cli.decide
        monkeypatch.setattr(cli, "enumerate_eps_diagrams",
                            lambda n, e: enumerated.append((n, e)) or real_enumerate(n, e))
        monkeypatch.setattr(cli, "decide", lambda eta: decided.append(eta) or real_decide(eta))
        code, _, err = run(capsys, "survey", "--eps", str(eps), "--size", "8", "--format", fmt)
        assert (code, err) == (0, "")
        assert (enumerated, decided) == ([(8, eps)], enumerate_eps_diagrams(8, eps))

    @pytest.mark.parametrize("eps", [1, -1])
    def test_the_text_a_witness_type_fixes_is_built_once_per_type(self, capsys, eps):
        cli._type_texts.cache_clear()
        code, out, _ = run(capsys, "survey", "--eps", str(eps), "--size", "40", "--format", "json")
        witnesses = [w for result in json.loads(out)["results"] for w in result["witnesses"]]
        types = {(w["family"], w["n"]) for w in witnesses}
        info = cli._type_texts.cache_info()
        assert (code, info.misses, info.hits) == (0, len(types), len(witnesses) - len(types))


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
    """Every JSON output is written from fragments: the text dumps makes of the reference."""

    @staticmethod
    def survey_reference(n, eps):
        reports = [verdict_json(decide(eta)) for eta in enumerate_eps_diagrams(n, eps)]
        counts = {NORMAL: 0, NOT_NORMAL: 0, UNDETERMINED: 0}
        for r in reports:
            counts[r["verdict"]] += 1
        return dumps({"eps": eps, "n": n, "results": reports, "counts": counts})

    @pytest.mark.parametrize("eps", [1, -1])
    def test_survey_and_hasse(self, capsys, eps):
        for n in [*range(21), 40]:
            size = ("--eps", str(eps), "--size", str(n), "--format", "json")
            assert run(capsys, "survey", *size) == (0, self.survey_reference(n, eps) + "\n", "")
            graph = dumps(graph_json(hasse(n, eps)))
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
                                   dumps(verdict_json(verdict)) + "\n")

    @pytest.mark.parametrize("eps", [1, -1])
    def test_check_oracle(self, capsys, eps):
        diagrams = [eta for n in range(13) for eta in enumerate_eps_diagrams(n, eps)]
        at_40 = enumerate_eps_diagrams(40, eps)
        for eta in [*diagrams, *random.Random(40).sample(at_40, 25)]:
            verdict = decide(eta)
            code, out, _ = run(capsys, "check", "--eps", str(eps), "--partition",
                               cli._partition_csv(eta.partition), "--format", "json", "--oracle")
            assert (code, out) == (cli.VERDICT_EXIT[verdict.verdict],
                                   dumps(verdict_json(verdict, oracle_codims(verdict))) + "\n")

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
                           "--format", "json") == (0, dumps(dim) + "\n", "")
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
                    0, dumps(reduction_json(result)) + "\n", "")
                if pair in covers:
                    doc = {"reduction": reduction_json(result),
                           "type": type_json(classify_core(result.core))}
                    assert run(capsys, "classify", *argv) == (0, dumps(doc) + "\n", "")

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
            expected.append(dumps(verdict_json(verdict)) + "\n")
            if verdict.witnesses:  # a plain record with no witnesses serves --oracle too
                expected.append(dumps(verdict_json(verdict, oracle_codims(verdict))) + "\n")
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
                f" erased {doc['r']} rows [{csv(doc['erased_rows'])}], {doc['s']} columns")

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
        (("reduce", "--eps", "1", "--top", "7,5,2,2", "--bottom", "7,5,1,1,1,1"),
         "core: [1,1,1,1] <= [2,2] eps' +1; erased 2 rows [7,5], 0 columns"),
    ])
    def test_literal(self, capsys, argv, text):
        assert run(capsys, *argv) == (0, text + "\n", "")
        assert run(capsys, *argv, "--format", "text") == (0, text + "\n", "")

    @staticmethod
    def verdict_text(doc):
        lines = [f"partition [{csv(doc['partition'])}] eps {doc['eps']:+d}: {doc['verdict']}"]
        for w in doc["witnesses"]:
            core = w["core"]
            oracle = f" oracle_codim {w['codim_oracle']}" if "codim_oracle" in w else ""
            lines.append(f"  witness [{csv(w['sigma'])}] -> core ([{csv(core['bottom'])}] <="
                         f" [{csv(core['top'])}], eps {core['eps']:+d})"
                         f" type {w['family']} codim {w['codim']}{oracle}")
        return "\n".join(lines)

    @classmethod
    def survey_text(cls, doc):
        counts = doc["counts"]
        return "\n".join([*map(cls.verdict_text, doc["results"]),
                          f"summary: {counts[NORMAL]} Normal, {counts[NOT_NORMAL]} NotNormal,"
                          f" {counts[UNDETERMINED]} Undetermined"])

    @pytest.mark.parametrize("eps", [1, -1])
    def test_survey_and_check_text_are_the_json_answer(self, capsys, eps):
        # the text writer shares one witness memo per call (per survey), as the JSON writer does
        def answer(*argv):
            code, text, err = run(capsys, *argv, "--format", "text")
            json_code, out, json_err = run(capsys, *argv, "--format", "json")
            assert (code, err) == (json_code, json_err) == (code, "")
            return text.removesuffix("\n"), json.loads(out)

        for n in [*range(21), 40]:
            text, doc = answer("survey", "--eps", str(eps), "--size", str(n))
            assert text == self.survey_text(doc)
        diagrams = [eta for n in range(21) for eta in enumerate_eps_diagrams(n, eps)]
        at_40 = enumerate_eps_diagrams(40, eps)
        for eta in [*diagrams, *random.Random(40).sample(at_40, 25)]:
            orbit = ("check", "--eps", str(eps), "--partition", csv(eta.partition))
            for oracle in ((), ("--oracle",)) if eta.size <= 8 else ((),):
                text, doc = answer(*orbit, *oracle)
                assert text == self.verdict_text(doc)

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
        assert "size bound 4" in err

    @pytest.mark.parametrize("argv,expected", [
        (("survey", "--size", "10"), 1),
        (("hasse", "--size", "10"), 1),
        (("check", "--partition", "9,7,3,3,1,1"), 1),
        (("check", "--partition", "9,7,3,3,1,1", "--oracle"), 2),
        (("reduce", "--top", "7,2,2", "--bottom", "7,1,1,1,1"), 1),
        (("classify", "--top", "7,2,2", "--bottom", "7,1,1,1,1"), 1),
        (("dim", "--partition", "9,7,3,3,1,1"), 1),
        (("verify", "--partition", "9,7,3,3,1,1"), 1),
    ], ids=["survey", "hasse", "check", "check-oracle", "reduce", "classify", "dim", "verify"])
    def test_whole_size_commands_read_the_bound_once(self, capsys, monkeypatch, argv, expected):
        # each command checks its size once, up front; check --oracle also checks the oracle's
        reads = []
        real = cli.max_size
        monkeypatch.setattr(cli, "max_size", lambda: reads.append(1) or real())
        code, _, err = run(capsys, *argv, "--eps", "1")
        assert (code, err) == (0, "")
        assert len(reads) == expected

    def test_hasse_env_override(self, capsys, monkeypatch):
        code, _, err = run(capsys, "hasse", "--eps", "-1", "--size", "41")
        assert code == 3
        assert "size bound 40" in err
        monkeypatch.setenv("ORBIT_MAX_SIZE", "3")
        code, _, err = run(capsys, "hasse", "--eps", "-1", "--size", "4")
        assert code == 3
        assert "size bound 3" in err
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
            2, "", "error: the size bound must be nonnegative, got -1\n")

    @pytest.mark.parametrize("command", ["survey", "hasse"])
    def test_negative_size_is_refused_before_the_bound(self, capsys, command):
        assert run(capsys, command, "--eps", "1", "--size", "-1", "--max-size", "-5") == (
            2, "", "error: n must be nonnegative, got -1\n")

    @pytest.mark.parametrize("command", ["dim", "verify"])
    def test_oracle_commands_refuse_a_non_diagram_before_the_bound(self, capsys, command):
        # [43,2] is above the bound, but it is no diagram for eps +1 first
        assert run(capsys, command, "--eps", "1", "--partition", "43,2") == (
            2, "", "error: [43,2] is not a valid diagram for eps=+1:"
                   " even part 2 has odd multiplicity\n")


class TestOracleBound:
    """The oracle obeys the one size bound, so it answers every orbit check answers."""

    @pytest.mark.parametrize("eps,parts", [
        ("1", "39,1"), ("1", "9,9,7,7,3,3,1,1"), ("-1", "40"), ("-1", "10,10,6,6,4,4"),
    ])
    def test_oracle_commands_answer_at_40(self, capsys, eps, parts):
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
            3, "", "error: size 22 exceeds the size bound 20\n")

    def test_max_size_above_the_bound_does_not_lift_the_oracle(self, capsys):
        # --max-size bounds check's enumeration only; the oracle keeps the size bound
        orbit = ("check", "--eps", "1", "--partition", "43,1,1", "--max-size", "50")
        assert run(capsys, *orbit)[0] == 0
        assert run(capsys, *orbit, "--oracle") == (
            3, "", "error: size 45 exceeds the size bound 40\n")

    @pytest.mark.parametrize("parts", ["43,1,1", ",".join(["1"] * 45)], ids=["43,1,1", "1^45"])
    def test_oracle_refuses_before_the_cache_and_decide(self, capsys, monkeypatch, tmp_path,
                                                         parts):
        # [43,1,1] has a witness for the oracle to check and [1^45] has none; both refuse
        orbit = ("check", "--eps", "1", "--partition", parts, "--max-size", "50")
        cache = tmp_path / "cache.jsonl"
        assert run(capsys, *orbit, "--cache", str(cache))[0] == 0
        primed = cache.read_bytes()

        def no_decide(*args):
            raise AssertionError("decide ran")

        monkeypatch.setattr(cli, "decide", no_decide)
        refusal = (3, "", "error: size 45 exceeds the size bound 40\n")
        assert run(capsys, *orbit, "--oracle") == refusal
        # the plain record of [1^45] has no witness, so the cache would serve it to --oracle
        assert run(capsys, *orbit, "--oracle", "--cache", str(cache)) == refusal
        assert cache.read_bytes() == primed


def _program(argv, unbuffered=False, handler="os.write, 2, b'atexit ran\\n'", **kwargs):
    """Run main() as the installed script runs it, in a fresh process; kwargs go to subprocess.run.

    handler is registered with atexit before main(); the default writes to stderr,
    and so would a statement after main(), which must never run.  sys.executable,
    not a launcher script, runs it, so a file descriptor the test closes stays closed.
    """
    src = str(Path(cli.__file__).parent.parent)
    script = (f"import atexit, os\natexit.register({handler})\n"
              "from orbitnorm.cli import main\nmain()\nos.write(2, b'after main\\n')")
    # stdout buffered unless asked, as it is by default when it is not a terminal
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
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

    def test_program_entry_keeps_what_an_atexit_handler_prints(self, capsys):
        # the handler's line waits in stdout's buffer, which os._exit would drop unflushed
        argv = ("check", "--eps", "1", "--partition", "7,2,2")
        proc = _program(argv, handler="print, 'atexit printed'", capture_output=True)
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            code, out + "atexit printed\n", err)

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
        code, out, _ = run(capsys, "dim", "--eps", "+1", "--partition", "9,7,3,3,1,1",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0 and calls == [24]
        assert doc["orbit_dim"] == doc["algebra_dim"] - doc["centralizer_dim"]
        assert doc["orbit_dim"] == matrix_oracle.orbit_dim([9, 7, 3, 3, 1, 1], 1)

    @pytest.mark.parametrize("eps,parts,models", [
        ("1", "9,7,3,3,1,1", 4), ("-1", "4,4,3,3", 2), ("1", "1,1,1", 0),
    ])
    def test_check_oracle_builds_one_model_per_orbit(self, capsys, monkeypatch, eps, parts,
                                                     models):
        # eta's model once and each witness's once; none when there is no witness to check
        built = []
        build = matrix_oracle.build_nilpotent_model

        def counted(lam, eps):
            built.append(lam)
            return build(lam, eps)

        monkeypatch.setattr(matrix_oracle, "build_nilpotent_model", counted)
        code, out, err = run(capsys, "check", "--eps", eps, "--partition", parts,
                             "--format", "json", "--oracle")
        witnesses = json.loads(out)["witnesses"]
        assert err == "" and len(built) == models == (1 + len(witnesses) if witnesses else 0)

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
        assert run(capsys, *pair) == (3, "", "error: size 41 exceeds the size bound 40\n")
        monkeypatch.setenv("ORBIT_MAX_SIZE", "41")
        code, out, err = run(capsys, *pair, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        reduction = doc if command == "reduce" else doc["reduction"]
        assert reduction["core"] == {"eps": 1, "top": [41], "bottom": [39, 1, 1]}

    @pytest.mark.parametrize("argv", [
        ("check", "--partition", "{N},{N}"),
        ("dim", "--partition", "{N},{N}"),
        ("verify", "--partition", "{N},{N}"),
        ("reduce", "--top", "{N},{N}", "--bottom", "{N},{N}"),
        ("classify", "--top", "{N},{N}", "--bottom", "{N},{N}"),
        ("reduce", "--top", "{N},{N}", "--bottom", "1"),
        ("classify", "--top", "{N},{N}", "--bottom", "1"),
    ], ids=["check", "dim", "verify", "reduce", "classify", "reduce-unequal",
            "classify-unequal"])
    def test_size_too_long_to_print_is_one_line(self, capsys, argv):
        # each part of N,N parses, but their sum has one digit more than str() may print
        digits = sys.get_int_max_str_digits()
        if not digits:
            pytest.skip("int to str conversion has no digit limit here")
        argv = [arg.format(N="9" * digits) for arg in argv]
        code, out, err = run(capsys, *argv, "--eps", "1")
        if argv[-1] == "1":
            assert (code, out, err) == (
                2, "", f"error: dominance needs equal sizes, got >=10^{digits} and 1\n")
        else:
            assert (code, out, err) == (
                3, "", f"error: size >=10^{digits} exceeds the size bound 40\n")

    @pytest.mark.parametrize("command", ["reduce", "classify"])
    def test_equal_pair_is_input_error(self, capsys, command):
        assert run(capsys, command, "--eps", "1", "--top", "3", "--bottom", "3") == (
            2, "", "error: cannot reduce an equal pair\n")

    def test_bad_order_is_input_error(self, capsys):
        code, _, err = run(capsys, "reduce", "--eps", "-1", "--top", "4,2,2",
                           "--bottom", "6,1,1")
        assert code == 2
