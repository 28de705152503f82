import json

import pytest

from orbitnorm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_cache_exit_2(self, capsys, tmp_path, target):
        cache = tmp_path if target == "directory" else tmp_path / "absent" / "cache.jsonl"
        code, out, err = run(capsys, "check", "--eps", "-1", "--partition", "6,1,1",
                             "--cache", str(cache))
        assert code == 2
        assert out == ""
        assert [l for l in err.splitlines() if l] == [err.strip()]
        assert err.startswith("error: cannot write cache ")


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

    def test_hasse_env_override(self, capsys, monkeypatch):
        code, _, err = run(capsys, "hasse", "--eps", "-1", "--size", "28")
        assert code == 3
        assert "enumeration bound 26" in err
        monkeypatch.setenv("ORBIT_MAX_SIZE", "3")
        code, _, err = run(capsys, "hasse", "--eps", "-1", "--size", "4")
        assert code == 3
        assert "enumeration bound 3" in err
        monkeypatch.setenv("ORBIT_MAX_SIZE", "4")
        code, out, _ = run(capsys, "hasse", "--eps", "-1", "--size", "4")
        assert code == 0
        assert out.count("->") == 3


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

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "--eps", "-1", "--partition", "1,1",
                           "--format", "json")
        assert json.loads(out)["orbit_dim"] == 0

    def test_verify_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--eps", "-1", "--partition", "6,1,1")
        assert code == 0
        assert "PASS" in out
        assert "restriction type [5]" in out

    def test_bad_order_is_input_error(self, capsys):
        code, _, err = run(capsys, "reduce", "--eps", "-1", "--top", "4,2,2",
                           "--bottom", "6,1,1")
        assert code == 2
