"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import db2_sample
from repro.relation import read_csv, write_csv


@pytest.fixture
def db2_csv(tmp_path):
    path = tmp_path / "db2.csv"
    write_csv(db2_sample(seed=0).relation, path)
    return str(path)


class TestDiscover:
    def test_prints_report(self, db2_csv, capsys):
        assert main(["discover", db2_csv]) == 0
        out = capsys.readouterr().out
        assert "Structure discovery over 90 tuples" in out
        assert "ranked dependencies" in out

    def test_top_option(self, db2_csv, capsys):
        main(["discover", db2_csv, "--top", "2"])
        out = capsys.readouterr().out
        assert "Top-2" in out


class TestRank:
    def test_prints_ranked_fds(self, db2_csv, capsys):
        assert main(["rank", db2_csv, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "dependencies mined" in out
        assert out.count("rank=") == 3

    def test_miner_selection(self, db2_csv, capsys):
        main(["rank", db2_csv, "--miner", "fdep", "--top", "1"])
        assert "fdep" in capsys.readouterr().out


class TestPartition:
    def test_partitions_and_writes(self, tmp_path, capsys):
        from repro.datasets import planted_partitions

        rel, _ = planted_partitions(60, 2, seed=1)
        path = tmp_path / "blocks.csv"
        write_csv(rel, path)
        prefix = str(tmp_path / "out")
        assert main(
            ["partition", str(path), "--k", "2", "--out", prefix]
        ) == 0
        out = capsys.readouterr().out
        assert "k = 2" in out
        first = read_csv(f"{prefix}.part1.csv")
        second = read_csv(f"{prefix}.part2.csv")
        assert len(first) + len(second) == 60


class TestRedesign:
    def test_prints_and_writes_fragments(self, db2_csv, tmp_path, capsys):
        prefix = str(tmp_path / "frag")
        assert main(["redesign", db2_csv, "--out", prefix]) == 0
        out = capsys.readouterr().out
        assert "storage cells" in out
        remainder = read_csv(f"{prefix}.remainder.csv")
        assert len(remainder) > 0


class TestDataset:
    def test_db2(self, tmp_path, capsys):
        path = tmp_path / "db2gen.csv"
        assert main(["dataset", "db2", "--out", str(path)]) == 0
        assert "90 tuples x 19 attributes" in capsys.readouterr().out
        assert len(read_csv(path)) == 90

    def test_dblp(self, tmp_path, capsys):
        path = tmp_path / "dblp.csv"
        assert main(["dataset", "dblp", "--out", str(path), "--n", "500"]) == 0
        relation = read_csv(path)
        assert len(relation) == 500
        assert relation.arity == 13


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_module_entry_point(self, db2_csv):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "rank", db2_csv, "--top", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0
        assert "rank=" in result.stdout


class TestRankMinerOptions:
    def test_tane_path(self, db2_csv, capsys):
        assert main(["rank", db2_csv, "--miner", "tane", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "tane" in out and out.count("rank=") == 2

    def test_psi_option(self, db2_csv, capsys):
        assert main(["rank", db2_csv, "--psi", "0.1", "--top", "1"]) == 0
        assert "rank=" in capsys.readouterr().out

    def test_auto_miner_follows_the_discovery_rule(
        self, db2_csv, capsys, monkeypatch
    ):
        # rank picks FDEP or TANE by the same tuple limit discover uses.
        monkeypatch.setattr("repro.core.discovery._FDEP_TUPLE_LIMIT", 10)
        assert main(["rank", db2_csv, "--miner", "auto", "--top", "1"]) == 0
        assert "(tane)" in capsys.readouterr().out


class TestPartitionWithoutOut:
    def test_no_files_written(self, tmp_path, capsys):
        from repro.datasets import planted_partitions
        from repro.relation import write_csv

        rel, _ = planted_partitions(40, 2, seed=2)
        path = tmp_path / "r.csv"
        write_csv(rel, path)
        assert main(["partition", str(path), "--k", "2"]) == 0
        assert not list(tmp_path.glob("*.part*.csv"))


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__

        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestDiscoverVerifyAndAudit:
    def test_verify_certifies_and_audit_round_trips(
        self, db2_csv, tmp_path, capsys
    ):
        report_path = str(tmp_path / "report.json")
        assert main([
            "discover", db2_csv, "--verify", "--out-json", report_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "verification" in out and "certified" in out
        assert main(["audit", report_path, db2_csv]) == 0
        assert "certified" in capsys.readouterr().out

    def test_audit_rejects_tampered_report_naming_artifact(
        self, db2_csv, tmp_path, capsys
    ):
        import json

        report_path = tmp_path / "report.json"
        assert main([
            "discover", db2_csv, "--out-json", str(report_path),
        ]) == 0
        capsys.readouterr()
        blob = json.loads(report_path.read_text("utf-8"))
        fd = blob["artifacts"]["cover"][0]
        fd["lhs"], fd["rhs"] = fd["rhs"], fd["lhs"]  # flip the dependency
        report_path.write_text(json.dumps(blob), "utf-8")
        assert main(["audit", str(report_path), db2_csv]) == 1
        captured = capsys.readouterr()
        assert "REJECTED" in captured.out
        assert "dependencies" in captured.err

    def test_audit_unreadable_report_is_input_error(self, db2_csv, tmp_path):
        bogus = tmp_path / "nope.json"
        bogus.write_text("not json", "utf-8")
        assert main(["audit", str(bogus), db2_csv]) == 2
