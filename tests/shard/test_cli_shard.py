"""The ``shard`` CLI subcommand: argument handling and the reference diff."""

from __future__ import annotations

import pytest

from repro import cli

FAST = ["--set", "pairs=2", "--set", "flows_per_pair=1",
        "--set", "flow_size_bytes=150000"]


class TestShardSubcommand:
    def test_run_prints_digest_and_summary(self, capsys) -> None:
        code = cli.main(["shard", "pairs", "--shards", "2", *FAST])
        out = capsys.readouterr().out
        assert code == 0
        assert "digest: " in out
        assert "2 shard(s)" in out
        assert "ev/s wall" in out
        assert "slowdown[all]" in out

    def test_reference_flag_verifies_digest(self, capsys) -> None:
        code = cli.main(["shard", "pairs", "--shards", "2", "--reference", *FAST])
        out = capsys.readouterr().out
        assert code == 0
        assert "reference digest matches" in out

    @pytest.mark.xfail(strict=True, reason=(
        "parity holds unless two boundary packets reach one element in the same "
        "picosecond: ~13 of 14 scenario seeds at k=8 (known bad: 5, 22, 36, 46, 48, "
        "89); docs/architecture.md, 'Sharded simulation'"
    ))
    def test_reference_digest_matches_on_a_known_bad_seed(self, capsys) -> None:
        """The hole in the parity guarantee, executable: ``DIGEST MISMATCH``, exit 1."""
        code = cli.main([
            "shard", "fattree", "--shards", "2", "--seed", "5", "--set", "k=8",
            "--set", "flows_per_pod=16", "--set", "flow_size_bytes=900000", "--reference",
        ])
        assert code == 0

    def test_unknown_scenario_is_usage_error(self, capsys) -> None:
        code = cli.main(["shard", "nonsense"])
        err = capsys.readouterr().err
        assert code == 2
        assert "scenarios: pairs, fattree" in err

    def test_unknown_parameter_is_usage_error(self, capsys) -> None:
        code = cli.main(["shard", "pairs", "--set", "bogus=1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown parameter(s) for pairs: bogus" in err

    def test_multi_value_set_is_usage_error(self, capsys) -> None:
        code = cli.main(["shard", "pairs", "--set", "pairs=2,4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "single value per --set key" in err

    @pytest.mark.parametrize("argv, message", [
        (["--shards", "0"], "--shards must be >= 1"),
        (["--shards", "3"], "error: 3 shards do not evenly divide 4 pods"),
        (["--set", "k=5"], "error: FatTree arity k must be even"),
        (["--set", "k=abc"], "error: "),
    ])
    def test_a_shape_the_scenario_rejects_is_one_error_line(
        self, capsys, argv, message
    ) -> None:
        assert cli.main(["shard", "fattree", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no worker was forked, nothing ran
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_shard_listed_in_catalogue(self, capsys) -> None:
        assert cli.main(["list"]) == 0
        assert "shard" in capsys.readouterr().out
