"""Crash robustness: a dead worker must fail the run loudly, not hang it.

``run_sharded`` exposes fault-injection hooks (`_fail_shard` /
`_fail_window`) that make the chosen worker ``os._exit(1)`` mid-window,
exactly as if it had been OOM-killed.  The driver must detect the dead
process via its sentinel and raise :class:`ShardFailedError` carrying the
shard id and the start timestamp of the window in flight.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.harness import shard
from repro.harness.shard import ShardFailedError, run_sharded

FATTREE_KW = {"flow_size_bytes": 60_000}


class TestWorkerCrash:
    def test_crash_mid_window_raises_with_context(self) -> None:
        with pytest.raises(ShardFailedError) as excinfo:
            run_sharded(
                "fattree", 2, seed=1, scenario_kwargs=FATTREE_KW,
                _fail_shard=0, _fail_window=2,
            )
        error = excinfo.value
        assert error.shard_id == 0
        # window 2 starts two lookaheads into the run
        assert error.window_start_ps > 0
        assert "shard 0" in str(error)
        assert "window starting at" in str(error)

    def test_crash_in_other_shard_attributes_correctly(self) -> None:
        with pytest.raises(ShardFailedError) as excinfo:
            run_sharded(
                "fattree", 2, seed=1, scenario_kwargs=FATTREE_KW,
                _fail_shard=1, _fail_window=1,
            )
        assert excinfo.value.shard_id == 1

    def test_crash_during_first_window(self) -> None:
        with pytest.raises(ShardFailedError) as excinfo:
            run_sharded(
                "fattree", 2, seed=1, scenario_kwargs=FATTREE_KW,
                _fail_shard=0, _fail_window=0,
            )
        assert excinfo.value.shard_id == 0

    def test_healthy_run_after_crashed_run(self) -> None:
        """A crashed run leaves no stuck children; the next run is clean."""
        with pytest.raises(ShardFailedError):
            run_sharded(
                "fattree", 2, seed=1, scenario_kwargs=FATTREE_KW,
                _fail_shard=0, _fail_window=1,
            )
        result = run_sharded("fattree", 2, seed=1, scenario_kwargs=FATTREE_KW)
        assert result.completed_flows == result.total_flows

    def test_sentinel_only_wakeup_of_a_dead_worker_is_a_shard_failure(
        self, monkeypatch
    ) -> None:
        """``wait`` may report only the sentinel of a worker that died.

        Its closed pipe end then polls readable and ``recv`` raises
        ``EOFError``; that must surface as :class:`ShardFailedError`, like
        the same error on the pipe-ready branch (it used to escape raw,
        failing a crash test once in a loaded tier-1 run).
        """
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        worker = context.Process(target=os._exit, args=(1,))
        worker.start()
        child_conn.close()
        worker.join(timeout=30)
        assert not worker.is_alive()
        monkeypatch.setattr(
            shard, "_connection_wait", lambda _waitables, _timeout: [worker.sentinel]
        )
        try:
            with pytest.raises(ShardFailedError) as excinfo:
                shard._recv_checked(parent_conn, worker.sentinel, 1, 12_345, 1.0)
        finally:
            parent_conn.close()
        assert excinfo.value.shard_id == 1
        assert excinfo.value.window_start_ps == 12_345
        assert "worker process died" in str(excinfo.value)
