"""Round-trip and corruption property tests for the JSONL trace format.

The contract: synthesize -> write -> read gives bit-identical request
records and trace digest; replaying the read-back specs through the engine
reproduces identical per-request latencies; and every untrustworthy input
(corrupt, truncated, unknown schema or version) raises a clear ValueError
rather than half-loading.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.harness.ndp_network import NdpNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology
from repro.workloads.services import (
    PartitionAggregateTemplate,
    ServiceEngine,
    ServiceRequestSpec,
    TaskSpec,
    synthesize_requests,
)
from repro.workloads.trace import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    read_trace,
    trace_digest,
    write_trace,
)

MS = units.milliseconds(1)


def _specs(seed: int = 11, deadline_ps=2 * MS):
    return synthesize_requests(
        list(range(10)),
        [PartitionAggregateTemplate(4, 2_000, 30_000)],
        target_load=0.2,
        link_rate_bps=units.DEFAULT_LINK_RATE_BPS,
        warmup_ps=units.microseconds(100),
        measure_ps=units.microseconds(400),
        drain_ps=units.microseconds(200),
        rng=random.Random(seed),
        deadline_ps=deadline_ps,
    )


def _execute(specs):
    """Run specs on a fresh identically-seeded network; return the engine."""
    eventlist = EventList()
    network = NdpNetwork(SingleSwitchTopology(eventlist, hosts=10), seed=1)
    engine = ServiceEngine(eventlist, network)
    engine.submit_all(specs)
    engine.run_until(10 * MS)
    return engine


class TestRoundTrip:
    def test_write_read_is_bit_identical(self, tmp_path):
        specs = _specs()
        path = str(tmp_path / "workload.trace")
        written_digest = write_trace(path, specs, meta={"seed": 11, "load": 0.2})

        trace = read_trace(path)
        assert trace.requests == specs
        assert trace.sha256 == written_digest == trace_digest(specs)
        assert trace.meta == {"seed": 11, "load": 0.2}

        # writing the read-back specs again produces the identical file
        second = str(tmp_path / "again.trace")
        write_trace(second, trace.requests, meta=trace.meta)
        assert open(path).read() == open(second).read()

    def test_replay_reproduces_identical_latencies(self, tmp_path):
        specs = _specs()
        path = str(tmp_path / "workload.trace")
        write_trace(path, specs)

        recorded = _execute(specs)
        replayed = _execute(read_trace(path).requests)

        assert recorded.request_digest() == replayed.request_digest()
        assert [run.latency_ps for run in recorded.requests] == [
            run.latency_ps for run in replayed.requests
        ]
        assert any(run.completed for run in recorded.requests)

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.trace")
        digest = write_trace(path, [])
        trace = read_trace(path)
        assert trace.requests == [] and trace.sha256 == digest

    def test_single_request_round_trips(self, tmp_path):
        spec = ServiceRequestSpec(
            0, "solo", arrival_ps=5, stages=((TaskSpec(0, 1, 9_000),),)
        )
        path = str(tmp_path / "one.trace")
        write_trace(path, [spec])
        assert read_trace(path).requests == [spec]

    def test_digest_ignores_file_provenance(self):
        """The digest is a property of the specs, not of any file."""
        assert trace_digest(_specs(11)) == trace_digest(_specs(11))
        assert trace_digest(_specs(11)) != trace_digest(_specs(12))


class TestRejection:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = str(tmp_path / "workload.trace")
        write_trace(path, _specs(), meta={"seed": 11})
        return path

    def test_empty_file(self, tmp_path):
        path = tmp_path / "void.trace"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            read_trace(str(path))

    def test_unknown_schema(self, tmp_path):
        path = tmp_path / "foreign.trace"
        path.write_text(json.dumps({"schema": "something-else", "version": 1}) + "\n")
        with pytest.raises(ValueError, match="not a service trace"):
            read_trace(str(path))

    def test_missing_schema(self, tmp_path):
        path = tmp_path / "headerless.trace"
        path.write_text(json.dumps({"rows": 3}) + "\n")
        with pytest.raises(ValueError, match="no schema header"):
            read_trace(str(path))

    def test_unknown_version(self, trace_path):
        lines = open(trace_path).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = TRACE_VERSION + 1
        lines[0] = json.dumps(header)
        open(trace_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unsupported trace version"):
            read_trace(trace_path)

    def test_truncated_no_footer(self, trace_path):
        lines = open(trace_path).read().splitlines()
        open(trace_path, "w").write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated trace"):
            read_trace(trace_path)

    def test_truncated_missing_request(self, trace_path):
        lines = open(trace_path).read().splitlines()
        del lines[1]  # drop the first request record, keep the footer
        open(trace_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="truncated trace"):
            read_trace(trace_path)

    def test_corrupt_value_fails_the_digest(self, trace_path):
        lines = open(trace_path).read().splitlines()
        record = json.loads(lines[1])
        record["arrival_ps"] += 1
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        open(trace_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            read_trace(trace_path)

    def test_malformed_json_record(self, trace_path):
        lines = open(trace_path).read().splitlines()
        lines[1] = lines[1][:-5]  # break the JSON mid-token
        open(trace_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed trace"):
            read_trace(trace_path)

    def test_invalid_record_content(self, trace_path):
        lines = open(trace_path).read().splitlines()
        record = json.loads(lines[1])
        record["stages"][0][0][2] = 0  # a zero-byte task is never valid
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        open(trace_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed trace record"):
            read_trace(trace_path)
