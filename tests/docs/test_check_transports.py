"""Transport conformance: names live in the registry, wiring in ``Network``,
the flow lifecycle in ``FlowSource`` / ``FlowSink``.

Thin pytest wrapper around ``tools/check_transports.py`` (which CI also
runs directly) so a stray ``"DCQCN"`` literal outside the transport
registry, a network class that re-forks ``create_flow`` / ``build`` or an
endpoint that re-forks ``start`` / ``_finish`` fails the tier-1 suite,
mirroring ``test_docs.py``.
"""

from __future__ import annotations

import importlib.util
import os

_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
    "check_transports.py",
)
_spec = importlib.util.spec_from_file_location("check_transports", _TOOL)
check_transports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_transports)


def test_no_protocol_literals_outside_the_registry():
    from repro.transports import registry

    literals = set(registry.BY_NAME)
    problems = []
    for path in check_transports.python_files():
        problems.extend(check_transports.check_file(path, literals))
    assert problems == []


def test_lint_skips_tests_and_the_registry_itself():
    assert check_transports._is_test_file(os.path.join("tests", "x.py"))
    assert check_transports._is_test_file("test_whatever.py")
    assert not check_transports._is_test_file(os.path.join("src", "repro", "cli.py"))


def test_lint_flags_a_literal_and_honours_the_pragma(tmp_path):
    offender = tmp_path / "offender.py"
    offender.write_text('PROTOCOL = "DCQCN"\nOK = "DCQCN"  # transport-name-ok\n')
    problems = check_transports.check_file(str(offender), {"dcqcn"})
    assert len(problems) == 1
    assert "DCQCN" in problems[0]


def test_lint_flags_a_network_class_that_reforks_the_shared_wiring():
    from repro.harness.baseline_networks import TcpNetwork
    from repro.transports import registry

    assert check_transports.check_network_classes(registry.ALL_TRANSPORTS) == []

    class Forked(TcpNetwork):
        def create_flow(self, *args, **kwargs):
            return super().create_flow(*args, **kwargs)

    class Grandchild(Forked):
        @classmethod
        def build(cls, *args, **kwargs):
            return super().build(*args, **kwargs)

    def spec(cls):
        return registry.TransportSpec(name="forked", display="Forked", network=cls)

    # a class named by its "module:Class" path (how the table names the built-ins)
    # is checked as the class it imports to
    by_path = spec(f"{TcpNetwork.__module__}:{TcpNetwork.__name__}")
    assert by_path.network_cls is TcpNetwork
    assert check_transports.check_network_classes([by_path]) == []
    assert len(check_transports.check_network_classes([spec(Forked)])) == 1
    problems = check_transports.check_network_classes([spec(Grandchild), spec(object)])
    assert len(problems) == 3
    assert "Forked.create_flow" in problems[0] and "Grandchild.build" in problems[1]
    assert "not a Network subclass" in problems[2]


def test_lint_flags_an_endpoint_that_reforks_the_flow_lifecycle():
    from repro.harness.baseline_networks import TcpNetwork
    from repro.sim.logger import FlowRecord
    from repro.sim.network import NetworkEndpoint
    from repro.transports import registry
    from repro.transports.tcp import TcpSink, TcpSrc

    assert check_transports.check_endpoint_classes(registry.ALL_TRANSPORTS) == []

    class ForkedSrc(TcpSrc):
        def start(self, at_time_ps=None):
            super().start(at_time_ps)

    class LooseSink(NetworkEndpoint):
        """Quacks enough to be wired, but keeps its own idea of a flow."""

        def __init__(self, eventlist, flow_id, node_id, reverse_route, config, on_complete):
            super().__init__(eventlist, node_id, "loose-sink")
            self.record = FlowRecord(flow_id, -1, node_id, 0)

        def expect(self, src_node_id, flow_size_bytes, total_packets):
            pass

        @property
        def complete(self):
            return False

        def remaining_packets(self):
            return 0

        def receive_packet(self, packet):
            pass

    class ForkedNetwork(TcpNetwork):
        SRC_CLS = ForkedSrc
        SINK_CLS = LooseSink

    spec = registry.TransportSpec(name="forked", display="Forked", network=ForkedNetwork)
    problems = check_transports.check_endpoint_classes([spec])
    assert len(problems) == 2
    assert "ForkedSrc.start overrides FlowSource.start" in problems[0]
    assert "LooseSink is not a FlowSink" in problems[1]

    class SecondRuleSink(TcpSink):
        """A sink with its own completion rule beside the one FlowSink states."""

        @property
        def complete(self):
            return len(self._received) >= self._expected_packets

        def remaining_packets(self):
            return max(self._expected_packets - len(self._received), 0)

    class SecondRuleNetwork(TcpNetwork):
        SINK_CLS = SecondRuleSink

    spec = registry.TransportSpec(name="second", display="Second", network=SecondRuleNetwork)
    problems = check_transports.check_endpoint_classes([spec])
    assert len(problems) == 2
    assert "SecondRuleSink.complete overrides FlowSink.complete" in problems[0]
    assert "SecondRuleSink.remaining_packets overrides FlowSink.remaining_packets" in problems[1]
