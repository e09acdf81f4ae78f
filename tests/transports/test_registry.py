"""Tests for the transport registry: the table, lookup, compatibility, bake-off matrix."""

from __future__ import annotations

import pytest

from repro.core.config import NdpConfig
from repro.harness import figures
from repro.harness.baseline_networks import CapabilityError, DcqcnNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology
from repro.transports import registry
from repro.transports.dcqcn import DcqcnConfig


def _tiny_transfer_digest(spec: registry.TransportSpec, seed: int = 5):
    """Run one 45 kB transfer on a 4-host switch; return a behaviour digest."""
    eventlist = EventList()
    network = spec.build(eventlist, SingleSwitchTopology, seed=seed, hosts=4)
    flow = network.create_flow(1, 0, 45_000)
    eventlist.run(until=units.milliseconds(50))
    assert flow.complete, f"{spec.display} did not finish the tiny transfer"
    return (
        flow.record.bytes_delivered,
        flow.record.completion_time_ps(),
        network.topology.total_trimmed(),
        network.topology.total_dropped(),
    )


class TestRegistryContents:
    def test_builtin_transports_registered(self):
        assert [(spec.name, spec.display) for spec in registry.TRANSPORTS] == [
            ("ndp", registry.NDP), ("tcp", registry.TCP), ("dctcp", registry.DCTCP),
            ("mptcp", registry.MPTCP), ("dcqcn", registry.DCQCN), ("phost", registry.PHOST),
        ]
        assert registry.ALL_TRANSPORTS[len(registry.TRANSPORTS):] == (
            registry.resolve(registry.NDP_NO_PATH_PENALTY),
        )

    def test_capabilities_match_the_protocols(self):
        lossless = [s.name for s in registry.ALL_TRANSPORTS if s.needs_lossless_fabric]
        assert lossless == ["dcqcn"]

    def test_every_spec_resolves_by_id_and_display_and_no_key_is_shared(self):
        keys = []
        for spec in registry.ALL_TRANSPORTS:
            own = {spec.name.lower(), spec.display.lower()}
            keys.extend(own)
            for key in own:
                for spelling in (key, key.upper(), f"  {key.title()}\t"):
                    assert registry.resolve(spelling) is spec, (spelling, spec.name)
        assert len(keys) == len(set(keys)) == len(registry.BY_NAME)

    def test_variant_carries_its_config_factory(self):
        spec = registry.resolve("ndp_nopenalty")
        assert spec.network_cls is registry.resolve("ndp").network_cls
        assert spec.default_config().path_penalty is False
        # primaries have no factory: the network class's own default config
        assert registry.resolve("ndp").default_config() == NdpConfig()


class TestLookup:
    def test_case_insensitive_by_id_and_display(self):
        assert registry.resolve("DcQcN").display == registry.DCQCN
        assert registry.resolve("PHOST").display == registry.PHOST
        assert registry.resolve("pHost").display == registry.PHOST
        assert registry.resolve("  ndp  ").display == registry.NDP
        assert registry.resolve("ndp (NO path penalty)").display == (
            registry.NDP_NO_PATH_PENALTY
        )

    def test_normalize_maps_to_display_names(self):
        assert registry.normalize(["ndp", "Tcp", "DCTCP"]) == [
            registry.NDP, registry.TCP, registry.DCTCP,
        ]

    def test_unknown_name_lists_registered_transports(self):
        with pytest.raises(ValueError, match="registered transports"):
            registry.resolve("carrier-pigeon")
        with pytest.raises(registry.UnknownTransportError) as excinfo:
            registry.resolve("carrier-pigeon")
        message = str(excinfo.value)
        for name in ("ndp", "DCQCN", "pHost"):
            assert name in message

    def test_non_string_names_raise_the_same_error(self):
        with pytest.raises(registry.UnknownTransportError):
            registry.resolve(None)


class TestEveryTransportRuns:
    @pytest.mark.parametrize(
        "name", [spec.name for spec in registry.ALL_TRANSPORTS]
    )
    def test_tiny_transfer_completes_with_stable_digest(self, name):
        spec = registry.resolve(name)
        first = _tiny_transfer_digest(spec)
        second = _tiny_transfer_digest(spec)
        assert first == second
        assert first[0] == 45_000


class TestCapabilityValidation:
    def test_dcqcn_without_pfc_fabric_raises(self):
        eventlist = EventList()
        topology = SingleSwitchTopology(eventlist, hosts=4)
        with pytest.raises(CapabilityError, match="lossless"):
            DcqcnNetwork(topology, DcqcnConfig())

    def test_dcqcn_via_registry_gets_a_lossless_fabric(self):
        eventlist = EventList()
        network = registry.build_network("dcqcn", eventlist, SingleSwitchTopology, hosts=4)
        assert network.topology.total_dropped() == 0

    def test_link_severing_families_reject_dcqcn(self):
        with pytest.raises(registry.IncompatibleTransportError) as excinfo:
            registry.require_compatible("dcqcn", "failures_klinks", severs_links=True)
        assert "PFC" in excinfo.value.reason
        assert excinfo.value.protocol == registry.DCQCN
        assert excinfo.value.family == "failures_klinks"

    def test_rate_mutation_does_not_reject_dcqcn(self):
        spec = registry.require_compatible("dcqcn", "failures_degraded")
        assert spec.display == registry.DCQCN

    def test_every_other_transport_is_compatible_everywhere(self):
        for spec in registry.ALL_TRANSPORTS:
            if spec.needs_lossless_fabric:
                continue
            assert registry.require_compatible(
                spec.name, "failures_recovery", severs_links=True
            ) is spec


class TestGridExpansion:
    def test_plan_builders_resolve_names_case_insensitively(self):
        plan = figures.figure14_plan(protocols=["ndp", "Tcp"])
        assert [spec.experiment for spec in plan.specs] == ["fig14[NDP]", "fig14[TCP]"]

    def test_incompatible_point_raises_skippable_error(self):
        with pytest.raises(registry.IncompatibleTransportError):
            figures.failures_klinks_plan(protocol="dcqcn")

    def test_skip_decision_is_deterministic(self):
        messages = set()
        for _ in range(3):
            with pytest.raises(registry.IncompatibleTransportError) as excinfo:
                figures.failures_recovery_plan(protocol="DCQCN")
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_unknown_protocol_in_plan_lists_registered(self):
        with pytest.raises(ValueError, match="registered transports"):
            figures.load_fct_plan(protocols=["NDP", "CARRIER-PIGEON"])
