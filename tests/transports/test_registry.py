"""Tests for the transport registry: lookup, capabilities, bake-off matrix."""

from __future__ import annotations

import pytest

from repro.core.config import NdpConfig
from repro.harness import figures
from repro.harness.baseline_networks import DcqcnNetwork
from repro.sim import units
from repro.sim.eventlist import EventList
from repro.topology.simple import SingleSwitchTopology
from repro.transports import registry
from repro.transports.capabilities import CapabilityError, FamilyTraits


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
        assert [(spec.name, spec.display) for spec in registry.specs()] == [
            ("ndp", registry.NDP), ("tcp", registry.TCP), ("dctcp", registry.DCTCP),
            ("mptcp", registry.MPTCP), ("dcqcn", registry.DCQCN), ("phost", registry.PHOST),
        ]
        assert registry.NDP_NO_PATH_PENALTY in [
            spec.display for spec in registry.specs(include_variants=True)
        ]

    def test_capabilities_match_the_protocols(self):
        trimming = [s.name for s in registry.specs() if s.capabilities.supports_trimming]
        lossless = [s.name for s in registry.specs() if s.capabilities.needs_lossless_fabric]
        assert (trimming, lossless) == (["ndp"], ["dcqcn"])

    def test_variant_carries_its_config_factory(self):
        spec = registry.resolve("ndp_nopenalty")
        assert spec.variant_of == "ndp"
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
        "name", [spec.name for spec in registry.specs(include_variants=True)]
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
            DcqcnNetwork(topology)

    def test_dcqcn_via_registry_gets_a_lossless_fabric(self):
        eventlist = EventList()
        network = registry.build_network("dcqcn", eventlist, SingleSwitchTopology, hosts=4)
        assert network.topology.total_dropped() == 0

    def test_link_severing_families_reject_dcqcn(self):
        traits = FamilyTraits(family="failures_klinks", severs_links=True)
        reason = registry.resolve("dcqcn").incompatibility(traits)
        assert reason is not None and "PFC" in reason
        with pytest.raises(registry.IncompatibleTransportError) as excinfo:
            registry.require_compatible("dcqcn", traits)
        assert excinfo.value.protocol == registry.DCQCN
        assert excinfo.value.family == "failures_klinks"

    def test_rate_mutation_does_not_reject_dcqcn(self):
        traits = FamilyTraits(family="failures_degraded")
        assert registry.resolve("dcqcn").incompatibility(traits) is None

    def test_every_other_transport_is_compatible_everywhere(self):
        traits = FamilyTraits(family="failures_recovery", severs_links=True)
        for spec in registry.specs(include_variants=True):
            if spec.capabilities.needs_lossless_fabric:
                continue
            assert spec.incompatibility(traits) is None


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
