"""The transport registry: every protocol the harness can run, by name.

This module is the single place where a protocol *name* is bound to the
machinery that runs it — the :class:`~repro.harness.network.Network`
subclass (whose ``CONFIG_CLS`` the spec reads), what the transport needs
from the fabric, and an optional config factory for named variants (e.g.
NDP with the path penalty disabled).  Everything above this layer —
``harness/figures.py`` plan builders, the sweep CLI, the examples, the perf
benchmarks — resolves protocols through :func:`resolve` /
:func:`build_network` instead of keeping
private ``{"NDP": NdpNetwork, ...}`` dicts, which is what lets any
experiment family accept ``--set protocol=ndp,dctcp,dcqcn,phost,mptcp,tcp``.

Name handling:

* lookups are case-insensitive and accept either the short id (``ndp``) or
  the display name (``NDP``, ``pHost``, ``NDP (no path penalty)``);
* unknown names raise :class:`UnknownTransportError` (a ``ValueError``)
  listing every registered name;
* the canonical display names are exported as module constants (``NDP``,
  ``TCP``, ``DCTCP``, ``MPTCP``, ``DCQCN``, ``PHOST``,
  ``NDP_NO_PATH_PENALTY``) so no other module needs a protocol-name string
  literal — ``tools/check_transports.py`` enforces exactly that.

Compatibility: a grid point is skippable, not crashable.  Families describe
what they do to the fabric with a
:class:`~repro.transports.capabilities.FamilyTraits`; plan builders call
:func:`require_compatible` per requested protocol, and the sweep CLI turns
the resulting :class:`IncompatibleTransportError` into a deterministic
"skipped: <reason>" report for that grid point.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.transports.capabilities import (
    CapabilityError,
    FamilyTraits,
    TransportCapabilities,
)

if TYPE_CHECKING:  # annotations only: importing the registry loads no network class
    from repro.harness.network import Network

__all__ = [
    "TransportSpec",
    "UnknownTransportError",
    "IncompatibleTransportError",
    "CapabilityError",
    "FamilyTraits",
    "TransportCapabilities",
    "register",
    "resolve",
    "normalize",
    "build_network",
    "specs",
    "registered_names",
    "protocol_literals",
    "require_compatible",
    "NDP",
    "TCP",
    "DCTCP",
    "MPTCP",
    "DCQCN",
    "PHOST",
    "NDP_NO_PATH_PENALTY",
]


class UnknownTransportError(ValueError):
    """A protocol name that no registered transport answers to."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown transport {name!r}; registered transports: "
            f"{', '.join(registered_names())}"
        )
        self.name = name


class IncompatibleTransportError(ValueError):
    """A (protocol, family) grid point that must be skipped, with the reason."""

    def __init__(self, protocol: str, traits: FamilyTraits, reason: str) -> None:
        super().__init__(
            f"{protocol} is incompatible with the {traits.family} family: {reason}"
        )
        self.protocol = protocol
        self.family = traits.family
        self.reason = reason


class _NetworkClass:
    """The ``network_cls`` field of :class:`TransportSpec`: set to a class or
    to its ``"module:Class"`` path, it always reads as the class — a path is
    imported on the first read, which is what keeps the registry (and every
    name lookup, ``normalize`` and plan build on top of it) free of the
    simulator until a transport's class is actually needed."""

    def __get__(self, spec: Optional["TransportSpec"], owner: Optional[type] = None):
        if spec is None:
            raise AttributeError("network_cls has no default")  # a required field
        value = spec.__dict__["_network_cls"]
        if isinstance(value, str):
            module, _, name = value.partition(":")
            value = getattr(importlib.import_module(module), name)
            spec.__dict__["_network_cls"] = value
        return value

    def __set__(self, spec: "TransportSpec", value) -> None:
        spec.__dict__["_network_cls"] = value


@dataclass(frozen=True)
class TransportSpec:
    """One registered transport: name, network class, variant config."""

    #: short id used on the command line (``ndp``, ``dcqcn``, ...)
    name: str
    #: canonical display name used in plan labels and result tables
    display: str
    #: the :class:`~repro.harness.network.Network` subclass that runs it,
    #: given as the class or as its ``"module:Class"`` path (see above)
    network_cls: Type[Network] = _NetworkClass()
    #: what the transport needs from — and does to — the fabric.  Declared
    #: here and nowhere else, so that asking (``require_compatible`` under a
    #: link-severing family) imports no network class
    capabilities: TransportCapabilities = TransportCapabilities()
    #: builds the default config for named variants; ``None`` means the
    #: network class's own ``CONFIG_CLS()``
    config_factory: Optional[Callable[[], object]] = None
    #: short id of the primary transport this is a variant of, if any
    variant_of: Optional[str] = None

    def default_config(self) -> object:
        """The config this spec runs with when the caller passes none."""
        return (self.config_factory or self.network_cls.CONFIG_CLS)()

    def incompatibility(self, traits: FamilyTraits) -> Optional[str]:
        """Why this transport cannot run under *traits*, or ``None`` if it can."""
        if traits.severs_links and self.capabilities.needs_lossless_fabric:
            return (
                f"{self.display} requires a lossless (PFC) fabric, and severing "
                f"links invalidates the PFC pause graph — upstream queues paused "
                f"across the cut would wedge, mis-simulating the protocol"
            )
        return None

    def build(self, eventlist, topology_cls, config: Optional[object] = None, **build_kwargs):
        """``network_cls.build`` with the spec's default config (``seed=``,
        ``buffer_packets=`` and the topology's keywords pass through)."""
        if config is None:
            config = self.default_config()
        return self.network_cls.build(eventlist, topology_cls, config=config, **build_kwargs)


_REGISTRY: Dict[str, TransportSpec] = {}  # lookup key (lowercased) -> spec
_ORDER: List[TransportSpec] = []  # registration order, primaries and variants


def _lookup_keys(spec: TransportSpec) -> Tuple[str, ...]:
    keys = {spec.name.strip().lower(), spec.display.strip().lower()}
    return tuple(sorted(keys))


def register(spec: TransportSpec) -> TransportSpec:
    """Add *spec* to the registry; both its id and display name resolve to it."""
    for key in _lookup_keys(spec):
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not spec:
            raise ValueError(
                f"transport name {key!r} already registered by {existing.name!r}"
            )
    if spec.variant_of is not None and spec.variant_of.strip().lower() not in _REGISTRY:
        raise ValueError(
            f"{spec.name!r} declares variant_of={spec.variant_of!r} "
            f"which is not registered"
        )
    for key in _lookup_keys(spec):
        _REGISTRY[key] = spec
    _ORDER.append(spec)
    return spec


def resolve(name: str) -> TransportSpec:
    """Look up a transport by id or display name, case-insensitively."""
    if not isinstance(name, str):
        raise UnknownTransportError(name)
    spec = _REGISTRY.get(name.strip().lower())
    if spec is None:
        raise UnknownTransportError(name)
    return spec


def normalize(protocols: Iterable[str]) -> List[str]:
    """Map protocol names (any case, id or display) to canonical display names."""
    return [resolve(name).display for name in protocols]


def build_network(name: str, eventlist, topology_cls, **build_kwargs):
    """Resolve *name* and build its network over *topology_cls* (:meth:`TransportSpec.build`)."""
    return resolve(name).build(eventlist, topology_cls, **build_kwargs)


def specs(include_variants: bool = False) -> List[TransportSpec]:
    """Registered transports in registration order."""
    return [s for s in _ORDER if include_variants or s.variant_of is None]


def registered_names() -> List[str]:
    """Every name a lookup accepts (ids and displays), for error messages."""
    out: List[str] = []
    for spec in _ORDER:
        for candidate in (spec.name, spec.display):
            if candidate not in out:
                out.append(candidate)
    return out


def protocol_literals() -> List[str]:
    """Lowercased name set for the literal lint (``tools/check_transports.py``)."""
    return sorted({key for spec in _ORDER for key in _lookup_keys(spec)})


def require_compatible(name: str, traits: FamilyTraits) -> TransportSpec:
    """Resolve *name* and raise :class:`IncompatibleTransportError` if unfit."""
    spec = resolve(name)
    reason = spec.incompatibility(traits)
    if reason is not None:
        raise IncompatibleTransportError(spec.display, traits, reason)
    return spec


# --- built-in transports ---------------------------------------------------------
#
# This block is the one sanctioned home of protocol-name string literals
# (see tools/check_transports.py).  Everything else imports the constants.

NDP = "NDP"
TCP = "TCP"
DCTCP = "DCTCP"
MPTCP = "MPTCP"
DCQCN = "DCQCN"
PHOST = "pHost"
NDP_NO_PATH_PENALTY = "NDP (no path penalty)"


def _ndp_without_path_penalty():
    from repro.core.config import NdpConfig

    return NdpConfig(path_penalty=False)


def _register_builtins() -> None:
    ndp = "repro.harness.ndp_network:NdpNetwork"
    ndp_capabilities = TransportCapabilities(supports_trimming=True)
    baselines = "repro.harness.baseline_networks"
    register(TransportSpec(
        name="ndp",
        display=NDP,
        network_cls=ndp,
        capabilities=ndp_capabilities,
    ))
    register(TransportSpec(
        name="tcp",
        display=TCP,
        network_cls=f"{baselines}:TcpNetwork",
    ))
    register(TransportSpec(
        name="dctcp",
        display=DCTCP,
        network_cls=f"{baselines}:DctcpNetwork",
    ))
    register(TransportSpec(
        name="mptcp",
        display=MPTCP,
        network_cls=f"{baselines}:MptcpNetwork",
    ))
    register(TransportSpec(
        name="dcqcn",
        display=DCQCN,
        network_cls=f"{baselines}:DcqcnNetwork",
        capabilities=TransportCapabilities(needs_lossless_fabric=True),
    ))
    register(TransportSpec(
        name="phost",
        display=PHOST,
        network_cls=f"{baselines}:PHostNetwork",
    ))
    register(TransportSpec(
        name="ndp_nopenalty",
        display=NDP_NO_PATH_PENALTY,
        network_cls=ndp,
        capabilities=ndp_capabilities,
        config_factory=_ndp_without_path_penalty,
        variant_of="ndp",
    ))


_register_builtins()
