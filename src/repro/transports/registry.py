"""The transport registry: every protocol the harness can run, by name.

This module is the single place where a protocol *name* is bound to the
machinery that runs it — the :class:`~repro.harness.network.Network`
subclass (whose ``CONFIG_CLS`` the spec reads), whether the transport needs
a lossless fabric, and an optional config factory for named variants (e.g.
NDP with the path penalty disabled).  The binding is one literal table,
:data:`TRANSPORTS` (plus its variant in :data:`ALL_TRANSPORTS`).  Everything
above this layer — ``harness/figures.py`` plan builders, the sweep CLI, the
examples, the perf benchmarks — resolves protocols through :func:`resolve` /
:func:`build_network` instead of keeping private ``{"NDP": NdpNetwork, ...}``
dicts, which is what lets any experiment family accept
``--set protocol=ndp,dctcp,dcqcn,phost,mptcp,tcp``.

Name handling:

* lookups are case-insensitive and accept either the short id (``ndp``) or
  the display name (``NDP``, ``pHost``, ``NDP (no path penalty)``);
* unknown names raise :class:`UnknownTransportError` (a ``ValueError``)
  listing every registered name;
* the canonical display names are exported as module constants (``NDP``,
  ``TCP``, ``DCTCP``, ``MPTCP``, ``DCQCN``, ``PHOST``,
  ``NDP_NO_PATH_PENALTY``) so no other module needs a protocol-name string
  literal — ``tools/check_transports.py`` enforces exactly that.

Compatibility: a grid point is skippable, not crashable.  Plan builders call
:func:`require_compatible` per requested protocol, saying whether their
family severs links; the sweep CLI turns the resulting
:class:`IncompatibleTransportError` into a deterministic "skipped: <reason>"
report for that grid point.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Type, Union

if TYPE_CHECKING:  # annotations only: importing the registry loads no network class
    from repro.harness.network import Network

NDP = "NDP"
TCP = "TCP"
DCTCP = "DCTCP"
MPTCP = "MPTCP"
DCQCN = "DCQCN"
PHOST = "pHost"
NDP_NO_PATH_PENALTY = "NDP (no path penalty)"


class UnknownTransportError(ValueError):
    """A protocol name that no registered transport answers to."""

    def __init__(self, name: str) -> None:
        names = (n for spec in ALL_TRANSPORTS for n in (spec.name, spec.display))
        super().__init__(
            f"unknown transport {name!r}; registered transports: {', '.join(names)}"
        )
        self.name = name


class IncompatibleTransportError(ValueError):
    """A (protocol, family) grid point that must be skipped, with the reason."""

    def __init__(self, protocol: str, family: str, reason: str) -> None:
        super().__init__(f"{protocol} is incompatible with the {family} family: {reason}")
        self.protocol = protocol
        self.family = family
        self.reason = reason


@dataclass(frozen=True)
class TransportSpec:
    """One registered transport: name, network class, variant config."""

    #: short id used on the command line (``ndp``, ``dcqcn``, ...)
    name: str
    #: canonical display name used in plan labels and result tables
    display: str
    #: the :class:`~repro.harness.network.Network` subclass that runs it, as
    #: its ``"module:Class"`` path (imported when read) or as the class
    network: Union[str, Type[Network]]
    #: the protocol assumes no packet is ever dropped (PFC pause wiring), so a
    #: family that severs links — invalidating the pause graph — cannot run it
    needs_lossless_fabric: bool = False
    #: builds the default config for named variants; ``None`` means the
    #: network class's own ``CONFIG_CLS()``
    config_factory: Optional[Callable[[], object]] = None

    @property
    def network_cls(self) -> Type[Network]:
        if not isinstance(self.network, str):
            return self.network
        module, _, name = self.network.partition(":")
        return getattr(importlib.import_module(module), name)

    def default_config(self) -> object:
        """The config this spec runs with when the caller passes none."""
        return (self.config_factory or self.network_cls.CONFIG_CLS)()

    def build(self, eventlist, topology_cls, config: Optional[object] = None, **build_kwargs):
        """``network_cls.build`` with the spec's default config (``seed=``,
        ``buffer_packets=`` and the topology's keywords pass through)."""
        if config is None:
            config = self.default_config()
        return self.network_cls.build(eventlist, topology_cls, config=config, **build_kwargs)


def _ndp_without_path_penalty():
    from repro.core.config import NdpConfig

    return NdpConfig(path_penalty=False)


_BASELINES = "repro.harness.baseline_networks"

#: the six primary transports, in the order the bake-off matrix chains them
TRANSPORTS = (
    TransportSpec("ndp", NDP, "repro.harness.ndp_network:NdpNetwork"),
    TransportSpec("tcp", TCP, f"{_BASELINES}:TcpNetwork"),
    TransportSpec("dctcp", DCTCP, f"{_BASELINES}:DctcpNetwork"),
    TransportSpec("mptcp", MPTCP, f"{_BASELINES}:MptcpNetwork"),
    TransportSpec("dcqcn", DCQCN, f"{_BASELINES}:DcqcnNetwork", needs_lossless_fabric=True),
    TransportSpec("phost", PHOST, f"{_BASELINES}:PHostNetwork"),
)
#: the primaries plus the named variants
ALL_TRANSPORTS = TRANSPORTS + (
    TransportSpec(
        "ndp_nopenalty", NDP_NO_PATH_PENALTY, "repro.harness.ndp_network:NdpNetwork",
        config_factory=_ndp_without_path_penalty,
    ),
)
#: lowercased id and display name -> spec
BY_NAME: Dict[str, TransportSpec] = {
    key.lower(): spec for spec in ALL_TRANSPORTS for key in (spec.name, spec.display)
}


def resolve(name: str) -> TransportSpec:
    """Look up a transport by id or display name, case-insensitively."""
    spec = BY_NAME.get(name.strip().lower()) if isinstance(name, str) else None
    if spec is None:
        raise UnknownTransportError(name)
    return spec


def normalize(protocols: Iterable[str]) -> List[str]:
    """Map protocol names (any case, id or display) to canonical display names."""
    return [resolve(name).display for name in protocols]


def build_network(name: str, eventlist, topology_cls, **build_kwargs):
    """Resolve *name* and build its network over *topology_cls* (:meth:`TransportSpec.build`)."""
    return resolve(name).build(eventlist, topology_cls, **build_kwargs)


def require_compatible(name: str, family: str, severs_links: bool = False) -> TransportSpec:
    """Resolve *name*; raise :class:`IncompatibleTransportError` if *family*
    cannot run it.  Severing links invalidates a lossless fabric's PFC pause
    graph; renegotiating link *rates* leaves it valid."""
    spec = resolve(name)
    if severs_links and spec.needs_lossless_fabric:
        raise IncompatibleTransportError(
            spec.display, family,
            f"{spec.display} requires a lossless (PFC) fabric, and severing "
            f"links invalidates the PFC pause graph — upstream queues paused "
            f"across the cut would wedge, mis-simulating the protocol",
        )
    return spec
