"""Datacenter topologies used by the paper's experiments.

* :class:`~repro.topology.fattree.FatTreeTopology` — the k-ary folded Clos
  used for every large-scale simulation (Figures 4 and 14-23), with optional
  core oversubscription and per-link degradation (failure experiments).
* :class:`~repro.topology.leafspine.LeafSpineTopology` — the two-tier
  testbed topology (8 servers, six 4-port switches) of Figures 9 and 19.
* :class:`~repro.topology.simple.SingleSwitchTopology` — a star around one
  switch, used for Figure 2 (switch overload), Figure 21 (sender-limited
  traffic) and many unit tests.
* :class:`~repro.topology.simple.BackToBackTopology` — two directly-attached
  hosts, used for the RPC latency / initial-window experiments (Figures 8,
  11, 12).

All topologies share the :class:`~repro.topology.base.Topology` base class:
they register directed links (an output queue followed by a propagation
pipe), enumerate paths symbolically via ``node_paths(src, dst)``, and answer
``get_paths(src, dst)`` with every *surviving* path as a
:class:`~repro.sim.packet.Route`, resolved through the per-topology
:class:`~repro.topology.route_table.RouteTable`.

The fabric is dynamic: the link-state API (``fail_link`` / ``recover_link``
/ ``set_link_rate`` / ``set_link_delay_ps``) mutates it mid-run and notifies
subscribers, and :class:`~repro.topology.dynamics.FabricController`
schedules those mutations deterministically on the simulation clock (shadow
timers — zero perturbation when unused).
"""
