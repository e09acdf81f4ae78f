"""NDP: the paper's primary contribution.

This package implements the three tightly coupled mechanisms of NDP
(Handley et al., SIGCOMM 2017):

* :mod:`repro.core.switch` — the NDP switch service model: an 8-packet data
  queue plus a high-priority header queue, packet trimming, 10:1 weighted
  round-robin between the two queues, probabilistic tail trimming to break
  phase effects, and return-to-sender when the header queue overflows.
* :mod:`repro.core.path_manager` — sender-side per-packet multipath: a
  randomly re-permuted path list plus a scoreboard that temporarily removes
  paths with outlier NACK/loss counts (robustness to asymmetry, §3.2.3).
* :mod:`repro.core.sender` / :mod:`repro.core.receiver` /
  :mod:`repro.core.pull_queue` — the receiver-driven transport protocol:
  zero-RTT start at line rate, ACK/NACK per packet, and a single per-host
  pull queue whose paced PULL packets clock all further transmissions.

The public entry points are :class:`NdpSrc`, :class:`NdpSink`,
:class:`NdpPullPacer`, :class:`NdpSwitchQueue` and :class:`NdpConfig`.
"""
