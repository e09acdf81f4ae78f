"""Path selection policies.

NDP itself does source-routed per-packet spraying (implemented by
:class:`repro.core.path_manager.PathManager`, which also has the per-packet
random mode its sender-side permutation is compared to in §3.1.1); the
helpers here cover the *other* policy the paper compares against: per-flow
ECMP — what single-path TCP/DCTCP/DCQCN get from commodity switches: one
hash-chosen path per flow, so two long flows can collide on a core link (the
40% throughput loss cited in §2.2).
"""
