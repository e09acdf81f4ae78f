"""NDP wire format: header encoding and decoding.

The simulator moves Python objects around, but a deployable NDP stack (the
paper's Linux/DPDK implementation, the P4 and NetFPGA switches) needs a
concrete header layout.  This package defines one — covering every field the
protocol requires (packet type, SYN/LAST/trimmed flags, connection id,
packet sequence number, pull counter, path id, payload length, checksum) —
and provides conversion to and from the simulator's packet objects.  It is
exercised by property-based round-trip tests and by the quickstart example's
"what goes on the wire" dump.
"""
