"""The bytes each in-sim message kind puts on the wire, pinned at fixed totals.

A packet's size follows from its kind or its message's tag through one table
(`packets.wire_bytes`: `packets.SEGMENT_BYTES` for TCP and QUIC segments,
`packets.message_bytes` for a datagram), and the relay's data budget reads
those sizes, so a size that moves changes outcomes. This test wraps
`Network.send` on its class, as perfbench's tracer does, runs the seed-42
trials of the benchmark's campaign workload, and sums the packets and bytes
sent per kind: a segment by its `PacketKind`, a datagram by its tag's kind,
and a circuit frame as "circ/" plus its payload's kind. The totals were
recorded before the table existed, when each sender passed its own size.
"""

import os
import sys
from collections import Counter

from punchsim import net
from punchsim.packets import wire_bytes

# The benchmark package sits at the root of the checkout.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

CAMPAIGN_TRIALS = 200
# kind -> (packets, bytes) over the trials at seed 42.
WIRE_TOTALS = {
    "QUIC_INITIAL": (2157, 2588400), "QUIC_REPLY": (73, 21900),
    "TCP_ACK": (106, 6360), "TCP_SYN": (2390, 143400), "TCP_SYNACK": (106, 6360),
    "circ-close": (396, 9504), "circ-reset": (388, 9312),
    "circ/connect": (534, 59808), "circ/connect-reply": (534, 59808),
    "circ/id": (800, 95984), "circ/ping": (3460, 138400), "circ/reply": (3460, 138400),
    "circ/stream-ack": (346, 13840), "circ/stream-open": (346, 13840),
    "circ/sync": (534, 12816), "conn-in": (398, 9552), "conn-req": (398, 9552),
    "dummy": (381, 11430), "obs": (800, 19200), "ping": (2790, 89280),
    "reply": (4388, 127632), "rsv-req": (400, 9600),
}


def wire_kind(pkt) -> str:
    tag = pkt.tag
    if pkt.kind.name != "UDP_DATAGRAM":
        return pkt.kind.name
    if type(tag) is not tuple:
        return tag
    if tag[0] == "circ":
        payload = tag[2]
        return "circ/" + payload[0]
    return tag[0]


def wire_totals(tmp_path) -> dict:
    workload = WORKLOADS["campaign-serial"](DEFAULT_SEED, str(tmp_path))
    workload.setup()
    packets, sizes = Counter(), Counter()
    original = vars(net.Network)["send"]

    def send(network, from_host, pkt, *args, **kwargs):
        kind = wire_kind(pkt)
        packets[kind] += 1
        sizes[kind] += wire_bytes(pkt)
        return original(network, from_host, pkt, *args, **kwargs)

    net.Network.send = send
    try:
        for i in range(CAMPAIGN_TRIALS):
            workload.op(i)
    finally:
        net.Network.send = original
    return {kind: (packets[kind], sizes[kind]) for kind in sorted(packets)}


def test_campaign_trials_send_the_pinned_bytes_per_kind(tmp_path):
    assert wire_totals(tmp_path) == WIRE_TOTALS
