"""RIFL end-to-end transport: a static window over lossless links.

The interesting machinery lives in :mod:`repro.net.rifl` — hop-by-hop
link-layer retransmission that makes every cable individually lossless.
With the fabric unable to lose frames, the end-to-end transport needs
no loss-recovery design at all: this is the order-tolerant
cumulative-ACK sender of :class:`~repro.rnic.timeout.TimeoutTransport`
with its RTO retained purely as a crash fallback (it should never fire
from wire corruption — hop retransmission repairs that below the
transport; ``tests/transport/test_rifl.py`` pins exactly that).

The only additions are Swift plumbing: data packets carry a send
timestamp, acks echo it, and the sender feeds RTT samples to a
delay-based CC when one is attached.  Hop retransmissions inflate the
sampled RTT — which is precisely the signal a delay-based scheme
should see on a dirty link.
"""

from __future__ import annotations

from repro.net.packet import Packet, PacketKind, make_ack
from repro.rnic.base import QueuePair
from repro.rnic.timeout import TimeoutTransport, _ToRecvState, _ToSendState


class RiflTransport(TimeoutTransport):
    """Static-window end-to-end transport over RIFL links."""

    name = "rifl"

    def _build(self, qp: QueuePair, st: _ToSendState, psn: int,
               is_retx: bool) -> Packet:
        packet = super()._build(qp, st, psn, is_retx)
        packet.timestamp_ns = self.sim.now    # echoed by acks (Swift RTT)
        return packet

    def _send_ack(self, qp: QueuePair, st: _ToRecvState,
                  data_packet: Packet) -> None:
        ack = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, kind=PacketKind.ACK,
                       ack_psn=st.epsn - 1,
                       timestamp_ns=data_packet.timestamp_ns, dcp=False,
                       entropy=qp.entropy, sim=self.sim)
        self.nic.send_control(ack)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        cc = qp.cc
        if cc.wants_rtt and packet.timestamp_ns >= 0:
            cc.on_rtt(self.sim.now - packet.timestamp_ns, self.sim.now)
        super()._on_ack(qp, packet)
