"""MP-RDMA: packet-level multipath RDMA (Lu et al., NSDI 2018).

The paper's lossless multipath baseline (Table 2: satisfies R2 but not
R1/R3).  Modelled behaviours:

* **multipath**: each data packet carries one of ``num_vp`` virtual-path
  entropy values, so ECMP hashing in the fabric spreads a single QP's
  packets across paths (packet-level LB without switch support);
* **adaptive congestion window**: ECN-echoing ACKs drive an AIMD window
  (+1/cwnd per unmarked ACK, -1/2 packet per marked ACK), which is the
  native CC the paper credits for MP-RDMA's incast robustness (§6.3);
* **bounded out-of-order tolerance**: the receiver tracks OOO arrivals
  in an ``ooo_window``-packet bitmap; packets beyond it are dropped and
  NAKed — the behaviour behind "MP-RDMA fails to effectively control
  the out-of-order degree below its expected threshold" (§6.2);
* **Go-Back-N recovery**: like RNIC-GBN, so it "still requires PFC to
  create a lossless environment" — run it on a PFC fabric.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.rnic.base import (QueuePair, RestartableTimer, RnicTransport,
                             TransportConfig)
from repro.sim.engine import Simulator

#: Virtual paths per QP (entropy values cycled per packet).
DEFAULT_NUM_VP = 8
#: Receiver OOO bitmap capacity, packets beyond epsn it can absorb.
DEFAULT_OOO_WINDOW = 64


class _MpSendState:
    __slots__ = ("snd_una", "snd_nxt", "max_sent", "cwnd_pkts", "vp_cursor",
                 "timer", "awaiting_rewind")

    def __init__(self, initial_cwnd: float) -> None:
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = -1
        self.cwnd_pkts = initial_cwnd
        self.vp_cursor = 0
        self.timer: Optional[RestartableTimer] = None
        self.awaiting_rewind = False


class _MpRecvState:
    __slots__ = ("epsn", "ooo", "nak_outstanding")

    def __init__(self) -> None:
        self.epsn = 0
        self.ooo: set[int] = set()
        self.nak_outstanding = False


class MpRdmaTransport(RnicTransport):
    """Multipath sender with bounded-OOO receiver and GBN recovery."""

    name = "mp_rdma"

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig,
                 num_vp: int = DEFAULT_NUM_VP,
                 ooo_window: int = DEFAULT_OOO_WINDOW) -> None:
        super().__init__(sim, host_id, config)
        self.num_vp = num_vp
        self.ooo_window = ooo_window
        self._snd: dict[int, _MpSendState] = {}
        self._rcv: dict[int, _MpRecvState] = {}

    @property
    def ooo_drops(self) -> int:
        return self.stats.ooo_drops

    def _send_state(self, qp: QueuePair) -> _MpSendState:
        st = qp.tx_state
        if st is None:
            initial = max(4.0, self.config.window_bytes / self.config.mtu_payload)
            st = _MpSendState(initial_cwnd=initial)
            st.timer = RestartableTimer(self.sim, lambda q=qp: self._on_rto(q))
            self._snd[qp.qpn] = qp.tx_state = st
        return st

    def _recv_state(self, qp: QueuePair) -> _MpRecvState:
        st = qp.rx_state
        if st is None:
            st = _MpRecvState()
            self._rcv[qp.qpn] = qp.rx_state = st
        return st

    # -------------------------------------------------------------- sender
    def _qp_has_work(self, qp: QueuePair) -> bool:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        return st.snd_nxt < qp.next_psn

    def _qp_next_packet(self, qp: QueuePair) -> Optional[Packet]:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_nxt >= qp.next_psn:
            return None
        if st.snd_nxt - st.snd_una >= max(1, int(st.cwnd_pkts)):
            return None
        msg = qp.psn_to_message(st.snd_nxt)
        payload = msg.payload_of(st.snd_nxt - msg.base_psn, self.config.mtu_payload)
        is_retx = st.snd_nxt <= st.max_sent
        # Per-packet virtual path: cycle entropy values so ECMP spreads the
        # QP across num_vp paths.
        entropy = (qp.entropy * self.num_vp) + st.vp_cursor
        st.vp_cursor = (st.vp_cursor + 1) % self.num_vp
        packet = make_data_packet(
            self.host_id, qp.peer_host_id, flow_id=msg.flow.flow_id,
            qpn=qp.peer_qpn, src_qpn=qp.qpn, psn=st.snd_nxt, msn=msg.msn,
            payload=payload, mtu_payload=self.config.mtu_payload,
            msg_len_pkts=msg.num_pkts, msg_len_bytes=msg.size_bytes,
            msg_offset_pkts=st.snd_nxt - msg.base_psn, dcp=False,
            entropy=entropy, is_retransmit=is_retx, sim=self.sim,
        )
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
            st.max_sent = st.snd_nxt
        st.snd_nxt += 1
        if not st.timer.armed:
            st.timer.restart(self.config.rto_ns)
        return packet

    def _on_rto(self, qp: QueuePair) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_timeout(flow)
        st.cwnd_pkts = max(2.0, st.cwnd_pkts / 2)
        st.snd_nxt = st.snd_una
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        # MP-RDMA's adaptive window: AIMD driven by the ECN echo.
        if packet.ecn_ce:
            st.cwnd_pkts = max(2.0, st.cwnd_pkts - 0.5)
        else:
            st.cwnd_pkts += 1.0 / max(1.0, st.cwnd_pkts)
        new_una = packet.ack_psn + 1
        if new_una > st.snd_una:
            cc = qp.cc
            if cc.wants_ack:
                cc.on_ack((new_una - st.snd_una) * self.config.mtu_payload,
                         self.sim.now)
            st.snd_una = new_una
            st.awaiting_rewind = False
            for msg in qp.send_queue:
                if not msg.acked and st.snd_una >= msg.base_psn + msg.num_pkts:
                    msg.acked = True
                    if msg.flow.tx_complete_ns is None and all(
                            m.acked for m in qp.messages.values()
                            if m.flow is msg.flow):
                        msg.flow.tx_complete_ns = self.sim.now
            if st.snd_una >= qp.next_psn:
                st.timer.cancel()
            else:
                st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_nak(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        epsn = packet.ack_psn
        if epsn >= st.snd_nxt or st.awaiting_rewind:
            return
        if epsn > st.snd_una:
            st.snd_una = epsn
        st.snd_nxt = max(st.snd_una, epsn)
        st.awaiting_rewind = True
        st.cwnd_pkts = max(2.0, st.cwnd_pkts / 2)
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    # ------------------------------------------------------------ receiver
    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        self.maybe_send_cnp(qp, packet)
        flow = self.flow_of(packet)
        if packet.psn < st.epsn or packet.psn in st.ooo:
            if flow is not None:
                flow.stats.dup_pkts_received += 1
            self._send_ack(qp, st, ecn=packet.ecn_ce)
            return
        if packet.psn - st.epsn >= self.ooo_window:
            # Beyond the OOO bitmap: the RNIC cannot track it; drop + NAK.
            self.stats.ooo_drops += 1
            if not st.nak_outstanding:
                st.nak_outstanding = True
                nak = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                               qpn=qp.peer_qpn, src_qpn=qp.qpn,
                               kind=PacketKind.NAK, ack_psn=st.epsn,
                               dcp=False, entropy=qp.entropy, sim=self.sim)
                self.nic.send_control(nak)
            return
        if flow is not None:
            flow.deliver(packet.payload_bytes, self.sim.now)
        if packet.psn == st.epsn:
            st.epsn += 1
            while st.epsn in st.ooo:
                st.ooo.discard(st.epsn)
                st.epsn += 1
            st.nak_outstanding = False
        else:
            st.ooo.add(packet.psn)
        self._send_ack(qp, st, ecn=packet.ecn_ce)

    def _send_ack(self, qp: QueuePair, st: _MpRecvState, ecn: bool) -> None:
        ack = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, kind=PacketKind.ACK,
                       ack_psn=st.epsn - 1, dcp=False, entropy=qp.entropy, sim=self.sim)
        ack.ecn_ce = ecn  # ECN echo drives the sender's adaptive window
        self.nic.send_control(ack)
