"""Timeout-only loss recovery (NVIDIA Spectrum/SuperNIC-style, §6.3).

The receiver tolerates out-of-order arrival (Write-Only conversion) and
returns cumulative ACKs, but there is no loss *notification* of any
kind: the only recovery trigger is the RTO.  On expiry the sender
retransmits every unacknowledged packet — it cannot know which of them
actually arrived, so duplicates are common.  Fig 17 shows this scheme's
goodput collapsing as the loss rate grows.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.rnic.base import (QueuePair, RestartableTimer, RnicTransport,
                             TransportConfig)
from repro.sim.engine import Simulator


class _ToSendState:
    __slots__ = ("snd_una", "snd_nxt", "max_sent", "rtx_queue", "timer")

    def __init__(self) -> None:
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = -1
        self.rtx_queue: deque[int] = deque()
        self.timer: Optional[RestartableTimer] = None


class _ToRecvState:
    __slots__ = ("epsn", "ooo")

    def __init__(self) -> None:
        self.epsn = 0
        self.ooo: set[int] = set()


class TimeoutTransport(RnicTransport):
    """Order-tolerant reception + RTO-only recovery."""

    name = "timeout"

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig) -> None:
        super().__init__(sim, host_id, config)
        self._snd: dict[int, _ToSendState] = {}
        self._rcv: dict[int, _ToRecvState] = {}

    def _send_state(self, qp: QueuePair) -> _ToSendState:
        st = qp.tx_state
        if st is None:
            st = _ToSendState()
            st.timer = RestartableTimer(self.sim, lambda q=qp: self._on_rto(q))
            self._snd[qp.qpn] = qp.tx_state = st
        return st

    def _recv_state(self, qp: QueuePair) -> _ToRecvState:
        st = qp.rx_state
        if st is None:
            st = _ToRecvState()
            self._rcv[qp.qpn] = qp.rx_state = st
        return st

    # -------------------------------------------------------------- sender
    def _qp_has_work(self, qp: QueuePair) -> bool:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        return bool(st.rtx_queue) or st.snd_nxt < qp.next_psn

    def _qp_next_packet(self, qp: QueuePair) -> Optional[Packet]:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        while st.rtx_queue:
            psn = st.rtx_queue.popleft()
            if psn < st.snd_una:
                continue
            return self._build(qp, st, psn, is_retx=True)
        if st.snd_nxt >= qp.next_psn:
            return None
        outstanding = (st.snd_nxt - st.snd_una) * self.config.mtu_payload
        msg = qp.psn_to_message(st.snd_nxt)
        payload = msg.payload_of(st.snd_nxt - msg.base_psn, self.config.mtu_payload)
        if qp.cc.available_window(outstanding) < payload:
            return None
        packet = self._build(qp, st, st.snd_nxt, is_retx=False)
        st.max_sent = max(st.max_sent, st.snd_nxt)
        st.snd_nxt += 1
        return packet

    def _build(self, qp: QueuePair, st: _ToSendState, psn: int,
               is_retx: bool) -> Packet:
        msg = qp.psn_to_message(psn)
        payload = msg.payload_of(psn - msg.base_psn, self.config.mtu_payload)
        packet = make_data_packet(
            self.host_id, qp.peer_host_id, flow_id=msg.flow.flow_id,
            qpn=qp.peer_qpn, src_qpn=qp.qpn, psn=psn, msn=msg.msn,
            payload=payload, mtu_payload=self.config.mtu_payload,
            msg_len_pkts=msg.num_pkts, msg_len_bytes=msg.size_bytes,
            msg_offset_pkts=psn - msg.base_psn, dcp=False,
            entropy=qp.entropy, is_retransmit=is_retx, sim=self.sim,
        )
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
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
        qp.cc.on_timeout(self.sim.now)
        st.rtx_queue.clear()
        st.rtx_queue.extend(range(st.snd_una, st.max_sent + 1))
        st.timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        new_una = packet.ack_psn + 1
        if new_una <= st.snd_una:
            return
        cc = qp.cc
        if cc.wants_ack:
            cc.on_ack((new_una - st.snd_una) * self.config.mtu_payload,
                      self.sim.now)
        st.snd_una = new_una
        for msg in qp.send_queue:
            if not msg.acked and st.snd_una >= msg.base_psn + msg.num_pkts:
                msg.acked = True
                if msg.flow.tx_complete_ns is None and all(
                        m.acked for m in qp.messages.values() if m.flow is msg.flow):
                    msg.flow.tx_complete_ns = self.sim.now
        if st.snd_una >= qp.next_psn:
            st.timer.cancel()
        else:
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
        else:
            if flow is not None:
                flow.deliver(packet.payload_bytes, self.sim.now)
            if packet.psn == st.epsn:
                st.epsn += 1
                while st.epsn in st.ooo:
                    st.ooo.discard(st.epsn)
                    st.epsn += 1
            else:
                st.ooo.add(packet.psn)
        self._send_ack(qp, st, packet)

    def _send_ack(self, qp: QueuePair, st: _ToRecvState,
                  data_packet: Packet) -> None:
        """Cumulative ACK for the current receive state.

        Overridable hook: subclasses (RIFL) echo the data packet's send
        timestamp here so delay-based CC gets RTT samples.
        """
        ack = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, kind=PacketKind.ACK,
                       ack_psn=st.epsn - 1, dcp=False, entropy=qp.entropy,
                       sim=self.sim)
        self.nic.send_control(ack)
