"""RACK-TLP loss detection (RFC 8985) adapted to an RNIC model (§6.3).

Google Falcon introduces RACK-TLP to tolerate reordering without
spurious retransmissions.  The algorithm:

* the sender timestamps every transmission (including retransmissions);
* on each (S)ACK it advances ``rack_ts``, the send-timestamp of the most
  recently *delivered* packet, and estimates the RTT;
* a packet is declared lost when it was sent more than one
  *reordering window* (~= min RTT) before ``rack_ts`` and is still
  unacknowledged — i.e. loss detection is delayed by one RTT;
* a **tail-loss probe** retransmits the last outstanding packet after
  ``PTO = 2 x SRTT`` of silence to elicit SACKs for tail losses;
* an RTO remains as the last resort.

The per-packet timestamp memory is exactly the overhead the paper
argues makes RACK-TLP unattractive for hardware offload; the resource
model in :mod:`repro.analysis.resources` accounts for it.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.rnic.base import (QueuePair, RestartableTimer, RnicTransport,
                             TransportConfig)
from repro.sim.engine import Simulator


class _RackSendState:
    __slots__ = ("snd_una", "snd_nxt", "max_sent", "sacked", "sent_ts",
                 "rack_ts", "srtt", "min_rtt", "rtx_queue", "rtx_queued",
                 "rack_timer", "tlp_timer", "rto_timer", "tlp_probes")

    def __init__(self) -> None:
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = -1
        self.sacked: set[int] = set()
        self.sent_ts: dict[int, int] = {}
        self.rack_ts = -1
        self.srtt = 0
        self.min_rtt = 1 << 60
        self.rtx_queue: deque[int] = deque()
        self.rtx_queued: set[int] = set()
        self.rack_timer: Optional[RestartableTimer] = None
        self.tlp_timer: Optional[RestartableTimer] = None
        self.rto_timer: Optional[RestartableTimer] = None
        self.tlp_probes = 0


class _RackRecvState:
    __slots__ = ("epsn", "ooo")

    def __init__(self) -> None:
        self.epsn = 0
        self.ooo: set[int] = set()


class RackTlpTransport(RnicTransport):
    """RACK-TLP sender with an IRN-style SACKing receiver."""

    name = "rack_tlp"

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig) -> None:
        super().__init__(sim, host_id, config)
        self._snd: dict[int, _RackSendState] = {}
        self._rcv: dict[int, _RackRecvState] = {}

    def _send_state(self, qp: QueuePair) -> _RackSendState:
        st = qp.tx_state
        if st is None:
            st = _RackSendState()
            st.rack_timer = RestartableTimer(self.sim,
                                             lambda q=qp: self._rack_sweep(q))
            st.tlp_timer = RestartableTimer(self.sim, lambda q=qp: self._on_tlp(q))
            st.rto_timer = RestartableTimer(self.sim, lambda q=qp: self._on_rto(q))
            self._snd[qp.qpn] = qp.tx_state = st
        return st

    def _recv_state(self, qp: QueuePair) -> _RackRecvState:
        st = qp.rx_state
        if st is None:
            st = _RackRecvState()
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
            st.rtx_queued.discard(psn)
            if psn < st.snd_una or psn in st.sacked:
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

    def _build(self, qp: QueuePair, st: _RackSendState, psn: int,
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
        packet.timestamp_ns = self.sim.now
        st.sent_ts[psn] = self.sim.now  # per-packet timestamp memory (the cost)
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
        self._arm_timers(qp, st)
        return packet

    def _reo_wnd(self, st: _RackSendState) -> int:
        if st.min_rtt == 1 << 60:
            return self.config.rto_low_ns
        return st.min_rtt

    def _pto(self, st: _RackSendState) -> int:
        if st.srtt == 0:
            return self.config.rto_low_ns
        return 2 * st.srtt

    def _arm_timers(self, qp: QueuePair, st: _RackSendState) -> None:
        if st.snd_una < qp.next_psn or st.rtx_queue:
            st.tlp_timer.restart(self._pto(st))
            if not st.rto_timer.armed:
                st.rto_timer.restart(self.config.rto_ns)
        else:
            st.tlp_timer.cancel()
            st.rto_timer.cancel()
            st.rack_timer.cancel()

    def _on_delivery(self, qp: QueuePair, st: _RackSendState, psn: int) -> None:
        """Record delivery of ``psn``: RTT sample + rack_ts advance."""
        ts = st.sent_ts.get(psn)
        if ts is None:
            return
        rtt = self.sim.now - ts
        st.min_rtt = min(st.min_rtt, rtt)
        st.srtt = rtt if st.srtt == 0 else (7 * st.srtt + rtt) // 8
        st.rack_ts = max(st.rack_ts, ts)

    def _rack_sweep(self, qp: QueuePair) -> None:
        """Mark packets lost: sent one reo_wnd before rack_ts, unacked."""
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        reo = self._reo_wnd(st)
        next_check: Optional[int] = None
        for psn in range(st.snd_una, st.max_sent + 1):
            if psn in st.sacked or psn in st.rtx_queued:
                continue
            ts = st.sent_ts.get(psn)
            if ts is None:
                continue
            deadline = ts + reo
            if deadline <= st.rack_ts:
                st.rtx_queue.append(psn)
                st.rtx_queued.add(psn)
            elif st.rack_ts >= 0:
                remaining = deadline - st.rack_ts
                next_check = remaining if next_check is None else min(next_check,
                                                                      remaining)
        if st.rtx_queue:
            self._activate(qp)
        if next_check is not None:
            st.rack_timer.restart(max(1, next_check))

    def _on_tlp(self, qp: QueuePair) -> None:
        """Tail-loss probe: resend the highest outstanding packet."""
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        probe = min(st.max_sent, qp.next_psn - 1)
        while probe >= st.snd_una and probe in st.sacked:
            probe -= 1
        if probe >= st.snd_una and probe not in st.rtx_queued:
            st.rtx_queue.append(probe)
            st.rtx_queued.add(probe)
            st.tlp_probes += 1
            self.stats.tlp_probes += 1
            self._activate(qp)
        st.tlp_timer.restart(self._pto(st))

    def _on_rto(self, qp: QueuePair) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_una >= qp.next_psn:
            return
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        for psn in range(st.snd_una, st.max_sent + 1):
            if psn not in st.sacked and psn not in st.rtx_queued:
                st.rtx_queue.append(psn)
                st.rtx_queued.add(psn)
        st.rto_timer.restart(self.config.rto_ns)
        self._activate(qp)

    def _advance(self, qp: QueuePair, st: _RackSendState, ack_psn: int) -> None:
        new_una = ack_psn + 1
        if new_una <= st.snd_una:
            return
        for psn in range(st.snd_una, new_una):
            self._on_delivery(qp, st, psn)
            st.sent_ts.pop(psn, None)
            st.sacked.discard(psn)
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
        if st.snd_una < qp.next_psn:
            st.rto_timer.restart(self.config.rto_ns)
        self._arm_timers(qp, st)
        self._activate(qp)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        self._advance(qp, st, packet.ack_psn)
        self._rack_sweep(qp)

    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if packet.sack_psn >= st.snd_una:
            st.sacked.add(packet.sack_psn)
            self._on_delivery(qp, st, packet.sack_psn)
        self._advance(qp, st, packet.ack_psn)
        self._rack_sweep(qp)

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
            self._send_ack(qp, PacketKind.ACK, st.epsn - 1)
            return
        if flow is not None:
            flow.deliver(packet.payload_bytes, self.sim.now)
        if packet.psn == st.epsn:
            st.epsn += 1
            while st.epsn in st.ooo:
                st.ooo.discard(st.epsn)
                st.epsn += 1
            self._send_ack(qp, PacketKind.ACK, st.epsn - 1)
        else:
            st.ooo.add(packet.psn)
            self._send_ack(qp, PacketKind.SACK, st.epsn - 1, packet.psn)

    def _send_ack(self, qp: QueuePair, kind: PacketKind, ack_psn: int,
                  sack_psn: int = -1) -> None:
        ack = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, kind=kind,
                       ack_psn=ack_psn, sack_psn=sack_psn, dcp=False,
                       entropy=qp.entropy, sim=self.sim)
        self.nic.send_control(ack)
