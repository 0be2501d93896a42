"""IRN: the representative RNIC-SR transport (Mittal et al., SIGCOMM 2018).

Implements the simplified selective-repeat mechanism the paper analyses
in §2.2:

* the receiver accepts packets out of order (tracked in a bitmap) and
  sends a **SACK** — cumulative ePSN plus the PSN of the OOO arrival —
  on every out-of-order packet;
* the sender enters **loss recovery** on the first SACK, marks as lost
  every unacked/unSACKed packet below a SACKed PSN, and retransmits each
  at most once per recovery episode;
* recovery exits only when the cumulative ACK passes the highest PSN
  outstanding at entry, so a retransmission that is dropped again can
  only be repaired by an **RTO** (Issue #2);
* tail-packet losses generate no SACK at all and likewise wait for the
  RTO; RTO_low is used when few packets are outstanding, RTO_high
  otherwise;
* flow control is a static BDP window (IRN has no CC of its own); DCQCN
  can be plugged in for the §6.3 experiments.

Because the receiver SACKs every OOO arrival, combining IRN with a
packet-level load balancer causes spurious retransmissions (Fig 1) —
reproduced faithfully here.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.rnic.base import (QueuePair, RestartableTimer, RnicTransport,
                             TransportConfig)
from repro.sim.engine import Simulator


class _IrnSendState:
    """Per-QP selective-repeat sender variables (the sender bitmap)."""

    __slots__ = ("snd_una", "snd_nxt", "max_sent", "sacked", "rtx_queue",
                 "rtx_marked", "in_recovery", "recovery_high", "timer")

    def __init__(self) -> None:
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = -1
        self.sacked: set[int] = set()
        self.rtx_queue: deque[int] = deque()
        self.rtx_marked: set[int] = set()
        self.in_recovery = False
        self.recovery_high = -1
        self.timer: Optional[RestartableTimer] = None


class _IrnRecvState:
    """Per-QP receiver bitmap."""

    __slots__ = ("epsn", "ooo")

    def __init__(self) -> None:
        self.epsn = 0
        self.ooo: set[int] = set()


class IrnTransport(RnicTransport):
    """Selective-repeat sender/receiver per the IRN design."""

    name = "irn"

    def __init__(self, sim: Simulator, host_id: int, config: TransportConfig) -> None:
        super().__init__(sim, host_id, config)
        self._snd: dict[int, _IrnSendState] = {}
        self._rcv: dict[int, _IrnRecvState] = {}

    @property
    def spurious_retransmits(self) -> int:
        return self.stats.spurious_retx

    def _send_state(self, qp: QueuePair) -> _IrnSendState:
        st = qp.tx_state
        if st is None:
            st = _IrnSendState()
            st.timer = RestartableTimer(self.sim, lambda q=qp: self._on_rto(q))
            self._snd[qp.qpn] = qp.tx_state = st
        return st

    def _recv_state(self, qp: QueuePair) -> _IrnRecvState:
        st = qp.rx_state
        if st is None:
            st = _IrnRecvState()
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
        # Retransmissions take priority over new data.
        while st.rtx_queue:
            psn = st.rtx_queue.popleft()
            if psn < st.snd_una or psn in st.sacked:
                continue  # repaired while queued
            return self._build_packet(qp, st, psn, is_retx=True)
        if st.snd_nxt >= qp.next_psn:
            return None
        outstanding = (st.snd_nxt - st.snd_una) * self.config.mtu_payload
        msg = qp.psn_to_message(st.snd_nxt)
        payload = msg.payload_of(st.snd_nxt - msg.base_psn, self.config.mtu_payload)
        if qp.cc.available_window(outstanding) < payload:
            return None
        packet = self._build_packet(qp, st, st.snd_nxt, is_retx=False)
        st.max_sent = max(st.max_sent, st.snd_nxt)
        st.snd_nxt += 1
        return packet

    def _build_packet(self, qp: QueuePair, st: _IrnSendState, psn: int,
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
            st.timer.restart(self._rto(st))
        return packet

    def _rto(self, st: _IrnSendState) -> int:
        outstanding = st.snd_nxt - st.snd_una
        if outstanding <= self.config.rto_low_threshold_pkts:
            return self.config.rto_low_ns
        return self.config.rto_ns

    def _on_rto(self, qp: QueuePair) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        if st.snd_una >= qp.next_psn and not st.rtx_queue:
            return
        flow = qp.psn_to_message(min(st.snd_una, qp.next_psn - 1)).flow
        self.count_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        # Retransmit every unacked, unSACKed packet; fresh recovery episode.
        st.in_recovery = True
        st.recovery_high = st.max_sent
        st.rtx_marked = set()
        st.rtx_queue.clear()
        for psn in range(st.snd_una, st.max_sent + 1):
            if psn not in st.sacked:
                st.rtx_queue.append(psn)
                st.rtx_marked.add(psn)
        st.timer.restart(self._rto(st))
        self._activate(qp)

    def _advance_cumulative(self, qp: QueuePair, st: _IrnSendState,
                            ack_psn: int) -> None:
        new_una = ack_psn + 1
        if new_una <= st.snd_una:
            return
        acked_bytes = (new_una - st.snd_una) * self.config.mtu_payload
        st.snd_una = new_una
        st.sacked = {p for p in st.sacked if p >= new_una}
        cc = qp.cc
        if cc.wants_ack:
            cc.on_ack(acked_bytes, self.sim.now)
        if st.in_recovery and st.snd_una > st.recovery_high:
            st.in_recovery = False
            st.rtx_marked.clear()
        self._complete_messages(qp, st)
        if st.snd_una >= qp.next_psn and not st.rtx_queue:
            st.timer.cancel()
        else:
            st.timer.restart(self._rto(st))
        self._activate(qp)

    def _complete_messages(self, qp: QueuePair, st: _IrnSendState) -> None:
        for msg in qp.send_queue:
            if not msg.acked and st.snd_una >= msg.base_psn + msg.num_pkts:
                msg.acked = True
                if msg.flow.tx_complete_ns is None and all(
                        m.acked for m in qp.messages.values() if m.flow is msg.flow):
                    msg.flow.tx_complete_ns = self.sim.now

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        self._advance_cumulative(qp, self._send_state(qp), packet.ack_psn)

    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        self._advance_cumulative(qp, st, packet.ack_psn)
        sacked_psn = packet.sack_psn
        if sacked_psn < st.snd_una or sacked_psn > st.max_sent:
            return  # stale, or acknowledges a PSN never sent (malformed)
        st.sacked.add(sacked_psn)
        if not st.in_recovery:
            st.in_recovery = True
            st.recovery_high = st.max_sent
            st.rtx_marked = set()
        # Everything below a SACKed PSN that is neither acked nor SACKed is
        # presumed lost — the root cause of spurious retransmissions under
        # packet-level load balancing (§2.2 Issue #1).
        for psn in range(st.snd_una, sacked_psn):
            if psn not in st.sacked and psn not in st.rtx_marked:
                st.rtx_marked.add(psn)
                st.rtx_queue.append(psn)
        if st.rtx_queue:
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
                if packet.is_retransmit:
                    self.stats.spurious_retx += 1
            self._send_ack(qp, PacketKind.ACK, ack_psn=st.epsn - 1)
            return
        if flow is not None:
            flow.deliver(packet.payload_bytes, self.sim.now)
        if packet.psn == st.epsn:
            st.epsn += 1
            while st.epsn in st.ooo:
                st.ooo.discard(st.epsn)
                st.epsn += 1
            self._send_ack(qp, PacketKind.ACK, ack_psn=st.epsn - 1)
        else:
            st.ooo.add(packet.psn)
            self._send_ack(qp, PacketKind.SACK, ack_psn=st.epsn - 1,
                           sack_psn=packet.psn)

    def _send_ack(self, qp: QueuePair, kind: PacketKind, ack_psn: int,
                  sack_psn: int = -1) -> None:
        ack = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, kind=kind,
                       ack_psn=ack_psn, sack_psn=sack_psn, dcp=False,
                       entropy=qp.entropy, sim=self.sim)
        self.nic.send_control(ack)
