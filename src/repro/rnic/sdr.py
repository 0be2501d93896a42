"""SDR: software-defined selective repeat for high-BDP paths.

Models the reliability core of SDR-RDMA (software selective-repeat
reliability over unreliable datagrams, aimed at lossy/planetary-scale
fabrics).  Three mechanisms distinguish it from the NIC baselines:

* **Ack vector** — the receiver acknowledges with a cumulative ePSN
  *plus* a 64-bit bitmap over ``[ePSN, ePSN+64)`` describing every
  out-of-order packet it buffered, instead of IRN's one-PSN-per-SACK.
  One ack therefore repairs the sender's whole view of the window.
* **Bounded reorder state** — the receiver buffers out-of-order
  arrivals only within ``sdr_reorder_window_pkts`` of ePSN (software
  receivers track a finite bitmap, not arbitrary state); packets beyond
  the bound are discarded (counted in ``ooo_drops``) and repaired by
  the sender's timers like any loss.
* **Per-hole retransmission timers** — every transmission arms its own
  deadline (a lazy-deletion heap over one restartable timer).  An
  expired hole retransmits *that packet only*: no window-wide blast, no
  ``cc.on_timeout`` penalty, which is what keeps goodput up on
  high-BDP paths where a full RTO costs a pipe's worth of data.  An
  ack-vector gap (``sdr_sack_gap_pkts`` packets SACKed above a hole)
  retransmits the hole immediately, once per episode — the common-case
  fast path; repeated losses of the same PSN always fall back to the
  hole timer.

A coarse fallback timer (``coarse_timeout_ns``, same §4.5 semantics and
``coarse_timeouts`` accounting as DCP) restarts on cumulative progress
and covers dead paths, where holes *and* their repairs die: it fires
``cc.on_timeout`` and re-queues everything unacknowledged.  Under plain
loss it must never fire — the per-hole timers repair first — which
``tests/transport/test_sdr.py`` pins.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional

from repro.net.packet import Packet, PacketKind, make_ack, make_data_packet
from repro.rnic.base import (QueuePair, RestartableTimer, RnicTransport,
                             TransportConfig)
from repro.sim.engine import Simulator

#: Width of the on-wire ack vector (one 64-bit word, as a real header
#: field would be).  The receiver may buffer more than 64 packets ahead;
#: bits beyond the vector are simply re-reported as ePSN advances.
SACK_VECTOR_BITS = 64


class _SdrSendState:
    """Per-QP selective-repeat sender state."""

    __slots__ = ("snd_una", "snd_nxt", "max_sent", "sacked", "rtx_queue",
                 "rtx_set", "fast_retx", "sent_at", "hole_heap",
                 "hole_timer", "coarse_timer")

    def __init__(self) -> None:
        self.snd_una = 0
        self.snd_nxt = 0
        self.max_sent = -1
        self.sacked: set[int] = set()
        self.rtx_queue: deque[int] = deque()
        self.rtx_set: set[int] = set()
        self.fast_retx: set[int] = set()
        self.sent_at: dict[int, int] = {}       # psn -> last tx time
        self.hole_heap: list[tuple[int, int]] = []  # (deadline, psn)
        self.hole_timer: Optional[RestartableTimer] = None
        self.coarse_timer: Optional[RestartableTimer] = None


class _SdrRecvState:
    """Per-QP receiver: cumulative ePSN + bounded OOO buffer."""

    __slots__ = ("epsn", "ooo")

    def __init__(self) -> None:
        self.epsn = 0
        self.ooo: set[int] = set()


class SdrTransport(RnicTransport):
    """Selective repeat with ack vectors and per-hole timers."""

    name = "sdr"

    def __init__(self, sim: Simulator, host_id: int,
                 config: TransportConfig) -> None:
        super().__init__(sim, host_id, config)
        self._snd: dict[int, _SdrSendState] = {}
        self._rcv: dict[int, _SdrRecvState] = {}
        self._hole_to = config.sdr_hole_timeout_ns or config.rto_low_ns
        self._reorder_bound = config.sdr_reorder_window_pkts or max(
            64, (2 * config.window_bytes) // max(1, config.mtu_payload))

    # --------------------------------------------------------------- state
    def _send_state(self, qp: QueuePair) -> _SdrSendState:
        st = qp.tx_state
        if st is None:
            st = _SdrSendState()
            st.hole_timer = RestartableTimer(
                self.sim, lambda q=qp: self._on_hole_timer(q))
            st.coarse_timer = RestartableTimer(
                self.sim, lambda q=qp: self._on_coarse(q))
            self._snd[qp.qpn] = qp.tx_state = st
        return st

    def _recv_state(self, qp: QueuePair) -> _SdrRecvState:
        st = qp.rx_state
        if st is None:
            st = _SdrRecvState()
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
            st.rtx_set.discard(psn)
            if psn < st.snd_una or psn in st.sacked:
                continue  # repaired while queued
            return self._build(qp, st, psn, is_retx=True)
        if st.snd_nxt >= qp.next_psn:
            return None
        outstanding = (st.snd_nxt - st.snd_una) * self.config.mtu_payload
        msg = qp.psn_to_message(st.snd_nxt)
        payload = msg.payload_of(st.snd_nxt - msg.base_psn,
                                 self.config.mtu_payload)
        if qp.cc.available_window(outstanding) < payload:
            return None
        packet = self._build(qp, st, st.snd_nxt, is_retx=False)
        st.max_sent = max(st.max_sent, st.snd_nxt)
        st.snd_nxt += 1
        return packet

    def _build(self, qp: QueuePair, st: _SdrSendState, psn: int,
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
        now = self.sim.now
        packet.timestamp_ns = now       # echoed by the ack (Swift RTT)
        if is_retx:
            self.count_retransmit(msg.flow)
        else:
            msg.flow.stats.data_pkts_sent += 1
        # Every transmission gets its own hole deadline.  Deadlines are
        # pushed in nondecreasing order (always now + hole_to), so an
        # armed timer is never later than the true head.
        st.sent_at[psn] = now
        heappush(st.hole_heap, (now + self._hole_to, psn))
        if not st.hole_timer.armed:
            st.hole_timer.restart(self._hole_to)
        if not st.coarse_timer.armed:
            st.coarse_timer.restart(self.config.coarse_timeout_ns)
        return packet

    def _on_hole_timer(self, qp: QueuePair) -> None:
        """Expired per-hole deadlines: retransmit exactly those holes."""
        st = qp.tx_state
        if st is None:
            return
        now = self.sim.now
        heap = st.hole_heap
        queued = False
        while heap and heap[0][0] <= now:
            _deadline, psn = heappop(heap)
            if psn < st.snd_una or psn in st.sacked:
                continue                      # repaired; entry is dead
            if st.sent_at.get(psn, -1) + self._hole_to > now:
                continue                      # retransmitted since; newer
                                              # heap entry covers it
            if psn not in st.rtx_set:
                st.rtx_set.add(psn)
                st.rtx_queue.append(psn)
                queued = True
        if heap:
            st.hole_timer.restart(max(0, heap[0][0] - now))
        if queued:
            self._activate(qp)

    def _on_coarse(self, qp: QueuePair) -> None:
        """§4.5 fallback: no cumulative progress for a whole coarse
        period — the path (or its repairs) may be dead.  Counted apart
        from hole repairs and penalized by CC like a real RTO."""
        st = qp.tx_state
        if st is None or st.snd_una >= qp.next_psn:
            return
        flow = qp.psn_to_message(st.snd_una).flow
        self.count_coarse_timeout(flow)
        qp.cc.on_timeout(self.sim.now)
        st.fast_retx.clear()                  # fresh recovery episode
        for psn in range(st.snd_una, st.max_sent + 1):
            if psn not in st.sacked and psn not in st.rtx_set:
                st.rtx_set.add(psn)
                st.rtx_queue.append(psn)
        st.coarse_timer.restart(self.config.coarse_timeout_ns)
        self._activate(qp)

    def _advance_cumulative(self, qp: QueuePair, st: _SdrSendState,
                            ack_psn: int) -> None:
        new_una = ack_psn + 1
        if new_una <= st.snd_una:
            return
        acked_bytes = (new_una - st.snd_una) * self.config.mtu_payload
        for psn in range(st.snd_una, new_una):
            st.sent_at.pop(psn, None)
        st.snd_una = new_una
        st.sacked = {p for p in st.sacked if p >= new_una}
        st.fast_retx = {p for p in st.fast_retx if p >= new_una}
        cc = qp.cc
        if cc.wants_ack:
            cc.on_ack(acked_bytes, self.sim.now)
        self._complete_messages(qp, st)
        if st.snd_una >= qp.next_psn:
            # Everything posted is acknowledged: disarm both timers and
            # drop the dead bookkeeping.
            st.coarse_timer.cancel()
            st.hole_timer.cancel()
            st.hole_heap.clear()
            st.rtx_queue.clear()
            st.rtx_set.clear()
            st.sent_at.clear()
        else:
            st.coarse_timer.restart(self.config.coarse_timeout_ns)
        self._activate(qp)

    def _complete_messages(self, qp: QueuePair, st: _SdrSendState) -> None:
        for msg in qp.send_queue:
            if not msg.acked and st.snd_una >= msg.base_psn + msg.num_pkts:
                msg.acked = True
                if msg.flow.tx_complete_ns is None and all(
                        m.acked for m in qp.messages.values()
                        if m.flow is msg.flow):
                    msg.flow.tx_complete_ns = self.sim.now

    def _sample_rtt(self, qp: QueuePair, packet: Packet) -> None:
        cc = qp.cc
        if cc.wants_rtt:
            ts = packet.timestamp_ns
            if ts >= 0:
                cc.on_rtt(self.sim.now - ts, self.sim.now)

    def _on_ack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        self._sample_rtt(qp, packet)
        self._advance_cumulative(qp, st, packet.ack_psn)

    def _on_sack(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.tx_state
        if st is None:
            st = self._send_state(qp)
        self._sample_rtt(qp, packet)
        self._advance_cumulative(qp, st, packet.ack_psn)
        # Merge the ack vector: bit i acknowledges PSN ack_psn + 1 + i.
        base = packet.ack_psn + 1
        bitmap = packet.sack_bitmap
        high = -1
        while bitmap:
            low = bitmap & -bitmap
            psn = base + low.bit_length() - 1
            if st.snd_una <= psn <= st.max_sent:
                st.sacked.add(psn)
                st.sent_at.pop(psn, None)
                if psn > high:
                    high = psn
            bitmap ^= low
        # Vector-driven fast retransmit: a hole with sdr_sack_gap_pkts
        # packets SACKed above it is presumed lost.  Once per episode —
        # a re-lost fast retransmission waits for its hole timer.
        gap = self.config.sdr_sack_gap_pkts
        queued = False
        for psn in range(st.snd_una, high - gap + 1):
            if (psn not in st.sacked and psn not in st.fast_retx
                    and psn not in st.rtx_set):
                st.fast_retx.add(psn)
                st.rtx_set.add(psn)
                st.rtx_queue.append(psn)
                queued = True
        if queued:
            self._activate(qp)

    # ------------------------------------------------------------ receiver
    def _on_data(self, qp: QueuePair, packet: Packet) -> None:
        st = qp.rx_state
        if st is None:
            st = self._recv_state(qp)
        self.maybe_send_cnp(qp, packet)
        flow = self.flow_of(packet)
        psn = packet.psn
        if psn < st.epsn or psn in st.ooo:
            if flow is not None:
                flow.stats.dup_pkts_received += 1
                if packet.is_retransmit:
                    self.stats.spurious_retx += 1
            self._send_ack(qp, st, packet)
            return
        if psn >= st.epsn + self._reorder_bound:
            # Beyond the bounded reorder window: the software receiver
            # has no state to buffer it.  Dropped (not delivered, not
            # acked); the sender's hole timer re-sends it later.
            self.stats.ooo_drops += 1
            self._send_ack(qp, st, packet)
            return
        if flow is not None:
            flow.deliver(packet.payload_bytes, self.sim.now)
        if psn == st.epsn:
            st.epsn += 1
            while st.epsn in st.ooo:
                st.ooo.discard(st.epsn)
                st.epsn += 1
        else:
            st.ooo.add(psn)
        self._send_ack(qp, st, packet)

    def _send_ack(self, qp: QueuePair, st: _SdrRecvState,
                  data_packet: Packet) -> None:
        """Cumulative ack + ack vector over the OOO buffer."""
        bitmap = 0
        if st.ooo:
            epsn = st.epsn
            for p in st.ooo:
                off = p - epsn
                if off < SACK_VECTOR_BITS:
                    bitmap |= 1 << off
        kind = PacketKind.SACK if bitmap else PacketKind.ACK
        ack = make_ack(self.host_id, qp.peer_host_id, flow_id=-1,
                       qpn=qp.peer_qpn, src_qpn=qp.qpn, kind=kind,
                       ack_psn=st.epsn - 1, sack_bitmap=bitmap,
                       timestamp_ns=data_packet.timestamp_ns, dcp=False,
                       entropy=qp.entropy, sim=self.sim)
        self.nic.send_control(ack)
