"""Factory-contract tests for :mod:`repro.net.packet` and PFC frames.

The hot factories (``make_data_packet``, ``make_ack``) skip
``Packet.__init__`` and store every slot by hand.  Their contract is
that the result is indistinguishable from ``Packet(...)`` called with
the same arguments, slot for slot — a slot the factory forgets to store
fails the comparison — and that a simulation's packets take uids
``1..n`` from ``sim.packet_seq`` whichever factory built them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import (ACK_PACKET_BYTES, DCP_DATA_HEADER_BYTES,
                              ROCE_DATA_HEADER_BYTES, DcpTag, Packet,
                              PacketKind, make_ack, make_cnp,
                              make_data_packet)
from repro.net.pfc import make_pause, make_resume
from repro.sim.engine import Simulator


def _slot_values(packet):
    return {name: getattr(packet, name) for name in Packet.__slots__}


_data_args = st.fixed_dictionaries({
    "flow_id": st.integers(-1, 1 << 20),
    "qpn": st.integers(-1, 1 << 20),
    "src_qpn": st.integers(-1, 1 << 20),
    "psn": st.integers(-1, 1 << 24),
    "msn": st.integers(-1, 1 << 24),
    "payload": st.integers(1, 4096),
    "msg_len_pkts": st.integers(0, 1 << 16),
    "msg_len_bytes": st.integers(0, 1 << 30),
    "msg_offset_pkts": st.integers(0, 1 << 16),
    "dcp": st.booleans(),
    "ssn": st.integers(-1, 1 << 20),
    "sretry_no": st.integers(0, 7),
    "entropy": st.integers(0, 1 << 16),
    "is_retransmit": st.booleans(),
    "priority": st.integers(0, 7),
})

_ack_args = st.fixed_dictionaries({
    "flow_id": st.integers(-1, 1 << 20),
    "qpn": st.integers(-1, 1 << 20),
    "src_qpn": st.integers(-1, 1 << 20),
    "kind": st.sampled_from([PacketKind.ACK, PacketKind.SACK,
                             PacketKind.NAK, PacketKind.TCP_ACK]),
    "ack_psn": st.integers(-1, 1 << 24),
    "emsn": st.integers(-1, 1 << 24),
    "sack_psn": st.integers(-1, 1 << 24),
    "sack_bitmap": st.integers(0, (1 << 64) - 1),
    "timestamp_ns": st.integers(-1, 1 << 40),
    "dcp": st.booleans(),
    "entropy": st.integers(0, 1 << 16),
    "priority": st.integers(0, 7),
})


@given(args=_data_args)
@settings(max_examples=100, deadline=None)
def test_data_factory_matches_constructor(args):
    got = make_data_packet(1, 2, mtu_payload=args["payload"], sim=Simulator(),
                           **args)
    dcp = args["dcp"]
    header = DCP_DATA_HEADER_BYTES if dcp else ROCE_DATA_HEADER_BYTES
    ref = Packet(
        src=1, dst=2, kind=PacketKind.DATA,
        size_bytes=header + args["payload"], payload_bytes=args["payload"],
        flow_id=args["flow_id"], qpn=args["qpn"], src_qpn=args["src_qpn"],
        psn=args["psn"], msn=args["msn"], ssn=args["ssn"],
        msg_len_pkts=args["msg_len_pkts"],
        msg_len_bytes=args["msg_len_bytes"],
        msg_offset_pkts=args["msg_offset_pkts"],
        sretry_no=args["sretry_no"],
        dcp_tag=DcpTag.DCP_DATA if dcp else DcpTag.NON_DCP,
        entropy=args["entropy"], is_retransmit=args["is_retransmit"],
        priority=args["priority"], uid=1,
    )
    assert _slot_values(got) == _slot_values(ref)


@given(args=_ack_args)
@settings(max_examples=100, deadline=None)
def test_ack_factory_matches_constructor(args):
    got = make_ack(3, 4, sim=Simulator(), **args)
    fields = dict(args)
    dcp = fields.pop("dcp")
    ref = Packet(src=3, dst=4, size_bytes=ACK_PACKET_BYTES,
                 dcp_tag=DcpTag.DCP_ACK if dcp else DcpTag.NON_DCP,
                 uid=1, **fields)
    assert _slot_values(got) == _slot_values(ref)


def test_uids_count_from_packet_seq():
    """Every factory draws its uid from sim.packet_seq, in call order."""
    sim = Simulator()
    built = [
        make_data_packet(1, 2, psn=0, payload=100, mtu_payload=100,
                         msg_len_pkts=1, msg_len_bytes=100, sim=sim),
        make_ack(2, 1, ack_psn=0, sim=sim),
        make_cnp(2, 1, flow_id=0, qpn=1, src_qpn=2, sim=sim),
        make_pause(0, sim=sim),
        make_resume(0, sim=sim),
    ]
    built += [make_data_packet(1, 2, psn=i, payload=100, mtu_payload=100,
                               msg_len_pkts=5, msg_len_bytes=500, sim=sim)
              for i in range(5)]
    assert [p.uid for p in built] == list(range(1, 11))
    assert sim.packet_seq == 10
    assert len({id(p) for p in built}) == 10    # fresh objects, never reused

