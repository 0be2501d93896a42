"""Unit tests for the packet model and DCP header extensions."""

import pytest

from repro.net.packet import (ACK_PACKET_BYTES, DCP_DATA_HEADER_BYTES,
                              HO_PACKET_BYTES, DcpTag, Packet, PacketKind,
                              make_ack, make_cnp, make_data_packet)


def _data(dcp=True, payload=1000):
    return make_data_packet(1, 2, flow_id=5, qpn=10, src_qpn=11, psn=3, msn=0,
                            payload=payload, mtu_payload=1000,
                            msg_len_pkts=4, msg_len_bytes=4000,
                            msg_offset_pkts=3, dcp=dcp)


def test_ho_packet_is_57_bytes():
    # Footnote 6: 14 MAC + 20 IP + 8 UDP + 12 BTH + 3 MSN = 57 B.
    assert HO_PACKET_BYTES == 57


def test_dcp_data_header_includes_reth():
    # §4.4: DCP carries the RETH in every packet (+16 B over the HO header).
    assert DCP_DATA_HEADER_BYTES == HO_PACKET_BYTES + 16


def test_data_packet_sizes():
    pkt = _data(dcp=True)
    assert pkt.size_bytes == DCP_DATA_HEADER_BYTES + 1000
    assert pkt.payload_bytes == 1000
    assert pkt.dcp_tag is DcpTag.DCP_DATA


def test_non_dcp_packet_tag():
    pkt = _data(dcp=False)
    assert pkt.dcp_tag is DcpTag.NON_DCP
    assert pkt.is_droppable_under_congestion


def test_trim_preserves_identity_fields():
    pkt = _data()
    uid = pkt.uid
    pkt.trim()
    assert pkt.kind is PacketKind.HO
    assert pkt.dcp_tag is DcpTag.DCP_HO
    assert pkt.size_bytes == HO_PACKET_BYTES
    assert pkt.payload_bytes == 0
    # Identity preserved: this is what makes retransmission precise.
    assert (pkt.psn, pkt.msn, pkt.flow_id, pkt.uid) == (3, 0, 5, uid)


def test_trim_rejects_non_dcp():
    pkt = _data(dcp=False)
    with pytest.raises(ValueError):
        pkt.trim()


def test_trim_rejects_double_trim():
    pkt = _data()
    pkt.trim()
    with pytest.raises(ValueError):
        pkt.trim()


def test_turn_around_swaps_endpoints():
    pkt = _data()
    pkt.trim()
    pkt.turn_around()
    assert (pkt.src, pkt.dst) == (2, 1)
    assert (pkt.qpn, pkt.src_qpn) == (11, 10)
    assert pkt.ho_returned


def test_turn_around_only_for_ho():
    pkt = _data()
    with pytest.raises(ValueError):
        pkt.turn_around()


def test_ho_is_control_class():
    pkt = _data()
    assert not pkt.is_control
    pkt.trim()
    assert pkt.is_control


def test_ack_builder():
    ack = make_ack(2, 1, flow_id=5, qpn=10, src_qpn=11, ack_psn=7, emsn=2,
                   dcp=True)
    assert ack.kind is PacketKind.ACK
    assert ack.size_bytes == ACK_PACKET_BYTES
    assert ack.dcp_tag is DcpTag.DCP_ACK
    assert ack.is_droppable_under_congestion
    assert (ack.ack_psn, ack.emsn) == (7, 2)


def test_cnp_builder():
    cnp = make_cnp(2, 1, flow_id=5, qpn=10, src_qpn=11)
    assert cnp.kind is PacketKind.CNP


def test_payload_bounds_checked():
    with pytest.raises(ValueError):
        _data(payload=0)
    with pytest.raises(ValueError):
        _data(payload=1001)


def test_uids_unique():
    assert _data().uid != _data().uid


def test_last_packet_shorter_payload():
    pkt = make_data_packet(1, 2, flow_id=1, qpn=1, src_qpn=2, psn=0, msn=0,
                           payload=100, mtu_payload=1000, msg_len_pkts=1,
                           msg_len_bytes=100, msg_offset_pkts=0, dcp=True)
    assert pkt.size_bytes == DCP_DATA_HEADER_BYTES + 100
