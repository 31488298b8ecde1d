"""Reference CDR codec for Totem frames: the property-test oracle.

An independent encoder and decoder for all thirteen frame types of
:mod:`repro.totem.wire`, written on :mod:`repro.giop.cdr`'s general
streams rather than on the codec's own struct helpers.  The live codec
must produce exactly these bytes and decode them back to the original
frame (``test_live_codec_properties.py``), which pins the wire layout
to CDR without the codec importing the GIOP layer.
"""

from repro.errors import ProtocolError
from repro.giop.cdr import CdrInputStream, CdrOutputStream
from repro.totem.messages import (DataMsg, FormMsg, HoldCancel, JoinMsg,
                                  PackedDataMsg, PackedPayload, ProbeMsg,
                                  Token)
from repro.totem.wire import (BulkFetch, BulkNack, BulkPage, ReadFastNack,
                              ReadFastReply, ReadFastRequest)

WIRE_VERSION = 2

TAG_DATA = 1
TAG_PACKED = 2
TAG_TOKEN = 3
TAG_JOIN = 4
TAG_FORM = 5
TAG_PROBE = 6
TAG_BULK_FETCH = 7
TAG_BULK_PAGE = 8
TAG_BULK_NACK = 9
TAG_READFAST_REQ = 10
TAG_READFAST_REPLY = 11
TAG_READFAST_NACK = 12
TAG_HOLD_CANCEL = 13


def _write_msg_id(out, msg_id):
    out.write_string(msg_id[0])
    out.write_ulonglong(msg_id[1])


def _read_msg_id(inp):
    return (inp.read_string(), inp.read_ulonglong())


def _write_members(out, members):
    out.write_ulong(len(members))
    for member in members:
        out.write_string(member)


def _read_members(inp):
    return tuple(inp.read_string() for _ in range(inp.read_ulong()))


def oracle_encode(msg) -> bytes:
    """One whole frame (version, tag, body) through the CDR streams."""
    out = CdrOutputStream()
    out.write_octet(WIRE_VERSION)
    if isinstance(msg, DataMsg):
        out.write_octet(TAG_DATA)
        out.write_ulonglong(msg.ring_id)
        out.write_ulonglong(msg.seq)
        out.write_string(msg.sender)
        _write_msg_id(out, msg.msg_id)
        out.write_ulong(msg.frag_index)
        out.write_ulong(msg.frag_count)
        out.write_boolean(msg.retransmit)
        out.write_octets(msg.chunk)
        out.write_string(msg.trace_id)
    elif isinstance(msg, PackedDataMsg):
        out.write_octet(TAG_PACKED)
        out.write_ulonglong(msg.ring_id)
        out.write_ulonglong(msg.seq)
        out.write_string(msg.sender)
        out.write_boolean(msg.retransmit)
        out.write_ulong(len(msg.payloads))
        for payload in msg.payloads:
            _write_msg_id(out, payload.msg_id)
            out.write_ulong(payload.frag_index)
            out.write_ulong(payload.frag_count)
            out.write_octets(payload.chunk)
            out.write_string(payload.trace_id)
    elif isinstance(msg, Token):
        out.write_octet(TAG_TOKEN)
        out.write_ulonglong(msg.ring_id)
        out.write_ulonglong(msg.seq)
        out.write_ulonglong(msg.aru)
        out.write_string(msg.aru_id)
        out.write_ulong(len(msg.rtr))
        for seq in msg.rtr:
            out.write_ulonglong(seq)
        out.write_ulonglong(msg.rotations)
        out.write_ulong(msg.ring_key)
        out.write_octet(msg.commit_phase)
    elif isinstance(msg, JoinMsg):
        out.write_octet(TAG_JOIN)
        out.write_string(msg.sender)
        out.write_ulonglong(msg.ring_id_seen)
        out.write_ulonglong(msg.delivered_aru)
        out.write_ulong(len(msg.held))
        for seq in sorted(msg.held):
            out.write_ulonglong(seq)
        out.write_boolean(msg.fresh)
        _write_members(out, msg.view_members)
        out.write_ulonglong(msg.base_seen)
    elif isinstance(msg, FormMsg):
        out.write_octet(TAG_FORM)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.leader)
        _write_members(out, msg.members)
        out.write_ulonglong(msg.flush_seq)
        out.write_ulonglong(msg.base_seq)
        out.write_ulong(len(msg.holders))
        for seq in sorted(msg.holders):
            out.write_ulonglong(seq)
            out.write_string(msg.holders[seq])
        _write_members(out, msg.fresh_members)
    elif isinstance(msg, ProbeMsg):
        out.write_octet(TAG_PROBE)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.sender)
        _write_members(out, msg.members)
    elif isinstance(msg, HoldCancel):
        out.write_octet(TAG_HOLD_CANCEL)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.sender)
    elif isinstance(msg, BulkFetch):
        out.write_octet(TAG_BULK_FETCH)
        out.write_string(msg.session_id)
        out.write_string(msg.requester)
        out.write_ulong(msg.first_page)
        out.write_ulong(msg.last_page)
    elif isinstance(msg, BulkPage):
        out.write_octet(TAG_BULK_PAGE)
        out.write_string(msg.session_id)
        out.write_string(msg.sender)
        out.write_ulong(msg.index)
        out.write_ulong(msg.crc)
        out.write_octets(msg.page)
    elif isinstance(msg, BulkNack):
        out.write_octet(TAG_BULK_NACK)
        out.write_string(msg.session_id)
        out.write_string(msg.sender)
        out.write_string(msg.reason)
    elif isinstance(msg, ReadFastRequest):
        out.write_octet(TAG_READFAST_REQ)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_string(msg.requester)
        out.write_ulonglong(msg.ring_id)
        out.write_octets(msg.iiop_bytes)
    elif isinstance(msg, ReadFastReply):
        out.write_octet(TAG_READFAST_REPLY)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_ulonglong(msg.ring_id)
        out.write_octets(msg.iiop_bytes)
    elif isinstance(msg, ReadFastNack):
        out.write_octet(TAG_READFAST_NACK)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_string(msg.reason)
    else:
        raise ProtocolError(
            f"cannot encode Totem frame {type(msg).__name__}")
    return out.getvalue()


def oracle_decode(data):
    """Inverse of :func:`oracle_encode`."""
    inp = CdrInputStream(data)
    if inp.read_octet() != WIRE_VERSION:
        raise ProtocolError("unknown Totem wire version")
    tag = inp.read_octet()
    if tag == TAG_DATA:
        ring_id = inp.read_ulonglong()
        seq = inp.read_ulonglong()
        sender = inp.read_string()
        msg_id = _read_msg_id(inp)
        frag_index = inp.read_ulong()
        frag_count = inp.read_ulong()
        retransmit = inp.read_boolean()
        chunk = inp.read_octets()
        trace_id = inp.read_string()
        return DataMsg(ring_id, seq, sender, msg_id, frag_index,
                       frag_count, chunk, retransmit, trace_id)
    if tag == TAG_PACKED:
        ring_id = inp.read_ulonglong()
        seq = inp.read_ulonglong()
        sender = inp.read_string()
        retransmit = inp.read_boolean()
        count = inp.read_ulong()
        payloads = []
        for _ in range(count):
            msg_id = _read_msg_id(inp)
            frag_index = inp.read_ulong()
            frag_count = inp.read_ulong()
            chunk = inp.read_octets()
            payloads.append(PackedPayload(msg_id, frag_index, frag_count,
                                          chunk, inp.read_string()))
        return PackedDataMsg(ring_id, seq, sender, tuple(payloads),
                             retransmit)
    if tag == TAG_TOKEN:
        ring_id = inp.read_ulonglong()
        seq = inp.read_ulonglong()
        aru = inp.read_ulonglong()
        aru_id = inp.read_string()
        rtr = [inp.read_ulonglong() for _ in range(inp.read_ulong())]
        rotations = inp.read_ulonglong()
        ring_key = inp.read_ulong()
        commit_phase = inp.read_octet()
        return Token(ring_id, seq, aru, aru_id, rtr, rotations, ring_key,
                     commit_phase)
    if tag == TAG_JOIN:
        sender = inp.read_string()
        ring_id_seen = inp.read_ulonglong()
        delivered_aru = inp.read_ulonglong()
        held = frozenset(inp.read_ulonglong()
                         for _ in range(inp.read_ulong()))
        fresh = inp.read_boolean()
        view_members = _read_members(inp)
        base_seen = inp.read_ulonglong()
        return JoinMsg(sender, ring_id_seen, delivered_aru, held, fresh,
                       view_members, base_seen)
    if tag == TAG_FORM:
        ring_id = inp.read_ulonglong()
        leader = inp.read_string()
        members = _read_members(inp)
        flush_seq = inp.read_ulonglong()
        base_seq = inp.read_ulonglong()
        holders = {}
        for _ in range(inp.read_ulong()):
            seq = inp.read_ulonglong()
            holders[seq] = inp.read_string()
        fresh_members = _read_members(inp)
        return FormMsg(ring_id, leader, members, flush_seq, base_seq,
                       holders, fresh_members)
    if tag == TAG_PROBE:
        ring_id = inp.read_ulonglong()
        sender = inp.read_string()
        members = _read_members(inp)
        return ProbeMsg(ring_id, sender, members)
    if tag == TAG_HOLD_CANCEL:
        return HoldCancel(inp.read_ulonglong(), inp.read_string())
    if tag == TAG_BULK_FETCH:
        return BulkFetch(inp.read_string(), inp.read_string(),
                         inp.read_ulong(), inp.read_ulong())
    if tag == TAG_BULK_PAGE:
        return BulkPage(inp.read_string(), inp.read_string(),
                        inp.read_ulong(), inp.read_ulong(),
                        inp.read_octets())
    if tag == TAG_BULK_NACK:
        return BulkNack(inp.read_string(), inp.read_string(),
                        inp.read_string())
    if tag == TAG_READFAST_REQ:
        return ReadFastRequest(inp.read_string(), inp.read_string(),
                               inp.read_ulonglong(), inp.read_string(),
                               inp.read_ulonglong(), inp.read_octets())
    if tag == TAG_READFAST_REPLY:
        return ReadFastReply(inp.read_string(), inp.read_string(),
                             inp.read_ulonglong(), inp.read_ulonglong(),
                             inp.read_octets())
    if tag == TAG_READFAST_NACK:
        return ReadFastNack(inp.read_string(), inp.read_string(),
                            inp.read_ulonglong(), inp.read_string())
    raise ProtocolError(f"unknown Totem frame tag {tag}")
