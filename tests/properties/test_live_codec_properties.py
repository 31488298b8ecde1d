"""Property tests for the live frame codec (:mod:`repro.live.transport`
over :mod:`repro.totem.wire`), drawn over all thirteen frame types.

Three guarantees the raw-speed work must not erode:

* **CDR equivalence** — the codec's bytes equal those of the reference
  CDR codec in :mod:`tests.properties.cdr_oracle`, and the reference's
  bytes decode back to the original frame.
* **Zero-copy equivalence** — decoding through the ``memoryview`` fast
  path (and encoding through a reused scratch buffer) produces results
  identical to a decode over a fresh private copy of the bytes.  The
  zero-copy layer is an allocation optimization, never a semantic
  change.
* **Hostile containment** — arbitrary, truncated, or bit-flipped
  datagrams either decode (the corrupted byte was slack) or raise
  :class:`~repro.errors.NetworkError`; nothing escapes the library's
  error hierarchy, so the transport drops the frame and keeps running.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.live.transport import decode_frame, encode_frame
from repro.totem.messages import (DataMsg, FormMsg, HoldCancel, JoinMsg,
                                  PackedDataMsg, PackedPayload, ProbeMsg,
                                  Token)
from repro.totem.wire import (BulkFetch, BulkNack, BulkPage, ReadFastNack,
                              ReadFastReply, ReadFastRequest,
                              decode_frame_payload, encode_frame_payload_into)
from tests.properties.cdr_oracle import oracle_decode, oracle_encode

node_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12)

msg_ids = st.tuples(node_ids, st.integers(0, 2 ** 40))

data_msgs = st.builds(
    DataMsg,
    ring_id=st.integers(0, 2 ** 32 - 1),
    seq=st.integers(0, 2 ** 40),
    sender=node_ids,
    msg_id=msg_ids,
    frag_index=st.integers(0, 1000),
    frag_count=st.integers(1, 1001),
    chunk=st.binary(max_size=1400),
    retransmit=st.booleans(),
    trace_id=st.one_of(st.just(""), node_ids),
)

packed_msgs = st.builds(
    PackedDataMsg,
    ring_id=st.integers(0, 2 ** 32 - 1),
    seq=st.integers(0, 2 ** 40),
    sender=node_ids,
    payloads=st.tuples() | st.lists(
        st.builds(
            PackedPayload,
            msg_id=msg_ids,
            frag_index=st.integers(0, 1000),
            frag_count=st.integers(1, 1001),
            chunk=st.binary(max_size=200),
        ),
        min_size=1, max_size=5).map(tuple),
    retransmit=st.booleans(),
)

tokens = st.builds(
    Token,
    ring_id=st.integers(0, 2 ** 32 - 1),
    seq=st.integers(0, 2 ** 40),
    aru=st.integers(0, 2 ** 40),
    aru_id=st.one_of(st.just(""), node_ids),
    rtr=st.lists(st.integers(0, 2 ** 40), max_size=6),
    rotations=st.integers(0, 2 ** 40),
    ring_key=st.integers(0, 2 ** 32 - 1),
    commit_phase=st.integers(0, 2),
)

join_msgs = st.builds(
    JoinMsg,
    sender=node_ids,
    ring_id_seen=st.integers(0, 2 ** 32 - 1),
    delivered_aru=st.integers(0, 2 ** 40),
    held=st.frozensets(st.integers(0, 2 ** 40), max_size=6),
    fresh=st.booleans(),
    view_members=st.lists(node_ids, max_size=4).map(tuple),
    base_seen=st.integers(0, 2 ** 40),
    candidates=st.lists(node_ids, max_size=4).map(tuple),
)

form_msgs = st.builds(
    FormMsg,
    ring_id=st.integers(0, 2 ** 32 - 1),
    leader=node_ids,
    members=st.lists(node_ids, max_size=4).map(tuple),
    flush_seq=st.integers(0, 2 ** 40),
    base_seq=st.integers(0, 2 ** 40),
    holders=st.dictionaries(st.integers(0, 2 ** 40), node_ids, max_size=6),
    fresh_members=st.lists(node_ids, max_size=4).map(tuple),
)

probe_msgs = st.builds(
    ProbeMsg,
    ring_id=st.integers(0, 2 ** 32 - 1),
    sender=node_ids,
    members=st.lists(node_ids, max_size=4).map(tuple),
)

hold_cancels = st.builds(
    HoldCancel,
    ring_id=st.integers(0, 2 ** 32 - 1),
    sender=node_ids,
)

# Session, group and connection ids are free text: exercise multi-byte
# UTF-8 (and embedded NULs) where the ring frames only carry node ids.
names = st.text(max_size=24)
u32s = st.integers(0, 2 ** 32 - 1)
u64s = st.integers(0, 2 ** 64 - 1)

bulk_fetches = st.builds(
    BulkFetch, session_id=names, requester=node_ids, first_page=u32s,
    last_page=u32s)

bulk_pages = st.builds(
    BulkPage, session_id=names, sender=node_ids, index=u32s, crc=u32s,
    page=st.binary(max_size=1400))

bulk_nacks = st.builds(
    BulkNack, session_id=names, sender=node_ids,
    reason=st.sampled_from(["unknown", "pending"]) | names)

readfast_requests = st.builds(
    ReadFastRequest, group_id=names, conn=names, request_id=u64s,
    requester=node_ids, ring_id=u64s, iiop_bytes=st.binary(max_size=600))

readfast_replies = st.builds(
    ReadFastReply, group_id=names, conn=names, request_id=u64s,
    ring_id=u64s, iiop_bytes=st.binary(max_size=600))

readfast_nacks = st.builds(
    ReadFastNack, group_id=names, conn=names, request_id=u64s,
    reason=st.sampled_from(["not_leaseholder", "ring_changed"]) | names)

#: One strategy per payload class a ring member, the bulk lane or the
#: read-lease coordinator registers with its endpoint
#: (``tests/unit/test_repo_hygiene.py`` holds the two together).
FRAME_STRATEGIES = {
    DataMsg: data_msgs,
    PackedDataMsg: packed_msgs,
    Token: tokens,
    JoinMsg: join_msgs,
    FormMsg: form_msgs,
    ProbeMsg: probe_msgs,
    HoldCancel: hold_cancels,
    BulkFetch: bulk_fetches,
    BulkPage: bulk_pages,
    BulkNack: bulk_nacks,
    ReadFastRequest: readfast_requests,
    ReadFastReply: readfast_replies,
    ReadFastNack: readfast_nacks,
}

frames = st.one_of(*FRAME_STRATEGIES.values())


@given(src=node_ids, msg=frames)
@settings(max_examples=300, deadline=None)
def test_zero_copy_decode_equals_generic(src, msg):
    scratch = bytearray()
    wire = encode_frame(src, msg, scratch)
    # Scratch reuse never changes the encoded bytes.
    assert wire == encode_frame(src, msg)
    src_fast, out_fast = decode_frame(wire)
    # A fresh private copy, so no zero-copy views into the original
    # buffer can be involved.
    src_slow, out_slow = decode_frame(bytes(bytearray(wire)))
    assert src_fast == src_slow == src
    assert out_fast == out_slow == msg
    assert type(out_fast) is type(msg)
    # The codec is the CDR reference, byte for byte and both ways.
    oracle = oracle_encode(msg)
    body = bytearray()
    encode_frame_payload_into(body, msg)
    assert bytes(body) == oracle
    assert decode_frame_payload(oracle) == msg
    assert oracle_decode(oracle) == msg


@given(data=st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_hostile_datagram_contained(data):
    try:
        decode_frame(data)
    except NetworkError:
        pass


valid_frames = frames.map(lambda msg: encode_frame("n1", msg))


@given(frame=valid_frames, data=st.data(), value=st.integers(0, 255))
@settings(max_examples=600, deadline=None)
def test_bit_flipped_frame_contained(frame, data, value):
    mutated = bytearray(frame)
    mutated[data.draw(st.integers(0, len(frame) - 1))] = value
    try:
        decode_frame(bytes(mutated))
    except NetworkError:
        pass


@given(frame=valid_frames, data=st.data())
@settings(max_examples=300, deadline=None)
def test_truncated_frame_contained(frame, data):
    cut = data.draw(st.integers(1, len(frame)))
    try:
        decode_frame(frame[:-cut])
    except NetworkError:
        pass
