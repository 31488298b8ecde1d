"""Microbenchmark: CDR marshalling throughput.

CDR encoding sits on every hot path — GIOP request/reply bodies, the
``any`` codec, state transfer envelopes and every Totem frame the live
runtime sends, all written on :mod:`repro.giop.cdr`.  This benchmark
exercises the offset-based primitives production runs (``w_*`` writers
with alignment padding, ``r_*`` readers) and the row-built frame codec of
:mod:`repro.totem.wire` directly, so regressions in either show up
without running a whole deployment.

Unlike the simulation benchmarks these use real repeated rounds: the
cost being measured *is* wall-clock Python execution.
"""

from repro.giop.cdr import (r_boolean, r_double, r_long, r_octet, r_string,
                            r_ulong, r_ulonglong, w_boolean, w_double, w_long,
                            w_octet, w_string, w_ulong, w_ulonglong)
from repro.totem.messages import DataMsg, PackedDataMsg, PackedPayload
from repro.totem.wire import decode_frame_payload, encode_frame_payload_into

PRIMITIVE_ROUNDS = 200       # mixed-primitive records per encode pass
CHUNK = bytes(range(256)) * 4


def _encode_mixed_records() -> bytes:
    buf = bytearray()
    for i in range(PRIMITIVE_ROUNDS):
        w_octet(buf, i & 0xFF)              # deliberately misaligns the
        w_ulong(buf, i)                     # buffer so ulong/ulonglong
        w_ulonglong(buf, i * 7)             # writes exercise padding
        w_long(buf, -i)
        w_double(buf, i * 0.5)
        w_string(buf, f"member-{i}")
        w_boolean(buf, i % 2 == 0)
    return bytes(buf)


def _decode_mixed_records(data: bytes) -> list:
    pos, records = 0, []
    for _ in range(PRIMITIVE_ROUNDS):
        octet, pos = r_octet(data, pos)
        ulong, pos = r_ulong(data, pos)
        ulonglong, pos = r_ulonglong(data, pos)
        long, pos = r_long(data, pos)
        double, pos = r_double(data, pos)
        string, pos = r_string(data, pos)
        boolean, pos = r_boolean(data, pos)
        records.append((octet, ulong, ulonglong, long, double, string,
                        boolean))
    assert pos == len(data)
    return records


def test_cdr_primitive_marshalling(benchmark):
    encoded = benchmark(_encode_mixed_records)
    # sanity: decode the first record back
    assert _decode_mixed_records(encoded)[0] == (0, 0, 0, 0, 0.0,
                                                 "member-0", True)


def test_cdr_primitive_unmarshalling(benchmark):
    records = benchmark(_decode_mixed_records, _encode_mixed_records())
    assert records[-1][5] == f"member-{PRIMITIVE_ROUNDS - 1}"


def test_totem_frame_round_trip(benchmark):
    """Encode+decode the frames the live transport actually carries."""
    frames = [
        DataMsg(ring_id=1, seq=s, sender="n1", msg_id=("n1", s),
                frag_index=0, frag_count=1, chunk=CHUNK)
        for s in range(8)
    ] + [
        PackedDataMsg(ring_id=1, seq=100 + s, sender="n2", payloads=(
            PackedPayload(("n2", s), 0, 1, CHUNK[:300]),
            PackedPayload(("n2", s + 1), 0, 1, CHUNK[:300]),
            PackedPayload(("n2", s + 2), 0, 1, CHUNK[:300]),
        ))
        for s in range(8)
    ]

    scratch = bytearray()

    def round_trip():
        decoded = []
        for frame in frames:
            del scratch[:]
            encode_frame_payload_into(scratch, frame)
            decoded.append(decode_frame_payload(bytes(scratch)))
        return decoded

    decoded = benchmark(round_trip)
    assert decoded == frames
