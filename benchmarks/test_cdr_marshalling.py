"""Microbenchmark: CDR marshalling throughput.

CDR encoding sits on every hot path — GIOP request/reply headers, state
transfer envelopes, and (in the same layout, through the Totem codec's
own struct helpers) every Totem frame the live runtime sends.  This
benchmark exercises the primitive-write loop of
:class:`repro.giop.cdr.CdrOutputStream` (alignment padding, struct
packing) and the frame codec of :mod:`repro.totem.wire` directly, so
regressions in either show up without running a whole deployment.

Unlike the simulation benchmarks these use real repeated rounds: the
cost being measured *is* wall-clock Python execution.
"""

from repro.giop.cdr import CdrInputStream, CdrOutputStream
from repro.totem.messages import DataMsg, PackedDataMsg, PackedPayload
from repro.totem.wire import decode_frame_payload, encode_frame_payload_into

PRIMITIVE_ROUNDS = 200       # mixed-primitive records per encode pass
CHUNK = bytes(range(256)) * 4


def _encode_mixed_records() -> bytes:
    out = CdrOutputStream()
    for i in range(PRIMITIVE_ROUNDS):
        out.write_octet(i & 0xFF)           # deliberately misaligns the
        out.write_ulong(i)                  # stream so ulong/ulonglong
        out.write_ulonglong(i * 7)          # writes exercise padding
        out.write_short(-i & 0x7FFF)
        out.write_double(i * 0.5)
        out.write_string(f"member-{i}")
        out.write_boolean(i % 2 == 0)
    return out.getvalue()


def test_cdr_primitive_marshalling(benchmark):
    encoded = benchmark(_encode_mixed_records)
    # sanity: decode the first record back
    inp = CdrInputStream(encoded)
    assert inp.read_octet() == 0
    assert inp.read_ulong() == 0
    assert inp.read_ulonglong() == 0
    assert inp.read_short() == 0
    assert inp.read_double() == 0.0
    assert inp.read_string() == "member-0"
    assert inp.read_boolean() is True


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
