"""Micro timings of the pure codec and delta functions on seeded canonical
inputs: the median of many calls, so a codec change shows here before it
is large enough to move an end-to-end number.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import Callable, Dict

from repro.core import bulk, envelope, statedelta
from repro.core.identifiers import ConnectionKey, OpKind
from repro.giop import messages as giop
from repro.totem import wire
from repro.totem.messages import DataMsg, PackedDataMsg, PackedPayload, Token

from driver import make_input

#: Calls timed per codec (microseconds each) and per state-sized function
#: (about a millisecond each).
CODEC_CALLS = 2_000
STATE_CALLS = 100
STATE_BYTES = 350_000
DIRTY_SHARE = 0.1


def median_us(fn: Callable[[], object], calls: int) -> float:
    samples = []
    for _ in range(calls):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e6


def run_micro(seed: int) -> Dict[str, float]:
    """``{metric name: value}`` for every micro metric."""
    rng = random.Random(seed)
    key, value = make_input(seed, 0, 0)

    request = giop.RequestMessage(
        request_id=rng.randrange(1 << 20), object_key=b"RootPOA/app",
        operation="put", args=(key, value))
    reply = giop.ReplyMessage(request_id=request.request_id, result=True)
    request_bytes = giop.encode_message(request)
    reply_bytes = giop.encode_message(reply)

    env = envelope.IiopEnvelope(
        connection=ConnectionKey("driver0", "app"), kind=OpKind.REQUEST,
        request_id=request.request_id, sender_node="n1",
        iiop_bytes=request_bytes)
    env_bytes = envelope.encode_envelope(env)

    token = Token(ring_id=4, seq=rng.randrange(1 << 20), aru=7, aru_id="n2",
                  rtr=[3, 5], rotations=9, ring_key=rng.randrange(1 << 30))
    data = DataMsg(ring_id=4, seq=11, sender="n1", msg_id=("n1", 12),
                   frag_index=0, frag_count=1, chunk=env_bytes)
    packed = PackedDataMsg(ring_id=4, seq=11, sender="n1", payloads=tuple(
        PackedPayload(msg_id=("n1", 12 + i), frag_index=0, frag_count=1,
                      chunk=env_bytes) for i in range(8)))

    def encoded(msg) -> bytes:
        buf = bytearray()
        wire.encode_frame_payload_into(buf, msg)
        return bytes(buf)

    scratch = bytearray()

    def encode(msg) -> None:
        del scratch[:]
        wire.encode_frame_payload_into(scratch, msg)

    frames = {"token": (token, encoded(token)),
              "data": (data, encoded(data)),
              "packed": (packed, encoded(packed))}

    out: Dict[str, float] = {}
    for name, (msg, frame) in frames.items():
        out[f"totem.wire.{name}_encode_us"] = median_us(
            lambda msg=msg: encode(msg), CODEC_CALLS)
        out[f"totem.wire.{name}_decode_us"] = median_us(
            lambda frame=frame: wire.decode_frame_payload(frame), CODEC_CALLS)
    out["giop.request_encode_us"] = median_us(
        lambda: giop.encode_message(request), CODEC_CALLS)
    out["giop.request_decode_us"] = median_us(
        lambda: giop.decode_message(request_bytes), CODEC_CALLS)
    out["giop.reply_encode_us"] = median_us(
        lambda: giop.encode_message(reply), CODEC_CALLS)
    out["giop.reply_decode_us"] = median_us(
        lambda: giop.decode_message(reply_bytes), CODEC_CALLS)
    out["core.envelope.encode_us"] = median_us(
        lambda: envelope.encode_envelope(env), CODEC_CALLS)
    out["core.envelope.decode_us"] = median_us(
        lambda: envelope.decode_envelope(env_bytes), CODEC_CALLS)

    base = rng.randbytes(STATE_BYTES)
    dirty = bytearray(base)
    start = rng.randrange(STATE_BYTES - int(STATE_BYTES * DIRTY_SHARE))
    span = int(STATE_BYTES * DIRTY_SHARE)
    dirty[start:start + span] = rng.randbytes(span)
    new = bytes(dirty)
    delta = statedelta.compute_delta(base, new)
    if statedelta.apply_delta(base, delta) != new:
        raise AssertionError("apply_delta(compute_delta) lost the state")
    out["core.statedelta.compute_delta_ms"] = median_us(
        lambda: statedelta.compute_delta(base, new), STATE_CALLS) / 1e3
    out["core.statedelta.apply_delta_ms"] = median_us(
        lambda: statedelta.apply_delta(base, delta), STATE_CALLS) / 1e3
    out["core.bulk.build_manifest_ms"] = median_us(
        lambda: bulk.build_manifest(new), STATE_CALLS) / 1e3
    return out
