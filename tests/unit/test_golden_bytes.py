"""Golden bytes for the formats no oracle checks.

The Totem frames, GIOP messages, ``any`` values and multicast envelopes
are held to independent CDR references by the property suite.  Journal
records, delta and manifest bodies, the IOR and the service contexts have
no such reference, so these tests pin one encoding of each to bytes
recorded before their codecs moved onto the record builder — and a
journal written then must still load.
"""

from repro.core.bulk import build_manifest, decode_manifest, encode_manifest
from repro.core.msglog import CheckpointRecord
from repro.core.statedelta import compute_delta, decode_delta, encode_delta
from repro.giop.ior import IOR
from repro.giop.service_context import (CodeSetContext, ServiceContext,
                                        VendorHandshakeContext)
from repro.store.journal import JournalStore
from repro.store.records import (CheckpointPayload, MessagePayload,
                                 decode_record, encode_checkpoint,
                                 encode_message)
from tests.properties.cdr_oracle import CdrOutputStream

CHECKPOINT = (
    "0100000000000004742d310000000000000000000000002a000000096170702d"
    "6279746573000000000000036f72620000000005696e667261")
DELTA_CHECKPOINT = (
    "0200000000000004742d320000000000000000000000002b0000000701006465"
    "6c74610000000000000000026966")
MESSAGE = "030000000000000000000000000000070000000901656e76656c6f7065"
DELTA = (
    "0100000000000011626261643837613234643064653737390000000000000011"
    "3636366133326566303334326130303700000000000000170000000800000002"
    "00000001fd396d66000000086161636363636363000000028ea9dc7d00000007"
    "63636363636363")
MANIFEST = (
    "0100000000000011366437613766323461313430343938610000000000000014"
    "0000000800000003a69254c9a69254c96c156477")
IOR_TEXT = "IOR:" + (
    "000000000000000e49444c3a53746f72653a312e30000000000000076e6f6465"
    "2d3100000af900000000000500016b65790000000501000100010109")
CODE_SETS = "000000000501000100010109"
VENDOR_HANDSHAKE = "000100000000000300016b0000001234"

#: A journal segment holding a full checkpoint, a message, a delta
#: checkpoint against it and another message, with its MANIFEST.
JOURNAL_MANIFEST = (
    "6a6f75726e616c2d6d616e69666573742076310a7365672d3030303030303032"
    "2e6a726e6c0a")
JOURNAL_SEGMENT = (
    "2d02000093ff4e9f0100000000000004742d3100000000000000000000000001"
    "00000200000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
    "1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b"
    "3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b"
    "5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b"
    "7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b"
    "9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babb"
    "bcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadb"
    "dcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafb"
    "fcfdfeff000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
    "1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b"
    "3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b"
    "5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b"
    "7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b"
    "9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babb"
    "bcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadb"
    "dcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafb"
    "fcfdfeff000000036f72620000000005696e6672611a000000146bf19f030000"
    "000000000000000000000000020000000601656e762d32b900000048a896d802"
    "00000000000004742d32000000000000000000000000020000008c0100000000"
    "0000113764386633353964376431343536343600000000000000113963326130"
    "3332623265666339306661000000000000020000000040000000010000000401"
    "68c85900000040000102030405060708090a0b0c0d0e0f101112131415161718"
    "191a1b1c1d1e1f202122232425262728292a2bff2d2e2f303132333435363738"
    "393a3b3c3d3e3f000000046f72623200000005696e6672611a00000042847829"
    "030000000000000000000000000000030000000601656e762d33")
APP_STATE = bytes(range(256)) * 2


def test_journal_records_keep_their_bytes():
    assert encode_checkpoint("t-1", 42, b"app-bytes", b"orb", b"infra",
                             delta=False).hex() == CHECKPOINT
    assert encode_checkpoint("t-2", 43, b"\x01\x00delta", b"", b"if",
                             delta=True).hex() == DELTA_CHECKPOINT
    assert encode_message(7, b"\x01envelope").hex() == MESSAGE
    assert decode_record(bytes.fromhex(CHECKPOINT)) == CheckpointPayload(
        "t-1", 42, b"app-bytes", b"orb", b"infra", False)
    assert decode_record(bytes.fromhex(DELTA_CHECKPOINT)) == \
        CheckpointPayload("t-2", 43, b"\x01\x00delta", b"", b"if", True)
    assert decode_record(bytes.fromhex(MESSAGE)) == MessagePayload(
        7, b"\x01envelope")


def test_delta_and_manifest_bodies_keep_their_bytes():
    base, new = b"a" * 10 + b"b" * 10, b"a" * 10 + b"c" * 13
    delta = compute_delta(base, new, page_size=8)
    assert encode_delta(delta).hex() == DELTA
    assert decode_delta(bytes.fromhex(DELTA)) == delta
    manifest = build_manifest(b"x" * 20, page_size=8)
    assert encode_manifest(manifest).hex() == MANIFEST
    assert decode_manifest(bytes.fromhex(MANIFEST)) == manifest


def test_ior_and_service_contexts_keep_their_bytes():
    ior = IOR("IDL:Store:1.0", "node-1", 2809, b"\x00\x01key")
    assert ior.stringify() == IOR_TEXT
    assert IOR.from_string(IOR_TEXT) == ior
    code_sets = CodeSetContext().to_service_context()
    assert code_sets.context_data.hex() == CODE_SETS
    handshake = VendorHandshakeContext(True, b"\x00\x01k", 0x1234)
    assert handshake.to_service_context().context_data.hex() == \
        VENDOR_HANDSHAKE
    assert VendorHandshakeContext.from_service_context(
        handshake.to_service_context()) == handshake


def test_encapsulations_decode_in_either_byte_order():
    for little in (False, True):
        out = CdrOutputStream(little)
        out.write_boolean(little)
        out.write_string("IDL:Store:1.0")
        out.write_string("node-1")
        out.write_ushort(2809)
        out.write_octets(b"key")
        out.write_ulong(1)
        out.write_ulong(2)
        assert IOR.from_string("IOR:" + out.getvalue().hex()) == IOR(
            "IDL:Store:1.0", "node-1", 2809, b"key", 1, 2)
        out = CdrOutputStream(little)
        out.write_boolean(little)
        out.write_boolean(True)
        out.write_octets(b"k")
        out.write_ulong(7)
        context = ServiceContext(VendorHandshakeContext(True)
                                 .to_service_context().context_id,
                                 out.getvalue())
        assert VendorHandshakeContext.from_service_context(context) == \
            VendorHandshakeContext(True, b"k", 7)
        out = CdrOutputStream(little)
        out.write_boolean(little)
        out.write_ulong(3)
        out.write_ulong(4)
        context = ServiceContext(CodeSetContext().to_service_context()
                                 .context_id, out.getvalue())
        assert CodeSetContext.from_service_context(context) == \
            CodeSetContext(3, 4)


def test_a_journal_written_before_the_move_still_loads(tmp_path):
    group = tmp_path / "g"
    group.mkdir()
    (group / "MANIFEST").write_bytes(bytes.fromhex(JOURNAL_MANIFEST))
    (group / "seg-00000002.jrnl").write_bytes(
        bytes.fromhex(JOURNAL_SEGMENT))
    stored = JournalStore(str(tmp_path)).group("g", page_size=64).load()
    app_state = bytearray(APP_STATE)
    app_state[300] = 0xFF
    assert stored.checkpoint == CheckpointRecord(
        "t-2", 2, bytes(app_state), b"orb2", b"infra")
    assert stored.messages == ((3, b"\x01env-3"),)
