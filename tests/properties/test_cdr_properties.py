"""Property-based tests: CDR and Any round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.giop.types import decode_any, encode_any, from_any, to_any
from tests.properties.cdr_oracle import CdrInputStream, CdrOutputStream

# Scalars that survive an exact Any round-trip.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=200),
)

# Keys must be hashable scalars (dict round-trips preserve them).
keys = st.one_of(st.integers(min_value=-2**31, max_value=2**31 - 1),
                 st.text(max_size=20))

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(keys, children, max_size=6),
    ),
    max_leaves=25,
)


@given(values, st.booleans())
@settings(max_examples=200, deadline=None)
def test_any_roundtrip(value, little_endian):
    blob = encode_any(to_any(value), little_endian=little_endian)
    assert from_any(decode_any(blob)) == value


primitive_cases = st.lists(
    st.one_of(
        st.tuples(st.just("octet"), st.integers(0, 255)),
        st.tuples(st.just("boolean"), st.booleans()),
        st.tuples(st.just("short"), st.integers(-2**15, 2**15 - 1)),
        st.tuples(st.just("ushort"), st.integers(0, 2**16 - 1)),
        st.tuples(st.just("long"), st.integers(-2**31, 2**31 - 1)),
        st.tuples(st.just("ulong"), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("longlong"), st.integers(-2**63, 2**63 - 1)),
        st.tuples(st.just("ulonglong"), st.integers(0, 2**64 - 1)),
        st.tuples(st.just("double"),
                  st.floats(allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("string"), st.text(max_size=30)),
        st.tuples(st.just("octets"), st.binary(max_size=100)),
    ),
    max_size=20,
)


@given(primitive_cases, st.booleans())
@settings(max_examples=200, deadline=None)
def test_mixed_primitive_stream_roundtrip(cases, little_endian):
    """Any interleaving of primitives round-trips with correct alignment."""
    out = CdrOutputStream(little_endian)
    for kind, value in cases:
        getattr(out, f"write_{kind}")(value)
    inp = CdrInputStream(out.getvalue(), little_endian)
    for kind, value in cases:
        assert getattr(inp, f"read_{kind}")() == value


@given(st.binary(max_size=64), st.booleans())
@settings(max_examples=100, deadline=None)
def test_encapsulation_roundtrip(payload, inner_little):
    inner = CdrOutputStream(inner_little)
    inner.write_octets(payload)
    outer = CdrOutputStream()
    outer.write_encapsulation(inner)
    decoded = CdrInputStream(outer.getvalue()).read_encapsulation()
    assert decoded.read_octets() == payload
