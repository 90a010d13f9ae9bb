//! Binary record codec.
//!
//! The original BitDew persisted service objects through JPOX/JDO object
//! mapping (§3.5). We replace that with a small, explicit binary codec: every
//! persisted type implements [`Encode`]/[`Decode`] by composing primitive
//! writers. The format is little-endian, length-prefixed for variable-size
//! values, and has no self-description — schema is owned by the table that
//! uses it, exactly like a relational row.
//!
//! No serde format crate is permitted in this workspace, and the codec is
//! ~150 lines; owning it also gives the WAL stable bytes across Rust
//! versions.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encoding error (currently impossible; kept for API symmetry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A length prefix or discriminant was out of range.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::Corrupt(what) => write!(f, "corrupt value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialize into a byte buffer.
///
/// A type whose encoding length is cheap to compute states it in
/// [`Encode::encoded_len`], and [`Encode::encode_to_vec`] then allocates
/// its buffer once, at exactly that size. The catalog's hot rows (a datum,
/// a locator) do; everything else grows a buffer and trims it.
pub trait Encode {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// The exact number of bytes [`Encode::encode`] appends, or `None`
    /// (the default) when the type does not state it. Never an estimate:
    /// a hint that is off by one byte either reallocates or leaves slack,
    /// and debug builds assert it in [`Encode::encode_to_vec`].
    fn encoded_len(&self) -> Option<usize> {
        None
    }

    /// Encode to a fresh `Bytes`.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Encode to a fresh `Vec<u8>`: one buffer, no `freeze` copy. With an
    /// [`Encode::encoded_len`] the buffer is allocated once at the exact
    /// size; without one it grows and is trimmed to fit. The name is not
    /// `to_vec`, which on `Vec<u8>` would shadow the slice method.
    fn encode_to_vec(&self) -> Vec<u8> {
        let Some(len) = self.encoded_len() else {
            let mut buf = BytesMut::new();
            self.encode(&mut buf);
            let mut v = buf.into_vec();
            v.shrink_to_fit();
            return v;
        };
        let mut buf = BytesMut::with_capacity(len);
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), len, "encoded_len must be exact");
        buf.into_vec()
    }
}

/// Deserialize from a byte buffer.
pub trait Decode: Sized {
    /// Consume this value's encoding from the front of `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;

    /// Decode from a slice, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut b = Bytes::copy_from_slice(bytes);
        let v = Self::decode(&mut b)?;
        if !b.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(v)
    }
}

fn need(buf: &Bytes, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::UnexpectedEof)
    } else {
        Ok(())
    }
}

macro_rules! impl_int {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) { buf.$put(*self); }
        }
        impl Decode for $t {
            fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
                need(buf, std::mem::size_of::<$t>())?;
                Ok(buf.$get())
            }
        }
    )*};
}

impl_int! {
    u8  => put_u8 / get_u8,
    u16 => put_u16_le / get_u16_le,
    u32 => put_u32_le / get_u32_le,
    u64 => put_u64_le / get_u64_le,
    u128 => put_u128_le / get_u128_le,
    i64 => put_i64_le / get_i64_le,
    f64 => put_f64_le / get_f64_le,
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
}
impl Decode for bool {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool")),
        }
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self);
    }
}
impl Decode for Vec<u8> {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        need(buf, len)?;
        Ok(buf.copy_to_bytes(len).to_vec())
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_str().encode(buf);
    }

    fn encoded_len(&self) -> Option<usize> {
        self.as_str().encoded_len()
    }
}

/// A borrowed string encodes exactly as the `String` it could be.
impl Encode for str {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self.as_bytes());
    }

    fn encoded_len(&self) -> Option<usize> {
        Some(4 + self.len())
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        let raw = Vec::<u8>::decode(buf)?;
        String::from_utf8(raw).map_err(|_| CodecError::Corrupt("utf8"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(CodecError::Corrupt("option tag")),
        }
    }
}

/// Encode a `Vec<T>` of non-byte elements. (`Vec<u8>` has a dedicated compact
/// impl above; coherence forbids a second blanket impl, so sequences of
/// structured elements go through these standalone helpers.)
pub fn encode_vec<T: Encode>(items: &[T], buf: &mut BytesMut) {
    (items.len() as u32).encode(buf);
    for v in items {
        v.encode(buf);
    }
}

/// Decode a `Vec<T>` of non-byte elements; counterpart of [`encode_vec`].
pub fn decode_vec<T: Decode>(buf: &mut Bytes) -> Result<Vec<T>, CodecError> {
    let len = u32::decode(buf)? as usize;
    // Defensive cap: a corrupt length should not cause an OOM allocation.
    let mut out = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        out.push(T::decode(buf)?);
    }
    Ok(out)
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}
impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl Encode for bitdew_util::Auid {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }
}
impl Decode for bitdew_util::Auid {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        Ok(bitdew_util::Auid(u128::decode(buf)?))
    }
}

impl Encode for bitdew_util::Md5Digest {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.0);
    }
}
impl Decode for bitdew_util::Md5Digest {
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
        need(buf, 16)?;
        let mut arr = [0u8; 16];
        buf.copy_to_slice(&mut arr);
        Ok(bitdew_util::Md5Digest(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(v.encode_to_vec(), bytes.to_vec());
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(-42i64);
        roundtrip(std::f64::consts::PI);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn compounds() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u64));
        roundtrip((String::from("k"), 9u32));
        roundtrip(bitdew_util::Auid(0x1234_5678_9abc_def0_1111_2222_3333_4444));
        roundtrip(bitdew_util::md5::md5(b"codec"));
    }

    #[test]
    fn vec_of_strings_via_helper() {
        let v = vec!["a".to_string(), "bb".to_string()];
        let mut buf = BytesMut::new();
        encode_vec(&v, &mut buf);
        let mut b = buf.freeze();
        let back: Vec<String> = decode_vec(&mut b).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 0xAABBCCDDu32.to_bytes();
        assert_eq!(u64::from_bytes(&bytes), Err(CodecError::UnexpectedEof));
        let s = String::from("hello").to_bytes();
        assert_eq!(String::from_bytes(&s[..3]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 1u8.to_bytes().to_vec();
        bytes.push(0);
        assert_eq!(
            u8::from_bytes(&bytes),
            Err(CodecError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn invalid_tags_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(CodecError::Corrupt("bool")));
        assert_eq!(
            Option::<u8>::from_bytes(&[9]),
            Err(CodecError::Corrupt("option tag"))
        );
        // Invalid UTF-8 string body.
        let mut buf = BytesMut::new();
        2u32.encode(&mut buf);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&buf), Err(CodecError::Corrupt("utf8")));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_string(s in ".{0,128}") {
            roundtrip(s);
        }

        #[test]
        fn prop_roundtrip_bytes(v in proptest::collection::vec(any::<u8>(), 0..512)) {
            roundtrip(v);
        }

        #[test]
        fn prop_roundtrip_pairs(k in ".{0,32}", n in any::<u64>()) {
            roundtrip((k, n));
        }

        #[test]
        fn prop_decode_garbage_never_panics(v in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Whatever the input, decoding returns Ok or Err — no panic, no OOM.
            let _ = String::from_bytes(&v);
            let _ = Vec::<u8>::from_bytes(&v);
            let _ = Option::<u64>::from_bytes(&v);
            let _ = <(String, u32)>::from_bytes(&v);
        }
    }
}
