//! The canonical binary encoding: little-endian, length-prefixed,
//! explicit `f64` bit patterns.
//!
//! Two invariants define the format:
//!
//! 1. **Canonical** — a value has exactly one encoding, and re-encoding
//!    a decoded value reproduces the input bytes. Floats are stored as
//!    raw IEEE-754 bit patterns (NaN payloads included), so round-trips
//!    are bit-exact, never `Display`-mediated.
//! 2. **Total decoding** — [`Decode`] returns a typed [`WireError`] for
//!    every malformed input. Length prefixes are validated against the
//!    remaining input before any allocation, so a corrupted length
//!    cannot trigger an out-of-memory abort.

use std::fmt;

/// Everything that can go wrong while decoding an artifact.
///
/// Decoding never panics: corruption, truncation and version skew all
/// surface as a variant of this error so the caller (the on-orbit
/// loader) can degrade gracefully instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value it promised.
    Truncated,
    /// The leading magic bytes are not `KWIR`.
    BadMagic,
    /// The artifact was written by a newer format revision; carries the
    /// version found.
    UnsupportedVersion(u16),
    /// A checksum mismatch: the payload was corrupted in storage or in
    /// transit.
    BadChecksum {
        /// The checksum recorded alongside the payload.
        expected: u32,
        /// The checksum recomputed over the payload as read.
        found: u32,
    },
    /// An enum tag outside the range the schema defines; carries the
    /// schema site and the offending tag.
    BadTag {
        /// Which enum the tag was decoded for.
        what: &'static str,
        /// The tag value found.
        tag: u32,
    },
    /// A structurally valid value that violates a schema invariant
    /// (e.g. a non-UTF-8 string, a zero matrix dimension).
    InvalidValue(&'static str),
    /// The input continued past the end of the value; carries the
    /// number of unconsumed bytes.
    TrailingBytes(usize),
    /// An artifact-store failure: I/O, a malformed manifest, or a
    /// missing object.
    Store(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadMagic => write!(f, "bad magic (not a kodan wire artifact)"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire format version {v}")
            }
            WireError::BadChecksum { expected, found } => {
                write!(f, "checksum mismatch: expected {expected:#010x}, found {found:#010x}")
            }
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            WireError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after value"),
            WireError::Store(msg) => write!(f, "artifact store: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A byte-buffer writer for the canonical encoding.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes raw bytes with no length prefix (caller owns framing).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A cursor over encoded bytes.
///
/// Every read validates against the remaining input first; a length
/// prefix larger than the bytes left is rejected before any allocation.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes, or [`WireError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b: [u8; 2] = self.take(2)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` stored as a `u64`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::InvalidValue("usize overflow"))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is rejected (the
    /// encoding is canonical).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue("bool byte not 0 or 1")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidValue("non-UTF-8 string"))
    }

    /// A length prefix for a sequence of elements each at least one byte
    /// wide, validated against the remaining input before allocation.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Succeeds only if the whole input was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// A value with a canonical binary encoding.
pub trait Encode {
    /// Appends this value's canonical encoding to `enc`.
    fn encode(&self, enc: &mut Enc);

    /// This value's canonical encoding as a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }
}

/// A value decodable from its canonical binary encoding.
pub trait Decode: Sized {
    /// Decodes one value, advancing the cursor past it.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError>;

    /// Decodes a value that must span exactly the whole input.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut dec = Dec::new(bytes);
        let value = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

impl Encode for u8 {
    fn encode(&self, enc: &mut Enc) {
        enc.u8(*self);
    }
}

impl Decode for u8 {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.u8()
    }
}

impl Encode for u16 {
    fn encode(&self, enc: &mut Enc) {
        enc.u16(*self);
    }
}

impl Decode for u16 {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.u16()
    }
}

impl Encode for u32 {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(*self);
    }
}

impl Decode for u32 {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.u32()
    }
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.u64()
    }
}

impl Encode for usize {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(*self);
    }
}

impl Decode for usize {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.usize()
    }
}

impl Encode for f64 {
    fn encode(&self, enc: &mut Enc) {
        enc.f64(*self);
    }
}

impl Decode for f64 {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.f64()
    }
}

impl Encode for bool {
    fn encode(&self, enc: &mut Enc) {
        enc.bool(*self);
    }
}

impl Decode for bool {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.bool()
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }
}

impl Decode for String {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        dec.string()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let n = dec.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

/// A reference encodes as its referent, so borrowed parts compose (as
/// in `Some(&part)`) without a clone.
impl<T: Encode> Encode for &T {
    fn encode(&self, enc: &mut Enc) {
        (**self).encode(enc);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag: u32::from(tag),
            }),
        }
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, enc: &mut Enc) {
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Decode + fmt::Debug, const N: usize> Decode for [T; N] {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(dec)?);
        }
        out.try_into()
            .map_err(|_| WireError::InvalidValue("array length"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + fmt::Debug>(value: T) {
        let bytes = value.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(back, value);
        assert_eq!(back.to_wire(), bytes, "re-encode must be byte-identical");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("contexts over läand \u{7f} and \n"));
        roundtrip(vec![1.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(vec![vec![1u32, 2], vec![]]));
        roundtrip([7usize; 8]);
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let odd_nan = f64::from_bits(0x7ff8_0000_0000_beef);
        let bytes = odd_nan.to_wire();
        let back = f64::from_wire(&bytes).expect("decode");
        assert_eq!(back.to_bits(), odd_nan.to_bits());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = vec![1.0f64, 2.0, 3.0].to_wire();
        for cut in 0..bytes.len() {
            let err = Vec::<f64>::from_wire(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(err, WireError::Truncated),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut enc = Enc::new();
        enc.u64(u64::MAX); // claims ~2^64 elements with no bytes behind it
        let err = Vec::<f64>::from_wire(enc.as_bytes()).expect_err("must fail");
        assert!(matches!(err, WireError::Truncated | WireError::InvalidValue(_)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u64.to_wire();
        bytes.push(0);
        assert_eq!(
            u64::from_wire(&bytes),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn non_canonical_bools_are_rejected() {
        assert_eq!(
            bool::from_wire(&[2]),
            Err(WireError::InvalidValue("bool byte not 0 or 1"))
        );
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut enc = Enc::new();
        enc.usize(2);
        enc.raw(&[0xff, 0xfe]);
        assert_eq!(
            String::from_wire(enc.as_bytes()),
            Err(WireError::InvalidValue("non-UTF-8 string"))
        );
    }
}
