//! A minimal self-describing binary codec for shield artifacts.
//!
//! The format is deliberately boring: little-endian fixed-width integers,
//! `f64`s as IEEE-754 bit patterns (so round trips are bit-exact, including
//! infinities), and length-prefixed strings and sequences.  There is no
//! external serialization dependency — the workspace builds hermetically —
//! and no reflection: every artifact component has an explicit
//! encode/decode pair in [`crate::artifact`].

use std::fmt;

/// Maximum length accepted for any single string or sequence while
/// decoding.  The checksum already rejects random corruption; this bound is
/// defense in depth so a crafted length prefix cannot trigger a huge
/// allocation before the payload is even read.
pub const MAX_SEQUENCE_LEN: usize = 1 << 28;

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a value was complete.
    UnexpectedEof {
        /// Byte offset at which more input was needed.
        at: usize,
        /// Number of bytes that were needed.
        needed: usize,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the string.
        at: usize,
    },
    /// A length prefix exceeded the decoder's sequence-length limit.
    LengthTooLarge {
        /// Byte offset of the length prefix.
        at: usize,
        /// The declared length.
        len: u64,
    },
    /// Input remained after the final value.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { at, needed } => {
                write!(
                    f,
                    "unexpected end of input at byte {at} ({needed} more bytes needed)"
                )
            }
            DecodeError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 string at byte {at}"),
            DecodeError::LengthTooLarge { at, len } => {
                write!(
                    f,
                    "length prefix {len} at byte {at} exceeds the decoder limit"
                )
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the final value")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only byte sink with little-endian primitive writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length prefix for a sequence of `len` elements.
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Writes a length-prefixed sequence of `f64`s.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_len(values.len());
        for &v in values {
            self.put_f64(v);
        }
    }

    /// Writes a length-prefixed sequence of `u32`s.
    pub fn put_u32_slice(&mut self, values: &[u32]) {
        self.put_len(values.len());
        for &v in values {
            self.put_u32(v);
        }
    }
}

/// Cursor over encoded bytes with little-endian primitive readers.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                at: self.pos,
                needed: n - self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a sequence length prefix, enforcing [`MAX_SEQUENCE_LEN`].
    pub fn get_len(&mut self) -> Result<usize, DecodeError> {
        let at = self.pos;
        let len = self.get_u64()?;
        if len > MAX_SEQUENCE_LEN as u64 {
            return Err(DecodeError::LengthTooLarge { at, len });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_len()?;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8 { at })
    }

    /// Reads a length-prefixed sequence of `f64`s.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let len = self.get_len()?;
        let mut out = Vec::with_capacity(len.min(MAX_SEQUENCE_LEN));
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed sequence of `u32`s.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, DecodeError> {
        let len = self.get_len()?;
        let mut out = Vec::with_capacity(len.min(MAX_SEQUENCE_LEN));
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }
}

/// 64-bit FNV-1a hash, used as the artifact integrity checksum.
///
/// FNV is not cryptographic; the checksum guards against truncation and
/// accidental corruption, not against an adversary, which is the right
/// threat model for artifacts an operator stores on their own disk.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a fold from a previous [`fnv1a64`] /
/// [`fnv1a64_continue`] result, so a hash over a logical concatenation
/// (`fnv1a64_continue(fnv1a64(a), b)` ≡ `fnv1a64(a ‖ b)`) never needs the
/// concatenated buffer — the router's per-request placement scoring
/// relies on this to hash no key buffer per shard.
pub fn fnv1a64_continue(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-0.5);
        w.put_f64(f64::INFINITY);
        w.put_str("pendulum");
        w.put_f64_slice(&[1.0, 2.5]);
        w.put_u32_slice(&[3, 4, 5]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), -0.5);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_str().unwrap(), "pendulum");
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.0, 2.5]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![3, 4, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(
            r.get_u64(),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let _ = r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_len(),
            Err(DecodeError::LengthTooLarge { .. })
        ));
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"artifact"), fnv1a64(b"artifacu"));
    }
}
