//! Little-endian wire primitives for the `.splog` codec.
//!
//! Deliberately minimal: fixed-width integers, length-prefixed byte
//! strings, and a bounds-checked [`Reader`]. Every multi-byte integer
//! is little-endian; every length prefix is a `u32`. Decoding never
//! panics — truncated or malformed input surfaces as [`CodecError`].

use std::fmt;

use crate::wal::FrameDamage;

/// A malformed or truncated `.splog` byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value being decoded.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A tag/discriminant byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// The log's magic or version did not match this build.
    BadHeader {
        /// Human-readable description.
        detail: String,
    },
    /// The frame walk stopped at a torn or corrupt frame.
    Damaged(FrameDamage),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "truncated log while decoding {what}"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadHeader { detail } => write!(f, "bad log header: {detail}"),
            CodecError::Damaged(damage) => write!(f, "damaged log: {damage}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a `u16`, little-endian.
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `i64`, little-endian.
pub fn put_i64(out: &mut Vec<u8>, value: i64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

/// Appends a `u32` length prefix followed by the bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("field under 4 GiB"));
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, value: &str) {
    put_bytes(out, value.as_bytes());
}

/// Appends an `Option<u64>` as a presence byte plus the value.
pub fn put_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(value) => {
            put_u8(out, 1);
            put_u64(out, value);
        }
        None => put_u8(out, 0),
    }
}

/// Bounds-checked cursor over an encoded byte stream.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unconsumed tail of the stream (for bridging to external
    /// cursor-based decoders).
    pub fn tail(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Advances past `len` bytes an external decoder consumed.
    pub fn skip(&mut self, len: usize, what: &'static str) -> Result<(), CodecError> {
        self.take(len, what).map(|_| ())
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated { what });
        }
        let chunk = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(chunk)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        let chunk = self.take(2, what)?;
        Ok(u16::from_le_bytes([chunk[0], chunk[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let chunk = self.take(4, what)?;
        Ok(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let chunk = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        let chunk = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        Ok(i64::from_le_bytes(raw))
    }

    /// Reads a `bool` byte (0 or 1; anything else is a bad tag).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }

    /// Reads a `u32` element count for a sequence whose elements each
    /// encode to at least `min_elem_bytes` bytes. A count the unread
    /// bytes cannot hold is [`CodecError::Truncated`], so the result is
    /// bounded by `remaining() / min_elem_bytes` and safe to pass to
    /// `Vec::with_capacity`.
    pub fn count(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let count = self.u32(what)? as usize;
        if count > self.remaining() / min_elem_bytes.max(1) {
            return Err(CodecError::Truncated { what });
        }
        Ok(count)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let bytes = self.bytes(what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads an `Option<u64>` written by [`put_opt_u64`].
    pub fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, CodecError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(what)?)),
            tag => Err(CodecError::BadTag {
                what,
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 3);
        put_i64(&mut out, -42);
        put_bool(&mut out, true);
        put_str(&mut out, "gcc");
        put_opt_u64(&mut out, Some(99));
        put_opt_u64(&mut out, None);

        let mut reader = Reader::new(&out);
        assert_eq!(reader.u8("a").unwrap(), 7);
        assert_eq!(reader.u16("b").unwrap(), 0xBEEF);
        assert_eq!(reader.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(reader.u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(reader.i64("e").unwrap(), -42);
        assert!(reader.bool("f").unwrap());
        assert_eq!(reader.str("g").unwrap(), "gcc");
        assert_eq!(reader.opt_u64("h").unwrap(), Some(99));
        assert_eq!(reader.opt_u64("i").unwrap(), None);
        assert!(reader.is_empty());
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut reader = Reader::new(&[1, 2]);
        assert_eq!(
            reader.u32("len"),
            Err(CodecError::Truncated { what: "len" })
        );
        let mut reader = Reader::new(&[9]);
        assert_eq!(
            reader.bool("flag"),
            Err(CodecError::BadTag {
                what: "flag",
                tag: 9
            })
        );
        // A string whose length prefix overruns the buffer.
        let mut out = Vec::new();
        put_u32(&mut out, 100);
        out.push(b'x');
        let mut reader = Reader::new(&out);
        assert_eq!(
            reader.str("name"),
            Err(CodecError::Truncated { what: "name" })
        );
    }
}
