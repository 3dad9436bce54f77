//! A tiny hand-rolled binary codec.
//!
//! The simulated file systems serialize their on-disk structures (committed
//! trees, fsync logs, journal records, checkpoints) with this codec rather
//! than pulling in a serialization framework; the format is
//! length-prefixed, little-endian, and versioned by each caller.

use bytes::{Bytes, BytesMut};

use crate::error::{FsError, FsResult};

/// Where an [`Encoder`] appends its bytes.
pub trait Sink {
    /// Appends `bytes`.
    fn put_slice(&mut self, bytes: &[u8]);

    /// Bytes appended so far.
    fn len(&self) -> usize;

    /// True if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// A buffer of a length known up front, allocated once and filled front to
/// back: what a structure written to disk is encoded into, so the blob
/// writer can hand its blocks to the device as views of this one buffer.
#[derive(Debug)]
pub struct Exact {
    buf: BytesMut,
    filled: usize,
}

impl Sink for Exact {
    /// # Panics
    ///
    /// If `bytes` overruns the length the buffer was made with.
    fn put_slice(&mut self, bytes: &[u8]) {
        let end = self.filled + bytes.len();
        self.buf[self.filled..end].copy_from_slice(bytes);
        self.filled = end;
    }

    fn len(&self) -> usize {
        self.filled
    }
}

/// An append-only byte buffer writer: into a growable `Vec<u8>` by default,
/// or into an [`Exact`] buffer ([`Encoder::exact`]).
#[derive(Debug, Default, Clone)]
pub struct Encoder<S = Vec<u8>> {
    buf: S,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Encoder<Exact> {
    /// An encoder of exactly `len` bytes, in one allocation.
    pub fn exact(len: usize) -> Self {
        Encoder {
            buf: Exact {
                buf: BytesMut::zeroed(len),
                filled: 0,
            },
        }
    }

    /// Consumes the encoder, returning the encoded bytes without a copy.
    ///
    /// # Panics
    ///
    /// If fewer bytes were written than the encoder was made for.
    pub fn freeze(self) -> Bytes {
        let Exact { buf, filled } = self.buf;
        assert_eq!(filled, buf.len(), "an exact encoder is filled completely");
        buf.freeze()
    }
}

impl<S: Sink> Encoder<S> {
    /// Current length of the encoded output.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.put_slice(&[value]);
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.put_slice(&value.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.put_slice(&value.to_le_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, value: &[u8]) {
        self.put_u64(value.len() as u64);
        self.buf.put_slice(value);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_bytes(value.as_bytes());
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, value: bool) {
        self.put_u8(u8::from(value));
    }
}

/// A cursor-based reader over encoded bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Number of bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> FsResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(FsError::Corrupted(format!(
                "truncated structure: needed {n} bytes, {} remaining",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> FsResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> FsResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> FsResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads every remaining byte.
    pub fn get_rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    /// Reads a length-prefixed byte vector.
    pub fn get_bytes(&mut self) -> FsResult<Vec<u8>> {
        let len = self.get_u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> FsResult<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    pub fn get_str_ref(&mut self) -> FsResult<&'a str> {
        let len = self.get_u64()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| FsError::Corrupted("invalid UTF-8 in serialized string".to_string()))
    }

    /// Reads a boolean.
    pub fn get_bool(&mut self) -> FsResult<bool> {
        Ok(self.get_u8()? != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 1);
        enc.put_str("A/foo");
        enc.put_bytes(&[1, 2, 3]);
        enc.put_bool(true);
        enc.put_bool(false);
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_str().unwrap(), "A/foo");
        assert_eq!(dec.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert!(dec.is_exhausted());
    }

    #[test]
    fn an_exact_encoder_writes_what_a_growable_one_does() {
        fn encode(enc: &mut Encoder<impl Sink>) {
            enc.put_u32(7);
            enc.put_str("A/foo");
            enc.put_bool(true);
        }
        let mut growable = Encoder::new();
        encode(&mut growable);
        let bytes = growable.finish();
        let mut exact = Encoder::exact(bytes.len());
        encode(&mut exact);
        assert_eq!(exact.len(), bytes.len());
        assert_eq!(&exact.freeze()[..], &bytes[..]);
    }

    #[test]
    #[should_panic(expected = "filled completely")]
    fn an_exact_encoder_left_short_panics() {
        let mut enc = Encoder::exact(9);
        enc.put_u64(1);
        enc.freeze();
    }

    #[test]
    #[should_panic]
    fn an_exact_encoder_overrun_panics() {
        Encoder::exact(3).put_u32(1);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_u64(99);
        let mut bytes = enc.finish();
        bytes.truncate(3);
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_u64(), Err(FsError::Corrupted(_))));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_str(), Err(FsError::Corrupted(_))));
    }
}
