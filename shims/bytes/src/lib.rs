//! Vendored stand-in for the `bytes` crate.
//!
//! Implements the subset the wire codec needs: a cheaply-cloneable immutable
//! byte buffer ([`Bytes`]) with cursor-style reads ([`Buf`]), and a growable
//! write buffer ([`BytesMut`]) with little-endian put methods ([`BufMut`]).

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, sliceable immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Sub-slice sharing the same backing storage.
    ///
    /// Panics if the range is out of bounds, matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.end - self.start;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice out of bounds: {lo}..{hi} of {len}"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end: len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", &self[..])
    }
}

/// Cursor-style read access over a contiguous buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(b)
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = Bytes::from(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.end - self.start
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance past end");
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.remaining(), "copy_to_bytes past end");
        let out = self.slice(..len);
        self.start += len;
        out
    }
}

/// Growable write buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Append-style write access.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.buf.resize(self.buf.len() + cnt, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_integers() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(0x0123_4567_89AB_CDEF);
        w.put_f64_le(-2.5);
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64_le(), -2.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_and_advance_share_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut c = b.clone();
        c.advance(2);
        assert_eq!(&c[..], &[3, 4, 5]);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn copy_to_bytes_consumes() {
        let mut b = Bytes::from(vec![9, 8, 7, 6]);
        let head = b.copy_to_bytes(2);
        assert_eq!(&head[..], &[9, 8]);
        assert_eq!(b.remaining(), 2);
    }
}
