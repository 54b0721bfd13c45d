//! Binary pack/unpack buffers for element migration.
//!
//! When an element moves between processors its refinement tree and solution
//! data are serialized into a send buffer and rebuilt on the receiving side.
//! The codec is hand-rolled (no serde) so the words a migration declares to
//! the session clock are exactly the bytes on the wire.

/// An append-only binary message builder.
#[derive(Debug, Default, Clone)]
pub struct Packer {
    buf: Vec<u8>,
}

impl Packer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a length-prefixed slice of `f64`s.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Size in 8-byte words (what the session clock charges).
    pub fn words(&self) -> u64 {
        (self.buf.len() as u64).div_ceil(8)
    }

    /// Finish and take the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reader over a packed buffer. Panics on over-read or trailing garbage
/// (both are protocol bugs, not runtime conditions).
#[derive(Debug)]
pub struct Unpacker<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Unpacker<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Unpacker { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read an `f64`.
    pub fn get_f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Read a length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> Vec<f64> {
        let n = self.get_u32() as usize;
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// True if the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut p = Packer::new();
        p.put_u32(42);
        p.put_u64(u64::MAX - 7);
        p.put_f64(std::f64::consts::PI);
        p.put_u8(9);
        p.put_f64_slice(&[0.5, -0.5]);
        let buf = p.finish();
        let mut u = Unpacker::new(&buf);
        assert_eq!(u.get_u32(), 42);
        assert_eq!(u.get_u64(), u64::MAX - 7);
        assert_eq!(u.get_f64(), std::f64::consts::PI);
        assert_eq!(u.get_u8(), 9);
        assert_eq!(u.get_f64_slice(), vec![0.5, -0.5]);
        assert!(u.is_exhausted());
    }

    #[test]
    fn words_round_up() {
        let mut p = Packer::new();
        p.put_u8(1);
        assert_eq!(p.words(), 1);
        p.put_u64(2);
        assert_eq!(p.len(), 9);
        assert_eq!(p.words(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic]
    fn overread_panics() {
        let buf = [1u8, 2];
        let mut u = Unpacker::new(&buf);
        u.get_u32();
    }

    #[test]
    fn empty_slices() {
        let mut p = Packer::new();
        p.put_f64_slice(&[]);
        let buf = p.finish();
        let mut u = Unpacker::new(&buf);
        assert_eq!(u.get_f64_slice(), Vec::<f64>::new());
        assert!(u.is_exhausted());
    }
}
