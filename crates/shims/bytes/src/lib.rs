//! Offline shim for the `bytes` crate: just the `Buf`/`BufMut` trait subset
//! the wire codec needs, implemented for `&[u8]` and `Vec<u8>`.

/// Read cursor over a byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Pop one byte; panics when empty (callers check `has_remaining`).
    fn get_u8(&mut self) -> u8;

    /// Fill `dst` from the front; panics when too short.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let (first, rest) = self.split_first().expect("Buf::get_u8 on empty buffer");
        *self = rest;
        *first
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn get_u8(&mut self) -> u8 {
        (**self).get_u8()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        (**self).copy_to_slice(dst)
    }

    fn advance(&mut self, n: usize) {
        (**self).advance(n)
    }
}

/// Append sink for encoded bytes.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, b: u8);

    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }

    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_u8(&mut self, b: u8) {
        (**self).put_u8(b)
    }

    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut v: Vec<u8> = Vec::new();
        v.put_u8(1);
        v.put_slice(&[2, 3, 4]);
        let mut r: &[u8] = &v;
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.get_u8(), 1);
        let mut mid = [0u8; 2];
        r.copy_to_slice(&mut mid);
        assert_eq!(mid, [2, 3]);
        r.advance(1);
        assert!(!r.has_remaining());
    }
}
