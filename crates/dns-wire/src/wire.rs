//! Low-level wire reading/writing cursors.

use crate::error::WireError;

/// A bounds-checked reader over a raw DNS packet.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Repositions the cursor (used when following compression pointers).
    pub(crate) fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The whole underlying buffer (for pointer targets).
    pub fn buffer(&self) -> &'a [u8] {
        self.buf
    }

    /// Reads one byte.
    pub(crate) fn read_u8(&mut self, expected: &'static str) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated {
            offset: self.pos,
            expected,
        })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian u16.
    pub(crate) fn read_u16(&mut self, expected: &'static str) -> Result<u16, WireError> {
        let hi = self.read_u8(expected)?;
        let lo = self.read_u8(expected)?;
        Ok(u16::from_be_bytes([hi, lo]))
    }

    /// Reads a big-endian u32.
    pub(crate) fn read_u32(&mut self, expected: &'static str) -> Result<u32, WireError> {
        let a = self.read_u8(expected)?;
        let b = self.read_u8(expected)?;
        let c = self.read_u8(expected)?;
        let d = self.read_u8(expected)?;
        Ok(u32::from_be_bytes([a, b, c, d]))
    }

    /// Reads exactly `len` bytes.
    pub(crate) fn read_slice(
        &mut self,
        len: usize,
        expected: &'static str,
    ) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated {
                offset: self.pos,
                expected,
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }
}

/// Compression targets tracked per message. DNS messages in this
/// workspace carry a handful of distinct names; once the fixed table is
/// full, later names are simply emitted uncompressed (graceful
/// degradation, never an error).
const MAX_COMPRESSION_TARGETS: usize = 64;

/// An appending writer that tracks name-compression targets.
///
/// Instead of keying a heap-allocated map by suffix text, the writer
/// records the *offsets* at which name encodings start; `Name::encode`
/// matches candidate suffixes by walking the already-emitted bytes
/// (following pointers like a decoder would). This keeps the encode path
/// free of per-name allocations.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    /// Offsets (RFC 1035 §4.1.4 pointer targets) of names already
    /// emitted, in emission order. Only offsets that fit the 14-bit
    /// pointer field are stored.
    targets: [u16; MAX_COMPRESSION_TARGETS],
    targets_len: usize,
    /// When false, names are emitted without compression pointers (some
    /// rdata, e.g. inside OPT, must not be compressed).
    compression_enabled: bool,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// Creates an empty writer with compression enabled.
    pub fn new() -> Self {
        Self::with_buf(Vec::with_capacity(512))
    }

    /// Creates a writer that reuses `buf`'s allocation, clearing any
    /// previous contents. Pair with [`Writer::into_buf`] to recycle a
    /// scratch buffer across messages without reallocating.
    pub(crate) fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            buf,
            targets: [0; MAX_COMPRESSION_TARGETS],
            targets_len: 0,
            compression_enabled: true,
        }
    }

    /// Disables compression for subsequently written names.
    pub(crate) fn set_compression(&mut self, enabled: bool) {
        self.compression_enabled = enabled;
    }

    /// Whether compression is currently enabled.
    pub(crate) fn compression_enabled(&self) -> bool {
        self.compression_enabled
    }

    /// Current output length (== offset of the next byte written).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub(crate) fn write_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites a previously written big-endian u16 at `offset`
    /// (used to backpatch rdata lengths).
    ///
    /// # Panics
    ///
    /// Panics if `offset + 2` exceeds the current length.
    pub(crate) fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset..offset + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// The bytes written so far (compression candidates match against
    /// this).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Offsets of name encodings registered for compression, in emission
    /// order. Empty while compression is disabled.
    pub(crate) fn compression_targets(&self) -> &[u16] {
        if self.compression_enabled {
            &self.targets[..self.targets_len]
        } else {
            &[]
        }
    }

    /// Registers `offset` as the start of a name encoding for future
    /// compression, if it fits in a 14-bit pointer and the table has
    /// room.
    pub(crate) fn register_compression_offset(&mut self, offset: usize) {
        if self.compression_enabled && offset < 0x3FFF && self.targets_len < MAX_COMPRESSION_TARGETS
        {
            self.targets[self.targets_len] = offset as u16;
            self.targets_len += 1;
        }
    }

    /// Finishes the message, enforcing the 64 KiB limit.
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        if self.buf.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong {
                size: self.buf.len(),
            });
        }
        Ok(self.buf)
    }

    /// Recovers the underlying buffer regardless of length, for callers
    /// that restore a reusable scratch allocation on the error path.
    pub(crate) fn into_buf(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_scalars() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_u8("x").unwrap(), 0x12);
        assert_eq!(r.read_u16("x").unwrap(), 0x3456);
        assert_eq!(r.read_u32("x").unwrap(), 0x789A_BCDE);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_truncation_reports_offset() {
        let data = [0x01];
        let mut r = Reader::new(&data);
        r.read_u8("first").unwrap();
        let err = r.read_u16("second").unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                offset: 1,
                expected: "second"
            }
        );
    }

    #[test]
    fn reader_slice_bounds() {
        let data = [1, 2, 3];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_slice(2, "x").unwrap(), &[1, 2]);
        assert!(r.read_slice(2, "x").is_err());
        assert_eq!(r.read_slice(1, "x").unwrap(), &[3]);
    }

    #[test]
    fn writer_roundtrip_and_patch() {
        let mut w = Writer::new();
        w.write_u16(0); // placeholder
        w.write_u32(0xAABB_CCDD);
        w.patch_u16(0, 0x0102);
        let out = w.finish().unwrap();
        assert_eq!(out, vec![0x01, 0x02, 0xAA, 0xBB, 0xCC, 0xDD]);
    }

    #[test]
    fn writer_rejects_oversize() {
        let mut w = Writer::new();
        w.write_slice(&vec![0u8; 70_000]);
        assert!(matches!(
            w.finish(),
            Err(WireError::MessageTooLong { size: 70_000 })
        ));
    }

    #[test]
    fn compression_registry_respects_pointer_range() {
        let mut w = Writer::new();
        w.register_compression_offset(0x4000); // too far for a pointer
        assert_eq!(w.compression_targets(), &[] as &[u16]);
        w.register_compression_offset(12);
        assert_eq!(w.compression_targets(), &[12]);
        w.set_compression(false);
        assert_eq!(w.compression_targets(), &[] as &[u16]);
        w.set_compression(true);
        assert_eq!(w.compression_targets(), &[12]);
    }

    #[test]
    fn compression_registry_degrades_when_full() {
        let mut w = Writer::new();
        for i in 0..2 * MAX_COMPRESSION_TARGETS {
            w.register_compression_offset(i);
        }
        assert_eq!(w.compression_targets().len(), MAX_COMPRESSION_TARGETS);
        assert_eq!(w.compression_targets()[0], 0);
    }

    #[test]
    fn with_buf_reuses_allocation() {
        let mut scratch = Vec::with_capacity(4096);
        scratch.extend_from_slice(b"stale");
        let ptr = scratch.as_ptr();
        let mut w = Writer::with_buf(scratch);
        assert!(w.is_empty());
        w.write_u16(0xBEEF);
        let out = w.into_buf();
        assert_eq!(out, vec![0xBE, 0xEF]);
        assert_eq!(out.as_ptr(), ptr, "allocation must be recycled");
    }
}
