//! Little-endian byte encoding helpers and the word-wise checksum used by
//! the `.gnniecsr` snapshot format.

use crate::error::IngestError;

/// FNV-1a-style 64-bit checksum over 8-byte words (with a length mix and
/// a byte-wise tail) — the integrity check of every snapshot section
/// and header. Word-wise keeps multi-megabyte snapshot verification off
/// the critical path; it is not cryptographic — it catches truncation
/// and bit rot, not adversaries.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 4 little-endian bytes.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as its IEEE-754 bit pattern (8 bytes, little-endian).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// A bounds-checked little-endian reader over a byte buffer.
///
/// Every read error names the offset, so a truncated file reports where
/// it ran out rather than a generic failure.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string for error messages (usually the file name).
    what: &'a str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; `what` names the source in errors.
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        Self { buf, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], IngestError> {
        if self.remaining() < n {
            return Err(IngestError::Snapshot(format!(
                "{}: truncated at offset {} (needed {n} more bytes, have {})",
                self.what,
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads `N` raw bytes.
    pub fn bytes<const N: usize>(&mut self) -> Result<[u8; N], IngestError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, IngestError> {
        Ok(u64::from_le_bytes(self.bytes::<8>()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, IngestError> {
        Ok(u32::from_le_bytes(self.bytes::<4>()?))
    }

    /// Reads an IEEE-754 `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, IngestError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `count` little-endian `u32`s in one bounds check.
    pub fn u32_vec(&mut self, count: usize) -> Result<Vec<u32>, IngestError> {
        let total = count.checked_mul(4).ok_or_else(|| {
            IngestError::Snapshot(format!("{}: count {count} overflows", self.what))
        })?;
        let raw = self.take(total)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads `count` little-endian `u64`s in one bounds check.
    pub fn u64_vec(&mut self, count: usize) -> Result<Vec<u64>, IngestError> {
        let total = count.checked_mul(8).ok_or_else(|| {
            IngestError::Snapshot(format!("{}: count {count} overflows", self.what))
        })?;
        let raw = self.take(total)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Reads `count` little-endian `u64`s as `usize` offsets.
    pub fn usize_vec(&mut self, count: usize) -> Result<Vec<usize>, IngestError> {
        let raw = self.u64_vec(count)?;
        raw.into_iter()
            .map(|v| {
                usize::try_from(v).map_err(|_| {
                    IngestError::Snapshot(format!("{}: offset {v} overflows", self.what))
                })
            })
            .collect()
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that
    /// do not fit (32-bit hosts) or exceed `limit` (corrupted counts
    /// must not drive huge allocations).
    pub fn len(&mut self, limit: usize) -> Result<usize, IngestError> {
        let v = self.u64()?;
        let as_usize = usize::try_from(v).map_err(|_| {
            IngestError::Snapshot(format!("{}: count {v} overflows", self.what))
        })?;
        if as_usize > limit {
            return Err(IngestError::Snapshot(format!(
                "{}: count {v} at offset {} exceeds plausible limit {limit}",
                self.what,
                self.pos - 8
            )));
        }
        Ok(as_usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0x0123_4567_89ab_cdef);
        put_u32(&mut buf, 0xdead_beef);
        put_f64(&mut buf, -0.9873);
        put_u32(&mut buf, 5);
        put_u32(&mut buf, 6);
        let mut r = ByteReader::new(&buf, "test");
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.f64().unwrap(), -0.9873);
        assert_eq!(r.u32_vec(2).unwrap(), vec![5, 6]);
        assert_eq!(r.remaining(), 0);
        assert!(r.u32_vec(1).is_err());
    }

    #[test]
    fn truncation_names_the_offset() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        let mut r = ByteReader::new(&buf, "t");
        r.u32().unwrap();
        let err = r.u64().unwrap_err();
        assert!(err.to_string().contains("offset 4"), "{err}");
    }

    #[test]
    fn len_caps_hostile_counts() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut r = ByteReader::new(&buf, "t");
        assert!(r.len(1024).is_err());
    }

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        let data: Vec<u8> = (0..1000u32).flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(checksum64(&data), checksum64(&data));
        let mut flipped = data.clone();
        flipped[777] ^= 1;
        assert_ne!(checksum64(&data), checksum64(&flipped));
        // Length extension with zeros must change the sum (length mix).
        let mut extended = data.clone();
        extended.push(0);
        assert_ne!(checksum64(&data), checksum64(&extended));
        // Tail bytes (non-multiple-of-8 lengths) participate.
        assert_ne!(checksum64(&data[..9]), checksum64(&data[..10]));
    }
}
