//! Run-length compression (RLC) for sparse feature vectors.
//!
//! GNNIE streams the ultra-sparse *input-layer* vertex feature vectors from
//! DRAM in RLC form and decodes them just before they enter the CPE array
//! (paper §III). The paper chooses RLC because it is lossless and the decoder
//! is cheap; it is bypassed for the denser feature vectors of later layers.
//!
//! The format implemented here is the classic zero-run scheme used by sparse
//! CNN accelerators (Eyeriss-style): the stream is a sequence of
//! `(zero_run, value)` pairs, where `zero_run` counts the zeros preceding the
//! value. Runs longer than [`MAX_RUN`] are split by emitting a *filler* pair
//! with value `0.0` and run [`MAX_RUN`], mirroring the hardware encoding
//! where the run field has fixed width.
//!
//! # Example
//!
//! ```
//! use gnnie_tensor::rlc::{encode, decode};
//! use gnnie_tensor::SparseVec;
//!
//! let v = SparseVec::from_dense(&[0.0, 0.0, 3.0, 0.0, 1.0]);
//! let stream = encode(&v);
//! let back = decode(&stream).unwrap();
//! assert_eq!(back.to_dense(), v.to_dense());
//! ```

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::sparse::SparseVec;

/// Maximum zero-run length representable in one RLC pair.
///
/// The hardware encodes the run in a 5-bit field (run lengths 0–31), as in
/// the RLC scheme of Eyeriss which the paper's citation \[28\] generalises.
pub const MAX_RUN: u32 = 31;

/// Size in bits of one encoded `(run, value)` pair: 5-bit run + 16-bit value.
///
/// GNNIE stores features in 16-bit fixed point on chip; the RLC stream
/// therefore packs into 21 bits per pair. Used for DRAM-traffic accounting.
pub const PAIR_BITS: usize = 5 + 16;

/// One `(zero_run, value)` pair of an RLC stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RlcPair {
    /// Number of zeros preceding `value` (0 ..= [`MAX_RUN`]).
    pub run: u32,
    /// The nonzero payload, or `0.0` for a filler pair extending a long run.
    pub value: f32,
}

/// An encoded RLC stream together with the logical vector length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlcStream {
    /// Logical (dense) length of the encoded vector.
    pub len: usize,
    /// The `(run, value)` pairs in order.
    pub pairs: Vec<RlcPair>,
}

impl RlcStream {
    /// Size of the encoded stream in bits (for DRAM traffic accounting).
    pub fn encoded_bits(&self) -> usize {
        self.pairs.len() * PAIR_BITS
    }

    /// Compression ratio versus a dense 16-bit representation.
    ///
    /// Values `> 1` mean RLC is smaller than dense.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bits() == 0 {
            return f64::INFINITY;
        }
        (self.len * 16) as f64 / self.encoded_bits() as f64
    }
}

/// Encodes a sparse vector into an RLC stream.
pub fn encode(v: &SparseVec) -> RlcStream {
    let mut pairs = Vec::with_capacity(v.nnz());
    let mut cursor = 0usize; // next dense position to encode
    for (idx, value) in v.iter() {
        let mut gap = (idx - cursor) as u32;
        // Split over-long zero runs with filler pairs.
        while gap > MAX_RUN {
            pairs.push(RlcPair { run: MAX_RUN, value: 0.0 });
            gap -= MAX_RUN + 1; // the filler's value slot consumes one zero
        }
        pairs.push(RlcPair { run: gap, value });
        cursor = idx + 1;
    }
    // Trailing zeros need no pairs: `len` carries the logical length.
    RlcStream { len: v.len(), pairs }
}

/// Decodes an RLC stream back into a sparse vector.
///
/// # Errors
///
/// Returns [`TensorError::MalformedRlcStream`] if a run exceeds [`MAX_RUN`]
/// or the decoded positions overrun the logical length.
pub fn decode(stream: &RlcStream) -> Result<SparseVec, TensorError> {
    let mut indices = Vec::with_capacity(stream.pairs.len());
    let mut values = Vec::with_capacity(stream.pairs.len());
    let mut cursor = 0usize;
    for (i, pair) in stream.pairs.iter().enumerate() {
        if pair.run > MAX_RUN {
            return Err(TensorError::MalformedRlcStream(format!(
                "pair {i} has run {} > {MAX_RUN}",
                pair.run
            )));
        }
        cursor += pair.run as usize;
        if cursor >= stream.len {
            return Err(TensorError::MalformedRlcStream(format!(
                "pair {i} decodes past logical length {}",
                stream.len
            )));
        }
        if pair.value != 0.0 {
            indices.push(cursor as u32);
            values.push(pair.value);
        }
        cursor += 1; // the value slot (real or filler) consumes a position
    }
    SparseVec::new(stream.len, indices, values)
        .map_err(|e| TensorError::MalformedRlcStream(e.to_string()))
}

/// A streaming RLC decoder mirroring the hardware's one-pair-per-cycle unit.
///
/// The accelerator model uses this to charge one decode cycle per pair.
///
/// # Example
///
/// ```
/// use gnnie_tensor::rlc::{encode, RlcDecoder};
/// use gnnie_tensor::SparseVec;
///
/// let stream = encode(&SparseVec::from_dense(&[0.0, 7.0, 0.0, 0.0, 9.0]));
/// let mut dec = RlcDecoder::new(&stream);
/// assert_eq!(dec.next_nonzero(), Some((1, 7.0)));
/// assert_eq!(dec.next_nonzero(), Some((4, 9.0)));
/// assert_eq!(dec.next_nonzero(), None);
/// assert_eq!(dec.cycles(), 2); // one cycle per pair consumed
/// ```
#[derive(Debug)]
pub struct RlcDecoder<'a> {
    stream: &'a RlcStream,
    pair_pos: usize,
    dense_pos: usize,
    cycles: u64,
}

impl<'a> RlcDecoder<'a> {
    /// Creates a decoder positioned at the start of `stream`.
    pub fn new(stream: &'a RlcStream) -> Self {
        Self { stream, pair_pos: 0, dense_pos: 0, cycles: 0 }
    }

    /// Returns the next `(index, value)` nonzero, consuming filler pairs.
    pub fn next_nonzero(&mut self) -> Option<(usize, f32)> {
        while self.pair_pos < self.stream.pairs.len() {
            let pair = self.stream.pairs[self.pair_pos];
            self.pair_pos += 1;
            self.cycles += 1;
            self.dense_pos += pair.run as usize;
            let at = self.dense_pos;
            self.dense_pos += 1;
            if pair.value != 0.0 {
                return Some((at, pair.value));
            }
        }
        None
    }

    /// Decode cycles consumed so far (one per pair).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dense: &[f32]) {
        let v = SparseVec::from_dense(dense);
        let stream = encode(&v);
        let back = decode(&stream).unwrap();
        assert_eq!(back.to_dense(), dense, "roundtrip failed for {dense:?}");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(&[0.0, 0.0, 3.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn roundtrip_all_zero() {
        roundtrip(&[0.0; 100]);
        let stream = encode(&SparseVec::zeros(100));
        assert!(stream.pairs.is_empty());
        assert_eq!(stream.encoded_bits(), 0);
    }

    #[test]
    fn roundtrip_dense_vector() {
        let dense: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        roundtrip(&dense);
        // Fully dense: one pair per element, each with run 0.
        let stream = encode(&SparseVec::from_dense(&dense));
        assert_eq!(stream.pairs.len(), 10);
        assert!(stream.pairs.iter().all(|p| p.run == 0));
    }

    #[test]
    fn long_zero_runs_split_with_fillers() {
        let mut dense = vec![0.0f32; 100];
        dense[70] = 5.0;
        let v = SparseVec::from_dense(&dense);
        let stream = encode(&v);
        // 70 zeros: 31-run filler (consumes 32) + 31-run filler (consumes 32)
        // then run 6 + the value.
        assert_eq!(stream.pairs.len(), 3);
        assert_eq!(stream.pairs[0], RlcPair { run: 31, value: 0.0 });
        assert_eq!(stream.pairs[1], RlcPair { run: 31, value: 0.0 });
        assert_eq!(stream.pairs[2], RlcPair { run: 6, value: 5.0 });
        assert_eq!(decode(&stream).unwrap().to_dense(), dense);
    }

    #[test]
    fn decode_rejects_oversized_run() {
        let stream = RlcStream { len: 100, pairs: vec![RlcPair { run: 32, value: 1.0 }] };
        assert!(matches!(decode(&stream), Err(TensorError::MalformedRlcStream(_))));
    }

    #[test]
    fn decode_rejects_overrun() {
        let stream = RlcStream { len: 3, pairs: vec![RlcPair { run: 3, value: 1.0 }] };
        assert!(decode(&stream).is_err());
    }

    #[test]
    fn compression_wins_on_sparse_data() {
        let mut dense = vec![0.0f32; 1433]; // Cora feature length
        for i in (0..1433).step_by(80) {
            dense[i] = 1.0; // ~98.7% sparse
        }
        let stream = encode(&SparseVec::from_dense(&dense));
        assert!(
            stream.compression_ratio() > 10.0,
            "expected >10x compression, got {}",
            stream.compression_ratio()
        );
    }

    #[test]
    fn compression_loses_on_dense_data() {
        let dense: Vec<f32> = (1..=64).map(|i| i as f32).collect();
        let stream = encode(&SparseVec::from_dense(&dense));
        // 21 bits/pair vs 16 bits/value: dense data does not compress.
        assert!(stream.compression_ratio() < 1.0);
    }

    #[test]
    fn streaming_decoder_matches_batch_decode() {
        let mut dense = vec![0.0f32; 200];
        dense[0] = 1.0;
        dense[50] = 2.0;
        dense[199] = 3.0;
        let stream = encode(&SparseVec::from_dense(&dense));
        let mut dec = RlcDecoder::new(&stream);
        let mut got = Vec::new();
        while let Some(pair) = dec.next_nonzero() {
            got.push(pair);
        }
        assert_eq!(got, vec![(0, 1.0), (50, 2.0), (199, 3.0)]);
        assert_eq!(dec.cycles() as usize, stream.pairs.len());
    }
}
