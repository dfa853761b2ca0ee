//! The `.gnniecsr` binary snapshot cache.
//!
//! A snapshot freezes a complete [`GraphDataset`] — spec, CSR adjacency,
//! and sparse input features — into one checksummed file, so expensive
//! parse-and-build (or synthesis) runs once per graph (the Ginex-style
//! "prepare offline, serve from cache" split). Reloading a snapshot
//! reproduces the dataset bit-for-bit, which makes `InferenceReport`s
//! from a snapshot byte-identical to reports from the original source.
//!
//! Snapshots are **write-once**: [`write_snapshot`] refuses to replace an
//! existing file unless explicitly asked, because a cache that silently
//! rewrites itself under a running experiment invalidates its results.
//!
//! # Layout (version 3)
//!
//! There is one layout: **8-byte-aligned, offset-indexed sections**, so a
//! loader can `mmap` the file and hand
//! [`gnnie_graph::CsrGraph::from_raw_parts_trusted`] /
//! [`CsrMatrix::from_raw_parts_trusted`] borrowed slices straight out of
//! the mapping, after validating only the header and section table — no
//! array copies, no feature-buffer allocation. All integers are
//! little-endian, values IEEE-754 bit patterns:
//!
//! ```text
//! offset  size        field
//! ------  ----------  ------------------------------------------------
//!      0  8           magic "GNNIECSR"
//!      8  4           version (u32 LE) = 3
//!     12  4           section count C (u32 LE)
//!     16  32 × C      section table, one 32-byte entry per section:
//!                       +0  id        (u32 LE, four ASCII bytes)
//!                       +4  reserved  (u32 LE, 0)
//!                       +8  offset    (u64 LE, from file start, 8-aligned)
//!                       +16 len       (u64 LE, payload bytes, unpadded)
//!                       +24 checksum  (u64 LE, checksum64 of the section's
//!                                      padded extent [offset, offset+pad8(len)))
//! 16+32C  8           header checksum (u64 LE, checksum64 of bytes [0, 16+32C))
//! 24+32C  ...         section payloads, each zero-padded to an 8-byte
//!                     boundary so every offset stays 8-aligned
//! ```
//!
//! The eight sections [`encode_snapshot`] writes, in file order:
//!
//! | id     | payload                                                      |
//! |--------|--------------------------------------------------------------|
//! | `SPEC` | dataset index `u32` · vertices/edges/feature_len/labels `u64`·4 · sparsity/gamma/uniform `f64`·3 (60 bytes) |
//! | `META` | n · e · feature rows · cols · nnz, five `u64`s (40 bytes)    |
//! | `GOFF` | graph CSR offsets, `(n+1) × u64`                             |
//! | `GNBR` | flat neighbor ids, `2e × u32`                                |
//! | `FOFF` | feature CSR offsets, `(rows+1) × u64`                        |
//! | `FCOL` | feature column indices, `nnz × u32`                          |
//! | `FVAL` | feature values, `nnz × u32` IEEE-754 bit patterns            |
//! | `PART` | a `u32` table count of 0 (4 bytes)                           |
//!
//! `PART` holds a table count of 0: exactly the bytes earlier builds
//! wrote for a snapshot without partition tables, so those builds read
//! new files. Earlier `gnnie ingest` output carries tables there;
//! readers verify `PART`'s checksum but never decode it, so such files
//! load too.
//!
//! Readers look sections up by id and ignore unknown ids. Both loaders
//! share one parse of the header, section table and small sections; they
//! differ only in how the five array sections become arrays. The
//! **copying** reference ([`decode_snapshot`]) verifies every section
//! checksum and runs the fully validating constructors; the **mmap**
//! path of [`open_snapshot`] (Unix, 64-bit little-endian only) verifies
//! every section except the five array payloads, which it trusts — a
//! flipped byte in any header, table entry, or stored checksum is
//! rejected on *both* paths by construction. Files of earlier layout
//! versions (1 and 2) are rejected with an error that says to re-create
//! them with `gnnie ingest --force`.

use std::path::Path;

use gnnie_graph::{Dataset, DatasetSpec, GraphDataset};
use gnnie_tensor::CsrMatrix;

use crate::bytes::{checksum64, put_f64, put_u32, put_u64, ByteReader};
use crate::error::IngestError;
use crate::format::SNAPSHOT_MAGIC;

/// The snapshot layout version, the only one this build reads or writes.
pub const SNAPSHOT_VERSION: u32 = 3;

/// `true` when this build can take the zero-copy mmap path (Unix with
/// 64-bit little-endian pointers, so the on-disk `u64`/`u32` arrays
/// reinterpret directly as `usize`/`u32` slices).
pub const fn mmap_supported() -> bool {
    cfg!(all(unix, target_pointer_width = "64", target_endian = "little"))
}

/// Section ids (four ASCII bytes, little-endian).
const SEC_SPEC: u32 = u32::from_le_bytes(*b"SPEC");
const SEC_META: u32 = u32::from_le_bytes(*b"META");
const SEC_GOFF: u32 = u32::from_le_bytes(*b"GOFF");
const SEC_GNBR: u32 = u32::from_le_bytes(*b"GNBR");
const SEC_FOFF: u32 = u32::from_le_bytes(*b"FOFF");
const SEC_FCOL: u32 = u32::from_le_bytes(*b"FCOL");
const SEC_FVAL: u32 = u32::from_le_bytes(*b"FVAL");
const SEC_PART: u32 = u32::from_le_bytes(*b"PART");

/// The array sections, in `Layout::arrays` order.
const ARRAY_SECTIONS: [u32; 5] = [SEC_GOFF, SEC_GNBR, SEC_FOFF, SEC_FCOL, SEC_FVAL];

/// Rounds `len` up to the next 8-byte boundary.
fn pad8(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// Renders a section id as its four ASCII bytes for error messages.
fn section_name(id: u32) -> String {
    String::from_utf8_lossy(&id.to_le_bytes()).into_owned()
}

/// Serializes `ds` to `path`.
///
/// # Errors
///
/// [`IngestError::Io`] if `path` already exists and `overwrite` is false
/// (snapshots are write-once), or on any write failure.
pub fn write_snapshot(
    path: &Path,
    ds: &GraphDataset,
    overwrite: bool,
) -> Result<(), IngestError> {
    if !overwrite && path.exists() {
        return Err(IngestError::io(
            path,
            "snapshot already exists (write-once; pass --force to replace)",
        ));
    }
    std::fs::write(path, encode_snapshot(ds)).map_err(|e| IngestError::io(path, e))
}

/// Reads the 12-byte header at `path` without decoding the body. `None`
/// when the file cannot be read or does not start with the snapshot
/// magic — callers use this to label listings, so a broken file degrades
/// to "no version" rather than an error.
pub fn peek_snapshot_info(path: &Path) -> Option<SnapshotInfo> {
    use std::io::Read;
    let mut header = [0u8; 12];
    let mut file = std::fs::File::open(path).ok()?;
    file.read_exact(&mut header).ok()?;
    if header[..8] != SNAPSHOT_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    Some(SnapshotInfo {
        version,
        mmap_eligible: version == SNAPSHOT_VERSION && mmap_supported(),
    })
}

/// What [`peek_snapshot_info`] learns from a snapshot's 12-byte header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The layout version the header declares (only
    /// [`SNAPSHOT_VERSION`] loads).
    pub version: u32,
    /// `true` when this build would load the file zero-copy via mmap.
    pub mmap_eligible: bool,
}

/// In-memory serialization; see the module docs for the layout.
pub fn encode_snapshot(ds: &GraphDataset) -> Vec<u8> {
    let mut spec = Vec::with_capacity(60);
    encode_spec_block(&mut spec, &ds.spec);
    let f = &ds.features;
    let mut meta = Vec::with_capacity(40);
    put_u64(&mut meta, ds.graph.num_vertices() as u64);
    put_u64(&mut meta, ds.graph.num_edges() as u64);
    put_u64(&mut meta, f.rows() as u64);
    put_u64(&mut meta, f.cols() as u64);
    put_u64(&mut meta, f.nnz() as u64);
    let mut goff = Vec::with_capacity(ds.graph.offsets().len() * 8);
    for &o in ds.graph.offsets() {
        put_u64(&mut goff, o as u64);
    }
    let mut gnbr = Vec::with_capacity(ds.graph.neighbors_flat().len() * 4);
    for &w in ds.graph.neighbors_flat() {
        put_u32(&mut gnbr, w);
    }
    let mut foff = Vec::with_capacity(f.offsets().len() * 8);
    for &o in f.offsets() {
        put_u64(&mut foff, o as u64);
    }
    let mut fcol = Vec::with_capacity(f.nnz() * 4);
    for &c in f.col_indices() {
        put_u32(&mut fcol, c);
    }
    let mut fval = Vec::with_capacity(f.nnz() * 4);
    for &v in f.values() {
        put_u32(&mut fval, v.to_bits());
    }
    let sections: [(u32, Vec<u8>); 8] = [
        (SEC_SPEC, spec),
        (SEC_META, meta),
        (SEC_GOFF, goff),
        (SEC_GNBR, gnbr),
        (SEC_FOFF, foff),
        (SEC_FCOL, fcol),
        (SEC_FVAL, fval),
        (SEC_PART, 0u32.to_le_bytes().to_vec()),
    ];
    // Lay the payloads out back to back, each zero-padded to 8 bytes, and
    // record (offset, len, checksum-of-padded-extent) per section. Padding
    // bytes are inside the checksummed extent, so no byte of the file goes
    // unprotected.
    let count = sections.len();
    let header_len = 16 + 32 * count + 8;
    let mut body = Vec::new();
    let mut entries = Vec::with_capacity(count);
    for (id, payload) in &sections {
        let start = body.len();
        body.extend_from_slice(payload);
        while body.len() % 8 != 0 {
            body.push(0);
        }
        entries.push((
            *id,
            (header_len + start) as u64,
            payload.len() as u64,
            checksum64(&body[start..]),
        ));
    }
    let mut buf = Vec::with_capacity(header_len + body.len());
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION);
    put_u32(&mut buf, count as u32);
    for (id, offset, len, sum) in &entries {
        put_u32(&mut buf, *id);
        put_u32(&mut buf, 0); // reserved
        put_u64(&mut buf, *offset);
        put_u64(&mut buf, *len);
        put_u64(&mut buf, *sum);
    }
    let header_sum = checksum64(&buf);
    put_u64(&mut buf, header_sum);
    buf.extend_from_slice(&body);
    buf
}

/// Encodes the 60-byte `SPEC` payload.
fn encode_spec_block(buf: &mut Vec<u8>, spec: &DatasetSpec) {
    let dataset_index =
        Dataset::ALL.iter().position(|&d| d == spec.dataset).expect("Dataset::ALL is total")
            as u32;
    put_u32(buf, dataset_index);
    put_u64(buf, spec.vertices as u64);
    put_u64(buf, spec.edges as u64);
    put_u64(buf, spec.feature_len as u64);
    put_u64(buf, spec.labels as u64);
    put_f64(buf, spec.feature_sparsity);
    put_f64(buf, spec.degree_gamma);
    put_f64(buf, spec.uniform_frac);
}

/// Decodes the 60-byte `SPEC` payload.
fn decode_spec_block(r: &mut ByteReader<'_>, what: &str) -> Result<DatasetSpec, IngestError> {
    let dataset_index = r.u32()? as usize;
    let dataset = *Dataset::ALL.get(dataset_index).ok_or_else(|| {
        IngestError::Snapshot(format!("{what}: dataset index {dataset_index} out of range"))
    })?;
    Ok(DatasetSpec {
        dataset,
        vertices: r.len(usize::MAX)?,
        edges: r.len(usize::MAX)?,
        feature_len: r.len(usize::MAX)?,
        labels: r.len(usize::MAX)?,
        feature_sparsity: r.f64()?,
        degree_gamma: r.f64()?,
        uniform_frac: r.f64()?,
    })
}

/// One entry of the parsed-and-validated section table.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    id: u32,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// Parses and validates the header and section table: magic, exact
/// version, header checksum, and per-entry alignment/bounds. Section
/// payload checksums are *not* verified here.
fn parse_header(data: &[u8], what: &str) -> Result<Vec<SectionEntry>, IngestError> {
    let snap = |msg: String| IngestError::Snapshot(format!("{what}: {msg}"));
    if data.len() < 12 || data[..8] != SNAPSHOT_MAGIC {
        return Err(snap("truncated or non-snapshot header".into()));
    }
    let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(snap(format!(
            "snapshot version {version}, this build reads version {SNAPSHOT_VERSION} only; \
             re-create it from its source graph with `gnnie ingest --force`"
        )));
    }
    let count = match data.get(12..16) {
        Some(b) => u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize,
        None => return Err(snap("truncated section table (no section count)".into())),
    };
    let table_end = count
        .checked_mul(32)
        .and_then(|t| t.checked_add(16))
        .filter(|&end| end + 8 <= data.len())
        .ok_or_else(|| snap(format!("truncated section table ({count} sections declared)")))?;
    let stored =
        u64::from_le_bytes(data[table_end..table_end + 8].try_into().expect("8 bytes"));
    if checksum64(&data[..table_end]) != stored {
        return Err(snap("header/section-table checksum mismatch".into()));
    }
    let header_len = table_end + 8;
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let base = 16 + 32 * i;
        let field_u64 = |at: usize| {
            u64::from_le_bytes(data[base + at..base + at + 8].try_into().expect("8 bytes"))
        };
        let id = u32::from_le_bytes(data[base..base + 4].try_into().expect("4 bytes"));
        let offset = usize::try_from(field_u64(8))
            .map_err(|_| snap(format!("section {}: offset overflows", section_name(id))))?;
        let len = usize::try_from(field_u64(16))
            .map_err(|_| snap(format!("section {}: length overflows", section_name(id))))?;
        let checksum = field_u64(24);
        if offset % 8 != 0 {
            return Err(snap(format!(
                "section {} at misaligned offset {offset} (must be 8-byte aligned)",
                section_name(id)
            )));
        }
        if offset < header_len {
            return Err(snap(format!(
                "section {} at offset {offset} overlaps the header",
                section_name(id)
            )));
        }
        let in_bounds = len
            .checked_next_multiple_of(8)
            .and_then(|p| offset.checked_add(p))
            .is_some_and(|end| end <= data.len());
        if !in_bounds {
            return Err(snap(format!(
                "section {} ({offset}+{len}) runs past the end of the file \
                 ({} bytes) — truncated?",
                section_name(id),
                data.len()
            )));
        }
        entries.push(SectionEntry { id, offset, len, checksum });
    }
    Ok(entries)
}

/// Finds the required section `id` in the table.
fn find_section(
    entries: &[SectionEntry],
    id: u32,
    what: &str,
) -> Result<SectionEntry, IngestError> {
    entries.iter().copied().find(|e| e.id == id).ok_or_else(|| {
        IngestError::Snapshot(format!("{what}: missing required section {}", section_name(id)))
    })
}

/// The section's payload bytes (unpadded).
fn section_payload<'a>(data: &'a [u8], e: &SectionEntry) -> &'a [u8] {
    &data[e.offset..e.offset + e.len]
}

/// Verifies a section's stored checksum over its padded extent.
fn verify_section(data: &[u8], e: &SectionEntry, what: &str) -> Result<(), IngestError> {
    let extent = &data[e.offset..e.offset + pad8(e.len)];
    if checksum64(extent) != e.checksum {
        return Err(IngestError::Snapshot(format!(
            "{what}: section {} checksum mismatch (corrupted?)",
            section_name(e.id)
        )));
    }
    Ok(())
}

/// Decoded `META` section: array lengths for the big sections.
struct MetaBlock {
    n: usize,
    num_edges: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
}

fn decode_meta_block(payload: &[u8], what: &str) -> Result<MetaBlock, IngestError> {
    let mut r = ByteReader::new(payload, what);
    let meta = MetaBlock {
        n: r.len(usize::MAX)?,
        num_edges: r.len(usize::MAX)?,
        rows: r.len(usize::MAX)?,
        cols: r.len(usize::MAX)?,
        nnz: r.len(usize::MAX)?,
    };
    if r.remaining() != 0 {
        return Err(IngestError::Snapshot(format!(
            "{what}: {} trailing bytes in META",
            r.remaining()
        )));
    }
    Ok(meta)
}

/// What both loaders share: the validated header and section table, the
/// decoded `SPEC` and `META` sections, and the five array sections
/// located and length-checked against `META`.
struct Layout {
    spec: DatasetSpec,
    meta: MetaBlock,
    /// `GOFF`, `GNBR`, `FOFF`, `FCOL`, `FVAL`, in that order.
    arrays: [SectionEntry; 5],
}

/// Parses a snapshot up to, but not including, its array payloads.
/// Every section checksum is verified, except the five array sections'
/// when `verify_arrays` is false (the mmap path trusts those).
fn parse_layout(data: &[u8], what: &str, verify_arrays: bool) -> Result<Layout, IngestError> {
    let entries = parse_header(data, what)?;
    for e in &entries {
        if verify_arrays || !ARRAY_SECTIONS.contains(&e.id) {
            verify_section(data, e, what)?;
        }
    }
    // Written with no tables; verified above, never decoded.
    find_section(&entries, SEC_PART, what)?;
    let spec_e = find_section(&entries, SEC_SPEC, what)?;
    let spec =
        decode_spec_block(&mut ByteReader::new(section_payload(data, &spec_e), what), what)?;
    let meta_e = find_section(&entries, SEC_META, what)?;
    let meta = decode_meta_block(section_payload(data, &meta_e), what)?;
    if meta.rows != meta.n {
        return Err(IngestError::Snapshot(format!(
            "{what}: {} feature rows but {} vertices",
            meta.rows, meta.n
        )));
    }
    // The spec names the shape every report prints; it must describe the
    // arrays the load returns.
    if (spec.vertices, spec.feature_len) != (meta.n, meta.cols) {
        return Err(IngestError::Snapshot(format!(
            "{what}: SPEC declares {} vertices and {} feature columns, but the arrays hold {} \
             and {}",
            spec.vertices, spec.feature_len, meta.n, meta.cols
        )));
    }
    let shapes = [
        (meta.n.checked_add(1), 8),
        (meta.num_edges.checked_mul(2), 4),
        (meta.rows.checked_add(1), 8),
        (Some(meta.nnz), 4),
        (Some(meta.nnz), 4),
    ];
    let [goff, gnbr, foff, fcol, fval] =
        ARRAY_SECTIONS.map(|id| find_section(&entries, id, what));
    let arrays = [goff?, gnbr?, foff?, fcol?, fval?];
    for (e, (elems, width)) in arrays.iter().zip(shapes) {
        if elems.and_then(|n| n.checked_mul(width)) != Some(e.len) {
            return Err(IngestError::Snapshot(format!(
                "{what}: section {} holds {} bytes, not the {width}-byte elements META \
                 declares",
                section_name(e.id),
                e.len
            )));
        }
    }
    Ok(Layout { spec, meta, arrays })
}

/// Decodes a snapshot held in memory by copying every array out of it;
/// `what` names the source in errors. This is the fully validating
/// reference the zero-copy path of [`open_snapshot`] must match byte for
/// byte.
///
/// # Errors
///
/// [`IngestError::Snapshot`] on checksum mismatch, truncation, a layout
/// version other than [`SNAPSHOT_VERSION`], or structurally invalid
/// content.
pub fn decode_snapshot(data: &[u8], what: &str) -> Result<GraphDataset, IngestError> {
    let Layout { spec, meta, arrays: [goff, gnbr, foff, fcol, fval] } =
        parse_layout(data, what, true)?;
    let payload = |e: &SectionEntry| ByteReader::new(section_payload(data, e), what);
    let offsets = payload(&goff).usize_vec(goff.len / 8)?;
    let neighbors = payload(&gnbr).u32_vec(gnbr.len / 4)?;
    let graph = gnnie_graph::CsrGraph::from_raw_parts(offsets, neighbors, meta.num_edges)?;
    let foffsets = payload(&foff).usize_vec(foff.len / 8)?;
    let col_indices = payload(&fcol).u32_vec(fcol.len / 4)?;
    let values: Vec<f32> =
        payload(&fval).u32_vec(fval.len / 4)?.into_iter().map(f32::from_bits).collect();
    let features =
        CsrMatrix::from_raw_parts(meta.rows, meta.cols, foffsets, col_indices, values)
            .map_err(|e| IngestError::Snapshot(format!("{what}: feature block: {e}")))?;
    Ok(GraphDataset::from_parts(spec, graph, features))
}

/// The zero-copy loader: reinterprets the array sections in place over a
/// shared mmap. Compiled only where the on-disk layout matches the in-memory
/// one (64-bit little-endian Unix); everywhere else [`open_snapshot`] uses
/// the copying decoder.
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
mod zerocopy {
    use std::sync::Arc;

    use gnnie_tensor::Backing;

    use super::*;
    use crate::mmapfile::MmapFile;

    /// Borrows section `e` of the mapping as a typed slice.
    ///
    /// Alignment holds because `mmap` returns a page-aligned base and the
    /// section table enforces 8-byte-aligned offsets; `T` is at most 8
    /// bytes wide here (`usize`, `u32`, `f32`).
    fn shared<T: Send + Sync + 'static>(map: &Arc<MmapFile>, e: &SectionEntry) -> Backing<T> {
        let data = map.as_slice();
        let ptr = data[e.offset..].as_ptr() as *const T;
        let len = e.len / std::mem::size_of::<T>();
        let owner: Arc<dyn std::any::Any + Send + Sync> = Arc::clone(map) as _;
        // SAFETY: `ptr` is aligned (see above) and spans `len` elements of
        // plain-old-data inside the mapping; the mapping is read-only and
        // stays alive for as long as `owner` does.
        unsafe { Backing::from_shared(owner, ptr, len) }
    }

    /// Part of the one linear pass the trusted constructors rely on, as
    /// the array checksums go unread here: `offsets` start at 0, never
    /// decrease, and end at `len`, the length of the array they index.
    fn check_offsets(
        section: &str,
        offsets: &[usize],
        len: usize,
        what: &str,
    ) -> Result<(), IngestError> {
        let monotone = offsets.iter().zip(offsets.iter().skip(1)).all(|(a, b)| a <= b);
        if offsets.first() == Some(&0) && offsets.last() == Some(&len) && monotone {
            return Ok(());
        }
        Err(IngestError::Snapshot(format!(
            "{what}: section {section} is not a CSR offset array (must start at 0, never \
             decrease, and end at {len}) — corrupted?"
        )))
    }

    /// The rest of that pass: every id in `ids` is below `bound`.
    fn check_ids(
        section: &str,
        kind: &str,
        ids: &[u32],
        bound: usize,
        what: &str,
    ) -> Result<(), IngestError> {
        // A max-fold vectorizes; the bad entry is sought only on failure.
        if ids.iter().max().map_or(true, |&max| (max as usize) < bound) {
            return Ok(());
        }
        let i = ids
            .iter()
            .position(|&id| id as usize >= bound)
            .expect("the maximum is out of range");
        Err(IngestError::Snapshot(format!(
            "{what}: section {section} entry {i} is {kind} {}, not below {bound} — corrupted?",
            ids[i]
        )))
    }

    /// And the last part: within each list of `ids` that the already
    /// checked `offsets` delimit, ids strictly increase — the canonical
    /// order every reader of a CSR list relies on.
    fn check_sorted(
        section: &str,
        kind: &str,
        offsets: &[usize],
        ids: &[u32],
        what: &str,
    ) -> Result<(), IngestError> {
        // Every descent in the whole array must sit where a nonempty list
        // starts. Counting descents is one pass that vectorizes; the list
        // starts are one per vertex, and the bad entry is sought only on
        // failure.
        let (heads, tails) = (&ids[..ids.len().saturating_sub(1)], ids.get(1..).unwrap_or(&[]));
        // Counted in `u32` lanes, a block at a time so the count cannot wrap.
        let descents: usize = heads
            .chunks(1 << 20)
            .zip(tails.chunks(1 << 20))
            .map(|(a, b)| a.iter().zip(b).map(|(a, b)| u32::from(a >= b)).sum::<u32>() as usize)
            .sum();
        let at_starts: usize = offsets
            .windows(2)
            .filter(|w| 0 < w[0] && w[0] < w[1])
            .map(|w| usize::from(ids[w[0] - 1] >= ids[w[0]]))
            .sum();
        if descents == at_starts {
            return Ok(());
        }
        let (list, start, at) = offsets
            .windows(2)
            .enumerate()
            .find_map(|(i, w)| {
                ids[w[0]..w[1]].windows(2).position(|p| p[0] >= p[1]).map(|j| (i, w[0], j))
            })
            .expect("some list is out of order");
        Err(IngestError::Snapshot(format!(
            "{what}: section {section} list {list} does not strictly increase: entry {} is \
             {kind} {} after {} — corrupted?",
            start + at + 1,
            ids[start + at + 1],
            ids[start + at]
        )))
    }

    /// Decodes a snapshot from an established mapping, borrowing the
    /// array sections zero-copy. The array payloads pass one linear
    /// structural check (offsets, id bounds, and ids strictly increasing
    /// within each list), then go to the trusted constructors (full
    /// validation still runs in debug builds). Adjacency symmetry is not
    /// checked: it is trusted to the file, as its checksums go unread.
    pub(super) fn decode_mmap(
        map: &Arc<MmapFile>,
        what: &str,
    ) -> Result<GraphDataset, IngestError> {
        let Layout { spec, meta, arrays: [goff, gnbr, foff, fcol, fval] } =
            parse_layout(map.as_slice(), what, false)?;
        let (goff, gnbr) = (shared::<usize>(map, &goff), shared::<u32>(map, &gnbr));
        let (foff, fcol) = (shared::<usize>(map, &foff), shared::<u32>(map, &fcol));
        check_offsets("GOFF", &goff, gnbr.len(), what)?;
        check_ids("GNBR", "neighbour id", &gnbr, meta.n, what)?;
        check_sorted("GNBR", "neighbour id", &goff, &gnbr, what)?;
        check_offsets("FOFF", &foff, fcol.len(), what)?;
        check_ids("FCOL", "feature column", &fcol, meta.cols, what)?;
        check_sorted("FCOL", "feature column", &foff, &fcol, what)?;
        let graph = gnnie_graph::CsrGraph::from_raw_parts_trusted(goff, gnbr, meta.num_edges);
        let features = CsrMatrix::from_raw_parts_trusted(
            meta.rows,
            meta.cols,
            foff,
            fcol,
            shared::<f32>(map, &fval),
        );
        Ok(GraphDataset::from_parts(spec, graph, features))
    }
}

/// A loaded snapshot and the path that loaded it.
#[derive(Debug, Clone)]
pub struct SnapshotLoad {
    /// The reloaded dataset (bit-identical to what was frozen).
    pub dataset: GraphDataset,
    /// `true` when the zero-copy mmap path was taken; `false` means the
    /// copying decoder ran.
    pub mmap: bool,
}

/// Opens a snapshot by the best available path: on supported platforms
/// the file is memory-mapped and loaded zero-copy; elsewhere, or where
/// the `mmap` call itself fails, it goes through [`decode_snapshot`].
///
/// Both paths produce bit-identical datasets — the mmap path only changes
/// where the arrays live, never their contents.
///
/// # Errors
///
/// See [`decode_snapshot`], plus [`IngestError::Io`] on read failure;
/// decode failures are *not* papered over by falling back (a corrupt
/// file fails on either path).
pub fn open_snapshot(path: &Path) -> Result<SnapshotLoad, IngestError> {
    let what = path.display().to_string();
    #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
    if let Ok(map) = crate::mmapfile::MmapFile::open(path) {
        // Only a mapping-establishment failure falls through to the
        // copying path; decode errors propagate.
        return Ok(SnapshotLoad { dataset: zerocopy::decode_mmap(&map, &what)?, mmap: true });
    }
    let data = std::fs::read(path).map_err(|e| IngestError::io(path, e))?;
    Ok(SnapshotLoad { dataset: decode_snapshot(&data, &what)?, mmap: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GraphDataset {
        GraphDataset::generate(Dataset::Cora, 0.02, 9)
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gnnie-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_roundtrips_bit_for_bit() {
        let ds = tiny();
        let bytes = encode_snapshot(&ds);
        let re = decode_snapshot(&bytes, "mem").unwrap();
        assert_eq!(re.graph, ds.graph);
        assert_eq!(re.features, ds.features);
        assert_eq!(re.spec, ds.spec);
    }

    #[test]
    fn any_corruption_is_detected() {
        let ds = tiny();
        let bytes = encode_snapshot(&ds);
        // Flip one bit at a spread of positions: header, graph, features,
        // the PART section at the very end.
        for pos in [0, 9, 60, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(decode_snapshot(&bad, "mem").is_err(), "flip at {pos} undetected");
        }
        // Truncation at any prefix fails.
        assert!(decode_snapshot(&bytes[..bytes.len() - 3], "mem").is_err());
        assert!(decode_snapshot(&bytes[..14], "mem").is_err());
        assert!(decode_snapshot(&[], "mem").is_err());
    }

    #[test]
    fn peek_reads_the_version_without_decoding() {
        let dir = tmpdir("peek");
        let path = dir.join("tiny.gnniecsr");
        write_snapshot(&path, &tiny(), true).unwrap();
        let info = peek_snapshot_info(&path).unwrap();
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.mmap_eligible, mmap_supported());
        // A v1 header peeks as 1, and as ineligible for mmap.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 1;
        let v1 = dir.join("old.gnniecsr");
        std::fs::write(&v1, &bytes).unwrap();
        assert_eq!(
            peek_snapshot_info(&v1),
            Some(SnapshotInfo { version: 1, mmap_eligible: false })
        );
        // Non-snapshot bytes and missing files peek as None, not errors.
        let junk = dir.join("junk.gnniecsr");
        std::fs::write(&junk, b"not a snapshot at all").unwrap();
        assert_eq!(peek_snapshot_info(&junk), None);
        assert_eq!(peek_snapshot_info(&dir.join("absent.gnniecsr")), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_skew_is_named() {
        let dir = tmpdir("vskew");
        let bytes = encode_snapshot(&tiny());
        // Layouts 1 and 2 (single-stream, whole-file checksum) and a
        // future 99 are all refused on both load paths, naming the
        // source, the version found, and how to re-create the file.
        for version in [1u8, 2, 99] {
            let mut old = bytes.clone();
            old[8] = version; // version field, little-endian low byte
            let path = dir.join(format!("v{version}.gnniecsr"));
            std::fs::write(&path, &old).unwrap();
            for err in
                [decode_snapshot(&old, "mem").unwrap_err(), open_snapshot(&path).unwrap_err()]
            {
                let msg = err.to_string();
                assert!(matches!(err, IngestError::Snapshot(_)), "{msg}");
                assert!(msg.contains(&format!("version {version}")), "{msg}");
                assert!(msg.contains("gnnie ingest --force"), "{msg}");
            }
            let msg = open_snapshot(&path).unwrap_err().to_string();
            assert!(msg.contains(&path.display().to_string()), "{msg}");
            // The bare 12-byte header is enough to be refused by version.
            let msg = decode_snapshot(&old[..12], "mem").unwrap_err().to_string();
            assert!(msg.contains(&format!("version {version}")), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_spec_that_disagrees_with_the_arrays_is_refused() {
        // Checksum-valid snapshots whose SPEC misstates the vertex count
        // or the feature width fail on both load paths, naming the file.
        let dir = tmpdir("specmeta");
        let ds = tiny();
        let specs =
            [DatasetSpec { vertices: 7, ..ds.spec }, DatasetSpec { feature_len: 5, ..ds.spec }];
        for (i, spec) in specs.into_iter().enumerate() {
            let bytes = encode_snapshot(&GraphDataset::from_parts(
                spec,
                ds.graph.clone(),
                ds.features.clone(),
            ));
            let path = dir.join(format!("edited{i}.gnniecsr"));
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                decode_snapshot(&bytes, "mem").unwrap_err(),
                open_snapshot(&path).unwrap_err(),
            ];
            for err in errors {
                let msg = err.to_string();
                assert!(matches!(err, IngestError::Snapshot(_)), "{msg}");
                assert!(msg.contains("SPEC declares"), "{msg}");
            }
            let msg = open_snapshot(&path).unwrap_err().to_string();
            assert!(msg.contains(&path.display().to_string()), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_partition_blocks_are_detected() {
        let dir = tmpdir("partflip");
        let bytes = encode_snapshot(&tiny());
        // PART is the last section: its 4-byte table count plus 4 bytes
        // of padding end the file. It is never decoded, but a flip inside
        // it still fails the section checksum on both load paths.
        let mut bad = bytes.clone();
        let pos = bytes.len() - 8;
        bad[pos] ^= 0x04;
        assert!(decode_snapshot(&bad, "mem").is_err());
        let path = dir.join("part.gnniecsr");
        std::fs::write(&path, &bad).unwrap();
        assert!(open_snapshot(&path).is_err());
        // Cutting the file inside PART fails the bounds check.
        assert!(decode_snapshot(&bytes[..bytes.len() - 4], "mem").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recomputes the header/section-table checksum after a test mutates
    /// header bytes (so only the intended defect is visible).
    fn rehash_header(bytes: &mut [u8]) {
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = 16 + 32 * count;
        let sum = checksum64(&bytes[..table_end]);
        bytes[table_end..table_end + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn truncated_section_table_is_rejected() {
        let ds = tiny();
        let bytes = encode_snapshot(&ds);
        // Cut the file mid-table: the declared count no longer fits.
        let err = decode_snapshot(&bytes[..40], "mem").unwrap_err();
        assert!(err.to_string().contains("truncated section table"), "{err}");
        // A hostile count overflows past the end of the file before any
        // entry is read.
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_snapshot(&bad, "mem").unwrap_err();
        assert!(err.to_string().contains("truncated section table"), "{err}");
    }

    #[test]
    fn misaligned_section_offset_is_rejected() {
        let ds = tiny();
        let mut bytes = encode_snapshot(&ds);
        // Entry 0 starts at byte 16; its offset field is 8 bytes in.
        bytes[16 + 8] += 4;
        rehash_header(&mut bytes);
        let err = decode_snapshot(&bytes, "mem").unwrap_err();
        assert!(err.to_string().contains("misaligned offset"), "{err}");
    }

    #[test]
    fn checksum_flips_are_rejected_on_both_load_paths() {
        let dir = tmpdir("flip");
        let bytes = encode_snapshot(&tiny());
        // With 8 sections the header is 16 + 8*32 + 8 = 280 bytes, so
        // byte 281 sits inside the SPEC payload (verified on the mmap
        // path too) and byte 40 is entry 0's stored section checksum
        // (protected by the header checksum).
        for (name, pos) in [("spec payload", 281usize), ("stored checksum", 40)] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(decode_snapshot(&bad, "mem").is_err(), "{name}: copy path missed the flip");
            // Unified opener — takes the mmap path where supported.
            let path = dir.join("flipped.gnniecsr");
            std::fs::write(&path, &bad).unwrap();
            assert!(open_snapshot(&path).is_err(), "{name}: open_snapshot missed the flip");
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structurally_bad_arrays_are_rejected_on_both_load_paths() {
        // The array sections' checksums go unread on the mmap path, so a
        // bad offset or id there must fail the structural check rather
        // than reach the trusted constructors.
        let dir = tmpdir("structure");
        let bytes = encode_snapshot(&tiny());
        let entries = parse_header(&bytes, "t").unwrap();
        let at = |id: u32| entries.iter().find(|e| e.id == id).unwrap();
        let foff_last = at(SEC_FOFF).offset + at(SEC_FOFF).len - 8;
        // The first two ids of the first list, swapped: both lists hold
        // at least two.
        let swapped = |id: u32| {
            let p = at(id).offset;
            [&bytes[p + 4..p + 8], &bytes[p..p + 4]].concat()
        };
        let cases: [(usize, &[u8], &str); 6] = [
            (at(SEC_GOFF).offset, &1u64.to_le_bytes(), "GOFF"),
            (at(SEC_GNBR).offset, &0x7fff_ffffu32.to_le_bytes(), "neighbour id"),
            (at(SEC_GNBR).offset, &swapped(SEC_GNBR), "GNBR list 0 does not strictly increase"),
            (foff_last, &u64::MAX.to_le_bytes(), "FOFF"),
            (at(SEC_FCOL).offset, &u32::MAX.to_le_bytes(), "feature column"),
            (at(SEC_FCOL).offset, &swapped(SEC_FCOL), "FCOL list 0 does not strictly increase"),
        ];
        for (pos, value, names) in cases {
            let mut bad = bytes.clone();
            bad[pos..pos + value.len()].copy_from_slice(value);
            assert!(decode_snapshot(&bad, "mem").is_err(), "{names}: copy path accepted it");
            let path = dir.join("bad.gnniecsr");
            std::fs::write(&path, &bad).unwrap();
            let err = open_snapshot(&path).unwrap_err().to_string();
            if mmap_supported() {
                assert!(err.contains(names) && err.contains("bad.gnniecsr"), "{err}");
            }
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_load_matches_copying_loader() {
        let dir = tmpdir("mmapeq");
        let ds = tiny();
        let path = dir.join("eq.gnniecsr");
        write_snapshot(&path, &ds, false).unwrap();
        let copied = decode_snapshot(&std::fs::read(&path).unwrap(), "eq").unwrap();
        let load = open_snapshot(&path).unwrap();
        assert_eq!(load.mmap, mmap_supported());
        assert_eq!(load.dataset.graph, copied.graph);
        assert_eq!(load.dataset.features, copied.features);
        assert_eq!(load.dataset.spec, copied.spec);
        // The arrays really are views into the mapping (when supported).
        assert_eq!(load.dataset.graph.is_memory_mapped(), mmap_supported());
        assert_eq!(load.dataset.features.is_memory_mapped(), mmap_supported());
        assert!(!copied.graph.is_memory_mapped());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_is_write_once() {
        let dir = tmpdir("snapshot-test");
        let path = dir.join("tiny.gnniecsr");
        let ds = tiny();
        write_snapshot(&path, &ds, false).unwrap();
        let err = write_snapshot(&path, &ds, false).unwrap_err();
        assert!(err.to_string().contains("write-once"), "{err}");
        write_snapshot(&path, &ds, true).unwrap();
        let re = open_snapshot(&path).unwrap().dataset;
        assert_eq!(re.graph, ds.graph);
        std::fs::remove_dir_all(&dir).ok();
    }
}
