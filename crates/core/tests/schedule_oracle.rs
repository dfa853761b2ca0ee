//! Oracle suite for the Weighting host path: the block profile, the
//! Baseline/FM/FM+LR scheduler and the Weighting report must equal a
//! frozen, deliberately plain reference implementation exactly.
//!
//! The reference below is the straightforward form of the §IV model:
//! per-(vertex, block) range counts via [`CsrMatrix::row_nnz_in_range`],
//! a nested-`Vec` FM split consumed block by block, a full pinned
//! schedule built for the makespan comparison, and LR by comparison sort
//! and `remove(0)`. It is written only against public accessors, so the
//! engine's implementation may be restructured freely as long as every
//! `BlockProfile`, `RowSchedule` and `WeightingReport` stays bit-identical
//! at any pool width.

use proptest::prelude::*;

use gnnie_core::config::{AcceleratorConfig, Design, RowGroup};
use gnnie_core::cpe::{div_ceil, CpeArray};
use gnnie_core::mpe;
use gnnie_core::weighting::{
    schedule_pooled, simulate_weighting_mode, BlockProfile, LrMove, RowSchedule, WeightingMode,
    WeightingParams, WeightingReport,
};
use gnnie_core::{SimPool, SimThreads};
use gnnie_graph::{Dataset, GraphDataset};
use gnnie_mem::HbmModel;
use gnnie_tensor::{CsrMatrix, SparseVec};

const MODES: [WeightingMode; 3] =
    [WeightingMode::Baseline, WeightingMode::Fm, WeightingMode::FmLr];
const WIDTHS: [usize; 3] = [1, 2, 4];
const LR_WEIGHT_WORDS_PER_CYCLE: u64 = 16;

/// The reference profile: row-major `vertices × blocks_per_vertex` counts.
#[derive(Debug)]
struct RefProfile {
    vertices: usize,
    f_in: usize,
    k: usize,
    blocks_per_vertex: usize,
    nnz: Vec<u32>,
}

impl RefProfile {
    fn block_nnz(&self, v: usize, b: usize) -> u32 {
        self.nnz[v * self.blocks_per_vertex + b]
    }

    fn total_nnz(&self) -> u64 {
        self.nnz.iter().map(|&z| z as u64).sum()
    }

    fn zero_blocks(&self) -> u64 {
        self.nnz.iter().filter(|&&z| z == 0).count() as u64
    }
}

fn ref_from_sparse(features: &CsrMatrix, array_rows: usize) -> RefProfile {
    let vertices = features.rows();
    let f_in = features.cols();
    let k = div_ceil(f_in.max(1) as u64, array_rows as u64) as usize;
    let mut nnz = vec![0u32; vertices * array_rows];
    for v in 0..vertices {
        for b in 0..array_rows {
            let lo = b * k;
            if lo >= f_in {
                break;
            }
            let hi = ((b + 1) * k).min(f_in);
            nnz[v * array_rows + b] = features.row_nnz_in_range(v, lo, hi) as u32;
        }
    }
    RefProfile { vertices, f_in, k, blocks_per_vertex: array_rows, nnz }
}

fn ref_dense(vertices: usize, f_in: usize, array_rows: usize) -> RefProfile {
    let k = div_ceil(f_in.max(1) as u64, array_rows as u64) as usize;
    let mut nnz = vec![0u32; vertices * array_rows];
    for v in 0..vertices {
        for b in 0..array_rows {
            let lo = b * k;
            if lo < f_in {
                nnz[v * array_rows + b] = (((b + 1) * k).min(f_in) - lo) as u32;
            }
        }
    }
    RefProfile { vertices, f_in, k, blocks_per_vertex: array_rows, nnz }
}

fn ref_schedule(p: &RefProfile, arr: &CpeArray, mode: WeightingMode) -> RowSchedule {
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); arr.rows()];
    match mode {
        WeightingMode::Baseline => {
            for v in 0..p.vertices {
                for b in 0..arr.rows().min(p.blocks_per_vertex) {
                    let z = p.block_nnz(v, b);
                    if z > 0 {
                        rows[b].push(z);
                    }
                }
            }
            RowSchedule { rows, lr_moved_blocks: 0, lr_moves: Vec::new() }
        }
        WeightingMode::Fm | WeightingMode::FmLr => {
            ref_fm(p, arr, &mut rows);
            let mut sched = RowSchedule { rows, lr_moved_blocks: 0, lr_moves: Vec::new() };
            let pinned = ref_schedule(p, arr, WeightingMode::Baseline);
            if pinned.makespan(arr) < sched.makespan(arr) {
                sched.rows = pinned.rows;
            }
            if mode == WeightingMode::FmLr {
                sched.lr_moves = ref_redistribute(&mut sched.rows, arr, p.k);
                sched.lr_moved_blocks = sched.lr_moves.iter().map(|m| m.blocks).sum();
            }
            sched
        }
    }
}

fn ref_fm(p: &RefProfile, arr: &CpeArray, rows: &mut [Vec<u32>]) {
    let k = p.k.max(1);
    let mut buckets: Vec<u64> = vec![0; k + 1];
    for &z in &p.nnz {
        if z > 0 {
            buckets[z as usize] += 1;
        }
    }
    let groups = arr.num_groups();
    let group_rows: Vec<Vec<usize>> = (0..groups).map(|g| arr.rows_in_group(g)).collect();
    let group_macs: Vec<u64> =
        (0..groups).map(|g| arr.macs_in_row(group_rows[g][0]) as u64).collect();
    let group_row_count: Vec<u64> = group_rows.iter().map(|r| r.len() as u64).collect();
    let assign = |level: u64| -> Option<Vec<Vec<(usize, u64)>>> {
        let mut splits: Vec<Vec<(usize, u64)>> = vec![Vec::new(); k + 1];
        let mut g = 0usize;
        let mut used = 0u64;
        for z in 1..=k {
            let mut remaining = buckets[z];
            while remaining > 0 {
                let cost = div_ceil(z as u64, group_macs[g]);
                let budget = group_row_count[g] * level;
                let take = ((budget.saturating_sub(used)) / cost).min(remaining);
                if take > 0 {
                    splits[z].push((g, take));
                    used += take * cost;
                    remaining -= take;
                }
                if remaining > 0 {
                    if g + 1 < groups {
                        g += 1;
                        used = 0;
                    } else {
                        return None;
                    }
                }
            }
        }
        Some(splits)
    };
    let all_in_first: u64 =
        (1..=k).map(|z| buckets[z] * div_ceil(z as u64, group_macs[0])).sum();
    let mut lo = 0u64;
    let mut hi = div_ceil(all_in_first, group_row_count[0]).max(1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if assign(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let splits = assign(lo).expect("binary search ends on a feasible level");
    let mut split_cursor: Vec<usize> = vec![0; k + 1];
    let mut split_used: Vec<u64> = vec![0; k + 1];
    let mut row_cycles: Vec<u64> = vec![0; arr.rows()];
    for v in 0..p.vertices {
        for b in 0..p.blocks_per_vertex {
            let z = p.block_nnz(v, b) as usize;
            if z == 0 {
                continue;
            }
            let cursor = &mut split_cursor[z];
            let (mut grp, mut quota) = splits[z][*cursor];
            if split_used[z] >= quota {
                *cursor += 1;
                split_used[z] = 0;
                (grp, quota) = splits[z][*cursor];
            }
            assert!(split_used[z] < quota);
            split_used[z] += 1;
            let row = *group_rows[grp]
                .iter()
                .min_by_key(|&&r| row_cycles[r])
                .expect("groups are nonempty");
            row_cycles[row] += arr.block_cycles(row, z);
            rows[row].push(z as u32);
        }
    }
}

fn ref_redistribute(rows: &mut [Vec<u32>], arr: &CpeArray, k: usize) -> Vec<LrMove> {
    let m = rows.len();
    let cycles = |r: usize, blocks: &[u32]| -> u64 {
        blocks.iter().map(|&z| arr.block_cycles(r, z as usize)).sum()
    };
    let mut order: Vec<usize> = (0..m).collect();
    let row_cycles: Vec<u64> = (0..m).map(|r| cycles(r, &rows[r])).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(row_cycles[r]));
    let toll = div_ceil(k as u64, LR_WEIGHT_WORDS_PER_CYCLE);
    let mut moves = Vec::new();
    for i in 0..m / 2 {
        let heavy = order[i];
        let light = order[m - 1 - i];
        if heavy == light {
            continue;
        }
        let mut heavy_c = cycles(heavy, &rows[heavy]);
        let mut light_c = cycles(light, &rows[light]);
        rows[heavy].sort_unstable_by_key(|&z| std::cmp::Reverse(z));
        let mut moved = 0u64;
        while let Some(&z) = rows[heavy].first() {
            let dh = arr.block_cycles(heavy, z as usize);
            let dl = arr.block_cycles(light, z as usize) + toll;
            let before = heavy_c.max(light_c);
            let after = (heavy_c - dh).max(light_c + dl);
            if after >= before {
                break;
            }
            rows[heavy].remove(0);
            rows[light].push(z);
            heavy_c -= dh;
            light_c += dl;
            moved += 1;
        }
        if moved > 0 {
            moves.push(LrMove { from_row: heavy, to_row: light, blocks: moved });
        }
    }
    moves
}

fn ref_simulate(
    cfg: &AcceleratorConfig,
    arr: &CpeArray,
    p: &RefProfile,
    params: WeightingParams,
    mode: WeightingMode,
    dram: &mut HbmModel,
) -> WeightingReport {
    let sched = ref_schedule(p, arr, mode);
    let per_row_cycles = sched.per_row_cycles(arr);
    let max_row = per_row_cycles.iter().copied().max().unwrap_or(0);
    let lr_overhead_cycles =
        sched.lr_moved_blocks * div_ceil(p.k as u64, LR_WEIGHT_WORDS_PER_CYCLE);
    let mpe_stall_cycles =
        mpe::psum_stall_cycles(&per_row_cycles, p.vertices as u64, cfg.mpe_psum_slots as u64);
    let pass_cycles = max_row + lr_overhead_cycles + mpe_stall_cycles;
    let passes = div_ceil(params.f_out.max(1) as u64, arr.cols() as u64);
    let compute_cycles = passes * pass_cycles;
    let nnz = p.total_nnz();
    let feature_bytes = passes * nnz * params.feature_bytes_per_nnz;
    let weight_bytes = if params.weights_resident {
        0
    } else {
        (p.f_in as u64) * (params.f_out as u64) * params.weight_bytes_per_elem
    };
    let mut dram_cycles = dram.read_seq(feature_bytes);
    let weight_dram_cycles = dram.read_seq(weight_bytes);
    dram_cycles += weight_dram_cycles;
    let fetch_per_pass = div_ceil(dram_cycles, passes.max(1));
    let total_cycles = compute_cycles.max(dram_cycles) + fetch_per_pass;
    WeightingReport {
        mode,
        passes,
        per_row_cycles,
        pass_cycles,
        mpe_stall_cycles,
        lr_overhead_cycles,
        compute_cycles,
        dram_cycles,
        total_cycles,
        macs_issued: nnz * params.f_out as u64,
        macs_dense: (p.vertices as u64) * (p.f_in as u64) * (params.f_out as u64),
        zero_blocks_skipped: p.zero_blocks(),
        lr_moved_blocks: sched.lr_moved_blocks,
        feature_bytes,
        weight_bytes,
        weight_dram_cycles,
    }
}

/// Asserts `actual` equals the reference through every public accessor.
fn assert_profile_eq(actual: &BlockProfile, want: &RefProfile, what: &str) {
    assert_eq!(
        (actual.vertices(), actual.f_in(), actual.k()),
        (want.vertices, want.f_in, want.k),
        "{what}: profile shape"
    );
    for v in 0..want.vertices {
        let got: Vec<u32> =
            (0..want.blocks_per_vertex).map(|b| actual.block_nnz(v, b)).collect();
        assert_eq!(
            got,
            &want.nnz[v * want.blocks_per_vertex..(v + 1) * want.blocks_per_vertex],
            "{what}: vertex {v} block counts"
        );
    }
    assert_eq!(actual.total_nnz(), want.total_nnz(), "{what}: total nnz");
    assert_eq!(actual.zero_blocks(), want.zero_blocks(), "{what}: zero blocks");
}

/// Checks every mode's schedule and report against the reference at pool
/// widths 1, 2 and 4; returns the reference FM+LR schedule.
fn assert_matches_reference(
    cfg: &AcceleratorConfig,
    actual: &BlockProfile,
    want: &RefProfile,
    params: WeightingParams,
    what: &str,
) -> RowSchedule {
    let arr = CpeArray::new(cfg);
    for width in WIDTHS {
        let pool = SimPool::new(SimThreads::Fixed(width));
        for mode in MODES {
            assert_eq!(
                schedule_pooled(actual, &arr, mode, &pool),
                ref_schedule(want, &arr, mode),
                "{what}: {mode} schedule at width {width}"
            );
            let mut dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
            let got =
                simulate_weighting_mode(cfg, &arr, actual, params, mode, &mut dram, &pool);
            let mut ref_dram = HbmModel::hbm2_256gbps(cfg.clock_hz);
            assert_eq!(
                got,
                ref_simulate(cfg, &arr, want, params, mode, &mut ref_dram),
                "{what}: {mode} report at width {width}"
            );
            assert_eq!(dram.counters(), ref_dram.counters(), "{what}: {mode} DRAM counters");
        }
    }
    ref_schedule(want, &arr, WeightingMode::FmLr)
}

/// The paper's flexible-MAC array, a uniform one, and two small arrays
/// (odd row count, single-row groups) that stress the pairing and group
/// edges.
fn configs() -> Vec<AcceleratorConfig> {
    let custom = |groups: &[(usize, usize)]| {
        let mut cfg = AcceleratorConfig::with_design(Design::E, 256 * 1024);
        cfg.row_groups = groups
            .iter()
            .map(|&(rows, macs_per_cpe)| RowGroup { rows, macs_per_cpe })
            .collect();
        cfg.array_rows = groups.iter().map(|g| g.0).sum();
        cfg
    };
    vec![
        AcceleratorConfig::paper(Dataset::Cora),
        AcceleratorConfig::with_design(Design::B, 256 * 1024),
        custom(&[(3, 4), (2, 7)]),
        custom(&[(1, 3), (1, 5), (2, 8)]),
    ]
}

/// A deterministic sparse matrix: each row draws its own density from
/// `0..=density_pct` percent, so empty and near-dense rows mix.
fn sparse_matrix(rows: usize, cols: usize, density_pct: u64, seed: u64) -> CsrMatrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let srows: Vec<SparseVec> = (0..rows)
        .map(|_| {
            let row_pct = next() % (density_pct + 1);
            let dense: Vec<f32> = (0..cols)
                .map(|c| if next() % 100 < row_pct { 1.0 + c as f32 } else { 0.0 })
                .collect();
            SparseVec::from_dense(&dense)
        })
        .collect();
    CsrMatrix::from_sparse_rows(cols, &srows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sparse features — `f_in` below, equal to, and not a
    /// multiple of the row count, a single column, empty rows, and
    /// all-zero matrices (density 0).
    #[test]
    fn sparse_profiles_and_schedules_match_the_reference(
        rows in 0usize..60,
        cols_index in 0usize..6,
        density_pct in 0u64..60,
        config_index in 0usize..4,
        f_out in 1usize..70,
        resident in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let cols = [1usize, 5, 16, 37, 64, 301][cols_index];
        let cfg = configs().swap_remove(config_index);
        let features = sparse_matrix(rows, cols, density_pct, seed);
        let want = ref_from_sparse(&features, cfg.array_rows);
        let what = format!("{rows}x{cols} at {density_pct}% seed {seed} config {config_index}");
        for width in WIDTHS {
            let pool = SimPool::new(SimThreads::Fixed(width));
            let actual = BlockProfile::from_sparse_pooled(&features, cfg.array_rows, &pool);
            assert_profile_eq(&actual, &want, &what);
        }
        let params = WeightingParams { f_out, weights_resident: resident, ..WeightingParams::default() };
        let actual = BlockProfile::from_sparse(&features, cfg.array_rows);
        assert_matches_reference(&cfg, &actual, &want, params, &what);
    }

    /// Dense profiles (every block full): most blocks share one nnz value,
    /// so FM's per-value runs straddle group boundaries.
    #[test]
    fn dense_profiles_and_schedules_match_the_reference(
        vertices in 0usize..200,
        f_in in 0usize..300,
        config_index in 0usize..4,
    ) {
        let cfg = configs().swap_remove(config_index);
        let want = ref_dense(vertices, f_in, cfg.array_rows);
        let actual = BlockProfile::dense(vertices, f_in, cfg.array_rows);
        let what = format!("dense {vertices}x{f_in} config {config_index}");
        assert_profile_eq(&actual, &want, &what);
        assert_matches_reference(&cfg, &actual, &want, WeightingParams::default(), &what);
    }
}

#[test]
fn full_pubmed_matches_the_reference_with_an_lr_move() {
    let ds = GraphDataset::generate(Dataset::Pubmed, 1.0, 11);
    let cfg = AcceleratorConfig::paper(Dataset::Pubmed);
    let want = ref_from_sparse(&ds.features, cfg.array_rows);
    for width in WIDTHS {
        let pool = SimPool::new(SimThreads::Fixed(width));
        let actual = BlockProfile::from_sparse_pooled(&ds.features, cfg.array_rows, &pool);
        assert_profile_eq(&actual, &want, &format!("Pubmed width {width}"));
    }
    let actual = BlockProfile::from_sparse(&ds.features, cfg.array_rows);
    let lr =
        assert_matches_reference(&cfg, &actual, &want, WeightingParams::default(), "Pubmed");
    assert!(lr.lr_moved_blocks > 0, "seed 11 must exercise an LR move");
}
