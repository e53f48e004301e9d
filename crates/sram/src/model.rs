//! Pluggable spatial fault models behind the Monte-Carlo generator.
//!
//! Every conclusion the repro draws rests, by default, on i.i.d. word
//! failures — but measured reduced-voltage SRAM faults are spatially
//! correlated: whole rows and columns are weak (shared wordline / bitline
//! periphery) and defects cluster around process-variation hotspots
//! (MoRS; see PAPERS.md). A [`FaultModel`] picks the spatial structure
//! while leaving the *rate* alone: at failure probability `p` every
//! backend produces maps whose expected faulty-word fraction is exactly
//! `p` — correlation changes structure, not rate.
//!
//! # Construction
//!
//! All backends share one mechanism. From the chain seed alone, a model
//! derives
//!
//! * a per-word **multiplier** `m_i ≥ 1` (weak words get larger values),
//!   a pure function of `(model, geometry, seed)` — rung-independent, so
//!   the same die keeps the same weak structure down the whole voltage
//!   ladder; and
//! * a per-word **uniform** `u_i ∈ [0, 1)` hashed from the seed.
//!
//! Word `i` is faulty at probability `p` iff `u_i < min(1, m_i · t(p))`,
//! where the threshold `t(p)` solves `mean_i min(1, m_i · t) = p`
//! exactly ([`threshold_for`]). Because `t(p)` is monotone in `p` and the
//! uniforms are fixed, the fault set at a lower rung is a superset of
//! every higher rung's — voltage-ladder nesting holds *by construction*,
//! with no per-rung re-seeding to get wrong. The i.i.d. backend bypasses
//! all of this and keeps the original geometric skip-sampler stream, so
//! pre-existing maps replay bit-identically.

use serde::{Deserialize, Serialize};

use crate::CacheGeometry;

/// Domain-separation tags for the per-model hash streams. Distinct tags
/// keep row weakness, column weakness, cluster centers and per-word
/// uniforms statistically unrelated even though they share one seed.
const STREAM_ROWS: u64 = 0x6D6F_6465_6C2D_726F; // "model-ro"
const STREAM_COLS: u64 = 0x6D6F_6465_6C2D_636F; // "model-co"
const STREAM_CENTERS: u64 = 0x6D6F_6465_6C2D_6365; // "model-ce"
const STREAM_BITS: u64 = 0x6D6F_6465_6C2D_6269; // "model-bi"

/// SplitMix64-style avalanche of two words; the basis of every derived
/// stream so that nearby seeds and indices decorrelate.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash word onto `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fixed-point milli factor as a float, floored at 1× so multipliers can
/// never *reduce* a word's failure probability below the i.i.d. rate.
fn factor(milli: u32) -> f64 {
    (f64::from(milli) / 1000.0).max(1.0)
}

/// The `centers` cluster centres of one die as (row, column) points on a
/// `rows` × `cols` torus. Both sides are powers of two, so masking the
/// hash halves draws centres uniformly.
fn cluster_centers(centers: u32, seed: u64, rows: usize, cols: usize) -> Vec<(usize, usize)> {
    let center_seed = mix(seed, STREAM_CENTERS);
    (0..centers)
        .map(|k| {
            let h = mix(center_seed, u64::from(k) + 1);
            (
                ((h >> 32) & (rows as u64 - 1)) as usize,
                (h & (cols as u64 - 1)) as usize,
            )
        })
        .collect()
}

/// Each word's toroidal Chebyshev distance to its nearest centre, in the
/// fault map's linear word order, or `u32::MAX` where no centre lies
/// within `radius`.
///
/// Each centre stamps only its (2r+1)×(2r+1) window with the offset's
/// Chebyshev distance, keeping the minimum per word. An offset that wraps
/// onto a word is never shorter than the word's toroidal distance, so the
/// minimum is that distance even when the window is wider than the torus.
/// Offsets past half a side only repeat nearer ones, so the window is
/// clamped there and a huge radius costs one pass over the torus per
/// centre.
fn nearest_center_distances(
    pts: &[(usize, usize)],
    rows: usize,
    cols: usize,
    radius: u32,
) -> Vec<u32> {
    let mut best = vec![u32::MAX; rows * cols];
    let reach_r = (radius as usize).min(rows / 2);
    let reach_c = (radius as usize).min(cols / 2);
    for &(cr, cc) in pts {
        for dr in 0..=2 * reach_r {
            let r = (cr + rows + dr - reach_r) % rows;
            let off_r = dr.abs_diff(reach_r);
            let row = &mut best[r * cols..(r + 1) * cols];
            for dc in 0..=2 * reach_c {
                let c = (cc + cols + dc - reach_c) % cols;
                let d = off_r.max(dc.abs_diff(reach_c)) as u32;
                row[c] = row[c].min(d);
            }
        }
    }
    best
}

/// Spatial structure of Monte-Carlo fault maps.
///
/// Parameters are integer fixed-point (`ppm` fractions, `milli` factors)
/// so the model is `Eq + Hash` and can sit inside `EvalConfig` and the
/// result-store key (seed schema v3): two cells computed under different
/// models can never alias one store file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultModel {
    /// Independent word failures — the paper's Section V protocol and
    /// this repo's historical behavior. Bit-identical to the pre-model
    /// sampler for the same seed.
    #[default]
    Iid,
    /// Row/column weakness: each physical row (cache frame) and each
    /// column (word offset within a block) is independently weak with
    /// the given ppm fraction; weak lines multiply their words' failure
    /// odds by the given milli factor (both factors stack).
    RowColumn {
        /// Fraction of weak rows, in parts per million.
        weak_row_ppm: u32,
        /// Failure-odds multiplier of a weak row, in thousandths (≥ 1000).
        row_factor_milli: u32,
        /// Fraction of weak columns, in parts per million.
        weak_col_ppm: u32,
        /// Failure-odds multiplier of a weak column, in thousandths (≥ 1000).
        col_factor_milli: u32,
    },
    /// Cluster hotspots: `centers` seed points on the (frame, word)
    /// torus; a word's multiplier peaks at `factor_milli` on a center
    /// and halves per step of toroidal Chebyshev distance, reaching 1×
    /// beyond `radius`.
    Clustered {
        /// Number of cluster centers drawn from the chain seed.
        centers: u32,
        /// Peak failure-odds multiplier at a center, in thousandths (≥ 1000).
        factor_milli: u32,
        /// Chebyshev distance beyond which the multiplier is exactly 1×.
        radius: u32,
    },
}

impl FaultModel {
    /// The three canonical backends, in CLI order.
    pub const ALL: [FaultModel; 3] = [
        FaultModel::Iid,
        FaultModel::row_column(),
        FaultModel::clustered(),
    ];

    /// The canonical row/column preset: 6 % of rows are 6× weak, 12 % of
    /// columns are 3× weak (MoRS-flavored defaults, not calibration).
    pub const fn row_column() -> Self {
        FaultModel::RowColumn {
            weak_row_ppm: 60_000,
            row_factor_milli: 6_000,
            weak_col_ppm: 120_000,
            col_factor_milli: 3_000,
        }
    }

    /// The canonical clustered preset: 12 hotspots, 12× peak, radius 3.
    pub const fn clustered() -> Self {
        FaultModel::Clustered {
            centers: 12,
            factor_milli: 12_000,
            radius: 3,
        }
    }

    /// Short backend name: `iid`, `rowcol` or `clustered`.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::Iid => "iid",
            FaultModel::RowColumn { .. } => "rowcol",
            FaultModel::Clustered { .. } => "clustered",
        }
    }

    /// Parses a backend name into its canonical preset.
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s {
            "iid" => Some(FaultModel::Iid),
            "rowcol" => Some(FaultModel::row_column()),
            "clustered" => Some(FaultModel::clustered()),
            _ => None,
        }
    }

    /// Whether this is the i.i.d. backend (the skip-sampler fast path).
    pub fn is_iid(&self) -> bool {
        matches!(self, FaultModel::Iid)
    }

    /// Per-word failure-odds multipliers for one simulated die, derived
    /// purely from `(self, geometry, seed)`. All entries are ≥ 1 and the
    /// layout is the fault map's linear word order (`frame * wpb + word`).
    pub fn multipliers(&self, geometry: &CacheGeometry, seed: u64) -> Vec<f64> {
        let n = geometry.total_words() as usize;
        let wpb = geometry.words_per_block() as usize;
        match *self {
            FaultModel::Iid => vec![1.0; n],
            FaultModel::RowColumn {
                weak_row_ppm,
                row_factor_milli,
                weak_col_ppm,
                col_factor_milli,
            } => {
                let rows = geometry.total_lines() as usize;
                let row_seed = mix(seed, STREAM_ROWS);
                let col_seed = mix(seed, STREAM_COLS);
                let row_p = f64::from(weak_row_ppm) / 1e6;
                let col_p = f64::from(weak_col_ppm) / 1e6;
                let row_m = factor(row_factor_milli);
                let col_m = factor(col_factor_milli);
                let weak_row: Vec<bool> = (0..rows)
                    .map(|r| unit(mix(row_seed, r as u64 + 1)) < row_p)
                    .collect();
                let weak_col: Vec<bool> = (0..wpb)
                    .map(|c| unit(mix(col_seed, c as u64 + 1)) < col_p)
                    .collect();
                (0..n)
                    .map(|i| {
                        let mut m = 1.0;
                        if weak_row[i / wpb] {
                            m *= row_m;
                        }
                        if weak_col[i % wpb] {
                            m *= col_m;
                        }
                        m
                    })
                    .collect()
            }
            FaultModel::Clustered {
                centers,
                factor_milli,
                radius,
            } => {
                let rows = geometry.total_lines() as usize;
                let peak = factor(factor_milli);
                let pts = cluster_centers(centers, seed, rows, wpb);
                nearest_center_distances(&pts, rows, wpb, radius)
                    .into_iter()
                    .map(|d| {
                        if d > radius {
                            1.0
                        } else {
                            1.0 + (peak - 1.0) * 0.5f64.powi(d as i32)
                        }
                    })
                    .collect()
            }
        }
    }

    /// The per-word uniforms of one simulated die (values in `[0, 1)`),
    /// hashed from the chain seed — fixed across rungs, so thresholding
    /// them at a growing `t(p)` yields nested fault sets.
    pub fn uniforms(geometry: &CacheGeometry, seed: u64) -> Vec<f64> {
        let bit_seed = mix(seed, STREAM_BITS);
        (0..geometry.total_words() as u64)
            .map(|i| unit(mix(bit_seed, i + 1)))
            .collect()
    }
}

/// Groups equal multipliers into `(multiplier, count)` classes sorted by
/// descending multiplier — the form [`threshold_for`] consumes. The
/// class count is tiny (≤ 4 for row/column, ≤ `radius + 2` for
/// clustered) because multipliers come from small exact value sets, so
/// the values are grouped in one pass and only the classes are sorted.
pub fn multiplier_classes(multipliers: &[f64]) -> Vec<(f64, f64)> {
    let mut classes: Vec<(f64, f64)> = Vec::new();
    for &m in multipliers {
        match classes.iter_mut().find(|(value, _)| *value == m) {
            Some((_, count)) => *count += 1.0,
            None => classes.push((m, 1.0)),
        }
    }
    classes.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("multipliers are finite"));
    classes
}

/// Solves `mean_i min(1, m_i · t) = p` for `t` over multiplier classes
/// sorted descending (all multipliers ≥ 1).
///
/// The left side is continuous, piecewise linear and increasing in `t`,
/// equal to 0 at `t = 0` and to 1 at `t = 1` (every class saturates by
/// then, since `m ≥ 1`), so a solution exists for every `p ∈ [0, 1]`.
/// Walking saturation prefixes finds the segment analytically; no
/// iteration, no tolerance-dependent convergence.
pub fn threshold_for(classes: &[(f64, f64)], p: f64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 || classes.is_empty() {
        return 1.0;
    }
    let total: f64 = classes.iter().map(|&(_, n)| n).sum();
    let want = p * total;
    // In segment j (classes 0..j saturated): g(t) = saturated + t·weight.
    let mut saturated = 0.0;
    let mut weight: f64 = classes.iter().map(|&(m, n)| m * n).sum();
    for j in 0..=classes.len() {
        let lo = if j == 0 { 0.0 } else { 1.0 / classes[j - 1].0 };
        let hi = if j == classes.len() {
            1.0
        } else {
            1.0 / classes[j].0
        };
        if weight > 0.0 {
            let t = (want - saturated) / weight;
            if t >= lo - 1e-12 && t <= hi + 1e-12 {
                return t.clamp(0.0, 1.0);
            }
        } else if want <= saturated {
            return lo;
        }
        if j < classes.len() {
            saturated += classes[j].1;
            weight -= classes[j].0 * classes[j].1;
        }
    }
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::dsn_l1()
    }

    /// The clustered multipliers by the per-word scan: every word against
    /// every centre. The reference the stamped construction must match
    /// bit for bit.
    fn reference_clustered(
        geometry: &CacheGeometry,
        seed: u64,
        centers: u32,
        factor_milli: u32,
        radius: u32,
    ) -> Vec<f64> {
        let rows = geometry.total_lines() as i64;
        let cols = geometry.words_per_block() as i64;
        let peak = factor(factor_milli);
        let pts = cluster_centers(centers, seed, rows as usize, cols as usize);
        (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                let mut best = u32::MAX;
                for &(cr, cc) in &pts {
                    let dr = (r - cr as i64).abs();
                    let dc = (c - cc as i64).abs();
                    let dr = dr.min(rows - dr) as u32;
                    let dc = dc.min(cols - dc) as u32;
                    best = best.min(dr.max(dc));
                }
                if best > radius {
                    1.0
                } else {
                    1.0 + (peak - 1.0) * 0.5f64.powi(best as i32)
                }
            })
            .collect()
    }

    /// Multiplier classes by sorting every value and grouping runs: the
    /// reference for the one-pass grouping.
    fn reference_classes(multipliers: &[f64]) -> Vec<(f64, f64)> {
        let mut sorted = multipliers.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("multipliers are finite"));
        let mut classes: Vec<(f64, f64)> = Vec::new();
        for m in sorted {
            match classes.last_mut() {
                Some((value, count)) if *value == m => *count += 1.0,
                _ => classes.push((m, 1.0)),
            }
        }
        classes
    }

    /// Small geometries as (capacity, ways, block bytes): 1 to 64 rows,
    /// 1 to 8 columns, so every column count is ≤ 2·radius for some
    /// radius drawn below; plus the paper's L1.
    const SHAPES: [(u32, u32, u32); 7] = [
        (256, 2, 32),
        (64, 1, 8),
        (128, 4, 16),
        (32, 1, 32),
        (64, 2, 4),
        (2048, 2, 32),
        (32 * 1024, 4, 32),
    ];

    proptest! {
        #[test]
        fn stamped_clusters_match_the_per_word_scan(
            shape in 0usize..7,
            seed: u64,
            centers in 0u32..32,
            factor_milli in 0u32..20_000,
            radius_kind in 0u32..3,
            small in 1u32..5,
            beyond in 0u32..8,
        ) {
            let (capacity, ways, block) = SHAPES[shape];
            let g = CacheGeometry::new(capacity, ways, block).unwrap();
            // Radius 0, a small radius, or one at least the row count.
            let radius = match radius_kind {
                0 => 0,
                1 => small,
                _ => g.total_lines() + beyond,
            };
            let model = FaultModel::Clustered { centers, factor_milli, radius };
            prop_assert_eq!(
                model.multipliers(&g, seed),
                reference_clustered(&g, seed, centers, factor_milli, radius)
            );
        }

        #[test]
        fn one_pass_classes_match_sort_and_group(
            picks in proptest::collection::vec(0usize..6, 0..300),
            fresh in proptest::collection::vec(1.0f64..100.0, 0..20),
        ) {
            // Mostly repeats from a small exact set, with distinct values
            // mixed in.
            let values = [1.0, 1.5, 3.0, 6.0, 18.0];
            let mut fresh = fresh.into_iter();
            let multipliers: Vec<f64> = picks
                .iter()
                .map(|&k| values.get(k).copied().or_else(|| fresh.next()).unwrap_or(2.5))
                .collect();
            prop_assert_eq!(multiplier_classes(&multipliers), reference_classes(&multipliers));
        }
    }

    #[test]
    fn names_round_trip_through_parse() {
        for model in FaultModel::ALL {
            assert_eq!(FaultModel::parse(model.name()), Some(model));
        }
        assert_eq!(FaultModel::parse("bogus"), None);
    }

    #[test]
    fn default_is_iid() {
        assert!(FaultModel::default().is_iid());
        assert_eq!(FaultModel::default(), FaultModel::Iid);
    }

    #[test]
    fn multipliers_are_deterministic_and_at_least_one() {
        for model in FaultModel::ALL {
            let a = model.multipliers(&geom(), 42);
            let b = model.multipliers(&geom(), 42);
            assert_eq!(
                a,
                b,
                "{} multipliers must be pure in the seed",
                model.name()
            );
            assert_eq!(a.len(), geom().total_words() as usize);
            assert!(a.iter().all(|&m| m >= 1.0));
        }
        assert_ne!(
            FaultModel::row_column().multipliers(&geom(), 1),
            FaultModel::row_column().multipliers(&geom(), 2),
            "different seeds must draw different weak structure"
        );
    }

    #[test]
    fn iid_multipliers_are_flat() {
        assert!(FaultModel::Iid
            .multipliers(&geom(), 5)
            .iter()
            .all(|&m| m == 1.0));
    }

    #[test]
    fn row_column_weakness_spans_whole_lines() {
        let model = FaultModel::row_column();
        let m = model.multipliers(&geom(), 11);
        let wpb = geom().words_per_block() as usize;
        // Any word with multiplier above the column-only factor implies
        // the whole row shares the row factor: row weakness is per-frame.
        let rows = geom().total_lines() as usize;
        let mut weak_rows = 0;
        for r in 0..rows {
            let row = &m[r * wpb..(r + 1) * wpb];
            let row_is_weak = row.iter().any(|&v| v >= 6.0);
            if row_is_weak {
                weak_rows += 1;
                assert!(
                    row.iter().all(|&v| v >= 6.0),
                    "row weakness must cover every word of frame {r}"
                );
            }
        }
        assert!(weak_rows > 0, "preset should draw some weak rows");
    }

    #[test]
    fn clustered_multipliers_peak_and_decay() {
        let model = FaultModel::clustered();
        let m = model.multipliers(&geom(), 3);
        let peak = m.iter().cloned().fold(1.0f64, f64::max);
        assert!((peak - 12.0).abs() < 1e-12, "peak {peak}");
        let elevated = m.iter().filter(|&&v| v > 1.0).count();
        assert!(elevated > 0);
        // Hotspots are local: most of the array stays at 1×.
        assert!(elevated < m.len() / 2, "elevated {elevated}");
    }

    #[test]
    fn class_grouping_is_exact() {
        let classes = multiplier_classes(&[1.0, 6.0, 1.0, 3.0, 6.0, 18.0]);
        assert_eq!(
            classes,
            vec![(18.0, 1.0), (6.0, 2.0), (3.0, 1.0), (1.0, 2.0)]
        );
    }

    #[test]
    fn threshold_hits_the_requested_mean_exactly() {
        for model in FaultModel::ALL {
            let m = model.multipliers(&geom(), 9);
            let classes = multiplier_classes(&m);
            for p in [0.0, 1e-5, 1e-3, 0.02, 0.25, 0.7, 0.999, 1.0] {
                let t = threshold_for(&classes, p);
                let mean: f64 = m.iter().map(|&mi| (mi * t).min(1.0)).sum::<f64>() / m.len() as f64;
                assert!(
                    (mean - p).abs() < 1e-9,
                    "{}: mean {mean} != p {p} at t {t}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn threshold_is_monotone_in_p() {
        for model in FaultModel::ALL {
            let classes = multiplier_classes(&model.multipliers(&geom(), 17));
            let mut prev = 0.0;
            for step in 0..=1000 {
                let p = f64::from(step) / 1000.0;
                let t = threshold_for(&classes, p);
                assert!(t >= prev - 1e-15, "t regressed at p={p}");
                prev = t;
            }
            assert!((threshold_for(&classes, 1.0) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn uniforms_are_deterministic_in_unit_interval() {
        let a = FaultModel::uniforms(&geom(), 123);
        let b = FaultModel::uniforms(&geom(), 123);
        assert_eq!(a, b);
        assert!(a.iter().all(|&u| (0.0..1.0).contains(&u)));
        assert_ne!(a, FaultModel::uniforms(&geom(), 124));
    }

    #[test]
    fn serde_round_trips_every_backend() {
        use serde::{Deserialize, Serialize};
        for model in FaultModel::ALL {
            let mut s = serde::bin::Serializer::new();
            model.serialize(&mut s);
            let bytes = s.into_bytes();
            let mut d = serde::bin::Deserializer::new(&bytes);
            let back = FaultModel::deserialize(&mut d).unwrap();
            assert_eq!(back, model);
        }
    }
}
