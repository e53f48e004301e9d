//! Incremental fault-map construction down a voltage ladder.
//!
//! The paper's Monte-Carlo protocol evaluates every scheme at every
//! voltage step for the *same* simulated die, and physically a die's
//! defect set only grows as supply voltage drops: a word that fails at
//! 760 mV still fails at 740 mV. [`FaultChain`] realizes that nesting by
//! construction — a map at probability `p2 > p1` is the `p1` map plus a
//! thinning pass that upgrades each still-clean word with conditional
//! probability `(p2 - p1) / (1 - p1)`. Marginally every word is faulty
//! with probability exactly `p2`, while the fault set at each rung is a
//! superset of every higher rung's.
//!
//! The engine anchors chains at the canonical ladder top
//! ([`LADDER_TOP_MV`]) and walks down in [`LADDER_STEP_MV`] steps to the
//! cell's operating point, so a sweep over voltages re-samples only the
//! per-step delta instead of the whole array.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faultmap::skip_sample;
use crate::model::{multiplier_classes, threshold_for};
use crate::{CacheGeometry, FaultMap, FaultModel};

/// Highest rung of the canonical voltage ladder, in millivolts. This is
/// the paper's ~760 mV `Vccmin` anchor; maps requested at or above it
/// are sampled in one step.
pub const LADDER_TOP_MV: u32 = 760;

/// Rung spacing of the canonical voltage ladder, in millivolts (the
/// paper's Table II operating points step by 20 mV).
pub const LADDER_STEP_MV: u32 = 20;

/// The canonical ladder for an operating point: grid rungs descending
/// from [`LADDER_TOP_MV`] while strictly above `vcc_mv`, then `vcc_mv`
/// itself. A point at or above the top gets the single rung `[vcc_mv]`.
pub fn ladder_mv(vcc_mv: u32) -> Vec<u32> {
    let mut rungs = Vec::new();
    let mut v = LADDER_TOP_MV;
    while v > vcc_mv {
        rungs.push(v);
        v = v.saturating_sub(LADDER_STEP_MV);
    }
    rungs.push(vcc_mv);
    rungs
}

/// A fault map being grown monotonically toward higher failure
/// probabilities (lower voltages), with the delta of each step reported.
///
/// The chain owns its RNG; one chain consumes one continuous stream, so
/// reaching probability `p` via intermediate rungs or replaying the same
/// rungs from a fresh chain with the same seed produces bit-identical
/// maps. Advancing is only valid toward equal-or-higher probabilities.
///
/// # Example
///
/// ```rust
/// use dvs_sram::{CacheGeometry, FaultChain};
///
/// let geom = CacheGeometry::dsn_l1();
/// let mut chain = FaultChain::new(&geom, 7);
/// let coarse = chain.advance_to(0.01).len();
/// let finer = chain.advance_to(0.05).len();
/// assert_eq!(chain.map().faulty_words(), coarse + finer);
/// ```
#[derive(Debug, Clone)]
pub struct FaultChain {
    map: FaultMap,
    rng: StdRng,
    p_current: f64,
    model: FaultModel,
    correlated: Option<Correlated>,
}

/// Sampler state of a correlated backend: the die's fixed weak
/// structure (each word's multiplier class), fixed per-word uniforms,
/// the multiplier classes the threshold solver walks, and the threshold
/// already applied. All derived purely from `(model, geometry, seed)` —
/// no per-rung re-seeding, so nesting cannot regress (see
/// [`crate::FaultModel`]).
#[derive(Debug, Clone)]
struct Correlated {
    /// Each word's index into `classes`.
    class_of: Vec<u8>,
    uniforms: Vec<f64>,
    classes: Vec<(f64, f64)>,
    t_current: f64,
}

impl FaultChain {
    /// Starts an i.i.d. chain at probability zero (an all-clean map).
    ///
    /// Equivalent to [`FaultChain::with_model`] under
    /// [`FaultModel::Iid`]; the sampled maps are bit-identical to every
    /// pre-model release for the same seed.
    ///
    /// # Panics
    ///
    /// Panics if the geometry exceeds 32 words per block.
    pub fn new(geometry: &CacheGeometry, seed: u64) -> Self {
        FaultChain::with_model(geometry, seed, FaultModel::Iid)
    }

    /// Starts a chain at probability zero under a spatial fault model.
    ///
    /// # Panics
    ///
    /// Panics if the geometry exceeds 32 words per block.
    pub fn with_model(geometry: &CacheGeometry, seed: u64, model: FaultModel) -> Self {
        let correlated = if model.is_iid() {
            None
        } else {
            let multipliers = model.multipliers(geometry, seed);
            let classes = multiplier_classes(&multipliers);
            assert!(
                classes.len() <= usize::from(u8::MAX) + 1,
                "{} multiplier classes overflow a one-byte class index",
                classes.len()
            );
            let class_of = multipliers
                .iter()
                .map(|&m| {
                    classes
                        .iter()
                        .position(|&(value, _)| value == m)
                        .expect("every multiplier has a class") as u8
                })
                .collect();
            Some(Correlated {
                class_of,
                uniforms: FaultModel::uniforms(geometry, seed),
                classes,
                t_current: 0.0,
            })
        };
        FaultChain {
            map: FaultMap::fault_free(geometry),
            rng: StdRng::seed_from_u64(seed),
            p_current: 0.0,
            model,
            correlated,
        }
    }

    /// The spatial fault model this chain samples under.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The probability the chain currently sits at.
    pub fn p_current(&self) -> f64 {
        self.p_current
    }

    /// The map at the current rung.
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// Consumes the chain, yielding the current map.
    pub fn into_map(self) -> FaultMap {
        self.map
    }

    /// Advances the chain to word-failure probability `p`. The i.i.d.
    /// backend upgrades each still-clean word with conditional
    /// probability `(p - p_current) / (1 - p_current)`; correlated
    /// backends raise the fixed-uniform threshold to `t(p)` (see
    /// [`crate::FaultModel`]). Either way the new fault set is a strict
    /// superset of the old one and the marginal rate is exactly `p`.
    /// Returns the newly faulty linear word indices in ascending order
    /// (empty when `p` equals the current rung).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or below the current rung.
    pub fn advance_to(&mut self, p: f64) -> Vec<u32> {
        assert!(
            (0.0..=1.0).contains(&p),
            "word failure probability {p} outside [0, 1]"
        );
        assert!(
            p >= self.p_current,
            "chain may only advance toward higher probabilities: {p} < {}",
            self.p_current
        );
        let mut delta = Vec::new();
        if self.p_current >= 1.0 {
            return delta;
        }
        match &mut self.correlated {
            None => {
                let q = ((p - self.p_current) / (1.0 - self.p_current)).clamp(0.0, 1.0);
                skip_sample(self.map.words_mut(), q, &mut self.rng, |idx| {
                    delta.push(idx as u32);
                });
            }
            Some(state) => {
                // Threshold construction: word i is faulty iff
                // u_i < min(1, m_i · t(p)). t is clamped monotone against
                // the rung already applied so float noise in the solver
                // can never un-fault a word.
                let t = threshold_for(&state.classes, p).max(state.t_current);
                // min(1, m_i · t) once per class: the same f64 the
                // per-word product gives, since a class holds equal m_i.
                let thresholds: Vec<f64> = state
                    .classes
                    .iter()
                    .map(|&(m, _)| (m * t).min(1.0))
                    .collect();
                let grid = self.map.words_mut();
                for (i, (&u, &class)) in state.uniforms.iter().zip(&state.class_of).enumerate() {
                    if !grid.get(i) && u < thresholds[usize::from(class)] {
                        grid.set(i, true);
                        delta.push(i as u32);
                    }
                }
                state.t_current = t;
            }
        }
        self.p_current = p;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MilliVolts, PfailModel};
    use proptest::prelude::*;
    use rand::Rng;

    fn geom() -> CacheGeometry {
        CacheGeometry::dsn_l1()
    }

    #[test]
    fn ladder_descends_to_the_operating_point() {
        assert_eq!(ladder_mv(760), vec![760]);
        assert_eq!(ladder_mv(800), vec![800]);
        assert_eq!(ladder_mv(720), vec![760, 740, 720]);
        assert_eq!(ladder_mv(730), vec![760, 740, 730]);
        let low = ladder_mv(400);
        assert_eq!(low.first(), Some(&760));
        assert_eq!(low.last(), Some(&400));
        assert_eq!(low.len(), 19);
    }

    #[test]
    fn maps_nest_down_the_chain() {
        let mut chain = FaultChain::new(&geom(), 42);
        let mut prev = chain.map().clone();
        for p in [0.001, 0.01, 0.05, 0.2] {
            chain.advance_to(p);
            let cur = chain.map().clone();
            for idx in prev.iter_faulty_linear() {
                assert!(cur.linear_is_faulty(idx), "fault at {idx} vanished");
            }
            assert!(cur.faulty_words() >= prev.faulty_words());
            prev = cur;
        }
    }

    #[test]
    fn delta_is_exactly_the_new_faults() {
        let mut chain = FaultChain::new(&geom(), 7);
        let first = chain.advance_to(0.05);
        assert_eq!(first.len(), chain.map().faulty_words());
        let before = chain.map().clone();
        let second = chain.advance_to(0.15);
        assert_eq!(
            before.faulty_words() + second.len(),
            chain.map().faulty_words()
        );
        for &idx in &second {
            assert!(!before.linear_is_faulty(idx));
            assert!(chain.map().linear_is_faulty(idx));
        }
        let mut sorted = second.clone();
        sorted.sort_unstable();
        assert_eq!(second, sorted, "delta must be ascending");
    }

    #[test]
    fn replay_from_scratch_is_bit_identical() {
        let mut a = FaultChain::new(&geom(), 9);
        a.advance_to(0.02);
        a.advance_to(0.08);
        a.advance_to(0.3);
        let mut b = FaultChain::new(&geom(), 9);
        b.advance_to(0.02);
        b.advance_to(0.08);
        b.advance_to(0.3);
        assert_eq!(a.map(), b.map());
    }

    #[test]
    fn zero_step_advances_are_free() {
        let mut chain = FaultChain::new(&geom(), 3);
        chain.advance_to(0.1);
        let before = chain.map().clone();
        assert!(chain.advance_to(0.1).is_empty());
        assert_eq!(chain.map(), &before);
    }

    #[test]
    fn chain_reaches_certainty() {
        let mut chain = FaultChain::new(&geom(), 5);
        chain.advance_to(0.5);
        let delta = chain.advance_to(1.0);
        assert_eq!(chain.map().faulty_words(), geom().total_words() as usize);
        assert!(!delta.is_empty());
        assert!(chain.advance_to(1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "advance toward higher")]
    fn chain_rejects_backward_steps() {
        let mut chain = FaultChain::new(&geom(), 1);
        chain.advance_to(0.2);
        chain.advance_to(0.1);
    }

    /// The thinned marginal at the bottom of a ladder must match a direct
    /// single-step sample in distribution.
    #[test]
    fn chained_marginal_matches_direct_sample() {
        let g = CacheGeometry::new(2 * 1024, 2, 32).unwrap();
        let trials = 600u64;
        let target = 0.25;
        let mut chained = 0usize;
        let mut direct = 0usize;
        for seed in 0..trials {
            let mut chain = FaultChain::new(&g, seed);
            for p in [0.01, 0.05, 0.12, target] {
                chain.advance_to(p);
            }
            chained += chain.map().faulty_words();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let _ = rng.gen::<u64>();
            direct += FaultMap::sample(&g, target, &mut rng).faulty_words();
        }
        let n = (trials * u64::from(g.total_words())) as f64;
        let chained_rate = chained as f64 / n;
        let direct_rate = direct as f64 / n;
        // 512 * 600 draws at p = 0.25: ±4σ ≈ ±0.0031 per estimate.
        assert!(
            (chained_rate - target).abs() < 0.004,
            "chained {chained_rate}"
        );
        assert!((direct_rate - target).abs() < 0.004, "direct {direct_rate}");
    }

    /// `FaultChain::new` is the i.i.d. model: same seed, same rungs,
    /// bit-identical maps (the pre-model regression guarantee).
    #[test]
    fn with_model_iid_is_bit_identical_to_new() {
        for seed in [0u64, 7, 42, 0xDEAD_BEEF] {
            let mut a = FaultChain::new(&geom(), seed);
            let mut b = FaultChain::with_model(&geom(), seed, FaultModel::Iid);
            assert!(b.model().is_iid());
            for p in [0.001, 0.02, 0.1, 0.4] {
                assert_eq!(a.advance_to(p), b.advance_to(p));
            }
            assert_eq!(a.map(), b.map());
        }
    }

    /// Golden pin of the i.i.d. stream: the exact map for seed 42 at
    /// p = 0.1 must never drift, or every stored cell silently changes
    /// meaning. Regenerate only together with a store KEY_VERSION bump.
    #[test]
    fn iid_stream_is_pinned() {
        let mut chain = FaultChain::new(&geom(), 42);
        let delta = chain.advance_to(0.1);
        assert_eq!(delta.len(), chain.map().faulty_words());
        assert_eq!(chain.map().faulty_words(), IID_GOLDEN_COUNT);
        assert_eq!(&delta[..8], IID_GOLDEN_FIRST8);
    }

    const IID_GOLDEN_COUNT: usize = 763;
    const IID_GOLDEN_FIRST8: &[u32] = &[1, 5, 19, 26, 74, 77, 85, 101];

    /// Golden pins of the correlated streams, like the i.i.d. pin: the
    /// row/column and clustered maps for seed 42 at p = 0.1. A drift
    /// silently changes every cell stored under seed schema v3.
    #[test]
    fn rowcol_stream_is_pinned() {
        let mut chain = FaultChain::with_model(&geom(), 42, FaultModel::row_column());
        let delta = chain.advance_to(0.1);
        assert_eq!(delta.len(), chain.map().faulty_words());
        assert_eq!(chain.map().faulty_words(), ROWCOL_GOLDEN_COUNT);
        assert_eq!(&delta[..8], ROWCOL_GOLDEN_FIRST8);
    }

    const ROWCOL_GOLDEN_COUNT: usize = 804;
    const ROWCOL_GOLDEN_FIRST8: &[u32] = &[2, 4, 5, 43, 48, 69, 72, 79];

    #[test]
    fn clustered_stream_is_pinned() {
        let mut chain = FaultChain::with_model(&geom(), 42, FaultModel::clustered());
        let delta = chain.advance_to(0.1);
        assert_eq!(delta.len(), chain.map().faulty_words());
        assert_eq!(chain.map().faulty_words(), CLUSTERED_GOLDEN_COUNT);
        assert_eq!(&delta[..8], CLUSTERED_GOLDEN_FIRST8);
    }

    const CLUSTERED_GOLDEN_COUNT: usize = 855;
    const CLUSTERED_GOLDEN_FIRST8: &[u32] = &[2, 4, 5, 13, 33, 48, 50, 58];

    /// The class-indexed rung test agrees with the per-word test
    /// `u_i < min(1, m_i · t)` it replaced, at every rung.
    #[test]
    fn class_thresholds_match_the_per_word_test() {
        for model in [FaultModel::row_column(), FaultModel::clustered()] {
            for seed in [1u64, 42] {
                let m = model.multipliers(&geom(), seed);
                let u = FaultModel::uniforms(&geom(), seed);
                let classes = multiplier_classes(&m);
                let mut chain = FaultChain::with_model(&geom(), seed, model);
                let mut t = 0.0f64;
                for p in [0.001, 0.02, 0.1, 0.3, 1.0] {
                    chain.advance_to(p);
                    t = threshold_for(&classes, p).max(t);
                    for (i, (&mi, &ui)) in m.iter().zip(&u).enumerate() {
                        assert_eq!(
                            chain.map().linear_is_faulty(i as u32),
                            ui < (mi * t).min(1.0),
                            "{} seed {seed} word {i} at p {p}",
                            model.name()
                        );
                    }
                }
            }
        }
    }

    /// Correlated chains are path-independent: stepping through
    /// intermediate rungs or jumping straight to the bottom yields the
    /// same map (the uniforms and threshold depend only on the seed and
    /// the final probability, not the route).
    #[test]
    fn correlated_chains_are_path_independent() {
        for model in [FaultModel::row_column(), FaultModel::clustered()] {
            let mut stepped = FaultChain::with_model(&geom(), 5, model);
            for p in [0.001, 0.01, 0.05, 0.2, 0.35] {
                stepped.advance_to(p);
            }
            let mut direct = FaultChain::with_model(&geom(), 5, model);
            direct.advance_to(0.35);
            assert_eq!(stepped.map(), direct.map(), "{}", model.name());
        }
    }

    /// Satellite: marginal-distribution equivalence — correlation
    /// changes *structure*, not *rate*. For every backend the faulty
    /// fraction aggregated over many seeds matches the pfail table, and
    /// each individual bit's across-seed rate is consistent with `p`
    /// (MoRS's key invariant).
    #[test]
    fn correlated_marginals_match_pfail_table() {
        let g = CacheGeometry::new(2 * 1024, 2, 32).unwrap();
        let n = g.total_words() as usize;
        let pfail = PfailModel::dsn45();
        let p_mid = pfail.pfail_word(MilliVolts::new(480));
        let p_low = pfail.pfail_word(MilliVolts::new(400));
        let trials = 400u64;
        for model in FaultModel::ALL {
            let mut mid_total = 0usize;
            let mut per_bit = vec![0u32; n];
            for seed in 0..trials {
                let mut chain = FaultChain::with_model(&g, seed, model);
                chain.advance_to(p_mid);
                mid_total += chain.map().faulty_words();
                chain.advance_to(p_low);
                for idx in chain.map().iter_faulty_linear() {
                    per_bit[idx as usize] += 1;
                }
            }
            let mid_rate = mid_total as f64 / (trials as f64 * n as f64);
            assert!(
                (mid_rate - p_mid).abs() < 0.01,
                "{}: aggregate rate {mid_rate} vs pfail {p_mid} at 480 mV",
                model.name()
            );
            let bit_rates: Vec<f64> = per_bit
                .iter()
                .map(|&c| f64::from(c) / trials as f64)
                .collect();
            let mean = bit_rates.iter().sum::<f64>() / n as f64;
            assert!(
                (mean - p_low).abs() < 0.01,
                "{}: mean per-bit rate {mean} vs pfail {p_low} at 400 mV",
                model.name()
            );
            // Each bit individually: Bernoulli(p) across seeds, so the
            // across-seed rate sits within ~5σ of p for every bit.
            let sigma = (p_low * (1.0 - p_low) / trials as f64).sqrt();
            let worst = bit_rates
                .iter()
                .map(|r| (r - p_low).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst < 5.5 * sigma,
                "{}: worst per-bit deviation {worst} (σ = {sigma})",
                model.name()
            );
        }
    }

    proptest! {
        /// Satellite: ladder nesting is a per-model property. Stepping
        /// 20 mV down never removes a fault and — whenever the pfail
        /// table says the rung adds non-negligible mass — strictly adds
        /// new ones, for every backend.
        #[test]
        fn ladder_nesting_holds_for_every_model(model_idx in 0usize..3, seed in 0u64..16) {
            let model = FaultModel::ALL[model_idx];
            let g = geom();
            let pfail = PfailModel::dsn45();
            let mut chain = FaultChain::with_model(&g, seed, model);
            let mut prev = chain.map().clone();
            let mut p_prev = 0.0f64;
            for mv in ladder_mv(400) {
                let p = pfail.pfail_word(MilliVolts::new(mv)).max(chain.p_current());
                let delta = chain.advance_to(p);
                let cur = chain.map();
                for idx in prev.iter_faulty_linear() {
                    prop_assert!(
                        cur.linear_is_faulty(idx),
                        "{}: fault at {} vanished stepping to {} mV",
                        model.name(), idx, mv
                    );
                }
                prop_assert_eq!(cur.faulty_words(), prev.faulty_words() + delta.len());
                // "Strictly adds": with ≥ 16 expected new faults the
                // rung is empty with probability ≤ e⁻¹⁶ per backend.
                if (p - p_prev) * f64::from(g.total_words()) >= 16.0 {
                    prop_assert!(
                        !delta.is_empty(),
                        "{}: no new faults stepping to {} mV",
                        model.name(), mv
                    );
                }
                prev = cur.clone();
                p_prev = p;
            }
            prop_assert!(chain.map().faulty_words() > 0);
        }
    }
}
