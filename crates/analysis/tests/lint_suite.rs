//! Integration and property tests for the static-analysis layer.
//!
//! Covers the acceptance criteria of the analysis crate: the transform
//! is trace-equivalent for arbitrary generated programs, every
//! successfully linked bench10 image is deny-clean across sampled
//! voltages, and a seeded mis-placement is caught. The `dvs-verify` CLI
//! that sweeps the registry is tested in `crates/bench/tests`.

use dvs_analysis::{
    analyze_image, analyze_placement, check_trace_equivalence, has_deny, lint_ids, EquivConfig,
    Severity,
};
use dvs_linker::{adaptive_max_block_words, bbr_transform, BbrLinker};
use dvs_sram::{CacheGeometry, FaultMap, MilliVolts, PfailModel};
use dvs_workloads::{Benchmark, Layout, ProgramSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full BBR pipeline preserves observable traces for arbitrary
    /// generated programs at arbitrary (valid) footprint limits.
    #[test]
    fn bbr_transform_is_trace_equivalent(seed in 0u64..500, limit in 6u32..24) {
        let p = ProgramSpec::default().generate(&mut StdRng::seed_from_u64(seed));
        let t = bbr_transform(&p, limit);
        let cfg = EquivConfig::default();
        prop_assert!(
            check_trace_equivalence(&p, &t, &cfg).is_ok(),
            "seed {seed} limit {limit} not equivalent"
        );
    }

    /// Relinking against sampled fault maps preserves equivalence too —
    /// jump relaxation must not change the observable trace.
    #[test]
    fn linked_images_stay_trace_equivalent(seed in 0u64..200, p_word in 0.0f64..0.2) {
        let p = ProgramSpec::default().generate(&mut StdRng::seed_from_u64(seed));
        let t = bbr_transform(&p, 8);
        let geom = CacheGeometry::new(4096, 4, 32).unwrap();
        let fmap = FaultMap::sample(&geom, p_word, &mut StdRng::seed_from_u64(seed ^ 0xF00D));
        if let Ok(image) = BbrLinker::new(geom).link(&t, &fmap) {
            let cfg = EquivConfig::default();
            prop_assert!(check_trace_equivalence(&p, image.program(), &cfg).is_ok());
        }
    }
}

/// Every successfully linked bench10 image is free of deny findings at
/// three sampled voltages (the PR's zero-deny acceptance criterion).
#[test]
fn bench10_images_are_deny_clean_across_voltages() {
    let geom = CacheGeometry::dsn_l1();
    let model = PfailModel::dsn45();
    let mut linked = 0u32;
    for bench in Benchmark::ALL {
        let wl = bench.build(1);
        for mv in [480, 440, 400] {
            let p_word = model.pfail_word(MilliVolts::new(mv));
            let t = bbr_transform(wl.program(), adaptive_max_block_words(p_word));
            let fmap = FaultMap::sample(&geom, p_word, &mut StdRng::seed_from_u64(u64::from(mv)));
            if let Ok(image) = BbrLinker::new(geom).link(&t, &fmap) {
                let diags = analyze_image(&image, &fmap, Some(wl.program()));
                let denies: Vec<_> = diags
                    .iter()
                    .filter(|d| d.severity == Severity::Deny)
                    .collect();
                assert!(
                    denies.is_empty(),
                    "{bench}@{mv}mV: deny findings on a real image: {denies:?}"
                );
                linked += 1;
            }
        }
    }
    assert!(
        linked >= 20,
        "only {linked}/30 cells linked — sweep too weak"
    );
}

/// A deliberately mis-placed block is flagged by the chunk-containment
/// lint (the seeded-violation acceptance criterion).
#[test]
fn seeded_misplacement_is_caught() {
    let geom = CacheGeometry::dsn_l1();
    let wl = Benchmark::Adpcm.build(5);
    let t = bbr_transform(wl.program(), 8);
    let fmap = FaultMap::sample(&geom, 0.05, &mut StdRng::seed_from_u64(9));
    let image = BbrLinker::new(geom).link(&t, &fmap).unwrap();
    let (program, layout) = image.into_parts();

    let faulty = fmap.iter_faulty_linear().next().expect("map has faults");
    let mut starts: Vec<u64> = (0..layout.num_blocks())
        .map(|id| layout.block_start(id))
        .collect();
    starts[0] = u64::from(faulty) * 4;
    let end = layout.end().max(starts[0] + 4);
    let bad = Layout::from_parts(starts, vec![0; program.functions().len()], end);

    let diags = analyze_placement(&program, &bad, &fmap, Some(wl.program()));
    assert!(has_deny(&diags));
    assert!(
        diags.iter().any(|d| d.lint == lint_ids::CHUNK_CONTAINMENT),
        "expected chunk-containment finding, got {diags:?}"
    );
}
