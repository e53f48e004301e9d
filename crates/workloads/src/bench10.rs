//! The ten benchmarks of the paper's evaluation (Section V).

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use dvs_sram::montecarlo::trial_seed;

use crate::{DataGen, DataParams, InstrMix, Layout, Program, ProgramSpec, TraceWalker};

/// The 4 SPEC CPU2006 and 6 MiBench benchmarks the paper evaluates,
/// reproduced as calibrated synthetic generators (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// 401.bzip2 — compression; moderate spatial locality and reuse.
    Bzip2,
    /// 429.mcf — sparse network simplex; poor spatial locality, high reuse,
    /// large data footprint.
    Mcf,
    /// 456.hmmer — profile HMM search; low spatial locality, high reuse.
    Hmmer,
    /// 462.libquantum — streaming over large vectors; the paper's one
    /// high-spatial / low-reuse outlier.
    Libquantum,
    /// MiBench basicmath — scalar FP math; low spatial locality, high reuse.
    Basicmath,
    /// MiBench qsort — comparison sorting; moderate locality, high reuse.
    Qsort,
    /// MiBench patricia — trie lookups; poorest spatial locality, highest
    /// reuse.
    Patricia,
    /// MiBench dijkstra — graph shortest paths; low spatial locality, high
    /// reuse.
    Dijkstra,
    /// MiBench crc32 — byte-stream checksum; high spatial locality, high
    /// reuse (table lookups).
    Crc32,
    /// MiBench adpcm — audio codec; high spatial locality, moderate reuse.
    Adpcm,
}

impl Benchmark {
    /// All ten benchmarks in the paper's order.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::Bzip2,
        Benchmark::Mcf,
        Benchmark::Hmmer,
        Benchmark::Libquantum,
        Benchmark::Basicmath,
        Benchmark::Qsort,
        Benchmark::Patricia,
        Benchmark::Dijkstra,
        Benchmark::Crc32,
        Benchmark::Adpcm,
    ];

    /// The paper's name for the benchmark.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bzip2 => "401.bzip2",
            Benchmark::Mcf => "429.mcf",
            Benchmark::Hmmer => "456.hmmer",
            Benchmark::Libquantum => "462.libquantum",
            Benchmark::Basicmath => "basicmath",
            Benchmark::Qsort => "qsort",
            Benchmark::Patricia => "patricia",
            Benchmark::Dijkstra => "dijkstra",
            Benchmark::Crc32 => "crc32",
            Benchmark::Adpcm => "adpcm",
        }
    }

    /// Looks a benchmark up by its paper name (`"401.bzip2"`) or its
    /// bare name (`"bzip2"`), ignoring ASCII case. Allocation-free: the
    /// campaign server calls it on every point query.
    pub fn parse(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| {
            let full = b.name();
            full.eq_ignore_ascii_case(name)
                || full
                    .split_once('.')
                    .is_some_and(|(_, bare)| bare.eq_ignore_ascii_case(name))
        })
    }

    /// Data-side calibration targets, set from the paper's Figure 3
    /// description of each benchmark.
    pub fn data_params(self) -> DataParams {
        match self {
            Benchmark::Bzip2 => DataParams {
                spatial: 0.65,
                reuse: 0.65,
                ws_blocks: 512,
                scattered: false,
                churn: 0.30,
                footprint_blocks: 6144,
            },
            Benchmark::Mcf => DataParams {
                spatial: 0.35,
                reuse: 0.85,
                ws_blocks: 2048,
                scattered: true,
                churn: 0.15,
                footprint_blocks: 24576,
            },
            Benchmark::Hmmer => DataParams {
                spatial: 0.45,
                reuse: 0.85,
                ws_blocks: 256,
                scattered: true,
                churn: 0.20,
                footprint_blocks: 2048,
            },
            Benchmark::Libquantum => DataParams {
                spatial: 0.95,
                reuse: 0.30,
                ws_blocks: 1024,
                scattered: false,
                churn: 0.80,
                footprint_blocks: 32768,
            },
            Benchmark::Basicmath => DataParams {
                spatial: 0.40,
                reuse: 0.82,
                ws_blocks: 96,
                scattered: true,
                churn: 0.25,
                footprint_blocks: 224,
            },
            Benchmark::Qsort => DataParams {
                spatial: 0.50,
                reuse: 0.80,
                ws_blocks: 256,
                scattered: true,
                churn: 0.25,
                footprint_blocks: 640,
            },
            Benchmark::Patricia => DataParams {
                spatial: 0.35,
                reuse: 0.88,
                ws_blocks: 384,
                scattered: true,
                churn: 0.20,
                footprint_blocks: 896,
            },
            Benchmark::Dijkstra => DataParams {
                spatial: 0.45,
                reuse: 0.85,
                ws_blocks: 256,
                scattered: true,
                churn: 0.20,
                footprint_blocks: 640,
            },
            Benchmark::Crc32 => DataParams {
                spatial: 0.70,
                reuse: 0.75,
                ws_blocks: 128,
                scattered: false,
                churn: 0.50,
                footprint_blocks: 256,
            },
            Benchmark::Adpcm => DataParams {
                spatial: 0.62,
                reuse: 0.70,
                ws_blocks: 128,
                scattered: false,
                churn: 0.40,
                footprint_blocks: 320,
            },
        }
    }

    /// Instruction mix.
    pub fn mix(self) -> InstrMix {
        match self {
            Benchmark::Mcf | Benchmark::Qsort | Benchmark::Patricia | Benchmark::Dijkstra => {
                InstrMix::integer_heavy()
            }
            Benchmark::Hmmer | Benchmark::Basicmath => InstrMix::float_heavy(),
            Benchmark::Bzip2 | Benchmark::Libquantum | Benchmark::Crc32 | Benchmark::Adpcm => {
                InstrMix::streaming()
            }
        }
    }

    /// CFG shape: the SPEC codes are larger than the 8K-word L1 I-cache,
    /// the MiBench kernels fit comfortably (the property BBR relies on).
    pub fn program_spec(self) -> ProgramSpec {
        let base = ProgramSpec::default();
        match self {
            Benchmark::Bzip2 => ProgramSpec {
                functions: 72,
                min_blocks_per_function: 12,
                max_blocks_per_function: 32,
                ..base
            },
            Benchmark::Mcf => ProgramSpec {
                functions: 64,
                min_blocks_per_function: 10,
                max_blocks_per_function: 28,
                ..base
            },
            Benchmark::Hmmer => ProgramSpec {
                functions: 48,
                min_blocks_per_function: 10,
                max_blocks_per_function: 28,
                ..base
            },
            Benchmark::Libquantum => ProgramSpec {
                functions: 14,
                min_blocks_per_function: 8,
                max_blocks_per_function: 20,
                ..base
            },
            Benchmark::Basicmath => ProgramSpec {
                functions: 12,
                min_blocks_per_function: 6,
                max_blocks_per_function: 24,
                ..base
            },
            Benchmark::Qsort => ProgramSpec {
                functions: 10,
                min_blocks_per_function: 6,
                max_blocks_per_function: 20,
                ..base
            },
            Benchmark::Patricia => ProgramSpec {
                functions: 12,
                min_blocks_per_function: 6,
                max_blocks_per_function: 22,
                ..base
            },
            Benchmark::Dijkstra => ProgramSpec {
                functions: 10,
                min_blocks_per_function: 6,
                max_blocks_per_function: 20,
                ..base
            },
            Benchmark::Crc32 => ProgramSpec {
                functions: 6,
                min_blocks_per_function: 4,
                max_blocks_per_function: 12,
                ..base
            },
            Benchmark::Adpcm => ProgramSpec {
                functions: 8,
                min_blocks_per_function: 4,
                max_blocks_per_function: 14,
                ..base
            },
        }
    }

    /// Builds the benchmark's program and calibration into a [`Workload`].
    pub fn build(self, seed: u64) -> Workload {
        let program_seed = trial_seed(seed, self as u64);
        let program = self
            .program_spec()
            .generate(&mut StdRng::seed_from_u64(program_seed));
        Workload {
            benchmark: self,
            program,
            static_seed: trial_seed(program_seed, 1),
            base_seed: seed,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A built benchmark: its program plus everything needed to draw traces.
#[derive(Debug, Clone)]
pub struct Workload {
    benchmark: Benchmark,
    program: Program,
    static_seed: u64,
    base_seed: u64,
}

impl Workload {
    /// Which benchmark this is.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The (untransformed) program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Draws a trace of the workload's own program under `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `layout` was not built for this workload's program.
    pub fn trace<'a>(&'a self, layout: &'a Layout, trace_seed: u64) -> TraceWalker<'a> {
        self.trace_program(&self.program, layout, trace_seed)
    }

    /// Draws a trace of `program` (e.g. the BBR-transformed version of
    /// this workload) under `layout`, with this workload's calibration.
    ///
    /// # Panics
    ///
    /// Panics if `layout` does not match `program`.
    pub fn trace_program<'a>(
        &self,
        program: &'a Program,
        layout: &'a Layout,
        trace_seed: u64,
    ) -> TraceWalker<'a> {
        let datagen = DataGen::new(
            self.benchmark.data_params(),
            trial_seed(self.base_seed ^ trace_seed, 2),
        );
        TraceWalker::new(
            program,
            layout,
            self.benchmark.mix(),
            datagen,
            self.static_seed,
            trial_seed(self.base_seed ^ trace_seed, 3),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_ten_unique_names() {
        let names: std::collections::HashSet<&str> =
            Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn parse_accepts_paper_and_bare_names_in_any_case() {
        assert_eq!(Benchmark::parse("401.bzip2"), Some(Benchmark::Bzip2));
        assert_eq!(Benchmark::parse("bzip2"), Some(Benchmark::Bzip2));
        assert_eq!(Benchmark::parse("CRC32"), Some(Benchmark::Crc32));
        assert_eq!(Benchmark::parse("999.nope"), None);
        assert_eq!(Benchmark::parse(""), None);
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.name()), Some(b));
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = Benchmark::Qsort.build(5);
        let b = Benchmark::Qsort.build(5);
        assert_eq!(a.program(), b.program());
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = Benchmark::Qsort.build(5);
        let b = Benchmark::Dijkstra.build(5);
        assert_ne!(a.program(), b.program());
    }

    #[test]
    fn mibench_kernels_fit_in_the_icache() {
        // 32 KB I-cache = 8192 words; BBR assumes embedded working sets fit.
        for b in [
            Benchmark::Basicmath,
            Benchmark::Qsort,
            Benchmark::Patricia,
            Benchmark::Dijkstra,
            Benchmark::Crc32,
            Benchmark::Adpcm,
        ] {
            let wl = b.build(1);
            let words = wl.program().total_footprint_words();
            assert!(words < 8192, "{b}: {words} words exceed the I-cache");
        }
    }

    #[test]
    fn spec_codes_are_substantially_larger() {
        let small = Benchmark::Crc32.build(1).program().total_footprint_words();
        let big = Benchmark::Bzip2.build(1).program().total_footprint_words();
        assert!(big > 4 * small, "bzip2 {big} vs crc32 {small}");
        assert!(big > 6000, "bzip2 unexpectedly small: {big}");
    }

    #[test]
    fn traces_run_for_every_benchmark() {
        for b in Benchmark::ALL {
            let wl = b.build(3);
            let layout = Layout::sequential(wl.program());
            let n = wl.trace(&layout, 0).take(2000).count();
            assert_eq!(n, 2000, "{b} trace ended early");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::Mcf.to_string(), "429.mcf");
    }

    #[test]
    fn libquantum_is_the_streaming_outlier() {
        let p = Benchmark::Libquantum.data_params();
        assert!(p.spatial > 0.9);
        assert!(p.reuse < 0.5);
        for b in Benchmark::ALL
            .iter()
            .filter(|&&b| b != Benchmark::Libquantum)
        {
            let q = b.data_params();
            assert!(
                q.reuse > 0.5,
                "{b} should have majority-reuse accesses per Figure 3"
            );
        }
    }
}
