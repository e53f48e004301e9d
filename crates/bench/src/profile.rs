//! The `dvs-profile` engine: one Monte-Carlo sweep per operating point
//! with a [`MetricsRegistry`] attached, rendered as a per-subsystem
//! breakdown table or as machine-readable JSON.
//!
//! Each voltage section runs the selected benchmarks under one scheme
//! through a fresh [`Evaluator`] observed by its own registry, plus a
//! BIST demonstration pass ([`dvs_sram::bist::march_test_recorded`]) over
//! an L1-sized array injected at that point's failure rate. The
//! deterministic half of every section (counters, value histograms)
//! depends only on the configuration seed; wall-clock timings live under
//! the JSON `"volatile"` key and are omitted with `--no-timings`.

use std::fmt::Write as _;
use std::sync::Arc;

use dvs_core::{DvfsPoint, EngineStats, EvalConfig, Evaluator, ExperimentPlan, Scheme};
use dvs_obs::{json, MetricsRegistry, MetricsSnapshot};
use dvs_sram::{bist, CacheGeometry, MilliVolts, SramArray};
use dvs_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Schema identifier embedded in the JSON output; bump on breaking
/// layout changes.
pub const PROFILE_SCHEMA: &str = "dvs-profile/1";

/// Parsed `dvs-profile` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Evaluation-scale configuration (maps, instructions, seed, threads).
    pub cfg: EvalConfig,
    /// Benchmarks profiled at every operating point.
    pub benchmarks: Vec<Benchmark>,
    /// Operating points, one report section each.
    pub voltages: Vec<MilliVolts>,
    /// Scheme under profile (default [`Scheme::FfwBbr`], the paper's
    /// headline configuration — it exercises linker, BIST and cache).
    pub scheme: Scheme,
    /// Emit JSON instead of the text breakdown.
    pub json: bool,
    /// Include volatile wall-clock sections in the JSON output.
    pub include_timings: bool,
    /// Re-parse the JSON output and reject NaN/negative numbers.
    pub selfcheck: bool,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            cfg: EvalConfig::quick(),
            benchmarks: Benchmark::ALL.to_vec(),
            voltages: [760, 560, 520, 480, 440, 400]
                .into_iter()
                .map(MilliVolts::new)
                .collect(),
            scheme: Scheme::FfwBbr,
            json: false,
            include_timings: true,
            selfcheck: false,
        }
    }
}

/// One operating point's worth of profile data.
#[derive(Debug, Clone)]
pub struct ProfileSection {
    /// The operating point.
    pub vcc: MilliVolts,
    /// Everything the registry recorded while profiling it.
    pub snapshot: MetricsSnapshot,
    /// The engine's own counters for this section (trials, link/sim/wall
    /// time) — the source of the per-section `trials_per_sec`.
    pub stats: EngineStats,
}

/// A full profile: one section per requested voltage.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The options the profile ran under.
    pub opts: ProfileOptions,
    /// Per-voltage sections, in request order.
    pub sections: Vec<ProfileSection>,
}

/// Renders one engine snapshot as a `throughput` JSON object: trial
/// counts in the deterministic half, wall time and trials/sec (when
/// timings are requested) under the `"volatile"` key so golden
/// comparisons stay stable.
fn throughput_json(stats: &EngineStats, include_timings: bool) -> String {
    let mut out = format!(
        "{{\"trials_computed\":{},\"link_failures\":{},\"invariant_violations\":{}",
        stats.trials_computed, stats.link_failures, stats.invariant_violations,
    );
    if include_timings {
        let _ = write!(
            out,
            ",\"volatile\":{{\"wall_nanos\":{},\"trials_per_sec\":{:.3}}}",
            stats.wall_nanos,
            stats.trials_per_sec(),
        );
    }
    out.push('}');
    out
}

/// Field-wise difference of two engine snapshots (the counters are
/// monotonic, so this recovers one section's contribution).
fn stats_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        trials_computed: after.trials_computed - before.trials_computed,
        trials_from_store: after.trials_from_store - before.trials_from_store,
        cells_from_store: after.cells_from_store - before.cells_from_store,
        link_failures: after.link_failures - before.link_failures,
        invariant_violations: after.invariant_violations - before.invariant_violations,
        link_nanos: after.link_nanos - before.link_nanos,
        sim_nanos: after.sim_nanos - before.sim_nanos,
        wall_nanos: after.wall_nanos - before.wall_nanos,
    }
}

/// Runs the profile: for each voltage, a BIST pass over an L1-sized
/// array at that point's failure rate, then every benchmark through an
/// observed evaluator. Cells that fail to link or validate still
/// contribute their engine counters; they never abort the profile.
///
/// One evaluator is shared across the sections (each observed by its own
/// registry), so per-benchmark artifacts and trace templates are built
/// once for the whole sweep instead of once per voltage.
pub fn run_profile(opts: &ProfileOptions) -> ProfileReport {
    let geometry = CacheGeometry::dsn_l1();
    let mut eval = Evaluator::new(opts.cfg);
    let sections = opts
        .voltages
        .iter()
        .map(|&vcc| {
            let registry = Arc::new(MetricsRegistry::new());

            // BIST demonstration: march an L1-sized array injected at
            // this point's per-bit failure rate.
            let point = DvfsPoint::at(vcc);
            let mut array = SramArray::new(geometry.total_words());
            let mut rng = StdRng::seed_from_u64(opts.cfg.seed ^ u64::from(vcc.get()));
            array.inject_random(point.pfail_bit, &mut rng);
            let _ = bist::march_test_recorded(&mut array, registry.as_ref());

            eval.observe(registry.clone());
            let before = eval.stats();
            let mut plan = ExperimentPlan::new();
            for &b in &opts.benchmarks {
                plan.add(b, opts.scheme, vcc);
            }
            let _ = eval.run_plan(&plan);

            ProfileSection {
                vcc,
                snapshot: registry.snapshot(),
                stats: stats_delta(eval.stats(), before),
            }
        })
        .collect();
    ProfileReport {
        opts: opts.clone(),
        sections,
    }
}

impl ProfileReport {
    /// Renders the report as JSON (`PROFILE_SCHEMA` layout): a `config`
    /// echo plus one `sections` entry per voltage, each wrapping its
    /// snapshot's JSON. Deterministic for a fixed seed when
    /// `include_timings` is false.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"config\":{{\"scheme\":\"{}\",\"maps\":{},\"trace_instrs\":{},\"seed\":{},\"benchmarks\":[",
            json::json_escape(PROFILE_SCHEMA),
            json::json_escape(self.opts.scheme.name()),
            self.opts.cfg.maps,
            self.opts.cfg.trace_instrs,
            self.opts.cfg.seed,
        );
        for (i, b) in self.opts.benchmarks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json::json_escape(b.name()));
        }
        out.push_str("]},\"sections\":[");
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"vcc_mv\":{},\"throughput\":{},\"metrics\":{}}}",
                s.vcc.get(),
                throughput_json(&s.stats, include_timings),
                s.snapshot.to_json(include_timings)
            );
        }
        let _ = write!(
            out,
            "],\"throughput\":{}}}",
            throughput_json(&self.total_stats(), include_timings)
        );
        out
    }

    /// Sum of the per-section engine snapshots: the whole sweep's trial
    /// counts and wall time.
    pub fn total_stats(&self) -> EngineStats {
        self.sections
            .iter()
            .fold(EngineStats::default(), |acc, s| EngineStats {
                trials_computed: acc.trials_computed + s.stats.trials_computed,
                trials_from_store: acc.trials_from_store + s.stats.trials_from_store,
                cells_from_store: acc.cells_from_store + s.stats.cells_from_store,
                link_failures: acc.link_failures + s.stats.link_failures,
                invariant_violations: acc.invariant_violations + s.stats.invariant_violations,
                link_nanos: acc.link_nanos + s.stats.link_nanos,
                sim_nanos: acc.sim_nanos + s.stats.sim_nanos,
                wall_nanos: acc.wall_nanos + s.stats.wall_nanos,
            })
    }

    /// Renders the report for humans: one block per voltage with a
    /// per-subsystem breakdown (wall-clock share plus headline counters)
    /// followed by the cache-latency histograms.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "dvs-profile — scheme {}, {} maps x {} instrs, seed {}",
            self.opts.scheme.name(),
            self.opts.cfg.maps,
            self.opts.cfg.trace_instrs,
            self.opts.cfg.seed
        );
        for s in &self.sections {
            let snap = &s.snapshot;
            let _ = writeln!(
                out,
                "\n=== {} mV ===  ({} trials, {:.1} trials/s)",
                s.vcc.get(),
                s.stats.trials_computed,
                s.stats.trials_per_sec()
            );
            let trial_total = snap.timer_total_nanos("engine.trial_nanos");
            let rows: [(&str, u64, String); 5] = [
                (
                    "engine",
                    trial_total,
                    format!(
                        "trials={} link_failed={} invalid={}",
                        snap.counter("engine.trials.computed"),
                        snap.counter("engine.trials.link_failed"),
                        snap.counter("engine.trials.invalid")
                    ),
                ),
                (
                    "cpu/sim",
                    snap.timer_total_nanos("engine.sim_nanos"),
                    format!(
                        "instrs={} cycles={} mispredicts={}",
                        snap.counter("cpu.instructions"),
                        snap.counter("cpu.cycles"),
                        snap.counter("cpu.mispredicts")
                    ),
                ),
                (
                    "linker",
                    snap.timer_total_nanos("linker.link_nanos"),
                    format!(
                        "links={} blocks={} jumps_elided={}",
                        snap.counter("linker.links"),
                        snap.counter("linker.blocks_placed"),
                        snap.counter("linker.jumps_elided")
                    ),
                ),
                (
                    "sram/faultmap",
                    snap.timer_total_nanos("sram.faultmap.sample_nanos"),
                    format!(
                        "maps={} faulty_words={}",
                        snap.counter("sram.faultmap.samples"),
                        snap.counter("sram.faultmap.faulty_words")
                    ),
                ),
                (
                    "sram/bist",
                    snap.timer_total_nanos("sram.bist.march_nanos"),
                    format!(
                        "words={} faulty={}",
                        snap.counter("sram.bist.words_tested"),
                        snap.counter("sram.bist.faulty_words")
                    ),
                ),
            ];
            out.push_str("  subsystem      time(ms)  share  detail\n");
            for (name, nanos, detail) in rows {
                let share = if trial_total == 0 {
                    0.0
                } else {
                    100.0 * nanos as f64 / trial_total as f64
                };
                let _ = writeln!(
                    out,
                    "  {name:<13} {:>9.2} {share:>5.1}%  {detail}",
                    nanos as f64 / 1e6
                );
            }
            if let Some(h) = snap.values.get("sram.faultmap.faulty_words") {
                let _ = writeln!(
                    out,
                    "  faulty words/map p50/p95/max = {}/{}/{}",
                    h.p50, h.p95, h.max
                );
            }
            out.push_str("  cache:\n");
            for level in ["l1i", "l1d", "l2", "dram"] {
                let acc = snap.counter(&format!("cache.{level}.accesses"));
                let miss = snap.counter(&format!("cache.{level}.misses"));
                let line = snap
                    .values
                    .get(&format!("cache.{level}.access_cycles"))
                    .map_or_else(String::new, |h| {
                        format!("  cycles p50/p95/max = {}/{}/{}", h.p50, h.p95, h.max)
                    });
                let _ = writeln!(out, "    {level:<5} accesses={acc} misses={miss}{line}");
            }
        }
        let total = self.total_stats();
        let _ = writeln!(
            out,
            "\ntotal: {} trials in {:.2} s — {:.1} trials/s",
            total.trials_computed,
            total.wall_nanos as f64 / 1e9,
            total.trials_per_sec()
        );
        out
    }

    /// Validates the JSON rendering: well-formed, finite, non-negative
    /// numbers everywhere, the right schema tag, and non-empty counter
    /// sections. This is `--selfcheck` and the CI profile-smoke gate.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let rendered = self.to_json(true);
        let value = json::Value::parse(&rendered)?;
        value.check_numbers_finite_nonneg()?;
        if value.get("schema").and_then(json::Value::as_str) != Some(PROFILE_SCHEMA) {
            return Err(format!("schema tag is not {PROFILE_SCHEMA}"));
        }
        let sections = value
            .get("sections")
            .and_then(json::Value::as_arr)
            .ok_or("missing sections array")?;
        if sections.len() != self.sections.len() {
            return Err("section count mismatch".into());
        }
        for (i, section) in sections.iter().enumerate() {
            let counters = section
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(json::Value::as_obj)
                .ok_or_else(|| format!("section {i}: missing counters object"))?;
            if counters.is_empty() {
                return Err(format!("section {i}: empty counters"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileOptions {
        let mut opts = ProfileOptions::default();
        opts.cfg.maps = 2;
        opts.cfg.trace_instrs = 4000;
        opts.benchmarks = vec![Benchmark::Crc32];
        opts.voltages = vec![MilliVolts::new(760), MilliVolts::new(400)];
        opts
    }

    #[test]
    fn profile_reports_nonzero_cache_and_engine_counters_per_voltage() {
        let report = run_profile(&tiny());
        assert_eq!(report.sections.len(), 2);
        for s in &report.sections {
            assert!(s.snapshot.counter("engine.trials.computed") > 0);
            assert!(s.snapshot.counter("cache.l1i.accesses") > 0);
            assert!(s.snapshot.counter("cache.l1d.accesses") > 0);
            assert!(s.snapshot.counter("cpu.instructions") > 0);
            assert!(s.snapshot.counter("sram.bist.words_tested") > 0);
            assert!(s.snapshot.values.contains_key("cache.l1i.access_cycles"));
        }
        // 400 mV injects real faults; 760 mV is yield-clean.
        assert_eq!(
            report.sections[0]
                .snapshot
                .counter("sram.bist.faulty_words"),
            0
        );
        assert!(
            report.sections[1]
                .snapshot
                .counter("sram.bist.faulty_words")
                > 0
        );
    }

    #[test]
    fn json_rendering_validates_and_strips_timings_deterministically() {
        let report = run_profile(&tiny());
        report.validate().expect("self-check");
        let lean = report.to_json(false);
        assert!(!lean.contains("volatile"));
        let full = report.to_json(true);
        assert!(full.contains("\"volatile\""));
        // Deterministic half is identical across runs.
        let again = run_profile(&tiny());
        assert_eq!(lean, again.to_json(false));
    }

    #[test]
    fn text_rendering_mentions_every_subsystem() {
        let report = run_profile(&tiny());
        let text = report.to_text();
        for needle in [
            "engine",
            "linker",
            "sram/bist",
            "sram/faultmap",
            "l1d",
            "dram",
            "760 mV",
            "400 mV",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
