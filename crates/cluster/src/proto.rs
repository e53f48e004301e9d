//! Pure JSON wire vocabulary of the cluster protocol and of campaign
//! results.
//!
//! No sockets, no threads, no clocks — every shape here is a plain value
//! with a `to_json` renderer and a fail-closed `from_json` parser (built
//! on the hardened [`dvs_obs::json`] parser), so both coordinator and
//! worker sides are unit-testable offline. Result payloads travel as
//! hex-encoded [`StoredCell::to_bytes`] images, whose trailing checksum
//! makes wire corruption a decode failure instead of wrong data.
//!
//! The cell renderers ([`cell_json`], [`results_json`]) live here because
//! the coordinator renders every finished cell of every campaign. They
//! emit only integers from [`dvs_core::TrialMetrics`], which makes a
//! campaign fetched over the wire byte-comparable to one rendered from a
//! direct [`dvs_core::Evaluator::run_plan`] call.

use std::sync::Arc;

use dvs_core::{CellKey, EvalConfig, EvalError, Scheme, SchemeRun, StoredCell};
use dvs_obs::json::{json_escape, Value};
use dvs_sram::{FaultModel, MilliVolts};
use dvs_workloads::Benchmark;

/// The result-relevant slice of [`EvalConfig`] that every lease carries:
/// a worker applying these over its own base config reproduces the
/// coordinator's cells bit-identically, whatever its local parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Fault maps (Monte-Carlo trials) per operating point.
    pub maps: u64,
    /// Dynamic instructions simulated per trial.
    pub trace_instrs: usize,
    /// Root seed.
    pub seed: u64,
    /// BBR split-threshold override.
    pub bbr_max_block_words: Option<u32>,
    /// Fault-injection model.
    pub fault_model: FaultModel,
}

impl WireConfig {
    /// Captures the result-relevant fields of `cfg`.
    pub fn of(cfg: &EvalConfig) -> Self {
        WireConfig {
            maps: cfg.maps,
            trace_instrs: cfg.trace_instrs,
            seed: cfg.seed,
            bbr_max_block_words: cfg.bbr_max_block_words,
            fault_model: cfg.fault_model,
        }
    }

    /// `base` with this wire config's result-relevant fields applied.
    /// Parallelism and checking knobs (`threads`, `validate_images`,
    /// ...) stay the node operator's choice — they can never change
    /// results.
    pub fn apply(&self, base: &EvalConfig) -> EvalConfig {
        EvalConfig {
            maps: self.maps,
            trace_instrs: self.trace_instrs,
            seed: self.seed,
            bbr_max_block_words: self.bbr_max_block_words,
            fault_model: self.fault_model,
            ..*base
        }
    }

    /// Renders the config as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"maps\":{},\"trace_instrs\":{},\"seed\":{},\"bbr_max_block_words\":{},\
             \"model\":\"{}\"}}",
            self.maps,
            self.trace_instrs,
            self.seed,
            self.bbr_max_block_words
                .map_or("null".to_string(), |w| w.to_string()),
            json_escape(self.fault_model.name()),
        )
    }

    /// Parses a config object rendered by [`WireConfig::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn from_json(v: &Value) -> Result<WireConfig, String> {
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|f| f.fract() == 0.0 && *f >= 0.0)
                .map(|f| f as u64)
                .ok_or_else(|| format!("config field {key:?} must be a non-negative integer"))
        };
        let bbr = match v.get("bbr_max_block_words") {
            None | Some(Value::Null) => None,
            Some(w) => Some(
                w.as_f64()
                    .filter(|f| f.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(f))
                    .map(|f| f as u32)
                    .ok_or("config field \"bbr_max_block_words\" must be an integer or null")?,
            ),
        };
        let maps = num("maps")?;
        let trace_instrs = num("trace_instrs")? as usize;
        let seed = num("seed")?;
        let model = v
            .get("model")
            .and_then(Value::as_str)
            .ok_or("config field \"model\" must be a string")?;
        Ok(WireConfig {
            maps,
            trace_instrs,
            seed,
            bbr_max_block_words: bbr,
            fault_model: FaultModel::parse(model)
                .ok_or_else(|| format!("unknown fault model {model:?}"))?,
        })
    }
}

/// Identity of one work unit: the `index`-th cell of `campaign`'s plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitRef {
    /// The campaign the unit belongs to.
    pub campaign: u64,
    /// The cell's index in the campaign's plan order.
    pub index: usize,
}

/// Renders a cell as the wire object `{"benchmark":..,"scheme":..,
/// "vcc_mv":..}` (names, not ordinals, so the wire survives enum
/// reordering).
pub fn cell_to_json(key: &CellKey) -> String {
    format!(
        "{{\"benchmark\":\"{}\",\"scheme\":\"{}\",\"vcc_mv\":{}}}",
        json_escape(key.benchmark.name()),
        json_escape(key.scheme.name()),
        key.vcc_mv,
    )
}

/// Parses a [`cell_to_json`] object.
///
/// # Errors
///
/// A description of the first missing or unknown field.
pub fn cell_from_json(v: &Value) -> Result<CellKey, String> {
    let benchmark = v
        .get("benchmark")
        .and_then(Value::as_str)
        .ok_or("cell field \"benchmark\" must be a string")?;
    let benchmark =
        Benchmark::parse(benchmark).ok_or_else(|| format!("unknown benchmark {benchmark:?}"))?;
    let scheme = v
        .get("scheme")
        .and_then(Value::as_str)
        .ok_or("cell field \"scheme\" must be a string")?;
    let scheme = Scheme::parse(scheme).ok_or_else(|| format!("unknown scheme {scheme:?}"))?;
    let vcc = v
        .get("vcc_mv")
        .and_then(Value::as_f64)
        .filter(|f| f.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(f))
        .ok_or("cell field \"vcc_mv\" must be an integer")?;
    Ok(CellKey::new(benchmark, scheme, MilliVolts::new(vcc as u32)))
}

/// Hex-encodes a binary payload for transport inside JSON strings.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble"));
    }
    out
}

/// Decodes [`hex_encode`] output; `None` on odd length or non-hex bytes.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// Renders a completed cell payload for the push wire.
pub fn cell_payload_to_hex(cell: &StoredCell) -> String {
    hex_encode(&cell.to_bytes())
}

/// Decodes a pushed cell payload; `None` on any corruption (the caller
/// must treat that exactly like a missing result).
pub fn cell_payload_from_hex(hex: &str) -> Option<StoredCell> {
    StoredCell::from_bytes(&hex_decode(hex)?)
}

/// Reconstructs a cell's engine-level result from its stored payload:
/// zero surviving trials re-raises [`EvalError::AllLinksFailed`] (with
/// the stored attempt count), anything else rebuilds the
/// [`SchemeRun`]. The store query path and the coordinator's result
/// renderer both go through here, so a cell fetched from any node renders
/// byte-identically to one computed in-process.
pub fn stored_cell_result(key: &CellKey, stored: StoredCell) -> Result<Arc<SchemeRun>, EvalError> {
    if stored.trials.is_empty() {
        Err(EvalError::AllLinksFailed {
            benchmark: key.benchmark,
            scheme: key.scheme,
            vcc: key.vcc(),
            attempts: stored.failed_links,
        })
    } else {
        Ok(Arc::new(SchemeRun {
            scheme: key.scheme,
            point: key.point(),
            benchmark: key.benchmark,
            trials: stored.trials,
            failed_links: stored.failed_links,
        }))
    }
}

/// Renders a cell that failed outside the engine (a unit whose retries
/// were exhausted, or one a drain cancelled) in the same shape as
/// [`cell_json`]'s error branch.
pub fn cell_error_json(key: &CellKey, error: &str) -> String {
    format!(
        "{{\"benchmark\":\"{}\",\"scheme\":\"{}\",\"vcc_mv\":{},\
         \"status\":\"error\",\"error\":\"{}\"}}",
        json_escape(key.benchmark.name()),
        json_escape(key.scheme.name()),
        key.vcc().get(),
        json_escape(error),
    )
}

/// Renders one resolved cell as a JSON object.
///
/// All metric fields are integers straight from the trial records, so
/// two renderings of the same underlying trials are byte-identical no
/// matter which process (or how many threads) computed them.
pub fn cell_json(key: &CellKey, result: &Result<Arc<SchemeRun>, EvalError>) -> String {
    let run = match result {
        Ok(run) => run,
        Err(e) => return cell_error_json(key, &e.to_string()),
    };
    let mut out = format!(
        "{{\"benchmark\":\"{}\",\"scheme\":\"{}\",\"vcc_mv\":{},\
         \"status\":\"ok\",\"failed_links\":{},\"trials\":[",
        json_escape(key.benchmark.name()),
        json_escape(key.scheme.name()),
        key.vcc().get(),
        run.failed_links
    );
    for (i, t) in run.trials.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"cycles\":{},\"instructions\":{},\"executed\":{},\
             \"l1_accesses\":{},\"l2_accesses\":{}}}",
            t.result.cycles,
            t.counts.instructions,
            t.counts.executed,
            t.counts.l1_accesses,
            t.counts.l2_accesses,
        ));
    }
    out.push_str("]}");
    out
}

/// Renders a whole campaign's results array in plan order.
pub fn results_json(results: &[(CellKey, Result<Arc<SchemeRun>, EvalError>)]) -> String {
    let mut out = String::from("[");
    for (i, (key, result)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&cell_json(key, result));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_config_round_trips_and_applies_only_result_fields() {
        let mut cfg = EvalConfig::quick();
        cfg.maps = 7;
        cfg.trace_instrs = 1234;
        cfg.seed = 99;
        cfg.bbr_max_block_words = Some(12);
        cfg.fault_model = FaultModel::clustered();
        let wire = WireConfig::of(&cfg);
        let parsed =
            WireConfig::from_json(&Value::parse(&wire.to_json()).expect("valid JSON")).unwrap();
        assert_eq!(parsed, wire);

        // Applying over a different base keeps the base's parallelism.
        let base = EvalConfig {
            threads: 3,
            ..EvalConfig::standard()
        };
        let applied = wire.apply(&base);
        assert_eq!(applied.maps, 7);
        assert_eq!(applied.trace_instrs, 1234);
        assert_eq!(applied.seed, 99);
        assert_eq!(applied.bbr_max_block_words, Some(12));
        assert_eq!(applied.fault_model, FaultModel::clustered());
        assert_eq!(applied.threads, 3);

        // A None split threshold survives the round trip as null.
        let wire = WireConfig::of(&EvalConfig::quick());
        let parsed =
            WireConfig::from_json(&Value::parse(&wire.to_json()).expect("valid JSON")).unwrap();
        assert_eq!(parsed.bbr_max_block_words, None);
    }

    #[test]
    fn wire_config_parsing_fails_closed() {
        for (body, needle) in [
            ("{}", "maps"),
            (
                "{\"maps\":1.5,\"trace_instrs\":1,\"seed\":0,\"model\":\"iid\"}",
                "maps",
            ),
            (
                "{\"maps\":1,\"trace_instrs\":1,\"seed\":0,\"model\":\"gauss\"}",
                "unknown fault model",
            ),
            (
                "{\"maps\":1,\"trace_instrs\":1,\"seed\":0,\"model\":3}",
                "must be a string",
            ),
        ] {
            let err = WireConfig::from_json(&Value::parse(body).expect("valid JSON")).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn cell_round_trips_through_the_wire() {
        let key = CellKey::new(Benchmark::Bzip2, Scheme::FfwBbr, MilliVolts::new(480));
        let parsed =
            cell_from_json(&Value::parse(&cell_to_json(&key)).expect("valid JSON")).unwrap();
        assert_eq!(parsed, key);
        for s in Scheme::ALL {
            for b in Benchmark::ALL {
                let key = CellKey::new(b, s, MilliVolts::new(400));
                let parsed = cell_from_json(&Value::parse(&cell_to_json(&key)).unwrap()).unwrap();
                assert_eq!(parsed, key);
            }
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_junk() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).as_deref(), Some(&bytes[..]));
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert!(hex_decode("abc").is_none()); // odd length
        assert!(hex_decode("zz").is_none()); // non-hex
    }

    #[test]
    fn cell_payloads_survive_the_wire_and_fail_closed() {
        let cell = StoredCell {
            failed_links: 3,
            trials: Vec::new(),
        };
        let hex = cell_payload_to_hex(&cell);
        assert_eq!(cell_payload_from_hex(&hex), Some(cell));
        // A flipped nibble is a decode failure, never wrong data.
        let mut bad = hex.into_bytes();
        bad[0] = if bad[0] == b'0' { b'1' } else { b'0' };
        let bad = String::from_utf8(bad).unwrap();
        assert_eq!(cell_payload_from_hex(&bad), None);
        assert_eq!(cell_payload_from_hex("nothex"), None);
    }

    #[test]
    fn stored_cells_reconstruct_runs_and_link_failures() {
        let key = CellKey::new(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(440));
        let failed = StoredCell {
            failed_links: 9,
            trials: Vec::new(),
        };
        let err = stored_cell_result(&key, failed).unwrap_err();
        assert!(matches!(err, EvalError::AllLinksFailed { attempts: 9, .. }));
        let rendered = cell_json(&key, &Err(err));
        assert!(rendered.contains("\"status\":\"error\""), "{rendered}");
        assert!(rendered.contains("(9 attempts)"), "{rendered}");
        assert!(Value::parse(&rendered).is_ok(), "{rendered}");
    }
}

/// Property tests of the cell payload decoders, the boundary every result
/// crosses between nodes: a coordinator decodes each worker's `complete`
/// payload with [`cell_payload_from_hex`], and a worker node decodes each
/// point query it relays with [`StoredCell::from_bytes`]. Every cell
/// round-trips; every corruption of an image decodes to `None`, never a
/// panic.
#[cfg(test)]
mod props {
    use super::*;
    use dvs_cache::MemStats;
    use dvs_core::TrialMetrics;
    use dvs_cpu::SimResult;
    use dvs_linker::LinkStats;
    use dvs_power::RunCounts;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Counters per trial that [`cell`] reads.
    const WORDS: usize = 23;

    /// A cell whose trials take their counters from `words`, [`WORDS`]
    /// per trial; a trial carries link stats when the top bit of its
    /// last word is set.
    fn cell(failed_links: u64, words: &[u64]) -> StoredCell {
        let trials = words
            .chunks_exact(WORDS)
            .map(|w| {
                let mem = MemStats {
                    l1i_accesses: w[5],
                    l1i_misses: w[6],
                    l1i_word_misses: w[7],
                    l1d_loads: w[8],
                    l1d_stores: w[9],
                    l1d_load_misses: w[10],
                    l1d_word_misses: w[11],
                    l2_accesses: w[12],
                    l2_misses: w[13],
                    l2_writebacks: w[14],
                };
                let half = |i: usize, high: bool| (w[i] >> if high { 32 } else { 0 }) as u32;
                TrialMetrics {
                    result: SimResult {
                        instructions: w[0],
                        synthetic: w[1],
                        cycles: w[2],
                        mem,
                        branches: w[3],
                        mispredicts: w[4],
                    },
                    counts: RunCounts {
                        instructions: w[15],
                        executed: w[16],
                        cycles: w[17],
                        l1_accesses: w[18],
                        l2_accesses: w[19],
                    },
                    link_stats: (w[22] >> 63 == 1).then(|| LinkStats {
                        image_words: half(20, false),
                        code_words: half(20, true),
                        padding_words: half(21, false),
                        cache_words_used: half(21, true),
                        cache_words_shared: half(22, false),
                        fault_free_words: half(22, true),
                    }),
                }
            })
            .collect();
        StoredCell {
            failed_links,
            trials,
        }
    }

    /// FNV-1a, the checksum a cell image ends with.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Frames `payload` as a cell image: its length, the payload and a
    /// checksum that matches it.
    fn image(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u64).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out
    }

    /// Both decoders refuse `bytes`.
    fn refused(bytes: &[u8]) -> Result<(), TestCaseError> {
        prop_assert_eq!(StoredCell::from_bytes(bytes), None);
        prop_assert_eq!(cell_payload_from_hex(&hex_encode(bytes)), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any cell survives both encodings bit for bit.
        fn cells_round_trip(
            failed_links: u64,
            words in vec(any::<u64>(), 0..WORDS * 6),
        ) {
            let cell = cell(failed_links, &words);
            let bytes = cell.to_bytes();
            prop_assert_eq!(StoredCell::from_bytes(&bytes), Some(cell.clone()));
            prop_assert_eq!(cell_payload_from_hex(&cell_payload_to_hex(&cell)), Some(cell));
        }

        /// Arbitrary bytes, every truncation, trailing bytes, single-bit
        /// flips, images spliced into one another, and images whose
        /// lengths, sequence counts or option tags lie under a recomputed
        /// checksum: all decode to `None`.
        fn corrupted_images_decode_to_none(
            failed_links: u64,
            words in vec(any::<u64>(), 0..WORDS * 4),
            other_words in vec(any::<u64>(), 0..WORDS * 4),
            noise in vec(any::<u8>(), 0..600),
            flips in vec(any::<u64>(), 1..24),
            cut: usize,
            other_cut: usize,
            lie: u64,
            tag: u8,
        ) {
            let bytes = cell(failed_links, &words).to_bytes();
            let payload = &bytes[8..bytes.len() - 8];
            prop_assert_eq!(&image(payload), &bytes);

            refused(&noise)?;
            prop_assert_eq!(cell_payload_from_hex(&String::from_utf8_lossy(&noise)), None);
            for cut in 0..bytes.len() {
                refused(&bytes[..cut])?;
            }
            let mut longer = bytes.clone();
            longer.push(noise.first().copied().unwrap_or(0));
            refused(&longer)?;

            for flip in &flips {
                let mut flipped = bytes.clone();
                let at = (*flip % (bytes.len() as u64 * 8)) as usize;
                flipped[at / 8] ^= 1 << (at % 8);
                refused(&flipped)?;
            }

            let other = cell(!failed_links, &other_words).to_bytes();
            let (at, from) = (cut % bytes.len(), other_cut % other.len());
            let spliced = [&bytes[..at], &other[from..]].concat();
            if spliced != bytes && spliced != other {
                refused(&spliced)?;
            }

            let mut length = bytes.clone();
            let declared = if lie == payload.len() as u64 { lie + 1 } else { lie };
            length[..8].copy_from_slice(&declared.to_le_bytes());
            refused(&length)?;

            let trials = words.len() / WORDS;
            let count = if lie == trials as u64 { lie ^ 1 } else { lie };
            let mut counted = payload.to_vec();
            counted[8..16].copy_from_slice(&count.to_le_bytes());
            refused(&image(&counted))?;

            if trials > 0 {
                // The first trial's link-stats tag follows its 20 counters.
                let at = 16 + 20 * 8;
                let mut tagged = payload.to_vec();
                tagged[at] = if tag == tagged[at] { tag ^ 1 } else { tag };
                refused(&image(&tagged))?;
            }
        }
    }

    /// A multi-megabyte image whose trial count claims every byte left
    /// decodes to `None`; its decoder reserves a bounded amount up front,
    /// not the claimed count of in-memory trials (190 times the image).
    #[test]
    fn a_lying_trial_count_in_a_multi_megabyte_image_decodes_to_none() {
        let bytes = cell(1, &vec![0; WORDS * 16_000]).to_bytes();
        assert!(bytes.len() > 2 << 20, "{} bytes", bytes.len());
        let mut payload = bytes[8..bytes.len() - 8].to_vec();
        let left = payload.len() as u64 - 16;
        payload[8..16].copy_from_slice(&left.to_le_bytes());
        refused(&image(&payload)).unwrap();
    }
}
