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
    /// Parallelism and checking knobs (`threads`,
    /// `max_parallel_trials`, `validate_images`, ...) stay the node
    /// operator's choice — they can never change results.
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

/// Renders a completed cell payload for the push/sync wire.
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
