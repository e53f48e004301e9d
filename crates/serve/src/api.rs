//! JSON ↔ engine translation: campaign specs in, results out.
//!
//! This module is pure — no sockets, no threads — so the request and
//! response shapes are unit-testable without a server. The cell
//! renderers are the coordinator's ([`dvs_cluster::proto`]), re-exported
//! here for clients that render results themselves.

use dvs_core::{EvalConfig, Evaluator, ExperimentPlan, Scheme};
use dvs_obs::json::{json_escape, Value};
use dvs_sram::{FaultModel, MilliVolts};
use dvs_workloads::Benchmark;

pub use dvs_cluster::proto::{cell_error_json, cell_json, results_json, stored_cell_result};

/// Hard cap on cells per campaign: a grid bigger than this is a typo or
/// an attack, not an experiment.
pub const MAX_CELLS: usize = 4096;

/// Lowest plausible supply voltage a spec may request.
pub const MIN_VCC_MV: u32 = 300;

/// Highest plausible supply voltage a spec may request.
pub const MAX_VCC_MV: u32 = 1000;

/// A validated campaign request: the grid plus optional engine
/// overrides.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Benchmarks of the grid, in request order.
    pub benchmarks: Vec<Benchmark>,
    /// Schemes of the grid, in request order.
    pub schemes: Vec<Scheme>,
    /// Operating voltages of the grid, in request order.
    pub voltages: Vec<MilliVolts>,
    /// Override for [`EvalConfig::maps`].
    pub maps: Option<u64>,
    /// Override for [`EvalConfig::trace_instrs`].
    pub trace_instrs: Option<usize>,
    /// Override for [`EvalConfig::seed`].
    pub seed: Option<u64>,
    /// Override for [`EvalConfig::fault_model`] (`"iid"`, `"rowcol"`
    /// or `"clustered"`).
    pub model: Option<FaultModel>,
}

impl CampaignSpec {
    /// Parses and validates a request body.
    ///
    /// Fail-closed: unknown top-level keys, empty axes, out-of-range
    /// voltages, unrecognised names, and oversized grids are all
    /// rejected with a message suitable for a 400 body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn from_json(body: &str) -> Result<CampaignSpec, String> {
        let value = Value::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let obj = value
            .as_obj()
            .ok_or("campaign spec must be a JSON object")?;
        for key in obj.keys() {
            if !matches!(
                key.as_str(),
                "benchmarks"
                    | "schemes"
                    | "voltages_mv"
                    | "maps"
                    | "trace_instrs"
                    | "seed"
                    | "model"
            ) {
                return Err(format!("unknown field {key:?}"));
            }
        }

        let benchmarks = string_list(&value, "benchmarks")?
            .iter()
            .map(|name| Benchmark::parse(name).ok_or_else(|| format!("unknown benchmark {name:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        let schemes = string_list(&value, "schemes")?
            .iter()
            .map(|name| Scheme::parse(name).ok_or_else(|| format!("unknown scheme {name:?}")))
            .collect::<Result<Vec<_>, _>>()?;

        let raw_voltages = value
            .get("voltages_mv")
            .ok_or("missing field \"voltages_mv\"")?
            .as_arr()
            .ok_or("\"voltages_mv\" must be an array of integers")?;
        if raw_voltages.is_empty() {
            return Err("\"voltages_mv\" must not be empty".into());
        }
        let mut voltages = Vec::with_capacity(raw_voltages.len());
        for v in raw_voltages {
            let mv = integer_in(v, "voltage", u64::from(MIN_VCC_MV), u64::from(MAX_VCC_MV))?;
            voltages.push(MilliVolts::new(mv as u32));
        }

        let cells = benchmarks.len() * schemes.len() * voltages.len();
        if cells > MAX_CELLS {
            return Err(format!("grid has {cells} cells; the limit is {MAX_CELLS}"));
        }

        let maps = value
            .get("maps")
            .map(|v| integer_in(v, "maps", 1, 100_000))
            .transpose()?;
        let trace_instrs = value
            .get("trace_instrs")
            .map(|v| integer_in(v, "trace_instrs", 1, 100_000_000))
            .transpose()?
            .map(|n| n as usize);
        let seed = value
            .get("seed")
            .map(|v| integer_in(v, "seed", 0, u64::MAX))
            .transpose()?;
        let model = value
            .get("model")
            .map(|v| {
                let name = v.as_str().ok_or("\"model\" must be a string".to_string())?;
                FaultModel::parse(name)
                    .ok_or_else(|| format!("unknown model {name:?} (iid, rowcol or clustered)"))
            })
            .transpose()?;

        Ok(CampaignSpec {
            benchmarks,
            schemes,
            voltages,
            maps,
            trace_instrs,
            seed,
            model,
        })
    }

    /// The full grid as an [`ExperimentPlan`] (duplicates collapse).
    pub fn plan(&self) -> ExperimentPlan {
        ExperimentPlan::for_grid(&self.benchmarks, &self.schemes, &self.voltages)
    }

    /// `base` with this spec's overrides applied. The parallelism knob
    /// (`threads`) always comes from `base`: it is the operator's
    /// resources, not the client's.
    pub fn config(&self, base: &EvalConfig) -> EvalConfig {
        EvalConfig {
            maps: self.maps.unwrap_or(base.maps),
            trace_instrs: self.trace_instrs.unwrap_or(base.trace_instrs),
            seed: self.seed.unwrap_or(base.seed),
            fault_model: self.model.unwrap_or(base.fault_model),
            ..*base
        }
    }
}

/// Extracts a non-empty array of strings at `field`.
fn string_list<'v>(value: &'v Value, field: &str) -> Result<Vec<&'v str>, String> {
    let arr = value
        .get(field)
        .ok_or_else(|| format!("missing field {field:?}"))?
        .as_arr()
        .ok_or_else(|| format!("{field:?} must be an array of strings"))?;
    if arr.is_empty() {
        return Err(format!("{field:?} must not be empty"));
    }
    arr.iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| format!("{field:?} must contain only strings"))
        })
        .collect()
}

/// Checks that `v` is an integer-valued JSON number in `[lo, hi]`.
fn integer_in(v: &Value, what: &str, lo: u64, hi: u64) -> Result<u64, String> {
    let f = v
        .as_f64()
        .ok_or_else(|| format!("{what} must be a number"))?;
    if f.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&f) {
        return Err(format!("{what} must be a non-negative integer, got {f}"));
    }
    let n = f as u64;
    if n < lo || n > hi {
        return Err(format!("{what} must be in [{lo}, {hi}], got {n}"));
    }
    Ok(n)
}

/// Renders the `GET /v1/healthz` body: liveness plus enough shape
/// (version, role, uptime, queue depth) for a probe to tell nodes
/// apart without hitting `/v1/metrics`.
pub fn healthz_json(
    version: &str,
    role: &str,
    uptime_ms: u64,
    queue_depth: usize,
    draining: bool,
) -> String {
    format!(
        "{{\"ok\":true,\"version\":\"{}\",\"role\":\"{}\",\"uptime_ms\":{uptime_ms},\
         \"queue_depth\":{queue_depth},\"draining\":{draining}}}",
        json_escape(version),
        json_escape(role),
    )
}

/// Runs `spec` directly through a fresh [`Evaluator`] and renders the
/// results exactly as `GET /v1/campaigns/{id}` would. This is the
/// reference path the end-to-end test compares the server against.
pub fn render_direct(
    spec: &CampaignSpec,
    base: &EvalConfig,
    store: Option<&dvs_core::ResultStore>,
) -> String {
    let mut evaluator = Evaluator::new(spec.config(base));
    if let Some(store) = store {
        evaluator = evaluator.with_store(store.clone());
    }
    let results = evaluator.run_plan(&spec.plan());
    results_json(&results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_round_trips_a_valid_request() {
        let spec = CampaignSpec::from_json(
            r#"{"benchmarks":["crc32","401.bzip2"],"schemes":["FFW+BBR"],
                "voltages_mv":[540,600],"maps":2,"trace_instrs":2000,"seed":7,
                "model":"rowcol"}"#,
        )
        .unwrap();
        assert_eq!(spec.benchmarks, vec![Benchmark::Crc32, Benchmark::Bzip2]);
        assert_eq!(spec.schemes, vec![Scheme::FfwBbr]);
        assert_eq!(
            spec.voltages,
            vec![MilliVolts::new(540), MilliVolts::new(600)]
        );
        assert_eq!(spec.plan().len(), 4);
        let cfg = spec.config(&EvalConfig::quick());
        assert_eq!((cfg.maps, cfg.trace_instrs, cfg.seed), (2, 2000, 7));
        assert_eq!(cfg.fault_model, FaultModel::row_column());
        // Parallelism stays the operator's choice.
        assert_eq!(cfg.threads, EvalConfig::quick().threads);
        // Omitting "model" keeps the operator's default.
        let plain = CampaignSpec::from_json(
            r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"],"voltages_mv":[600]}"#,
        )
        .unwrap();
        assert_eq!(plain.model, None);
        assert_eq!(
            plain.config(&EvalConfig::quick()).fault_model,
            EvalConfig::quick().fault_model
        );
    }

    #[test]
    fn spec_parsing_fails_closed() {
        for (body, needle) in [
            ("[]", "must be a JSON object"),
            ("{", "invalid JSON"),
            (
                r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"]}"#,
                "voltages_mv",
            ),
            (
                r#"{"benchmarks":[],"schemes":["FFW+BBR"],"voltages_mv":[600]}"#,
                "must not be empty",
            ),
            (
                r#"{"benchmarks":["crc32"],"schemes":["nope"],"voltages_mv":[600]}"#,
                "unknown scheme",
            ),
            (
                r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"],"voltages_mv":[50]}"#,
                "must be in [300, 1000]",
            ),
            (
                r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"],"voltages_mv":[600.5]}"#,
                "non-negative integer",
            ),
            (
                r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"],"voltages_mv":[600],"evil":1}"#,
                "unknown field",
            ),
            (
                r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"],"voltages_mv":[600],"maps":0}"#,
                "maps must be in",
            ),
            (
                r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"],"voltages_mv":[600],"model":"gaussian"}"#,
                "unknown model",
            ),
            (
                r#"{"benchmarks":["crc32"],"schemes":["FFW+BBR"],"voltages_mv":[600],"model":3}"#,
                "must be a string",
            ),
        ] {
            let err = CampaignSpec::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn healthz_body_parses_under_the_hardened_parser() {
        let body = healthz_json("0.1.0", "coordinator", 12345, 3, false);
        let v = Value::parse(&body).expect("healthz must be valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_f64), None); // a bool, not a number
        assert!(matches!(v.get("ok"), Some(Value::Bool(true))));
        assert_eq!(v.get("version").and_then(Value::as_str), Some("0.1.0"));
        assert_eq!(v.get("role").and_then(Value::as_str), Some("coordinator"));
        assert_eq!(v.get("uptime_ms").and_then(Value::as_f64), Some(12345.0));
        assert_eq!(v.get("queue_depth").and_then(Value::as_f64), Some(3.0));
        assert!(matches!(v.get("draining"), Some(Value::Bool(false))));
    }

    #[test]
    fn oversized_grids_are_rejected() {
        let benchmarks: Vec<String> = Benchmark::ALL
            .iter()
            .map(|b| format!("\"{}\"", b.name()))
            .collect();
        let schemes: Vec<String> = Scheme::ALL
            .iter()
            .map(|s| format!("\"{}\"", s.name()))
            .collect();
        let voltages: Vec<String> = (0..40).map(|i| (400 + i).to_string()).collect();
        let body = format!(
            "{{\"benchmarks\":[{}],\"schemes\":[{}],\"voltages_mv\":[{}]}}",
            benchmarks.join(","),
            schemes.join(","),
            voltages.join(","),
        );
        let err = CampaignSpec::from_json(&body).unwrap_err();
        assert!(err.contains("the limit is"), "{err}");
    }
}
