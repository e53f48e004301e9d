//! The result line every run prints, and the `BENCHMARK.json` schema the
//! metrics are declared in.

use std::collections::BTreeMap;

use dvs_obs::json::{json_escape, Value};

/// Whether `name` is a valid metric, workload or unit-free identifier:
/// 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one run: what the last stdout line says.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (cells and HTTP requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Records a metric; the name and unit must be valid and the value
    /// finite.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?}");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_escape(name),
                    number(*value),
                    json_escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite number in shortest round-trip form, always with a decimal
/// point or exponent so it reads back as the same value.
fn number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// One declared workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Why it is in the benchmark.
    pub why: String,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// The command line that runs one workload.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a user of the system sees, with regression bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchmarkSpec {
    /// Parses and validates `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<BenchmarkSpec, String> {
        let v = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        exact_keys(
            &v,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
        )?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("{key:?} must be an array"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{key:?} must hold strings"))
                })
                .collect()
        };
        let command = strings("command")?;
        let paths = strings("paths")?;
        if command.is_empty() || command.len() > 32 || command.iter().any(|c| c.len() > 200) {
            return Err("\"command\" must hold 1 to 32 strings of at most 200 characters".into());
        }
        if paths.is_empty()
            || paths.len() > 16
            || paths.iter().any(|p| {
                p.is_empty()
                    || p.len() > 200
                    || p.starts_with('/')
                    || p.split('/').any(|part| part == "..")
                    || !p
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
            })
        {
            return Err("\"paths\" must hold 1 to 16 relative directory names".into());
        }
        let run_seconds =
            v.get("run_seconds")
                .and_then(Value::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("\"run_seconds\" must be a whole number from 1 to 60")? as u64;

        let mut names = std::collections::BTreeSet::new();
        let mut unique = |name: &str| -> Result<(), String> {
            if !valid_name(name) || !names.insert(name.to_string()) {
                return Err(format!("name {name:?} is invalid or used twice"));
            }
            Ok(())
        };
        let workloads = array(&v, "workloads", 2, 8)?
            .iter()
            .map(|w| {
                exact_keys(w, &["name", "why"])?;
                let name = field_str(w, "name")?;
                let why = field_str(w, "why")?;
                unique(&name)?;
                if why.is_empty() || why.len() > 200 || why.contains('\n') {
                    return Err(format!("workload {name}: \"why\" must be one short line"));
                }
                Ok(WorkloadSpec { name, why })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut metrics = |key: &str, max: usize, bounded: bool| {
            array(&v, key, 1, max)?
                .iter()
                .map(|m| {
                    let keys: &[&str] = if bounded {
                        &["name", "unit", "better", "bound"]
                    } else {
                        &["name", "unit", "better"]
                    };
                    exact_keys(m, keys)?;
                    let name = field_str(m, "name")?;
                    unique(&name)?;
                    let unit = field_str(m, "unit")?;
                    if !valid_unit(&unit) {
                        return Err(format!("metric {name}: invalid unit {unit:?}"));
                    }
                    let better = Better::parse(&field_str(m, "better")?)
                        .ok_or(format!("metric {name}: \"better\" is lower or higher"))?;
                    let bound = if bounded {
                        Some(
                            m.get("bound")
                                .and_then(Value::as_f64)
                                .filter(|b| *b > 0.0 && *b <= 0.25)
                                .ok_or(format!("metric {name}: bound must be in (0, 0.25]"))?,
                        )
                    } else {
                        None
                    };
                    Ok(MetricSpec {
                        name,
                        unit,
                        better,
                        bound,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        let end_to_end = metrics("end_to_end", 16, true)?;
        let per_layer = metrics("per_layer", 128, false)?;
        if !end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
        {
            return Err("end_to_end must declare setup_s in s, lower is better".into());
        }
        Ok(BenchmarkSpec {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Renders the spec back to JSON, one entry per line.
    #[cfg(test)]
    pub fn render(&self) -> String {
        let list = |items: &[String]| -> String {
            let quoted: Vec<String> = items
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect();
            format!("[{}]", quoted.join(", "))
        };
        let metric = |m: &MetricSpec| -> String {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {}", number(b)));
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                json_escape(&m.name),
                json_escape(&m.unit),
                m.better.name()
            )
        };
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    json_escape(&w.name),
                    json_escape(&w.why)
                )
            })
            .collect();
        let e2e: Vec<String> = self.end_to_end.iter().map(metric).collect();
        let layers: Vec<String> = self.per_layer.iter().map(metric).collect();
        format!(
            "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            list(&self.command),
            list(&self.paths),
            self.run_seconds,
            workloads.join(",\n"),
            e2e.join(",\n"),
            layers.join(",\n"),
        )
    }

    /// Checks that `outcome` carries exactly the declared metrics of one
    /// kind (end-to-end, or per-layer when `traced`), each in its unit.
    pub fn check(&self, outcome: &Outcome, traced: bool) -> Result<(), String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in declared {
            match outcome.metrics.get(&m.name) {
                None => return Err(format!("metric {} was not measured", m.name)),
                Some((_, unit)) if *unit != m.unit => {
                    return Err(format!(
                        "metric {} is in {unit}, BENCHMARK.json says {}",
                        m.name, m.unit
                    ))
                }
                Some(_) => {}
            }
        }
        if let Some(extra) = outcome
            .metrics
            .keys()
            .find(|k| !declared.iter().any(|m| &m.name == *k))
        {
            return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
        }
        Ok(())
    }

    /// The declared metric `name` of either kind.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn exact_keys(v: &Value, keys: &[&str]) -> Result<(), String> {
    let obj = v.as_obj().ok_or("expected a JSON object")?;
    if obj.len() != keys.len() || keys.iter().any(|k| !obj.contains_key(*k)) {
        return Err(format!(
            "object must have exactly the keys {keys:?}, has {:?}",
            obj.keys().collect::<Vec<_>>()
        ));
    }
    Ok(())
}

fn array<'v>(v: &'v Value, key: &str, min: usize, max: usize) -> Result<&'v [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .filter(|a| (min..=max).contains(&a.len()))
        .ok_or(format!(
            "{key:?} must be an array of {min} to {max} entries"
        ))
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("{key:?} must be a string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECKED_IN: &str = crate::SPEC;

    #[test]
    fn metric_names_follow_the_character_rule() {
        for ok in [
            "setup_s",
            "cpu.sim_ns_per_instr.ffw_bbr",
            "a",
            "9-x",
            "A.b_c-d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            "a:b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "Minstr/s", "req/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn checked_in_benchmark_json_parses_and_round_trips() {
        let spec = BenchmarkSpec::parse(CHECKED_IN).expect("BENCHMARK.json is valid");
        let again = BenchmarkSpec::parse(&spec.render()).expect("rendering re-parses");
        assert_eq!(spec, again);
        assert_eq!(spec.render(), again.render());
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn malformed_specs_are_refused() {
        let spec = BenchmarkSpec::parse(CHECKED_IN).unwrap();
        let mut loose = spec.clone();
        loose.end_to_end[0].bound = Some(0.3);
        assert!(BenchmarkSpec::parse(&loose.render())
            .unwrap_err()
            .contains("bound"));
        let mut dup = spec.clone();
        dup.per_layer.push(dup.end_to_end[0].clone());
        dup.per_layer.last_mut().unwrap().bound = None;
        assert!(BenchmarkSpec::parse(&dup.render())
            .unwrap_err()
            .contains("used twice"));
        let mut escape = spec;
        escape.paths = vec!["../elsewhere".into()];
        assert!(BenchmarkSpec::parse(&escape.render()).is_err());
        assert!(BenchmarkSpec::parse("{}").is_err());
    }

    #[test]
    fn outcome_line_parses_and_matches_the_declaration() {
        let spec = BenchmarkSpec::parse(CHECKED_IN).unwrap();
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        for m in &spec.end_to_end {
            let unit: &'static str = Box::leak(m.unit.clone().into_boxed_str());
            out.put(&m.name, 1.0, unit);
        }
        spec.check(&out, false)
            .expect("all declared metrics present");
        assert!(spec.check(&out, true).is_err(), "per-layer metrics missing");
        let line = Value::parse(&out.to_json()).expect("result line is JSON");
        exact_keys(&line, &["correct", "attempted", "failed", "metrics"]).unwrap();
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.0));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        out.metrics.remove("setup_s");
        assert!(spec.check(&out, false).unwrap_err().contains("setup_s"));
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(1e-7), "1e-7");
    }
}
