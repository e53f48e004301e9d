//! Shared plumbing for the bench10 × voltage sweep tools: `dvs-verify`,
//! `dvs-diff`, `dvs-model` and `dvs-profile`.
//!
//! The module owns what the four tools share:
//!
//! * the flags `--benchmarks --voltages --models --maps --seed --json
//!   --help` ([`Tool::parse`]). Each tool names the shared flags it takes
//!   and parses its own flags in a callback, so a shared flag a tool does
//!   not use is a usage error like any unknown flag;
//! * the [`FaultChain`] ladder walk ([`SweepArgs::walk_chain`]): one chain
//!   per map seed, grown down the 20 mV ladder and visited at every
//!   requested rung, so the fault sets of one chain nest by construction;
//! * the report envelope ([`SweepArgs::report`]);
//! * one exit contract: `0` no deny finding, `1` a deny finding
//!   ([`exit`]), `2` a usage error ([`USAGE_ERROR`]).

use std::process::ExitCode;
use std::str::FromStr;

use dvs_analysis::{render_json_envelope, render_text, LintMeta, Report};
use dvs_sram::{
    ladder_mv, CacheGeometry, FaultChain, FaultMap, FaultModel, MilliVolts, PfailModel,
};
use dvs_workloads::Benchmark;

/// Exit status of a command line the tool cannot run.
pub const USAGE_ERROR: u8 = 2;

/// The exit status of a finished sweep: `0` without a deny finding, `1`
/// with one.
pub fn exit(denied: bool) -> ExitCode {
    ExitCode::from(u8::from(denied))
}

/// A flag every sweep tool spells and parses the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--benchmarks LIST`: paper or bare names, any ASCII case.
    Benchmarks,
    /// `--voltages LIST`: operating points in mV.
    Voltages,
    /// `--models LIST`: fault models (`iid`, `rowcol`, `clustered`).
    Models,
    /// `--maps N`: fault maps (chains) per point, at least one.
    Maps,
    /// `--seed N`: base seed.
    Seed,
    /// `--json`: one machine-readable document instead of text.
    Json,
}

impl Flag {
    const ALL: [Flag; 6] = [
        Flag::Benchmarks,
        Flag::Voltages,
        Flag::Models,
        Flag::Maps,
        Flag::Seed,
        Flag::Json,
    ];

    /// The flag as typed on the command line.
    fn name(self) -> &'static str {
        match self {
            Flag::Benchmarks => "--benchmarks",
            Flag::Voltages => "--voltages",
            Flag::Models => "--models",
            Flag::Maps => "--maps",
            Flag::Seed => "--seed",
            Flag::Json => "--json",
        }
    }
}

/// A sweep tool's command-line surface.
pub struct Tool {
    /// Binary name, prefixed to usage errors.
    pub name: &'static str,
    /// The `--help` text.
    pub usage: &'static str,
    /// The shared flags the tool takes.
    pub flags: &'static [Flag],
}

/// The sweep shape the shared flags set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// Benchmarks swept, in request order.
    pub benchmarks: Vec<Benchmark>,
    /// Requested operating points in mV, in request order.
    pub voltages: Vec<u32>,
    /// Fault models swept, in request order.
    pub models: Vec<FaultModel>,
    /// Fault maps (chains) per point.
    pub maps: u64,
    /// Base seed.
    pub seed: u64,
    /// Print one JSON document instead of text.
    pub json: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            benchmarks: Benchmark::ALL.to_vec(),
            voltages: vec![760, 600, 480, 400],
            models: FaultModel::ALL.to_vec(),
            maps: 2,
            seed: 0,
            json: false,
        }
    }
}

/// The rest of the command line, from which a tool's own flag takes its
/// value.
pub struct Values<'a>(&'a mut dyn Iterator<Item = String>);

impl Values<'_> {
    /// The next argument, as `flag`'s integer value.
    ///
    /// # Errors
    ///
    /// A usage message when the value is missing or not an integer.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.0
            .next()
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("{flag} expects an integer"))
    }

    /// Like [`Values::number`], rejecting zero.
    ///
    /// # Errors
    ///
    /// A usage message when the value is missing, not an integer or zero.
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String> {
        let n: T = self.number(flag)?;
        if n == T::default() {
            return Err(format!("{flag} expects a positive integer"));
        }
        Ok(n)
    }

    /// The next argument, as `flag`'s comma-separated list. Items are
    /// trimmed; an empty list or an item `parse` rejects is an error
    /// naming `what`.
    fn list<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let value = self
            .0
            .next()
            .filter(|v| !v.trim().is_empty())
            .ok_or_else(|| format!("{flag} expects a non-empty list"))?;
        value
            .split(',')
            .map(str::trim)
            .map(|item| parse(item).ok_or_else(|| format!("unknown {what}: {item:?}")))
            .collect()
    }
}

impl Tool {
    /// Parses the process's command line over `defaults`; see
    /// [`Tool::parse_from`] and [`Tool::resolve`].
    pub fn parse(
        &self,
        defaults: SweepArgs,
        own: impl FnMut(&str, &mut Values<'_>) -> Result<bool, String>,
    ) -> Result<SweepArgs, ExitCode> {
        self.resolve(self.parse_from(std::env::args().skip(1), defaults, own))
    }

    /// Turns a parse outcome into what `main` runs, or the exit status it
    /// returns instead. On `--help` (`Ok(None)`) the usage is printed and
    /// the status is 0; on a usage error the message and usage go to
    /// stderr and the status is [`USAGE_ERROR`].
    pub fn resolve<T>(&self, parsed: Result<Option<T>, String>) -> Result<T, ExitCode> {
        match parsed {
            Ok(Some(args)) => Ok(args),
            Ok(None) => {
                println!("{}", self.usage);
                Err(ExitCode::SUCCESS)
            }
            Err(msg) => {
                eprintln!("{}: {msg}\n{}", self.name, self.usage);
                Err(ExitCode::from(USAGE_ERROR))
            }
        }
    }

    /// Parses `args` over `defaults`: the shared flags in
    /// [`Tool::flags`] here, every other flag through `own`, which takes
    /// its value (if any) from [`Values`] and returns whether it knew the
    /// flag. `Ok(None)` means `--help`.
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag, an unknown or empty list
    /// item, a bad number, or an error `own` returned.
    pub fn parse_from(
        &self,
        args: impl IntoIterator<Item = String>,
        defaults: SweepArgs,
        mut own: impl FnMut(&str, &mut Values<'_>) -> Result<bool, String>,
    ) -> Result<Option<SweepArgs>, String> {
        let mut out = defaults;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut values = Values(&mut args);
            let shared = Flag::ALL
                .into_iter()
                .find(|f| f.name() == arg && self.flags.contains(f));
            match shared {
                Some(Flag::Benchmarks) => {
                    out.benchmarks = values.list(&arg, "benchmark", Benchmark::parse)?;
                }
                Some(Flag::Voltages) => {
                    out.voltages = values.list(&arg, "voltage", |v| v.parse().ok())?;
                }
                Some(Flag::Models) => out.models = values.list(&arg, "model", FaultModel::parse)?,
                Some(Flag::Maps) => out.maps = values.positive(&arg)?,
                Some(Flag::Seed) => out.seed = values.number(&arg)?,
                Some(Flag::Json) => out.json = true,
                None if arg == "--help" || arg == "-h" => return Ok(None),
                None => {
                    if !own(&arg, &mut values)? {
                        return Err(format!("unknown flag {arg}"));
                    }
                }
            }
        }
        Ok(Some(out))
    }
}

/// The rungs one chain advances through: the canonical 20 mV ladder down
/// to the deepest requested point, merged with any off-grid requested
/// voltages, descending.
fn chain_rungs(voltages: &[u32]) -> Vec<u32> {
    let lowest = voltages.iter().copied().min().expect("non-empty voltages");
    let mut rungs = ladder_mv(lowest);
    for &v in voltages {
        if !rungs.contains(&v) {
            rungs.push(v);
        }
    }
    rungs.sort_unstable_by(|a, b| b.cmp(a));
    rungs.dedup();
    rungs
}

impl SweepArgs {
    /// Grows fault chain `map` under `model` down the ladder (every rung
    /// advances it) and calls `visit(mv, p_word, fmap)` at each requested
    /// rung, highest voltage first. The chain seed derives from
    /// [`SweepArgs::seed`] and `map` alone, so a rerun regrows the same
    /// maps.
    pub fn walk_chain(
        &self,
        geometry: &CacheGeometry,
        model: FaultModel,
        map: u64,
        mut visit: impl FnMut(u32, f64, &FaultMap),
    ) {
        let pfail = PfailModel::dsn45();
        let chain_seed = self.seed.wrapping_add(map).wrapping_mul(0x9E37_79B9);
        let mut chain = FaultChain::with_model(geometry, chain_seed, model);
        for mv in chain_rungs(&self.voltages) {
            let p_word = pfail.pfail_word(MilliVolts::new(mv)).max(chain.p_current());
            chain.advance_to(p_word);
            if self.voltages.contains(&mv) {
                visit(mv, p_word, chain.map());
            }
        }
    }

    /// Prints `reports`: as text, or with `--json` as one `schema`
    /// document whose `lints` table names every pass that ran, so a
    /// consumer can tell "clean" from "not checked". Returns the exit
    /// status the deny findings call for.
    pub fn report(&self, schema: &str, lints: &[LintMeta], reports: &[Report]) -> ExitCode {
        if self.json {
            println!("{}", render_json_envelope(schema, lints, reports));
        } else {
            print!("{}", render_text(reports));
        }
        exit(reports.iter().any(|r| r.deny_count() > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOOL: Tool = Tool {
        name: "test",
        usage: "usage: test",
        flags: &Flag::ALL,
    };

    /// Parses `line` with one tool-only flag, `--depth N`.
    fn parse(line: &str) -> Result<Option<(SweepArgs, u32)>, String> {
        let mut depth = 0;
        let args = TOOL.parse_from(
            line.split_whitespace().map(String::from),
            SweepArgs::default(),
            |flag, values| {
                if flag != "--depth" {
                    return Ok(false);
                }
                depth = values.number(flag)?;
                Ok(true)
            },
        )?;
        Ok(args.map(|a| (a, depth)))
    }

    #[test]
    fn parses_shared_and_own_flags() {
        let (args, depth) =
            parse("--benchmarks crc32,bzip2 --voltages 760,400 --maps 5 --seed 7 --json --depth 3")
                .unwrap()
                .unwrap();
        assert_eq!(args.benchmarks, vec![Benchmark::Crc32, Benchmark::Bzip2]);
        assert_eq!(args.voltages, vec![760, 400]);
        assert_eq!((args.maps, args.seed, args.json, depth), (5, 7, true, 3));
        assert_eq!(args.models, FaultModel::ALL.to_vec(), "default kept");
        let (args, _) = parse("--models rowcol,iid").unwrap().unwrap();
        assert_eq!(args.models, vec![FaultModel::row_column(), FaultModel::Iid]);
    }

    #[test]
    fn benchmark_lists_take_paper_bare_and_any_case_names_trimmed() {
        let benchmarks = |list: &str| {
            TOOL.parse_from(
                ["--benchmarks".to_string(), list.to_string()],
                SweepArgs::default(),
                |_, _| Ok(false),
            )
            .map(|a| a.expect("not --help").benchmarks)
        };
        assert_eq!(
            benchmarks("401.bzip2,bzip2,CRC32, qsort"),
            Ok(vec![
                Benchmark::Bzip2,
                Benchmark::Bzip2,
                Benchmark::Crc32,
                Benchmark::Qsort
            ])
        );
        assert_eq!(benchmarks(" qsort"), Ok(vec![Benchmark::Qsort]));
        assert!(benchmarks("crc32,nosuch").is_err());
        assert!(benchmarks("crc32,").is_err());
        assert!(benchmarks(" ").is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse("--bogus").is_err());
        assert!(parse("--benchmarks nosuch").is_err());
        assert!(parse("--models gaussian").is_err());
        assert!(parse("--voltages abc").is_err());
        assert!(parse("--maps").is_err());
        assert!(parse("--maps 0").is_err());
        assert!(parse("--depth x").is_err());
        // A shared flag the tool does not take is unknown to it.
        let json_only = Tool {
            flags: &[Flag::Json],
            ..TOOL
        };
        let models = ["--models".to_string(), "iid".to_string()];
        assert_eq!(
            json_only.parse_from(models, SweepArgs::default(), |_, _| Ok(false)),
            Err("unknown flag --models".to_string())
        );
    }

    #[test]
    fn defaults_and_help() {
        let (args, depth) = parse("").unwrap().unwrap();
        assert_eq!(args, SweepArgs::default());
        assert_eq!(args.benchmarks.len(), 10);
        assert_eq!(depth, 0);
        assert_eq!(parse("--maps 3 --help"), Ok(None));
        assert_eq!(parse("-h"), Ok(None));
    }

    #[test]
    fn chain_rungs_merge_off_grid_points_descending() {
        let rungs = chain_rungs(&[760, 485, 400]);
        assert_eq!(rungs.first(), Some(&760));
        assert_eq!(rungs.last(), Some(&400));
        assert!(rungs.contains(&485));
        assert!(rungs.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn chains_visit_requested_rungs_in_order_with_nested_maps() {
        let args = SweepArgs {
            voltages: vec![400, 760, 480],
            maps: 1,
            ..SweepArgs::default()
        };
        let geom = CacheGeometry::dsn_l1();
        let mut seen: Vec<(u32, usize)> = Vec::new();
        args.walk_chain(&geom, FaultModel::Iid, 0, |mv, _, fmap| {
            seen.push((mv, fmap.faulty_words()));
        });
        let volts: Vec<u32> = seen.iter().map(|&(mv, _)| mv).collect();
        assert_eq!(volts, vec![760, 480, 400]);
        assert_eq!(seen[0].1, 0, "760 mV is yield-clean");
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
