//! The sweep tools' shared command-line contract, driven through the
//! four binaries: `--help` exits 0, a usage error exits 2, a deny finding
//! exits 1, and the JSON envelope names its schema and lint table.

use std::process::{Command, Output};

const TOOLS: [&str; 4] = [
    env!("CARGO_BIN_EXE_dvs-verify"),
    env!("CARGO_BIN_EXE_dvs-diff"),
    env!("CARGO_BIN_EXE_dvs-model"),
    env!("CARGO_BIN_EXE_dvs-profile"),
];

fn run(tool: &str, args: &[&str]) -> Output {
    Command::new(tool)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{tool} must run: {e}"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for tool in TOOLS {
        let out = run(tool, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{tool} --help");
        assert!(stdout(&out).starts_with("usage: "), "{tool} --help");
    }
}

#[test]
fn usage_errors_exit_two() {
    for tool in TOOLS {
        for args in [
            &["--no-such-flag"][..],
            &["--benchmarks", "not-a-benchmark"],
            &["--benchmarks", "crc32,"],
            &["--voltages", ""],
            &["--seed"],
        ] {
            let out = run(tool, args);
            assert_eq!(out.status.code(), Some(2), "{tool} {args:?}");
            assert!(out.stdout.is_empty(), "{tool} {args:?} ran anyway");
        }
    }
    // A shared flag the tool does not take is as unknown as any other,
    // and so is another tool's own flag.
    let diff = env!("CARGO_BIN_EXE_dvs-diff");
    let profile = env!("CARGO_BIN_EXE_dvs-profile");
    assert_eq!(run(diff, &["--maps", "1"]).status.code(), Some(2));
    assert_eq!(run(profile, &["--models", "iid"]).status.code(), Some(2));
    assert_eq!(
        run(profile, &["--inject-divergence"]).status.code(),
        Some(2)
    );
}

#[test]
fn verify_is_deny_clean_on_a_sound_sweep() {
    let out = run(
        env!("CARGO_BIN_EXE_dvs-verify"),
        &[
            "--benchmarks",
            "CRC32",
            "--voltages",
            "480",
            "--maps",
            "1",
            "--bounded-depth",
            "0",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("0 deny finding(s)"));
}

#[test]
fn seeded_misplacement_exits_one_with_lint_and_proof_findings() {
    let out = run(
        env!("CARGO_BIN_EXE_dvs-verify"),
        &[
            "--benchmarks",
            "crc32",
            "--voltages",
            "480",
            "--maps",
            "1",
            "--bounded-depth",
            "0",
            "--inject-misplacement",
        ],
    );
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "stdout: {text}");
    for needle in [
        "deny[chunk-containment]",
        "deny[layout-soundness]",
        "deny[verify/fault-reach]",
        "path: entry(b0)",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn injected_divergence_exits_one() {
    let out = run(
        env!("CARGO_BIN_EXE_dvs-diff"),
        &[
            "--benchmarks",
            "crc32",
            "--models",
            "iid",
            "--voltages",
            "760,400",
            "--stream-len",
            "200",
            "--inject-divergence",
        ],
    );
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "stdout: {text}");
    assert!(text.contains("deny[diff/clean-map]"), "stdout: {text}");
}

/// Balanced braces and brackets: a cheap well-formedness check.
fn balanced(json: &str) -> bool {
    json.matches(['{', '[']).count() == json.matches(['}', ']']).count()
}

/// Asserts that every finding in an envelope names a lint its table
/// lists at the finding's severity, so the table cannot fall behind what
/// the passes report. Returns how many findings were checked.
fn findings_match_lint_table(json: &str) -> usize {
    let mut checked = 0;
    for finding in json.split("{\"lint\":\"").skip(1) {
        let (lint, rest) = finding.split_once('"').expect("lint id");
        let severity = rest
            .strip_prefix(",\"severity\":\"")
            .and_then(|r| r.split_once('"'))
            .map(|(s, _)| s)
            .expect("severity after lint");
        let entry = format!("{{\"name\":\"{lint}\",\"level\":\"{severity}\"}}");
        assert!(json.contains(&entry), "{entry} missing from the lint table");
        checked += 1;
    }
    checked
}

#[test]
fn seeded_faults_report_only_tabled_lints() {
    let verify = run(
        env!("CARGO_BIN_EXE_dvs-verify"),
        &[
            "--benchmarks",
            "crc32",
            "--voltages",
            "480",
            "--maps",
            "1",
            "--bounded-depth",
            "0",
            "--inject-misplacement",
            "--json",
        ],
    );
    assert_eq!(verify.status.code(), Some(1));
    assert!(findings_match_lint_table(stdout(&verify).trim()) > 0);
    let diff = run(
        env!("CARGO_BIN_EXE_dvs-diff"),
        &[
            "--benchmarks",
            "crc32",
            "--models",
            "iid",
            "--voltages",
            "760,400",
            "--stream-len",
            "200",
            "--inject-divergence",
            "--json",
        ],
    );
    assert_eq!(diff.status.code(), Some(1));
    assert!(findings_match_lint_table(stdout(&diff).trim()) > 0);
}

#[test]
fn link_failures_are_tabled_warnings() {
    // At 340 mV the linker cannot place crc32: a warning, not a deny.
    let out = run(
        env!("CARGO_BIN_EXE_dvs-verify"),
        &[
            "--benchmarks",
            "crc32",
            "--voltages",
            "340",
            "--maps",
            "1",
            "--bounded-depth",
            "0",
            "--json",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let json = text.trim();
    assert!(
        json.contains("{\"lint\":\"link-failure\",\"severity\":\"warn\""),
        "no link failure in {json}"
    );
    assert!(findings_match_lint_table(json) > 0);
}

#[test]
fn json_envelopes_carry_schema_and_lint_table() {
    let out = run(
        env!("CARGO_BIN_EXE_dvs-verify"),
        &[
            "--benchmarks",
            "qsort",
            "--voltages",
            "440",
            "--maps",
            "1",
            "--bounded-depth",
            "1",
            "--json",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let json = text.trim();
    assert!(json.starts_with("{\"schema\":\"dvs-verify/1\",\"lints\":["));
    // The lint table names every pass with its level, so a consumer can
    // tell a clean pass from one that never ran.
    for lint in [
        "chunk-containment",
        "layout-soundness",
        "transform-equivalence",
        "verify/fault-reach",
        "verify/value-range",
        "verify/bounded-model",
    ] {
        assert!(
            json.contains(&format!("{{\"name\":\"{lint}\",\"level\":\"deny\"}}")),
            "{lint} missing from {json}"
        );
    }
    assert!(json.contains("\"subject\":\"qsort@440mV/chain0\""));
    assert!(json.contains("],\"denies\":0,\"warns\":"));
    findings_match_lint_table(json);
    assert!(balanced(json));

    let out = run(
        env!("CARGO_BIN_EXE_dvs-diff"),
        &[
            "--benchmarks",
            "crc32",
            "--models",
            "iid",
            "--voltages",
            "760,400",
            "--stream-len",
            "200",
            "--json",
        ],
    );
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let json = text.trim();
    assert!(json.starts_with("{\"schema\":\"dvs-diff/1\",\"lints\":["));
    assert!(json.contains("{\"name\":\"diff/clean-map\",\"level\":\"deny\"}"));
    assert!(json.contains("{\"name\":\"diff/clean-hypothesis\",\"level\":\"warn\"}"));
    assert!(json.contains("\"subject\":\"crc32@clean-map/seed0\""));
    assert!(balanced(json));
}
