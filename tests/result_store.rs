//! Cross-process result-store tests: separate processes must share
//! Monte-Carlo results through the on-disk store, reproduce bit-identical
//! summaries either way, and fall back to recomputation when the store is
//! invalidated, corrupted, size-capped or crashed mid-write.
//!
//! Each test drives the `store_probe` binary (see `src/bin/store_probe.rs`)
//! against its own temporary store directory via the `DVS_RESULT_STORE`
//! environment variable.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs-probe-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Names of the cell files in `dir`, sorted. Excludes the sidecar
/// `index.bin` and anything else that does not parse as a cell name.
fn cell_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("cell-") && n.ends_with(".bin"))
        .collect();
    names.sort();
    names
}

/// Temp-file debris in `dir` (in-flight save files that should never
/// outlive their writer).
fn tmp_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect()
}

/// Parses probe stdout into (cell-digest lines, engine counters).
fn parse_probe_output(stdout: &str) -> (Vec<String>, BTreeMap<String, u64>) {
    let mut cells = Vec::new();
    let mut counters = BTreeMap::new();
    for line in stdout.lines() {
        if let Some(rest) = line
            .strip_prefix("engine ")
            .or_else(|| line.strip_prefix("store "))
        {
            for pair in rest.split_whitespace() {
                let (k, v) = pair.split_once('=').expect("k=v counter");
                counters.insert(k.to_string(), v.parse().expect("integer counter"));
            }
        } else if line.starts_with("cell ") {
            cells.push(line.to_string());
        }
    }
    assert!(!cells.is_empty(), "probe printed no cells:\n{stdout}");
    (cells, counters)
}

/// Runs the probe against `store`, returning (cell-digest lines, engine
/// counters parsed from the final line).
fn probe(store: &Path, extra_args: &[&str]) -> (Vec<String>, BTreeMap<String, u64>) {
    let out = Command::new(env!("CARGO_BIN_EXE_store_probe"))
        .args(extra_args)
        .env("DVS_RESULT_STORE", store)
        .output()
        .expect("probe binary runs");
    assert!(
        out.status.success(),
        "probe failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("probe prints UTF-8");
    parse_probe_output(&stdout)
}

#[test]
fn second_process_reuses_the_store_bit_identically() {
    let dir = temp_store("reuse");

    let (first_cells, first_counters) = probe(&dir, &[]);
    assert!(first_counters["computed"] > 0, "{first_counters:?}");
    assert_eq!(first_counters["from_store"], 0, "{first_counters:?}");

    // The env override took effect: the cells landed in OUR directory.
    assert_eq!(cell_files(&dir).len(), 4, "one file per cell");

    // A separate process recomputes nothing and reproduces every digest
    // bit for bit.
    let (second_cells, second_counters) = probe(&dir, &[]);
    assert_eq!(second_counters["computed"], 0, "{second_counters:?}");
    assert_eq!(
        second_counters["cells_from_store"], 4,
        "{second_counters:?}"
    );
    assert_eq!(first_cells, second_cells);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changing_any_config_field_misses_the_store() {
    let dir = temp_store("invalidate");

    let (_, warm) = probe(&dir, &[]);
    assert!(warm["computed"] > 0);

    // Same store, different trace length: every cell must recompute.
    let (_, instrs) = probe(&dir, &["--instrs", "26000"]);
    assert!(instrs["computed"] > 0, "{instrs:?}");
    assert_eq!(instrs["from_store"], 0, "{instrs:?}");

    // Different seed likewise.
    let (_, seed) = probe(&dir, &["--seed", "43"]);
    assert!(seed["computed"] > 0, "{seed:?}");
    assert_eq!(seed["from_store"], 0, "{seed:?}");

    // The original configuration still hits its own cells.
    let (_, again) = probe(&dir, &[]);
    assert_eq!(again["computed"], 0, "{again:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_evaluators_in_one_process_racing_the_same_cell_converge() {
    use dvs_core::{EvalConfig, Evaluator, ExperimentPlan, ResultStore, Scheme};
    use dvs_sram::MilliVolts;
    use dvs_workloads::Benchmark;

    let dir = temp_store("race-threads");
    let cfg = EvalConfig {
        trace_instrs: 4_000,
        maps: 2,
        threads: 1,
        validate_images: false,
        ..EvalConfig::quick()
    };
    let plan = || {
        ExperimentPlan::for_grid(
            &[Benchmark::Crc32],
            &[Scheme::FfwBbr],
            &[MilliVolts::new(600)],
        )
    };

    // Two evaluators in one process race the same cell against the same
    // store directory. Neither coordinates with the other; the store's
    // atomic tmp+rename saves mean the race is write-write on identical
    // deterministic bytes.
    let cycles: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let dir = dir.clone();
                s.spawn(move || {
                    let store = ResultStore::open(&dir).expect("store opens");
                    let mut ev = Evaluator::new(cfg).with_store(store);
                    let results = ev.run_plan(&plan());
                    let (_, result) = results.into_iter().next().expect("one cell");
                    result
                        .expect("cell resolves")
                        .trials
                        .iter()
                        .map(|t| t.result.cycles)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("racer thread"))
            .collect()
    });
    assert_eq!(cycles[0], cycles[1], "racers must agree bit-for-bit");

    // Exactly one result file survives the race — no tmp leftovers, no
    // duplicate cells.
    let files = cell_files(&dir);
    assert_eq!(files.len(), 1, "store holds exactly one cell: {files:?}");
    assert!(tmp_files(&dir).is_empty(), "temp debris in store");

    // A third evaluator resolves the cell purely from the store.
    let store = ResultStore::open(&dir).expect("store opens");
    let mut third = Evaluator::new(cfg).with_store(store);
    let results = third.run_plan(&plan());
    assert!(results[0].1.is_ok());
    let stats = third.stats();
    assert_eq!(stats.trials_computed, 0, "{stats:?}");
    assert_eq!(stats.cells_from_store, 1, "{stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_processes_racing_the_same_cell_converge() {
    let dir = temp_store("race-procs");

    // Launch both probes before reading either, so their campaigns
    // genuinely overlap on the same store directory.
    let children: Vec<_> = (0..2)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_store_probe"))
                .env("DVS_RESULT_STORE", &dir)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("probe binary spawns")
        })
        .collect();
    let outputs: Vec<_> = children
        .into_iter()
        .map(|c| c.wait_with_output().expect("probe binary finishes"))
        .collect();
    for out in &outputs {
        assert!(
            out.status.success(),
            "racing probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let digests: Vec<Vec<String>> = outputs
        .iter()
        .map(|o| parse_probe_output(&String::from_utf8_lossy(&o.stdout)).0)
        .collect();
    assert_eq!(digests[0], digests[1], "racing processes must agree");

    // One file per cell, no temp debris left behind.
    let leftovers = tmp_files(&dir);
    assert!(leftovers.is_empty(), "temp debris in store: {leftovers:?}");
    assert_eq!(cell_files(&dir).len(), 4, "one file per cell");

    // A fresh process computes nothing.
    let (_, counters) = probe(&dir, &[]);
    assert_eq!(counters["computed"], 0, "{counters:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crowd_of_processes_hammering_one_cell_converges_to_one_file() {
    let dir = temp_store("race-crowd");

    // Four uncoordinated processes (the distributed layer's worst case:
    // duplicate-dispatched work units racing their saves) all compute
    // the same single cell against the same store directory.
    let children: Vec<_> = (0..4)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_store_probe"))
                .arg("--cell")
                .env("DVS_RESULT_STORE", &dir)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("probe binary spawns")
        })
        .collect();
    let outputs: Vec<_> = children
        .into_iter()
        .map(|c| c.wait_with_output().expect("probe binary finishes"))
        .collect();
    let mut digests = Vec::new();
    for out in &outputs {
        assert!(
            out.status.success(),
            "racing probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        digests.push(parse_probe_output(&String::from_utf8_lossy(&out.stdout)).0);
    }
    for d in &digests[1..] {
        assert_eq!(digests[0], *d, "racing processes must agree");
    }

    // First-writer-wins left exactly one cell file and no tmp debris.
    let files = cell_files(&dir);
    assert_eq!(files.len(), 1, "store holds exactly one cell: {files:?}");
    assert!(tmp_files(&dir).is_empty(), "temp debris in store");

    // The surviving bytes are exactly what an unraced run produces:
    // same file name (content-keyed) and same payload bit-for-bit.
    let solo_dir = temp_store("race-crowd-solo");
    let _ = probe(&solo_dir, &["--cell"]);
    let solo = cell_files(&solo_dir);
    assert_eq!(solo.len(), 1, "{solo:?}");
    assert_eq!(files[0], solo[0]);
    assert_eq!(
        std::fs::read(dir.join(&files[0])).expect("raced cell file reads"),
        std::fs::read(solo_dir.join(&solo[0])).expect("solo cell file reads"),
        "raced store file must be byte-identical to an unraced one"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&solo_dir);
}

#[test]
fn corrupted_store_files_fall_back_to_recompute() {
    let dir = temp_store("corrupt");

    let (original_cells, _) = probe(&dir, &[]);

    // Vandalize every cell file a different way — and the sidecar index
    // outright, which the next open must rebuild from a directory scan.
    for (mode, name) in cell_files(&dir).into_iter().enumerate() {
        let path = dir.join(&name);
        let bytes = std::fs::read(&path).expect("cell file reads");
        match mode % 3 {
            0 => std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap(), // truncated
            1 => std::fs::write(&path, b"garbage").unwrap(),                // replaced
            _ => {
                let mut flipped = bytes;
                let mid = flipped.len() / 2;
                flipped[mid] ^= 0xFF; // bit-rotted
                std::fs::write(&path, &flipped).unwrap();
            }
        }
    }
    std::fs::write(dir.join("index.bin"), b"rotten index").unwrap();

    // Corruption means recomputation, not a crash — and the recomputed
    // digests match the originals because the campaign is deterministic.
    let (recomputed_cells, counters) = probe(&dir, &[]);
    assert!(counters["computed"] > 0, "{counters:?}");
    assert_eq!(counters["from_store"], 0, "{counters:?}");
    assert_eq!(original_cells, recomputed_cells);

    // The recompute healed the store for the next process.
    let (_, healed) = probe(&dir, &[]);
    assert_eq!(healed["computed"], 0, "{healed:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphaned_tmp_files_from_dead_processes_are_swept() {
    let dir = temp_store("orphans");
    std::fs::create_dir_all(&dir).unwrap();

    // Plant temp files exactly as a crashed saver leaves them: written
    // but never renamed, owned by a pid that no longer exists (no OS
    // allocates pids anywhere near u32::MAX).
    let dead = u32::MAX;
    for seq in 0..3 {
        let name = format!(
            "cell-{:016x}.tmp.{dead}.{seq}",
            0xdead_beef_u64 + seq as u64
        );
        std::fs::write(dir.join(name), b"half-written cell image").unwrap();
    }

    // Before the sweep existed these leaked forever; now the next probe's
    // store open removes them and reports the count.
    let (_, counters) = probe(&dir, &[]);
    assert_eq!(counters["tmp_swept"], 3, "{counters:?}");
    assert!(tmp_files(&dir).is_empty(), "orphans must vanish");

    // And they never come back.
    let (_, again) = probe(&dir, &[]);
    assert_eq!(again["tmp_swept"], 0, "{again:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capped_store_stays_bounded_and_reproduces_unbounded_results() {
    let unbounded = temp_store("cap-unbounded");
    let capped = temp_store("cap-capped");

    let (reference_cells, _) = probe(&unbounded, &[]);
    let total: u64 = cell_files(&unbounded)
        .iter()
        .map(|n| std::fs::metadata(unbounded.join(n)).unwrap().len())
        .sum();
    // Half the campaign's footprint: forces evictions mid-sweep while
    // still fitting any single cell.
    let cap = (total / 2).to_string();

    let (capped_cells, counters) = probe(&capped, &["--store-max-bytes", &cap]);
    assert_eq!(reference_cells, capped_cells, "eviction changed results");
    assert!(counters["evictions"] > 0, "{counters:?}");
    assert!(counters["bytes"] <= total / 2, "{counters:?}");
    let on_disk: u64 = cell_files(&capped)
        .iter()
        .map(|n| std::fs::metadata(capped.join(n)).unwrap().len())
        .sum();
    assert!(on_disk <= total / 2, "{on_disk} bytes exceed cap {cap}");
    assert!(tmp_files(&capped).is_empty());

    // A second capped pass hits what survived, recomputes what was
    // evicted, and still reproduces every digest bit for bit.
    let (second_cells, second) = probe(&capped, &["--store-max-bytes", &cap]);
    assert_eq!(reference_cells, second_cells);
    assert!(second["cells_from_store"] > 0, "{second:?}");
    assert!(second["computed"] > 0, "{second:?}");

    let _ = std::fs::remove_dir_all(&unbounded);
    let _ = std::fs::remove_dir_all(&capped);
}

#[test]
fn sigkilled_saver_never_leaves_a_partial_cell_visible() {
    use dvs_core::ResultStore;
    use std::time::Duration;

    let dir = temp_store("crash");
    std::fs::create_dir_all(&dir).unwrap();

    // SIGKILL a process that rewrites cells in a tight loop, several
    // times at staggered offsets, to land kills inside the write+rename
    // window from a few different phases.
    for round in 0u64..3 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_store_probe"))
            .arg("--spin-save")
            .env("DVS_RESULT_STORE", &dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spin-save probe spawns");
        std::thread::sleep(Duration::from_millis(40 + 30 * round));
        child.kill().expect("SIGKILL the saver");
        child.wait().expect("reap the saver");
    }

    // Whatever instant the kills hit, every *visible* cell file is a
    // complete, checksummed image — the rename either happened or it
    // didn't.
    let store = ResultStore::open(&dir).expect("store reopens after crash");
    let audit = store.audit().expect("audit runs");
    assert!(
        audit.corrupt.is_empty(),
        "partial cell files visible after SIGKILL: {:?}",
        audit.corrupt
    );
    assert!(audit.intact > 0, "spin-save persisted nothing");

    // The reopen swept anything the dead writers stranded (kills rarely
    // land inside the tiny write window, so also plant one orphan to pin
    // the sweep itself), and no temp debris survives.
    std::fs::write(
        dir.join(format!("cell-{:016x}.tmp.{}.0", 1u64, u32::MAX)),
        b"x",
    )
    .unwrap();
    let reopened = ResultStore::open(&dir).expect("store reopens");
    assert!(reopened.stats().tmp_swept >= 1);
    assert!(tmp_files(&dir).is_empty(), "stranded temp files remain");

    // A capped store over the crashed directory re-converges to results
    // bit-identical to a clean-room run: leftover spin-save cells are
    // foreign keys (misses), crash debris is gone, eviction is a miss.
    let clean = temp_store("crash-clean");
    let (clean_cells, _) = probe(&clean, &[]);
    let (crashed_cells, _) = probe(&dir, &["--store-max-bytes", "4096"]);
    let (crashed_again, _) = probe(&dir, &["--store-max-bytes", "4096"]);
    assert_eq!(clean_cells, crashed_cells);
    assert_eq!(clean_cells, crashed_again);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean);
}
