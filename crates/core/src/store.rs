//! Persistence layer of the experiment engine: on-disk result store.
//!
//! Completed Monte-Carlo cells are persisted one file per cell so that
//! `repro_all`, the individual figure binaries and the ablations share
//! results across *processes*, not just within one `Evaluator`.
//!
//! Correctness over cleverness: each file embeds the **full serialized
//! key** ([`StoreKey`] — evaluation scale, core configuration, cache
//! geometry and cell identity), and a load only hits when the stored key
//! bytes equal the expected key bytes exactly; the payload additionally
//! carries a checksum, so a single rotted bit reads as a miss. The
//! content hash in the file name is merely an index; when two distinct
//! keys alias one hash the save diverts to a `-1`, `-2`, … probe chain
//! (and loads follow it), so collisions degrade to an extra file, never
//! to recompute-thrash or wrong data. Corrupt or truncated files likewise
//! read as misses and are overwritten by the next save.
//!
//! The store is also a **bounded disk cache**: [`ResultStore::with_max_bytes`]
//! caps the total size of cell files, enforced by least-recently-used
//! eviction at save time (and on an explicit [`ResultStore::compact`]).
//! Access order is tracked in a sidecar `index.bin` (same vendored binary
//! codec, checksummed) that is rebuilt from a directory scan whenever it
//! is missing, corrupt or stale — the index is a cache of a cache and can
//! always be thrown away. Eviction can never change results: an evicted
//! cell is indistinguishable from one that was never computed, so the
//! engine simply recomputes it (the dvs-diff persistence oracle pins
//! capped ≡ unbounded ≡ no store).
//!
//! File hygiene: saves write a `cell-*.tmp.<pid>.<seq>` file and rename
//! it into place; a crash between the two strands the temp file, so
//! [`ResultStore::open`] (and [`ResultStore::compact`]) sweep temp files
//! whose owning process is gone.
//!
//! The store location defaults to `target/dvs-result-store` and can be
//! redirected with the `DVS_RESULT_STORE` environment variable (see
//! `EXPERIMENTS.md`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use serde::bin::{Deserializer, Serializer};
use serde::{Deserialize, Serialize};

use dvs_cpu::CoreConfig;
use dvs_obs::Recorder;
use dvs_sram::{CacheGeometry, FaultModel};
use dvs_workloads::Benchmark;

use crate::eval::TrialMetrics;
use crate::plan::CellKey;
use crate::{EvalConfig, Scheme};

/// Environment variable overriding the store directory.
pub const STORE_ENV: &str = "DVS_RESULT_STORE";

/// Magic prefix of store files; the trailing digit is the format version.
const MAGIC: &[u8; 8] = b"DVSCELL1";

/// Magic prefix of the sidecar access-order index.
const INDEX_MAGIC: &[u8; 8] = b"DVSIDX01";

/// File name of the sidecar access-order index.
const INDEX_FILE: &str = "index.bin";

/// Longest collision probe chain either `save` or `load` will walk.
/// 64-bit FNV collisions are vanishingly rare; chains longer than this
/// degrade to a recompute, never to wrong data.
const MAX_PROBES: u32 = 16;

/// Consecutive missing probe slots tolerated before concluding the chain
/// has ended. Eviction can punch holes into a chain (an evicted slot is
/// just a missing file), so a single gap must not hide later slots.
const HOLE_TOLERANCE: u32 = 3;

/// Bumped whenever the meaning of stored bytes changes in a way the
/// serialized key cannot express (e.g. reinterpreting a metric).
///
/// v2: fault maps come from the geometric skip sampler walking the
/// voltage ladder ([`dvs_sram::FaultChain`]), and the per-cell seed base
/// no longer folds in the voltage. Identical in distribution to v1 but a
/// different RNG stream, so v1 cells must read as misses.
///
/// v3: the fault model ([`dvs_sram::FaultModel`]) is part of the key, so
/// cells computed under i.i.d., row/column or clustered fault injection
/// can never alias each other. v2 cells (implicitly i.i.d.) read as
/// misses rather than be grandfathered in — a recompute is cheaper than
/// auditing that nothing else drifted.
const KEY_VERSION: u32 = 3;

/// Everything a cell's results depend on. Two processes computing the
/// same `StoreKey` are guaranteed (by the deterministic seeding) to
/// produce bit-identical results, so sharing is safe.
///
/// Deliberately excludes [`EvalConfig::threads`]: parallelism must never
/// affect results, and a store populated on an 8-core box must hit on a
/// 4-core one. The store size cap ([`EvalConfig::store_max_bytes`]) is
/// likewise excluded — eviction turns cells into misses, never into
/// different numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreKey {
    /// Schema version of the stored payload.
    pub version: u32,
    /// Dynamic instructions simulated per trial.
    pub trace_instrs: usize,
    /// Fault maps per operating point.
    pub maps: u64,
    /// Root seed.
    pub seed: u64,
    /// BBR split-threshold override.
    pub bbr_max_block_words: Option<u32>,
    /// CPU model configuration.
    pub core: CoreConfig,
    /// L1 geometry.
    pub geometry: CacheGeometry,
    /// The workload.
    pub benchmark: Benchmark,
    /// The protection scheme.
    pub scheme: Scheme,
    /// Nominal operating voltage in millivolts.
    pub vcc_mv: u32,
    /// Trials this cell was asked to run.
    pub trials: u64,
    /// Fault-injection model the maps were sampled under (seed schema
    /// v3). Appended last so the preceding field encodings are unchanged.
    pub fault_model: FaultModel,
}

impl StoreKey {
    /// Builds the key of `cell` under an evaluation context.
    pub fn for_cell(
        cfg: &EvalConfig,
        core: &CoreConfig,
        geometry: &CacheGeometry,
        cell: &CellKey,
    ) -> Self {
        StoreKey {
            version: KEY_VERSION,
            trace_instrs: cfg.trace_instrs,
            maps: cfg.maps,
            seed: cfg.seed,
            bbr_max_block_words: cfg.bbr_max_block_words,
            core: *core,
            geometry: *geometry,
            benchmark: cell.benchmark,
            scheme: cell.scheme,
            vcc_mv: cell.vcc_mv,
            trials: cell.trials(cfg),
            fault_model: cfg.fault_model,
        }
    }

    fn to_bytes(self) -> Vec<u8> {
        let mut s = Serializer::new();
        self.serialize(&mut s);
        s.into_bytes()
    }
}

/// The persisted payload of one cell: exactly what is needed to rebuild
/// a [`crate::SchemeRun`] (or to re-raise its all-links-failed error).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCell {
    /// Trials whose BBR link found no placement.
    pub failed_links: u64,
    /// Successful trials, in trial-index order.
    pub trials: Vec<TrialMetrics>,
}

impl StoredCell {
    /// Serializes the cell for transport (cluster result push, the binary
    /// `GET /v1/results` content type and a worker's read-through), with
    /// a trailing checksum so wire corruption reads as a decode failure
    /// rather than wrong data.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Serializer::new();
        self.serialize(&mut payload);
        let payload = payload.into_bytes();
        let mut s = Serializer::new();
        s.write_bytes(&payload);
        s.write_u64(fnv1a(&payload));
        s.into_bytes()
    }

    /// Decodes a [`StoredCell::to_bytes`] image. `None` on truncation,
    /// trailing garbage or a checksum mismatch — the receiver must treat
    /// every failure mode as "recompute", exactly like a store miss.
    pub fn from_bytes(bytes: &[u8]) -> Option<StoredCell> {
        let mut d = Deserializer::new(bytes);
        let payload = d.read_bytes().ok()?;
        let checksum = d.read_u64().ok()?;
        if !d.is_empty() || fnv1a(payload) != checksum {
            return None;
        }
        let mut pd = Deserializer::new(payload);
        let cell = StoredCell::deserialize(&mut pd).ok()?;
        if !pd.is_empty() {
            return None;
        }
        Some(cell)
    }
}

/// A point-in-time snapshot of the store's accounting (diagnostics and
/// the `store.*` gauges exported through dvs-obs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Cell files currently tracked by the index.
    pub cells: usize,
    /// Total bytes of tracked cell files (the value the cap bounds).
    pub bytes: u64,
    /// Cell files evicted to stay under the cap, since open.
    pub evictions: u64,
    /// Foreign-key filename collisions encountered on save, since open.
    pub collisions: u64,
    /// Stale temp files swept, since open.
    pub tmp_swept: u64,
}

impl StoreStats {
    /// Exports the accounting as the `store.{bytes,cells,evictions,
    /// collisions,tmp_swept}` gauges. Gauges, not counters: the values
    /// depend on disk history (prior runs, crashes, peer processes),
    /// which belongs in the volatile section of a snapshot.
    pub fn export(&self, rec: &dyn Recorder) {
        rec.gauge("store.bytes", self.bytes);
        rec.gauge("store.cells", self.cells as u64);
        rec.gauge("store.evictions", self.evictions);
        rec.gauge("store.collisions", self.collisions);
        rec.gauge("store.tmp_swept", self.tmp_swept);
    }
}

/// Outcome of a structural [`ResultStore::audit`] over every cell file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreAudit {
    /// Cell files that parse completely (magic, key, payload, checksum).
    pub intact: usize,
    /// Cell-named files that are truncated or corrupt.
    pub corrupt: Vec<String>,
    /// Temp files present in the directory.
    pub tmp: usize,
}

/// One tracked cell file; `entries` keeps these in least-recently-used
/// order (front = coldest).
#[derive(Debug, Clone)]
struct IndexEntry {
    name: String,
    bytes: u64,
}

/// Shared mutable state of one store: every clone of a [`ResultStore`]
/// (a node's coordinator, its cluster worker, the evaluators) sees one
/// index, one byte total and one set of counters.
#[derive(Debug, Default)]
struct Inner {
    entries: Vec<IndexEntry>,
    total_bytes: u64,
    max_bytes: Option<u64>,
    evictions: u64,
    collisions: u64,
    tmp_swept: u64,
}

impl Inner {
    /// Moves `name` to the hot end, inserting it (with `bytes`) when a
    /// peer process wrote it behind our back.
    fn touch(&mut self, name: &str, bytes: u64) {
        match self.entries.iter().position(|e| e.name == name) {
            Some(i) => {
                let mut e = self.entries.remove(i);
                self.total_bytes = self.total_bytes.saturating_sub(e.bytes) + bytes;
                e.bytes = bytes;
                self.entries.push(e);
            }
            None => {
                self.total_bytes += bytes;
                self.entries.push(IndexEntry {
                    name: name.to_string(),
                    bytes,
                });
            }
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            cells: self.entries.len(),
            bytes: self.total_bytes,
            evictions: self.evictions,
            collisions: self.collisions,
            tmp_swept: self.tmp_swept,
        }
    }
}

/// A directory of per-cell result files, optionally bounded in size.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
    inner: Arc<Mutex<Inner>>,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`: sweeps temp
    /// files stranded by dead processes, then loads the sidecar access
    /// index (rebuilding it from a directory scan when missing, corrupt
    /// or stale).
    ///
    /// # Errors
    ///
    /// Returns the error of creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut inner = Inner {
            tmp_swept: sweep_stale_tmps(&dir),
            ..Inner::default()
        };
        inner.entries = read_index(&dir).unwrap_or_default();
        let store = ResultStore {
            dir,
            inner: Arc::new(Mutex::new(inner)),
        };
        store.reconcile(&mut store.lock());
        Ok(store)
    }

    /// Opens the default store: `$DVS_RESULT_STORE` if set, otherwise
    /// `target/dvs-result-store` under the current directory.
    ///
    /// # Errors
    ///
    /// Returns the error of creating the directory.
    pub fn open_default() -> io::Result<Self> {
        ResultStore::open(Self::default_dir())
    }

    /// The directory [`ResultStore::open_default`] would use.
    pub fn default_dir() -> PathBuf {
        std::env::var_os(STORE_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target").join("dvs-result-store"))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Caps the total bytes of cell files; enforced by LRU eviction on
    /// every save (call [`ResultStore::compact`] to enforce immediately).
    /// The cap is shared by every clone of this store. Eviction never
    /// changes results — an evicted cell is just a store miss.
    #[must_use]
    pub fn with_max_bytes(self, max_bytes: u64) -> Self {
        self.set_max_bytes(Some(max_bytes));
        self
    }

    /// Sets (or clears) the size cap on an already-shared store.
    pub fn set_max_bytes(&self, max_bytes: Option<u64>) {
        self.lock().max_bytes = max_bytes;
    }

    /// The configured size cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.lock().max_bytes
    }

    /// A snapshot of the store's accounting.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Base (probe slot 0) path of a key — where its cell lives absent
    /// collisions. Tests address files through this.
    #[cfg(test)]
    fn file_for(&self, key_bytes: &[u8]) -> PathBuf {
        self.dir.join(cell_name(fnv1a(key_bytes), 0))
    }

    /// Loads a cell, or `None` when absent, keyed differently, corrupt,
    /// truncated or evicted — every miss mode means "recompute". Follows
    /// the collision probe chain, and refreshes the cell's position in
    /// the access order on a hit.
    pub fn load(&self, key: &StoreKey) -> Option<StoredCell> {
        let key_bytes = key.to_bytes();
        let hash = fnv1a(&key_bytes);
        let mut missing = 0u32;
        for n in 0..=MAX_PROBES {
            let name = cell_name(hash, n);
            let raw = match fs::read(self.dir.join(&name)) {
                Ok(raw) => raw,
                Err(_) => {
                    missing += 1;
                    if missing > HOLE_TOLERANCE {
                        return None;
                    }
                    continue;
                }
            };
            missing = 0;
            if let Some(cell) = decode_cell(&raw, &key_bytes) {
                self.lock().touch(&name, raw.len() as u64);
                return Some(cell);
            }
        }
        None
    }

    /// Persists a cell atomically (write to a temp file, then rename),
    /// diverting along the probe chain when the base name is occupied by
    /// a different key, then enforces the size cap by evicting the
    /// least-recently-used cells.
    ///
    /// # Errors
    ///
    /// Returns the underlying filesystem error of the cell write itself;
    /// index persistence and eviction are best-effort.
    pub fn save(&self, key: &StoreKey, cell: &StoredCell) -> io::Result<()> {
        let key_bytes = key.to_bytes();
        let hash = fnv1a(&key_bytes);
        let mut payload = Serializer::new();
        cell.serialize(&mut payload);
        let payload = payload.into_bytes();
        let mut s = Serializer::new();
        s.write_bytes(MAGIC);
        s.write_bytes(&key_bytes);
        s.write_bytes(&payload);
        s.write_u64(fnv1a(&payload));

        // Slot choice: an existing file embedding OUR key is refreshed in
        // place; a foreign key diverts us down the chain; a missing or
        // corrupt file is claimable. First claimable slot wins when no
        // exact slot exists.
        let mut claimable: Option<String> = None;
        let mut target: Option<String> = None;
        let mut collisions = 0u64;
        let mut missing = 0u32;
        for n in 0..=MAX_PROBES {
            let name = cell_name(hash, n);
            match fs::read(self.dir.join(&name)) {
                Err(_) => {
                    claimable.get_or_insert(name);
                    missing += 1;
                    if missing > HOLE_TOLERANCE {
                        break;
                    }
                }
                Ok(raw) => {
                    missing = 0;
                    match embedded_key(&raw) {
                        Some(k) if k == key_bytes => {
                            target = Some(name);
                            break;
                        }
                        Some(_) => collisions += 1, // aliased slot: probe on
                        None => {
                            claimable.get_or_insert(name); // corrupt: reclaim
                        }
                    }
                }
            }
        }
        let name =
            target.unwrap_or_else(|| claimable.unwrap_or_else(|| cell_name(hash, MAX_PROBES)));

        let path = self.dir.join(&name);
        // Unique per process AND per save: two threads of one process
        // racing the same cell must not interleave writes to one temp
        // file (their renames still race, but each renames a complete,
        // identical image — determinism makes last-writer-wins safe).
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        fs::write(&tmp, s.as_bytes())?;
        fs::rename(&tmp, &path)?;

        let mut inner = self.lock();
        inner.collisions += collisions;
        inner.touch(&name, s.as_bytes().len() as u64);
        self.evict_over_cap(&mut inner, Some(&name));
        write_index(&self.dir, &inner.entries);
        Ok(())
    }

    /// Explicit maintenance pass: sweeps stale temp files, reconciles the
    /// index with the directory (peer processes may have added or evicted
    /// cells), enforces the size cap, and persists the index.
    ///
    /// # Errors
    ///
    /// Returns the error of reading the directory.
    pub fn compact(&self) -> io::Result<StoreStats> {
        let swept = sweep_stale_tmps(&self.dir);
        let mut inner = self.lock();
        inner.tmp_swept += swept;
        self.reconcile(&mut inner);
        self.evict_over_cap(&mut inner, None);
        write_index(&self.dir, &inner.entries);
        Ok(inner.stats())
    }

    /// Structurally validates every cell file: magic, embedded key
    /// framing, payload checksum. A crash-durability check — a correctly
    /// functioning store never exposes a partial or torn cell file,
    /// whatever happens to its writers.
    ///
    /// # Errors
    ///
    /// Returns the error of reading the directory.
    pub fn audit(&self) -> io::Result<StoreAudit> {
        let mut audit = StoreAudit::default();
        for entry in fs::read_dir(&self.dir)? {
            let entry = match entry {
                Ok(e) => e,
                Err(_) => continue,
            };
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.contains(".tmp.") {
                audit.tmp += 1;
                continue;
            }
            if parse_cell_name(&name).is_none() {
                continue;
            }
            let intact = fs::read(entry.path())
                .ok()
                .and_then(|raw| {
                    let key = embedded_key(&raw)?.to_vec();
                    decode_cell(&raw, &key)
                })
                .is_some();
            if intact {
                audit.intact += 1;
            } else {
                audit.corrupt.push(name);
            }
        }
        audit.corrupt.sort();
        Ok(audit)
    }

    /// Number of cell files currently present (diagnostics). Counts only
    /// names of the form `cell-<16 hex>[-<n>].bin` — the sidecar index
    /// and foreign files in the directory are not cells.
    ///
    /// # Errors
    ///
    /// Returns the error of reading the directory.
    pub fn cell_count(&self) -> io::Result<usize> {
        Ok(fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter(|e| parse_cell_name(&e.file_name().to_string_lossy()).is_some())
            .count())
    }

    /// Rebuilds index membership and sizes from a directory scan, keeping
    /// the known recency order for files that still exist and appending
    /// unknown files (peer-process writes) in modification-time order.
    fn reconcile(&self, inner: &mut Inner) {
        let mut on_disk: Vec<(String, u64, SystemTime)> = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                let name = entry.file_name().to_string_lossy().into_owned();
                if parse_cell_name(&name).is_none() {
                    continue;
                }
                if let Ok(meta) = entry.metadata() {
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    on_disk.push((name, meta.len(), mtime));
                }
            }
        }
        let mut keep = Vec::with_capacity(on_disk.len());
        for e in inner.entries.drain(..) {
            if let Some(i) = on_disk.iter().position(|(n, _, _)| *n == e.name) {
                let (name, bytes, _) = on_disk.swap_remove(i);
                keep.push(IndexEntry { name, bytes });
            }
        }
        // Files the index did not know about: order among themselves by
        // mtime (ties by name, for determinism), newest last.
        on_disk.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        keep.extend(
            on_disk
                .into_iter()
                .map(|(name, bytes, _)| IndexEntry { name, bytes }),
        );
        inner.total_bytes = keep.iter().map(|e| e.bytes).sum();
        inner.entries = keep;
    }

    /// Evicts coldest-first until the byte total fits the cap. The file
    /// just written (`protect`) is never evicted, even when it alone
    /// exceeds the cap — a store must be able to hold at least the cell
    /// it was asked to persist.
    fn evict_over_cap(&self, inner: &mut Inner, protect: Option<&str>) {
        let Some(cap) = inner.max_bytes else {
            return;
        };
        let mut i = 0;
        while inner.total_bytes > cap && i < inner.entries.len() {
            if protect == Some(inner.entries[i].name.as_str()) {
                i += 1;
                continue;
            }
            let victim = inner.entries.remove(i);
            match fs::remove_file(self.dir.join(&victim.name)) {
                Ok(()) => inner.evictions += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {} // peer got there first
                Err(_) => {
                    // Undeletable: keep tracking it and move on, or the
                    // loop would spin on the same victim.
                    inner.entries.insert(i, victim);
                    i += 1;
                    continue;
                }
            }
            inner.total_bytes = inner.total_bytes.saturating_sub(victim.bytes);
        }
    }
}

/// The file name of probe slot `n` for key hash `hash`.
fn cell_name(hash: u64, probe: u32) -> String {
    if probe == 0 {
        format!("cell-{hash:016x}.bin")
    } else {
        format!("cell-{hash:016x}-{probe}.bin")
    }
}

/// Parses a cell file name of the form `cell-<16 hex>[-<n>].bin` into
/// (hash, probe slot). Anything else — `index.bin`, temp files, foreign
/// junk — is not a cell.
fn parse_cell_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("cell-")?.strip_suffix(".bin")?;
    let (hex, probe) = match rest.split_once('-') {
        Some((hex, probe)) => (hex, Some(probe)),
        None => (rest, None),
    };
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let hash = u64::from_str_radix(hex, 16).ok()?;
    let slot = match probe {
        None => 0,
        // Probe slots are 1-based and rendered without leading zeros.
        Some(p) if !p.is_empty() && !p.starts_with('0') && p.len() <= 3 => {
            p.parse::<u32>().ok().filter(|&n| n >= 1)?
        }
        Some(_) => return None,
    };
    Some((hash, slot))
}

/// The serialized key embedded in a cell file image, if the framing up to
/// it is intact.
fn embedded_key(raw: &[u8]) -> Option<&[u8]> {
    let mut d = Deserializer::new(raw);
    if d.read_bytes().ok()? != MAGIC {
        return None;
    }
    d.read_bytes().ok()
}

/// Fully validates and decodes a cell file image against `key_bytes`.
fn decode_cell(raw: &[u8], key_bytes: &[u8]) -> Option<StoredCell> {
    let mut d = Deserializer::new(raw);
    if d.read_bytes().ok()? != MAGIC {
        return None;
    }
    if d.read_bytes().ok()? != key_bytes {
        return None;
    }
    let payload = d.read_bytes().ok()?;
    let checksum = d.read_u64().ok()?;
    if !d.is_empty() || fnv1a(payload) != checksum {
        return None; // trailing garbage or bit rot — treat as corrupt
    }
    let mut pd = Deserializer::new(payload);
    let cell = StoredCell::deserialize(&mut pd).ok()?;
    if !pd.is_empty() {
        return None;
    }
    Some(cell)
}

/// Removes temp files stranded by processes that no longer exist and
/// returns how many were swept. Live processes' in-flight temp files
/// (including our own) are left alone.
fn sweep_stale_tmps(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some((_, rest)) = name.split_once(".tmp.") else {
            continue;
        };
        let pid = rest.split('.').next().and_then(|p| p.parse::<u32>().ok());
        let stale = match pid {
            Some(pid) => !pid_alive(pid),
            None => true, // unparseable temp name: nothing owns it
        };
        if stale && fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Whether `pid` names a live process. On non-Linux targets (no `/proc`)
/// foreign temp files are presumed stale; a swept live writer's rename
/// fails and that save degrades to a recompute, never to wrong data.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).is_dir()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Reads the sidecar index; `None` when missing, corrupt, or containing
/// non-cell names (any of which means: rebuild from a directory scan).
fn read_index(dir: &Path) -> Option<Vec<IndexEntry>> {
    let raw = fs::read(dir.join(INDEX_FILE)).ok()?;
    let mut d = Deserializer::new(&raw);
    let payload = d.read_bytes().ok()?;
    let checksum = d.read_u64().ok()?;
    if !d.is_empty() || fnv1a(payload) != checksum {
        return None;
    }
    let mut pd = Deserializer::new(payload);
    if pd.read_bytes().ok()? != INDEX_MAGIC {
        return None;
    }
    let count = pd.read_u64().ok()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let name = String::from_utf8(pd.read_bytes().ok()?.to_vec()).ok()?;
        let bytes = pd.read_u64().ok()?;
        parse_cell_name(&name)?;
        entries.push(IndexEntry { name, bytes });
    }
    if !pd.is_empty() {
        return None;
    }
    Some(entries)
}

/// Persists the access-order index atomically. Best-effort: the index is
/// a cache of a cache (rebuilt from a scan when absent), so failures are
/// swallowed rather than failing the save that triggered them.
fn write_index(dir: &Path, entries: &[IndexEntry]) {
    let mut payload = Serializer::new();
    payload.write_bytes(INDEX_MAGIC);
    payload.write_u64(entries.len() as u64);
    for e in entries {
        payload.write_bytes(e.name.as_bytes());
        payload.write_u64(e.bytes);
    }
    let payload = payload.into_bytes();
    let mut s = Serializer::new();
    s.write_bytes(&payload);
    s.write_u64(fnv1a(&payload));
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!("index.tmp.{}.{seq}", std::process::id()));
    if fs::write(&tmp, s.as_bytes()).is_ok() && fs::rename(&tmp, dir.join(INDEX_FILE)).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// FNV-1a over the key bytes; used only to derive file names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_sram::MilliVolts;

    fn temp_store(tag: &str) -> ResultStore {
        let dir = temp_dir(tag);
        ResultStore::open(dir).expect("temp store")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dvs-store-unit-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(cfg: &EvalConfig) -> StoreKey {
        key_at(cfg, 440)
    }

    fn key_at(cfg: &EvalConfig, vcc_mv: u32) -> StoreKey {
        StoreKey::for_cell(
            cfg,
            &CoreConfig::dsn2016(),
            &CacheGeometry::dsn_l1(),
            &CellKey::new(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(vcc_mv)),
        )
    }

    fn sample_cell() -> StoredCell {
        StoredCell {
            failed_links: 2,
            trials: Vec::new(),
        }
    }

    #[test]
    fn save_then_load_round_trips() {
        let store = temp_store("roundtrip");
        let cfg = EvalConfig::quick();
        let k = key(&cfg);
        assert!(store.load(&k).is_none());
        store.save(&k, &sample_cell()).unwrap();
        assert_eq!(store.load(&k).unwrap(), sample_cell());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn any_config_field_change_misses() {
        let store = temp_store("invalidate");
        let cfg = EvalConfig::quick();
        store.save(&key(&cfg), &sample_cell()).unwrap();
        for changed in [
            EvalConfig {
                trace_instrs: cfg.trace_instrs + 1,
                ..cfg
            },
            EvalConfig {
                maps: cfg.maps + 1,
                ..cfg
            },
            EvalConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
            EvalConfig {
                bbr_max_block_words: Some(12),
                ..cfg
            },
            EvalConfig {
                fault_model: FaultModel::clustered(),
                ..cfg
            },
        ] {
            assert!(
                store.load(&key(&changed)).is_none(),
                "{changed:?} should miss"
            );
        }
        // Thread count is NOT part of the key: results do not depend on it.
        let threads = EvalConfig {
            threads: cfg.threads + 3,
            ..cfg
        };
        assert!(store.load(&key(&threads)).is_some());
        // Neither is the store size cap: eviction makes misses, not
        // different results, so capped and unbounded stores share cells.
        let capped = EvalConfig {
            store_max_bytes: Some(1 << 20),
            ..cfg
        };
        assert!(store.load(&key(&capped)).is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn models_get_distinct_store_files() {
        // Cross-model isolation: the same cell under different fault
        // models must map to different file names, so a campaign under
        // one model can never serve cached results to another.
        let store = temp_store("models");
        let cfg = EvalConfig::quick();
        let mut names = std::collections::HashSet::new();
        for model in FaultModel::ALL {
            let k = key(&EvalConfig {
                fault_model: model,
                ..cfg
            });
            assert!(names.insert(store.file_for(&k.to_bytes())));
        }
        assert_eq!(names.len(), FaultModel::ALL.len());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stored_cell_wire_round_trips_and_rejects_corruption() {
        let cell = sample_cell();
        let bytes = cell.to_bytes();
        assert_eq!(StoredCell::from_bytes(&bytes), Some(cell));
        // Truncation, bit rot and trailing garbage all decode to None.
        assert_eq!(StoredCell::from_bytes(&bytes[..bytes.len() - 1]), None);
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        assert_eq!(StoredCell::from_bytes(&flipped), None);
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(StoredCell::from_bytes(&padded), None);
        assert_eq!(StoredCell::from_bytes(b""), None);
    }

    #[test]
    fn corrupt_files_read_as_misses() {
        let store = temp_store("corrupt");
        let cfg = EvalConfig::quick();
        let k = key(&cfg);
        store.save(&k, &sample_cell()).unwrap();
        let file = store.file_for(&k.to_bytes());

        // Truncation.
        let full = fs::read(&file).unwrap();
        fs::write(&file, &full[..full.len() - 1]).unwrap();
        assert!(store.load(&k).is_none());

        // Flipped payload byte (magic + key intact, checksum mismatch).
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        fs::write(&file, &flipped).unwrap();
        assert!(store.load(&k).is_none());

        // Garbage.
        fs::write(&file, b"not a store file").unwrap();
        assert!(store.load(&k).is_none());

        // A save repairs the slot.
        store.save(&k, &sample_cell()).unwrap();
        assert_eq!(store.load(&k).unwrap(), sample_cell());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn cell_names_parse_strictly() {
        assert_eq!(
            parse_cell_name("cell-0123456789abcdef.bin"),
            Some((0x0123_4567_89ab_cdef, 0))
        );
        assert_eq!(
            parse_cell_name("cell-0123456789abcdef-2.bin"),
            Some((0x0123_4567_89ab_cdef, 2))
        );
        for junk in [
            "index.bin",
            "cell-0123456789abcdef-0.bin", // slot 0 has no suffix
            "cell-0123456789abcdef-01.bin",
            "cell-0123456789abcde.bin",   // 15 hex digits
            "cell-0123456789abcdef0.bin", // 17 hex digits
            "cell-0123456789abcdeg.bin",  // non-hex
            "cell-0123456789abcdef.bin.bak",
            "cell-0123456789abcdef.tmp.1.2",
            "notes.bin",
            "cell-.bin",
        ] {
            assert_eq!(parse_cell_name(junk), None, "{junk}");
        }
    }

    #[test]
    fn cell_count_ignores_index_and_foreign_files() {
        let store = temp_store("count");
        let cfg = EvalConfig::quick();
        store.save(&key_at(&cfg, 440), &sample_cell()).unwrap();
        store.save(&key_at(&cfg, 480), &sample_cell()).unwrap();
        // Decoys: the sidecar index (written by save), foreign junk with
        // a .bin suffix, and near-miss cell names.
        fs::write(store.dir().join("foreign.bin"), b"junk").unwrap();
        fs::write(store.dir().join("cell-xyz.bin"), b"junk").unwrap();
        fs::write(store.dir().join("cell-0123456789abcdef-0.bin"), b"junk").unwrap();
        assert!(store.dir().join(INDEX_FILE).exists());
        assert_eq!(store.cell_count().unwrap(), 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open_and_live_ones_kept() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        // Orphans from a "crashed" process: a pid beyond any OS pid_max
        // can never be alive.
        let dead = u32::MAX;
        fs::write(dir.join(format!("cell-{:016x}.tmp.{dead}.0", 7u64)), b"x").unwrap();
        fs::write(dir.join(format!("index.tmp.{dead}.3")), b"x").unwrap();
        fs::write(dir.join("cell-junk.tmp.not-a-pid"), b"x").unwrap();
        // An in-flight temp file of THIS process must survive the sweep.
        let live = dir.join(format!("cell-{:016x}.tmp.{}.9", 8u64, std::process::id()));
        fs::write(&live, b"x").unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.stats().tmp_swept, 3);
        assert!(live.exists(), "live temp file must not be swept");
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp.") && !n.ends_with(".9"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_hashes_divert_to_a_probe_chain() {
        let store = temp_store("collide");
        let cfg = EvalConfig::quick();
        let ours = key_at(&cfg, 440);
        let foreign = key_at(&cfg, 480);

        // Inject a collision: plant the FOREIGN key's file at OUR key's
        // base slot, exactly as if both keys hashed to one file name.
        store.save(&foreign, &sample_cell()).unwrap();
        fs::rename(
            store.file_for(&foreign.to_bytes()),
            store.file_for(&ours.to_bytes()),
        )
        .unwrap();

        // Before the fix, this save overwrote the foreign file and both
        // keys thrashed forever. Now it diverts to the -1 slot...
        let cell = StoredCell {
            failed_links: 9,
            trials: Vec::new(),
        };
        store.save(&ours, &cell).unwrap();
        assert!(store.stats().collisions >= 1);
        let hash = fnv1a(&ours.to_bytes());
        assert!(store.dir().join(cell_name(hash, 1)).exists());

        // ...the foreign occupant is untouched, and load follows the
        // chain to our cell.
        assert_eq!(
            embedded_key(&fs::read(store.file_for(&ours.to_bytes())).unwrap()),
            Some(foreign.to_bytes().as_slice())
        );
        assert_eq!(store.load(&ours), Some(cell.clone()));

        // A re-save refreshes the diverted slot in place, not a new one.
        store.save(&ours, &cell).unwrap();
        assert_eq!(store.cell_count().unwrap(), 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_tolerates_eviction_holes_in_a_probe_chain() {
        let store = temp_store("chain-hole");
        let cfg = EvalConfig::quick();
        let ours = key_at(&cfg, 440);
        let hash = fnv1a(&ours.to_bytes());
        // Place our cell at slot 2 with slots 0 and 1 missing (as
        // eviction would leave them).
        store.save(&ours, &sample_cell()).unwrap();
        fs::rename(
            store.dir().join(cell_name(hash, 0)),
            store.dir().join(cell_name(hash, 2)),
        )
        .unwrap();
        assert_eq!(store.load(&ours), Some(sample_cell()));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn size_cap_evicts_least_recently_used_cells() {
        let store = temp_store("evict");
        let cfg = EvalConfig::quick();
        let (k1, k2, k3) = (key_at(&cfg, 440), key_at(&cfg, 480), key_at(&cfg, 520));

        store.save(&k1, &sample_cell()).unwrap();
        let one_cell = store.stats().bytes;
        assert!(one_cell > 0);
        // Cap at two cells' worth.
        store.set_max_bytes(Some(2 * one_cell));

        store.save(&k2, &sample_cell()).unwrap();
        assert_eq!(store.stats().evictions, 0);

        // Touch k1 so k2 is the coldest, then overflow with k3.
        assert!(store.load(&k1).is_some());
        store.save(&k3, &sample_cell()).unwrap();
        let stats = store.stats();
        assert_eq!(stats.evictions, 1, "{stats:?}");
        assert!(stats.bytes <= 2 * one_cell, "{stats:?}");
        assert!(store.load(&k2).is_none(), "LRU cell must be evicted");
        assert!(store.load(&k1).is_some(), "touched cell must survive");
        assert!(store.load(&k3).is_some(), "just-saved cell must survive");

        // A cap smaller than one cell still keeps the cell just saved.
        store.set_max_bytes(Some(1));
        store.save(&k2, &sample_cell()).unwrap();
        let stats = store.stats();
        assert_eq!(stats.cells, 1, "{stats:?}");
        assert!(store.load(&k2).is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn access_order_survives_reopen_and_index_corruption() {
        let dir = temp_dir("index-reload");
        let cfg = EvalConfig::quick();
        let (k1, k2) = (key_at(&cfg, 440), key_at(&cfg, 480));
        {
            let store = ResultStore::open(&dir).unwrap();
            store.save(&k1, &sample_cell()).unwrap();
            store.save(&k2, &sample_cell()).unwrap();
        }
        // A fresh open loads the persisted index: same cells, same bytes.
        let reopened = ResultStore::open(&dir).unwrap();
        let stats = reopened.stats();
        assert_eq!(stats.cells, 2);
        assert!(stats.bytes > 0);
        assert!(reopened.load(&k1).is_some());

        // Vandalized index: the open rebuilds it from a directory scan.
        fs::write(dir.join(INDEX_FILE), b"rotten").unwrap();
        let rebuilt = ResultStore::open(&dir).unwrap();
        assert_eq!(rebuilt.stats().cells, 2);
        assert_eq!(rebuilt.stats().bytes, stats.bytes);
        assert!(rebuilt.load(&k2).is_some());

        // Missing index likewise.
        fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let rescanned = ResultStore::open(&dir).unwrap();
        assert_eq!(rescanned.stats().cells, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_enforces_the_cap_and_sweeps_debris() {
        let dir = temp_dir("compact");
        let cfg = EvalConfig::quick();
        {
            let store = ResultStore::open(&dir).unwrap();
            for vcc in [440, 480, 520, 560] {
                store.save(&key_at(&cfg, vcc), &sample_cell()).unwrap();
            }
        }
        // Plant a stranded temp file and reopen over-cap.
        fs::write(
            dir.join(format!("cell-{:016x}.tmp.{}.0", 1u64, u32::MAX)),
            b"x",
        )
        .unwrap();
        let store = ResultStore::open(&dir).unwrap();
        let full = store.stats().bytes;
        store.set_max_bytes(Some(full / 2));
        let stats = store.compact().unwrap();
        assert!(stats.bytes <= full / 2, "{stats:?}");
        assert!(stats.evictions >= 1, "{stats:?}");
        assert_eq!(stats.tmp_swept, 1, "{stats:?}");
        assert_eq!(stats.cells, store.cell_count().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_share_one_index_and_one_cap() {
        let store = temp_store("clones");
        let clone = store.clone();
        let cfg = EvalConfig::quick();
        clone.save(&key(&cfg), &sample_cell()).unwrap();
        assert_eq!(store.stats().cells, 1);
        store.set_max_bytes(Some(123));
        assert_eq!(clone.max_bytes(), Some(123));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn audit_distinguishes_intact_from_corrupt_cells() {
        let store = temp_store("audit");
        let cfg = EvalConfig::quick();
        store.save(&key_at(&cfg, 440), &sample_cell()).unwrap();
        store.save(&key_at(&cfg, 480), &sample_cell()).unwrap();
        let audit = store.audit().unwrap();
        assert_eq!(audit.intact, 2);
        assert!(audit.corrupt.is_empty());

        let victim = store.file_for(&key_at(&cfg, 440).to_bytes());
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let audit = store.audit().unwrap();
        assert_eq!(audit.intact, 1);
        assert_eq!(audit.corrupt.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }
}
