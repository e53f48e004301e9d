//! The coordinator: the one campaign state machine, behind one lock.
//!
//! Every `dvs-serve` node runs one. A `--cluster` node leases its units to
//! remote workers over HTTP; every other node leases them to its
//! in-process lane ([`crate::worker::spawn_lane`]) by direct call. Either
//! way a campaign is admitted, leased, completed, failed, drained and
//! rendered here, by the same code.
//!
//! The lease transitions take the current [`Instant`] as an argument
//! instead of reading the clock, so unit tests drive lease expiry, retry
//! backoff and work stealing by passing fabricated times — no sleeping.
//! The serve layer passes `Instant::now()`; expiry is evaluated lazily at
//! the top of `lease`, `heartbeat` and the status accessors, so no
//! background reaper thread is needed.
//!
//! Correctness argument for duplicate dispatch: a cell is a pure
//! function of its [`StoreKey`], so any two workers computing the same
//! unit produce bit-identical [`StoredCell`]s. The coordinator keeps the
//! first result it sees and counts later ones as duplicates — losing a
//! race never loses information.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dvs_core::{
    CancelToken, CellKey, EvalConfig, ExperimentPlan, ResultStore, StoreKey, StoredCell,
};
use dvs_cpu::CoreConfig;
use dvs_obs::{MetricsRegistry, Recorder};
use dvs_sram::CacheGeometry;

use crate::proto::{cell_error_json, cell_json, stored_cell_result, UnitRef, WireConfig};

/// Concurrent leases per unit at most: the holder and one thief.
const MAX_DUPLICATES: usize = 2;

/// Tuning knobs of the lease protocol and of admission.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// A lease (and a worker registration) expires this long after the
    /// last heartbeat; heartbeats renew every lease the worker holds.
    pub lease_ttl: Duration,
    /// An in-flight unit becomes stealable (eligible for duplicate
    /// dispatch to an idle worker) this long after it was first leased.
    pub steal_after: Duration,
    /// A unit that has failed or expired this many times is terminal.
    pub max_attempts: u32,
    /// Requeue backoff is `retry_backoff * attempts` (linear).
    pub retry_backoff: Duration,
    /// Units granted per `/v1/cluster/lease` call at most. The in-process
    /// lane is not clamped: it takes a whole campaign per plan.
    pub lease_units: usize,
    /// Campaigns that may wait for their first lease at once; past it
    /// [`Coordinator::submit`] refuses with [`SubmitError::QueueFull`].
    pub queue_depth: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            lease_ttl: Duration::from_secs(5),
            steal_after: Duration::from_secs(3),
            max_attempts: 5,
            retry_backoff: Duration::from_millis(500),
            lease_units: 2,
            queue_depth: 8,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// `queue_depth` campaigns already wait (→ 429 + `Retry-After`).
    QueueFull,
    /// The node is draining and refuses new work (→ 503).
    Draining,
}

/// One granted lease, as returned to the leasing worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseGrant {
    /// The unit leased.
    pub unit: UnitRef,
    /// The cell to compute.
    pub key: CellKey,
    /// The result-relevant config to compute it under.
    pub wire: WireConfig,
    /// Whether this grant duplicates a still-live lease (work stealing).
    pub stolen: bool,
}

/// Registration status of one worker.
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// Worker id.
    pub id: u64,
    /// Self-reported name.
    pub name: String,
    /// Whether the worker is currently considered alive.
    pub alive: bool,
    /// Units this worker completed first.
    pub units_done: u64,
}

#[derive(Debug)]
struct Lease {
    worker: u64,
    expires_at: Instant,
}

#[derive(Debug)]
enum UnitState {
    /// Waiting to be leased; `available_at` implements retry backoff.
    Pending { available_at: Option<Instant> },
    /// Leased since `since` (this attempt's first grant) to one worker,
    /// or to two once stolen.
    Leased { since: Instant, leases: Vec<Lease> },
    /// Computed (possibly with zero surviving trials — all links failed
    /// — which is a result, not an error); holds the rendered cell.
    Completed(Box<str>),
    /// Given up on after `max_attempts`, or cancelled by a drain; holds
    /// the rendered error cell.
    Failed(Box<str>),
}

#[derive(Debug)]
struct Unit {
    key: CellKey,
    attempts: u32,
    state: UnitState,
}

impl Unit {
    fn ready(&self, now: Instant) -> bool {
        matches!(self.state, UnitState::Pending { available_at } if available_at.is_none_or(|at| at <= now))
    }

    /// The rendered cell of a terminal unit.
    fn rendered(&self) -> Option<&str> {
        match &self.state {
            UnitState::Completed(json) | UnitState::Failed(json) => Some(json),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Campaign {
    wire: WireConfig,
    units: Vec<Unit>,
    completed: usize,
    failed: usize,
    /// Whether the campaign still waits for its first lease; it is then
    /// counted in `Inner::queued`.
    waiting: bool,
    /// Whether a drain cut the campaign short.
    cancelled: bool,
}

impl Campaign {
    fn finished(&self) -> bool {
        self.completed + self.failed == self.units.len()
    }

    /// The campaign's state, derived here and nowhere else.
    fn state(&self) -> &'static str {
        if self.cancelled {
            "cancelled"
        } else if self.finished() {
            if self.completed > 0 {
                "complete"
            } else {
                "failed"
            }
        } else if self.waiting {
            "queued"
        } else {
            "running"
        }
    }

    /// Moves unit `index` to a terminal state (a late result may flip
    /// `Failed` to `Completed`); returns whether that finished the
    /// campaign.
    fn settle(&mut self, index: usize, state: UnitState) -> bool {
        let was_finished = self.finished();
        let unit = &mut self.units[index];
        match unit.state {
            UnitState::Completed(_) => self.completed -= 1,
            UnitState::Failed(_) => self.failed -= 1,
            _ => {}
        }
        match state {
            UnitState::Completed(_) => self.completed += 1,
            _ => self.failed += 1,
        }
        unit.state = state;
        !was_finished && self.finished()
    }

    /// Renders the status document: `id`, `state`, `cells_total`,
    /// `cells_done`, `cells_failed`, and once finished (and asked for)
    /// the `results` array in plan order.
    fn render(&self, id: u64, with_results: bool, out: &mut String) {
        out.push_str(&format!(
            "{{\"id\":{id},\"state\":\"{}\",\"cells_total\":{},\"cells_done\":{},\
             \"cells_failed\":{}",
            self.state(),
            self.units.len(),
            self.completed + self.failed,
            self.failed,
        ));
        if with_results && self.finished() {
            out.push_str(",\"results\":[");
            for (i, cell) in self.units.iter().filter_map(Unit::rendered).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(cell);
            }
            out.push(']');
        }
        out.push('}');
    }
}

#[derive(Debug)]
struct WorkerSlot {
    name: String,
    last_seen: Instant,
    alive: bool,
    units_done: u64,
}

#[derive(Debug, Default)]
struct Inner {
    next_worker: u64,
    workers: BTreeMap<u64, WorkerSlot>,
    next_campaign: u64,
    campaigns: BTreeMap<u64, Campaign>,
    /// Campaigns waiting for their first lease.
    queued: usize,
    draining: bool,
}

/// A node's campaign state. Shared between the HTTP routes and the
/// in-process lane via `Arc`; one mutex guards everything (transitions
/// are cheap — simulation happens in the lane or on workers).
#[derive(Debug)]
pub struct Coordinator {
    cfg: ClusterConfig,
    base: EvalConfig,
    store: Option<ResultStore>,
    registry: Arc<MetricsRegistry>,
    inner: Mutex<Inner>,
    /// Signalled when a unit may have become ready (a submission, a
    /// requeue) and when a drain begins; the in-process lane waits on it.
    work: Condvar,
    /// Cancelled by a drain; the in-process lane's evaluations observe it.
    cancel: CancelToken,
}

impl Coordinator {
    /// Creates a coordinator. `base` supplies the engine configuration
    /// campaigns are resolved against; `store` (when present) pre-resolves
    /// submitted cells, persists computed ones and answers point queries.
    pub fn new(
        cfg: ClusterConfig,
        base: EvalConfig,
        store: Option<ResultStore>,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        Coordinator {
            cfg,
            base,
            store,
            registry,
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            cancel: CancelToken::new(),
        }
    }

    /// The protocol knobs.
    pub fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The engine configuration campaigns are resolved against.
    pub fn base(&self) -> &EvalConfig {
        &self.base
    }

    /// The token a drain cancels.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("coordinator lock poisoned")
    }

    fn store_key(&self, wire: &WireConfig, key: &CellKey) -> StoreKey {
        // The StoreKey excludes every non-result-relevant field, so
        // applying the wire config over *any* base yields the same key;
        // using the coordinator's own base is purely for convenience.
        StoreKey::for_cell(
            &wire.apply(&self.base),
            &CoreConfig::dsn2016(),
            &CacheGeometry::dsn_l1(),
            key,
        )
    }

    /// The stored result of `key` under `wire`, straight from the store:
    /// a point query never recomputes.
    pub fn load(&self, wire: &WireConfig, key: &CellKey) -> Option<StoredCell> {
        self.store.as_ref()?.load(&self.store_key(wire, key))
    }

    /// Registers a worker and returns its id.
    pub fn join(&self, name: &str, now: Instant) -> u64 {
        let mut inner = self.lock();
        inner.next_worker += 1;
        let id = inner.next_worker;
        inner.workers.insert(
            id,
            WorkerSlot {
                name: name.to_string(),
                last_seen: now,
                alive: true,
                units_done: 0,
            },
        );
        self.registry.add("cluster.workers.joined", 1);
        self.registry.gauge(
            "cluster.workers.alive",
            inner.workers.values().filter(|w| w.alive).count() as u64,
        );
        id
    }

    /// Renews a worker's registration and every lease it holds.
    ///
    /// # Errors
    ///
    /// When the worker is unknown or already declared dead — the worker
    /// must rejoin (its leases have been requeued).
    pub fn heartbeat(&self, worker: u64, now: Instant) -> Result<(), String> {
        let mut inner = self.lock();
        self.expire(&mut inner, now);
        let slot = inner
            .workers
            .get_mut(&worker)
            .filter(|w| w.alive)
            .ok_or_else(|| format!("unknown or expired worker {worker}"))?;
        slot.last_seen = now;
        let mut renewed = 0u64;
        for unit in inner
            .campaigns
            .values_mut()
            .filter(|c| !c.finished())
            .flat_map(|c| &mut c.units)
        {
            if let UnitState::Leased { leases, .. } = &mut unit.state {
                for lease in leases.iter_mut().filter(|l| l.worker == worker) {
                    lease.expires_at = now + self.cfg.lease_ttl;
                    renewed += 1;
                }
            }
        }
        if renewed > 0 {
            self.registry.add("cluster.leases.renewed", renewed);
        }
        Ok(())
    }

    fn admit(&self, inner: &Inner) -> Result<(), SubmitError> {
        if inner.draining {
            return Err(SubmitError::Draining);
        }
        if inner.queued >= self.cfg.queue_depth {
            self.registry.add("serve.rejected", 1);
            return Err(SubmitError::QueueFull);
        }
        Ok(())
    }

    /// Submits a campaign; returns its id. Cells the store already holds
    /// complete at once without ever being leased; a campaign they settle
    /// entirely is complete on return.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] once a drain has begun,
    /// [`SubmitError::QueueFull`] when `queue_depth` campaigns wait.
    pub fn submit(&self, wire: WireConfig, plan: &ExperimentPlan) -> Result<u64, SubmitError> {
        // Refuse before touching the store, then resolve and render the
        // store hits outside the lock.
        self.admit(&self.lock())?;
        let mut trials_loaded = 0;
        let hits: Vec<Option<Box<str>>> = plan
            .cells()
            .iter()
            .map(|key| {
                let cell = self.load(&wire, key)?;
                trials_loaded += cell.trials.len() as u64 + cell.failed_links;
                Some(cell_json(key, &stored_cell_result(key, cell)).into())
            })
            .collect();
        let mut inner = self.lock();
        self.admit(&inner)?;
        inner.next_campaign += 1;
        let id = inner.next_campaign;
        let mut campaign = Campaign {
            wire,
            units: Vec::with_capacity(plan.len()),
            completed: 0,
            failed: 0,
            waiting: false,
            cancelled: false,
        };
        for (key, hit) in plan.cells().iter().zip(hits) {
            let state = match hit {
                Some(json) => {
                    campaign.completed += 1;
                    UnitState::Completed(json)
                }
                None => UnitState::Pending { available_at: None },
            };
            campaign.units.push(Unit {
                key: *key,
                attempts: 0,
                state,
            });
        }
        self.registry.add("serve.campaigns.submitted", 1);
        let store_hits = campaign.completed as u64;
        if campaign.finished() {
            self.count_finished(&campaign);
        } else {
            campaign.waiting = true;
            inner.queued += 1;
            self.registry
                .gauge("serve.queue.depth", inner.queued as u64);
        }
        inner.campaigns.insert(id, campaign);
        drop(inner);
        self.work.notify_all();
        self.account_store(&[
            ("engine.store.cell_hits", store_hits),
            ("engine.store.trials_loaded", trials_loaded),
            ("engine.store.cell_misses", plan.len() as u64 - store_hits),
        ]);
        Ok(id)
    }

    /// Counts what the store resolved or took under the names an
    /// evaluator with a store writes (a zero count writes nothing), then
    /// exports the store's `store.*` gauges, as the evaluator does after
    /// every plan. Nothing without a store.
    fn account_store(&self, counts: &[(&'static str, u64)]) {
        let Some(store) = &self.store else {
            return;
        };
        for &(name, count) in counts.iter().filter(|(_, count)| *count > 0) {
            self.registry.add(name, count);
        }
        store.stats().export(&*self.registry);
    }

    /// Takes a campaign out of the queue: its first unit was leased (or,
    /// from a stale reference, completed unleased).
    fn dequeue(&self, queued: &mut usize, campaign: &mut Campaign) {
        if campaign.waiting {
            campaign.waiting = false;
            *queued -= 1;
            self.registry.gauge("serve.queue.depth", *queued as u64);
        }
    }

    /// Counts a campaign's one transition to a terminal state.
    fn count_finished(&self, campaign: &Campaign) {
        let name = if campaign.completed > 0 {
            "serve.campaigns.completed"
        } else {
            "serve.campaigns.failed"
        };
        self.registry.add(name, 1);
    }

    /// Grants up to `max_units` units to a worker, all from one campaign,
    /// so one plan runs them under one wire config. Ready units of the
    /// oldest campaign that has any are granted first, in plan order; an
    /// otherwise-idle worker instead *steals* — takes a duplicate lease
    /// on — in-flight units older than [`ClusterConfig::steal_after`],
    /// never its own and never beyond two concurrent leases per unit.
    ///
    /// # Errors
    ///
    /// When the worker is unknown or expired (it must rejoin).
    pub fn lease(
        &self,
        worker: u64,
        max_units: usize,
        now: Instant,
    ) -> Result<Vec<LeaseGrant>, String> {
        let mut guard = self.lock();
        self.expire(&mut guard, now);
        let inner = &mut *guard;
        let slot = inner
            .workers
            .get_mut(&worker)
            .filter(|w| w.alive)
            .ok_or_else(|| format!("unknown or expired worker {worker}"))?;
        slot.last_seen = now;
        let budget = max_units.max(1);
        let expires_at = now + self.cfg.lease_ttl;
        let slow = |u: &Unit| {
            matches!(&u.state, UnitState::Leased { since, leases }
                if now.duration_since(*since) >= self.cfg.steal_after
                    && leases.len() < MAX_DUPLICATES
                    && leases.iter().all(|l| l.worker != worker))
        };
        let mut open = inner.campaigns.iter_mut().filter(|(_, c)| !c.finished());
        let (stolen, (&cid, campaign)) =
            match open.find(|(_, c)| c.units.iter().any(|u| u.ready(now))) {
                Some(found) => (false, found),
                None => {
                    // Idle worker: duplicate-dispatch slow in-flight units.
                    let mut open = inner.campaigns.iter_mut().filter(|(_, c)| !c.finished());
                    match open.find(|(_, c)| c.units.iter().any(&slow)) {
                        Some(found) => (true, found),
                        None => return Ok(Vec::new()),
                    }
                }
            };
        self.dequeue(&mut inner.queued, campaign);
        let wire = campaign.wire;
        let grants: Vec<LeaseGrant> = campaign
            .units
            .iter_mut()
            .enumerate()
            .filter(|(_, u)| if stolen { slow(u) } else { u.ready(now) })
            .take(budget)
            .map(|(index, unit)| {
                let lease = Lease { worker, expires_at };
                match &mut unit.state {
                    UnitState::Leased { leases, .. } => leases.push(lease),
                    state => {
                        *state = UnitState::Leased {
                            since: now,
                            leases: vec![lease],
                        }
                    }
                }
                LeaseGrant {
                    unit: UnitRef {
                        campaign: cid,
                        index,
                    },
                    key: unit.key,
                    wire,
                    stolen,
                }
            })
            .collect();
        let name = if stolen {
            "cluster.leases.stolen"
        } else {
            "cluster.leases.granted"
        };
        self.registry.add(name, grants.len() as u64);
        Ok(grants)
    }

    /// Blocks the in-process lane until a unit is ready to lease or a
    /// drain begins: submissions and requeues signal, and a unit backing
    /// off is waited out to its due time. Never polls.
    pub fn wait_for_work(&self) {
        let mut inner = self.lock();
        while !inner.draining {
            let now = Instant::now();
            let mut due: Option<Instant> = None;
            for unit in inner
                .campaigns
                .values()
                .filter(|c| !c.finished())
                .flat_map(|c| &c.units)
            {
                match unit.state {
                    UnitState::Pending {
                        available_at: Some(at),
                    } if at > now => due = Some(due.map_or(at, |d| d.min(at))),
                    UnitState::Pending { .. } => return,
                    _ => {}
                }
            }
            inner = match due {
                Some(at) => {
                    let waited = self.work.wait_timeout(inner, at - now);
                    waited.expect("coordinator lock poisoned").0
                }
                None => self.work.wait(inner).expect("coordinator lock poisoned"),
            };
        }
    }

    /// Accepts a computed cell. The cell is persisted before the unit is
    /// marked, so a campaign that reads `complete` has every computed cell
    /// in the store already. First writer wins: a duplicate of an
    /// already-completed unit is counted and discarded (determinism
    /// guarantees its bytes were identical anyway). Late results are
    /// accepted from any worker — even one declared dead, for a unit
    /// already marked failed, or for a cancelled campaign — because a
    /// computed result is correct regardless of who delivers it or when.
    ///
    /// # Errors
    ///
    /// When the unit reference does not exist.
    pub fn complete(&self, worker: u64, unit_ref: UnitRef, cell: StoredCell) -> Result<(), String> {
        let (wire, key) = {
            let mut inner = self.lock();
            let campaign = locate(&mut inner.campaigns, unit_ref)?;
            let unit = &campaign.units[unit_ref.index];
            if matches!(unit.state, UnitState::Completed(_)) {
                self.registry.add("cluster.units.duplicate", 1);
                return Ok(());
            }
            (campaign.wire, unit.key)
        };
        // Persist outside the lock: a slow disk must not stall leasing. A
        // duplicate racing this one writes the same bytes.
        let saved = self.store.as_ref().is_some_and(|store| {
            let saved = store.save(&self.store_key(&wire, &key), &cell).is_ok();
            if !saved {
                // A failed save degrades resumability and point queries,
                // not correctness: the rendered result stands.
                self.registry.add("cluster.store.save_errors", 1);
            }
            saved
        });
        self.account_store(&[("engine.store.cell_saves", u64::from(saved))]);
        let json = cell_json(&key, &stored_cell_result(&key, cell));
        let mut inner = self.lock();
        let inner = &mut *inner;
        let campaign = locate(&mut inner.campaigns, unit_ref)?;
        if matches!(
            campaign.units[unit_ref.index].state,
            UnitState::Completed(_)
        ) {
            self.registry.add("cluster.units.duplicate", 1);
            return Ok(());
        }
        self.dequeue(&mut inner.queued, campaign);
        if campaign.settle(unit_ref.index, UnitState::Completed(json.into())) {
            self.count_finished(campaign);
        }
        if let Some(slot) = inner.workers.get_mut(&worker) {
            slot.units_done += 1;
        }
        self.registry.add("cluster.units.completed", 1);
        Ok(())
    }

    /// Records a worker-reported failure of a unit it leased (e.g. an
    /// invariant violation). Drops that worker's lease; when no live
    /// lease remains the unit requeues with backoff, or fails terminally
    /// after [`ClusterConfig::max_attempts`].
    ///
    /// # Errors
    ///
    /// When the unit reference does not exist.
    pub fn fail(
        &self,
        worker: u64,
        unit_ref: UnitRef,
        error: &str,
        now: Instant,
    ) -> Result<(), String> {
        let mut inner = self.lock();
        let campaign = locate(&mut inner.campaigns, unit_ref)?;
        let UnitState::Leased { leases, .. } = &mut campaign.units[unit_ref.index].state else {
            return Ok(()); // settled already, or the lease expired
        };
        leases.retain(|l| l.worker != worker);
        if leases.is_empty() {
            self.requeue(campaign, unit_ref.index, error, now);
        }
        Ok(())
    }

    /// Begins a drain: refuses new submissions, cancels every campaign
    /// that has not finished (its unfinished cells render as error cells)
    /// and cancels the in-process lane's evaluation, which stops at the
    /// next trial boundary. Cells completed afterwards are still accepted
    /// and persisted.
    pub fn drain(&self) {
        let mut inner = self.lock();
        if inner.draining {
            return;
        }
        inner.draining = true;
        inner.queued = 0;
        for campaign in inner.campaigns.values_mut().filter(|c| !c.finished()) {
            campaign.cancelled = true;
            campaign.waiting = false;
            for index in 0..campaign.units.len() {
                if campaign.units[index].rendered().is_none() {
                    let json = cell_error_json(&campaign.units[index].key, "cancelled by a drain");
                    campaign.settle(index, UnitState::Failed(json.into()));
                }
            }
            self.registry.add("serve.campaigns.cancelled", 1);
        }
        self.registry.gauge("serve.queue.depth", 0);
        self.cancel.cancel();
        drop(inner);
        self.work.notify_all();
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Campaigns waiting for their first lease.
    pub fn queue_depth(&self) -> usize {
        self.lock().queued
    }

    /// Lazily applies the passage of time: leases past their expiry are
    /// dropped, units left with no live lease requeue (or fail
    /// terminally), workers silent past the TTL are declared dead.
    /// Finished campaigns hold no lease and are skipped.
    fn expire(&self, inner: &mut Inner, now: Instant) {
        let mut died = 0u64;
        for slot in inner.workers.values_mut() {
            if slot.alive && now.duration_since(slot.last_seen) > self.cfg.lease_ttl {
                slot.alive = false;
                died += 1;
            }
        }
        if died > 0 {
            self.registry.add("cluster.workers.dead", died);
            self.registry.gauge(
                "cluster.workers.alive",
                inner.workers.values().filter(|w| w.alive).count() as u64,
            );
        }
        let mut expired = 0u64;
        for campaign in inner.campaigns.values_mut().filter(|c| !c.finished()) {
            for index in 0..campaign.units.len() {
                let UnitState::Leased { leases, .. } = &mut campaign.units[index].state else {
                    continue;
                };
                let before = leases.len();
                leases.retain(|l| l.expires_at > now);
                expired += (before - leases.len()) as u64;
                if leases.is_empty() {
                    self.requeue(campaign, index, "lease expired", now);
                }
            }
        }
        if expired > 0 {
            self.registry.add("cluster.leases.expired", expired);
        }
    }

    fn requeue(&self, campaign: &mut Campaign, index: usize, error: &str, now: Instant) {
        let unit = &mut campaign.units[index];
        unit.attempts += 1;
        if unit.attempts >= self.cfg.max_attempts {
            let error = format!("{error} ({} attempts exhausted)", unit.attempts);
            let json = cell_error_json(&unit.key, &error);
            self.registry.add("cluster.units.failed", 1);
            if campaign.settle(index, UnitState::Failed(json.into())) {
                self.count_finished(campaign);
            }
        } else {
            unit.state = UnitState::Pending {
                available_at: Some(now + self.cfg.retry_backoff * unit.attempts),
            };
            self.registry.add("cluster.units.requeued", 1);
            self.work.notify_all();
        }
    }

    /// One campaign's status document (see `Campaign::render`), with its
    /// results once finished; `None` for an unknown id. Runs lease expiry
    /// first so status polls alone keep time moving.
    pub fn status_json(&self, id: u64, now: Instant) -> Option<String> {
        let mut inner = self.lock();
        self.expire(&mut inner, now);
        let mut out = String::new();
        inner.campaigns.get(&id)?.render(id, true, &mut out);
        Some(out)
    }

    /// Every campaign's status document, without results, in submission
    /// order.
    pub fn list_json(&self, now: Instant) -> String {
        let mut inner = self.lock();
        self.expire(&mut inner, now);
        let mut out = String::from("[");
        for (i, (&id, campaign)) in inner.campaigns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            campaign.render(id, false, &mut out);
        }
        out.push(']');
        out
    }

    /// Registration status of every worker ever joined.
    pub fn workers(&self, now: Instant) -> Vec<WorkerStatus> {
        let mut inner = self.lock();
        self.expire(&mut inner, now);
        inner
            .workers
            .iter()
            .map(|(&id, w)| WorkerStatus {
                id,
                name: w.name.clone(),
                alive: w.alive,
                units_done: w.units_done,
            })
            .collect()
    }
}

/// The campaign holding `unit_ref`, once the reference checks out.
fn locate(
    campaigns: &mut BTreeMap<u64, Campaign>,
    unit_ref: UnitRef,
) -> Result<&mut Campaign, String> {
    let campaign = campaigns
        .get_mut(&unit_ref.campaign)
        .ok_or_else(|| format!("unknown campaign {}", unit_ref.campaign))?;
    if unit_ref.index >= campaign.units.len() {
        return Err(format!("campaign has no unit {}", unit_ref.index));
    }
    Ok(campaign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_core::Scheme;
    use dvs_obs::json::Value;
    use dvs_sram::MilliVolts;
    use dvs_workloads::Benchmark;

    fn coordinator(cfg: ClusterConfig) -> Coordinator {
        Coordinator::new(
            cfg,
            EvalConfig::quick(),
            None,
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// A coordinator over an empty store in a fresh temporary directory.
    fn stored_coordinator(tag: &str, cfg: ClusterConfig) -> (Coordinator, ResultStore) {
        let dir = std::env::temp_dir().join(format!("dvs-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let c = Coordinator::new(
            cfg,
            EvalConfig::quick(),
            Some(store.clone()),
            Arc::new(MetricsRegistry::new()),
        );
        (c, store)
    }

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig {
            lease_ttl: Duration::from_millis(100),
            steal_after: Duration::from_millis(50),
            max_attempts: 3,
            retry_backoff: Duration::from_millis(10),
            lease_units: 2,
            queue_depth: 8,
        }
    }

    fn wire() -> WireConfig {
        WireConfig::of(&EvalConfig::quick())
    }

    fn plan2() -> ExperimentPlan {
        ExperimentPlan::for_cells([
            CellKey::new(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(480)),
            CellKey::new(Benchmark::Qsort, Scheme::FfwBbr, MilliVolts::new(480)),
        ])
    }

    fn plan1() -> ExperimentPlan {
        ExperimentPlan::for_cells([CellKey::new(
            Benchmark::Crc32,
            Scheme::FfwBbr,
            MilliVolts::new(480),
        )])
    }

    fn cell(n: u64) -> StoredCell {
        StoredCell {
            failed_links: n,
            trials: Vec::new(),
        }
    }

    /// `cell` as the status document renders it for `key`.
    fn rendered(key: &CellKey, cell: StoredCell) -> Value {
        Value::parse(&cell_json(key, &stored_cell_result(key, cell))).unwrap()
    }

    /// The parsed status document of campaign `id` at `now`.
    fn status(c: &Coordinator, id: u64, now: Instant) -> Value {
        Value::parse(&c.status_json(id, now).expect("known campaign")).expect("status is JSON")
    }

    fn field(v: &Value, key: &str) -> usize {
        v.get(key).and_then(Value::as_f64).expect(key) as usize
    }

    fn state(v: &Value) -> &str {
        v.get("state").and_then(Value::as_str).expect("state")
    }

    /// The `i`-th cell of a finished campaign's results.
    fn result(c: &Coordinator, id: u64, i: usize) -> Value {
        let s = status(c, id, Instant::now());
        s.get("results").and_then(Value::as_arr).expect("results")[i].clone()
    }

    fn error(cell: &Value) -> &str {
        cell.get("error")
            .and_then(Value::as_str)
            .expect("an error cell")
    }

    #[test]
    fn leases_grant_in_plan_order_up_to_budget_and_never_span_campaigns() {
        let c = coordinator(quick_cfg());
        let t0 = Instant::now();
        let w = c.join("w", t0);
        let id = c.submit(wire(), &plan2()).unwrap();
        let other = c.submit(wire(), &plan2()).unwrap();
        let grants = c.lease(w, 1, t0).unwrap();
        assert_eq!(
            grants[..],
            [LeaseGrant {
                unit: UnitRef {
                    campaign: id,
                    index: 0
                },
                key: plan2().cells()[0],
                wire: wire(),
                stolen: false,
            }]
        );
        // The budget is the caller's: the rest of the first campaign, and
        // nothing of the second.
        let grants = c.lease(w, 8, t0).unwrap();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].unit.index, 1);
        assert_eq!(grants[0].unit.campaign, id);
        let grants = c.lease(w, 8, t0).unwrap();
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.unit.campaign == other));
        // Everything is leased now; an idle second worker gets nothing
        // until the steal threshold passes.
        let w2 = c.join("w2", t0);
        assert!(c.lease(w2, 1, t0).unwrap().is_empty());
    }

    #[test]
    fn heartbeats_keep_leases_alive_and_silence_kills_them() {
        let cfg = quick_cfg();
        let c = coordinator(cfg);
        let t0 = Instant::now();
        let w = c.join("w", t0);
        let id = c.submit(wire(), &plan2()).unwrap();
        let g = c.lease(w, 1, t0).unwrap();
        assert_eq!(g.len(), 1);

        // Renewed at 80ms and 160ms: still leased at 200ms.
        let t1 = t0 + Duration::from_millis(80);
        c.heartbeat(w, t1).unwrap();
        let t2 = t0 + Duration::from_millis(160);
        c.heartbeat(w, t2).unwrap();
        let s = status(&c, id, t0 + Duration::from_millis(200));
        assert_eq!(field(&s, "cells_done"), 0);
        assert_eq!(state(&s), "running");

        // Silence past the TTL: the lease expires, the worker is dead,
        // the unit requeues with backoff.
        let t3 = t2 + cfg.lease_ttl + Duration::from_millis(1);
        c.workers(t3);
        assert!(c.heartbeat(w, t3).is_err(), "dead worker must rejoin");
        // Backoff holds the unit back, then releases it.
        let w2 = c.join("w2", t3);
        let g = c.lease(w2, 2, t3).unwrap();
        assert_eq!(g.len(), 1, "requeued unit still backing off");
        let t4 = t3 + cfg.retry_backoff;
        let g = c.lease(w2, 2, t4).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn repeated_expiry_fails_terminally_after_max_attempts() {
        let cfg = quick_cfg();
        let c = coordinator(cfg);
        let t0 = Instant::now();
        let id = c.submit(wire(), &plan1()).unwrap();
        let mut now = t0;
        for attempt in 1..=cfg.max_attempts {
            let w = c.join("w", now);
            now += cfg.retry_backoff * attempt; // clear any backoff
            let g = c.lease(w, 1, now).unwrap();
            assert_eq!(g.len(), 1, "attempt {attempt}");
            now += cfg.lease_ttl + Duration::from_millis(1);
            c.workers(now);
        }
        let s = status(&c, id, now);
        assert_eq!(state(&s), "failed");
        assert_eq!(field(&s, "cells_failed"), 1);
        assert_eq!(
            error(&result(&c, id, 0)),
            format!("lease expired ({} attempts exhausted)", cfg.max_attempts)
        );
    }

    #[test]
    fn idle_worker_steals_slow_units_but_never_its_own() {
        let cfg = quick_cfg();
        let c = coordinator(cfg);
        let t0 = Instant::now();
        let w1 = c.join("w1", t0);
        let id = c.submit(wire(), &plan2()).unwrap();
        assert_eq!(c.lease(w1, 2, t0).unwrap().len(), 2);

        // w1 itself can never duplicate its own leases.
        let t1 = t0 + cfg.steal_after;
        c.heartbeat(w1, t1).unwrap();
        assert!(c.lease(w1, 2, t1).unwrap().is_empty());

        // An idle second worker steals both (two leases per unit at most).
        let w2 = c.join("w2", t1);
        let g = c.lease(w2, 2, t1).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(|g| g.stolen));

        // A third worker finds nothing: duplicate cap reached.
        let w3 = c.join("w3", t1);
        assert!(c.lease(w3, 2, t1).unwrap().is_empty());

        // First writer wins; the duplicate is absorbed silently.
        c.complete(w2, g[0].unit, cell(1)).unwrap();
        c.complete(w1, g[0].unit, cell(1)).unwrap();
        assert_eq!(field(&status(&c, id, t1), "cells_done"), 1);
        assert_eq!(
            c.workers(t1)
                .iter()
                .find(|w| w.id == w2)
                .unwrap()
                .units_done,
            1,
            "the first writer gets the credit"
        );
    }

    #[test]
    fn reported_failure_requeues_with_backoff_then_fails_terminally() {
        let cfg = quick_cfg();
        let c = coordinator(cfg);
        let t0 = Instant::now();
        let w = c.join("w", t0);
        let id = c.submit(wire(), &plan1()).unwrap();
        let mut now = t0;
        for attempt in 1..=cfg.max_attempts {
            now += cfg.retry_backoff * attempt;
            c.heartbeat(w, now).unwrap();
            let g = c.lease(w, 1, now).unwrap();
            assert_eq!(g.len(), 1, "attempt {attempt}");
            c.fail(w, g[0].unit, "invariant violation", now).unwrap();
        }
        assert_eq!(state(&status(&c, id, now)), "failed");
        assert_eq!(
            error(&result(&c, id, 0)),
            "invariant violation (3 attempts exhausted)"
        );
        // A straggler's late result still flips the unit to completed, and
        // the unit renders again.
        let unit = UnitRef {
            campaign: id,
            index: 0,
        };
        c.complete(w, unit, cell(7)).unwrap();
        let s = status(&c, id, now);
        assert_eq!(state(&s), "complete");
        assert_eq!(field(&s, "cells_done"), 1);
        assert_eq!(field(&s, "cells_failed"), 0);
        assert_eq!(result(&c, id, 0), rendered(&plan1().cells()[0], cell(7)));
    }

    #[test]
    fn store_prefilled_cells_complete_without_dispatch() {
        let (c, store) = stored_coordinator("prefill", quick_cfg());
        let done = plan2().cells()[0];
        store.save(&c.store_key(&wire(), &done), &cell(5)).unwrap();
        let t0 = Instant::now();
        let id = c.submit(wire(), &plan2()).unwrap();
        assert_eq!(field(&status(&c, id, t0), "cells_done"), 1);
        // Only the unresolved cell is dispatched.
        let w = c.join("w", t0);
        let g = c.lease(w, 2, t0).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].key, plan2().cells()[1]);
        // A completed cell is in the store by the time the campaign reads
        // complete, and renders in plan order beside the store hit.
        c.complete(w, g[0].unit, cell(6)).unwrap();
        assert_eq!(state(&status(&c, id, t0)), "complete");
        assert_eq!(c.load(&wire(), &plan2().cells()[1]), Some(cell(6)));
        assert_eq!(result(&c, id, 0), rendered(&done, cell(5)));
        assert_eq!(result(&c, id, 1), rendered(&plan2().cells()[1], cell(6)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn capped_store_eviction_is_a_miss_never_an_error() {
        let (c, store) = stored_coordinator("capped", quick_cfg());
        // One byte: after every save the store immediately evicts back
        // down to the single just-written (protected) cell.
        store.set_max_bytes(Some(1));
        let t0 = Instant::now();
        let id = c.submit(wire(), &plan2()).unwrap();
        let w = c.join("w", t0);
        let g = c.lease(w, 2, t0).unwrap();
        assert_eq!(g.len(), 2, "an empty capped store pre-resolves nothing");
        c.complete(w, g[0].unit, cell(1)).unwrap();
        c.complete(w, g[1].unit, cell(2)).unwrap();

        // The campaign ledger is untouched by eviction: both results
        // land even though the store kept at most one of them.
        assert_eq!(state(&status(&c, id, t0)), "complete");
        assert_eq!(result(&c, id, 0), rendered(&plan2().cells()[0], cell(1)));
        assert_eq!(result(&c, id, 1), rendered(&plan2().cells()[1], cell(2)));
        let stats = store.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.cells <= 1, "{stats:?}");
        // A point query misses the evicted cell and answers the survivor.
        assert_eq!(c.load(&wire(), &plan2().cells()[0]), None);
        assert_eq!(c.load(&wire(), &plan2().cells()[1]), Some(cell(2)));

        // Resubmitting the same plan treats the evicted cell as a plain
        // miss: it is dispatched again, the survivor pre-resolves.
        let id2 = c.submit(wire(), &plan2()).unwrap();
        assert_eq!(
            field(&status(&c, id2, t0), "cells_done"),
            1,
            "only the surviving cell pre-resolves"
        );
        let g2 = c.lease(w, 2, t0).unwrap();
        assert_eq!(g2.len(), 1, "evicted cell must be re-dispatched");
        assert_eq!(g2[0].key, plan2().cells()[0]);
        c.complete(w, g2[0].unit, cell(1)).unwrap();
        assert_eq!(state(&status(&c, id2, t0)), "complete");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn every_completed_cell_answers_a_point_query() {
        let (c, store) = stored_coordinator("query", quick_cfg());
        let t0 = Instant::now();
        let w = c.join("w", t0);
        let id = c.submit(wire(), &plan2()).unwrap();
        let g = c.lease(w, 2, t0).unwrap();
        // Out of plan order: a point query does not wait for the campaign.
        c.complete(w, g[1].unit, cell(2)).unwrap();
        assert_eq!(c.load(&wire(), &g[1].key), Some(cell(2)));
        assert_eq!(c.load(&wire(), &g[0].key), None, "not computed yet");
        c.complete(w, g[0].unit, cell(1)).unwrap();
        assert_eq!(state(&status(&c, id, t0)), "complete");
        assert_eq!(c.load(&wire(), &g[0].key), Some(cell(1)));
        // The wire config is part of the cell's identity.
        let other = WireConfig { seed: 7, ..wire() };
        assert_eq!(c.load(&other, &g[0].key), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn admission_is_bounded_by_campaigns_waiting_for_a_lease() {
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = ClusterConfig {
            queue_depth: 1,
            ..quick_cfg()
        };
        let c = Coordinator::new(cfg, EvalConfig::quick(), None, registry.clone());
        let t0 = Instant::now();
        let a = c.submit(wire(), &plan2()).unwrap();
        assert_eq!(state(&status(&c, a, t0)), "queued");
        assert_eq!(c.queue_depth(), 1);
        assert_eq!(c.submit(wire(), &plan2()), Err(SubmitError::QueueFull));
        assert_eq!(registry.counter("serve.rejected"), 1);
        // One leased unit takes a campaign out of the queue.
        let w = c.join("w", t0);
        c.lease(w, 1, t0).unwrap();
        assert_eq!(state(&status(&c, a, t0)), "running");
        assert_eq!(c.queue_depth(), 0);
        c.submit(wire(), &plan2()).unwrap();
        assert_eq!(c.submit(wire(), &plan2()), Err(SubmitError::QueueFull));
        assert_eq!(registry.counter("serve.rejected"), 2);
        assert_eq!(registry.counter("serve.campaigns.submitted"), 2);
    }

    #[test]
    fn a_drain_refuses_submissions_and_leaves_nothing_queued_or_running() {
        let registry = Arc::new(MetricsRegistry::new());
        let c = Coordinator::new(quick_cfg(), EvalConfig::quick(), None, registry.clone());
        let t0 = Instant::now();
        let w = c.join("w", t0);
        let running = c.submit(wire(), &plan2()).unwrap();
        let g = c.lease(w, 1, t0).unwrap();
        let queued = c.submit(wire(), &plan2()).unwrap();
        let token = c.cancel_token();
        c.drain();
        assert!(token.is_cancelled());
        assert!(c.draining());
        assert_eq!(c.submit(wire(), &plan2()), Err(SubmitError::Draining));
        assert_eq!(c.queue_depth(), 0);
        let list = c.list_json(t0);
        assert!(!list.contains("\"state\":\"queued\""), "{list}");
        assert!(!list.contains("\"state\":\"running\""), "{list}");
        assert_eq!(registry.counter("serve.campaigns.cancelled"), 2);
        // Unfinished cells render as error cells.
        assert_eq!(error(&result(&c, queued, 1)), "cancelled by a drain");
        // A cell finished after the drain still lands; the campaign stays
        // cancelled and is counted once.
        c.complete(w, g[0].unit, cell(3)).unwrap();
        let s = status(&c, running, t0);
        assert_eq!(state(&s), "cancelled");
        assert_eq!((field(&s, "cells_done"), field(&s, "cells_failed")), (2, 1));
        assert_eq!(
            result(&c, running, 0),
            rendered(&plan2().cells()[0], cell(3))
        );
        assert_eq!(registry.counter("serve.campaigns.cancelled"), 2);
        assert_eq!(registry.counter("serve.campaigns.completed"), 0);
    }

    #[test]
    fn unknown_campaign_is_none_and_an_empty_table_lists_as_empty() {
        let c = coordinator(quick_cfg());
        assert!(c.status_json(999, Instant::now()).is_none());
        assert_eq!(c.list_json(Instant::now()), "[]");
    }

    #[test]
    fn each_campaign_counts_one_terminal_transition() {
        let (c, store) = stored_coordinator("counts", quick_cfg());
        let registry = c.registry.clone();
        let t0 = Instant::now();
        let w = c.join("w", t0);
        let id = c.submit(wire(), &plan2()).unwrap();
        let list = c.list_json(t0);
        assert_eq!(
            list,
            format!(
                "[{{\"id\":{id},\"state\":\"queued\",\"cells_total\":2,\"cells_done\":0,\
                 \"cells_failed\":0}}]"
            )
        );
        for g in c.lease(w, 2, t0).unwrap() {
            c.complete(w, g.unit, cell(1)).unwrap();
        }
        assert_eq!(registry.counter("serve.campaigns.completed"), 1);
        // Every cell a store hit: complete on submit, never queued.
        let again = c.submit(wire(), &plan2()).unwrap();
        assert_eq!(state(&status(&c, again, t0)), "complete");
        assert_eq!(c.queue_depth(), 0);
        assert_eq!(registry.counter("serve.campaigns.submitted"), 2);
        assert_eq!(registry.counter("serve.campaigns.completed"), 2);
        assert_eq!(registry.counter("engine.store.cell_hits"), 2);
        assert_eq!(registry.counter("engine.store.cell_misses"), 2);
        assert_eq!(registry.counter("engine.store.cell_saves"), 2);
        assert_eq!(registry.snapshot().gauges["store.cells"], 2);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn the_lane_waits_for_submissions_backoffs_and_drains() {
        let c = Arc::new(coordinator(quick_cfg()));
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || c.wait_for_work())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "nothing to lease yet");
        let id = c.submit(wire(), &plan1()).unwrap();
        waiter.join().unwrap();

        // A failed unit's backoff is waited out, not polled.
        let w = c.join("lane", Instant::now());
        let g = c.lease(w, usize::MAX, Instant::now()).unwrap();
        let failed_at = Instant::now();
        c.fail(w, g[0].unit, "engine error", failed_at).unwrap();
        c.wait_for_work();
        assert!(failed_at.elapsed() >= quick_cfg().retry_backoff);
        assert_eq!(c.lease(w, usize::MAX, Instant::now()).unwrap().len(), 1);
        assert_eq!(field(&status(&c, id, Instant::now()), "cells_done"), 0);

        // A drain wakes a waiting lane.
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || c.wait_for_work())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "the leased unit is not ready");
        c.drain();
        waiter.join().unwrap();
    }
}
