//! Shard workers: each shard is one OS thread owning a disjoint set of
//! tenants, driven by batched requests over an MPSC channel.
//!
//! When a durable store is attached, every state-mutating request is
//! journaled to the shard's write-ahead log *before* it is applied
//! (write-ahead discipline), and checkpoint captures rotate the WAL at the
//! exact request-stream position of the snapshot — the shard thread is the
//! serialization point, so the snapshot/WAL boundary is always consistent.
//!
//! Tenants live in a slab indexed by the engine's interned tenant key
//! (see [`crate::intern`]): the per-event path is an array index, not a
//! string hash. A small id → key side map serves the cold control ops
//! (snapshot/evict/report-by-id), which still arrive keyed by id.

use crate::journal::{JournalEvent, JournalRecord};
use crate::obs::{EngineObs, ShardObs};
use crate::statelist::StateList;
use crate::tenant::{StepScratch, Tenant, TenantConfig, TenantReport, TenantSnapshot};
use crate::EngineError;
use rsdc_store::Durability;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// One streamed event: a tenant id (shared, interned), its slab key, the
/// next cost function, and (when the event was derived from a load) the
/// offered load — which feeds the shard-level [`LoadTotals`].
#[derive(Debug)]
pub struct Event {
    /// Original position in the caller's batch (used to reassemble replies
    /// in submission order).
    pub index: usize,
    /// Tenant id (interned; shared with the engine's intern table).
    pub id: Arc<str>,
    /// The tenant's slab key ([`crate::intern::UNKNOWN_KEY`] when the id
    /// was never admitted — the shard reports it unknown without a probe).
    pub key: u32,
    /// Cost function for this slot.
    pub cost: rsdc_core::Cost,
    /// Offered load, when known.
    pub load: Option<f64>,
}

/// States committed in response to one [`Event`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Tenant id.
    pub id: Arc<str>,
    /// Newly committed states in slot order (empty while a lookahead
    /// window fills). For heterogeneous tenants: total active machines.
    /// Stored inline for the common short lists, so the hot path commits
    /// without a heap allocation.
    pub states: StateList,
    /// Newly committed configurations in slot order (heterogeneous
    /// tenants only; one vector per committed slot).
    pub configs: Option<Vec<Vec<u32>>>,
    /// Per-event failure (e.g. unknown tenant, or a hetero step without a
    /// load). A failed event never poisons the other events of its batch.
    pub error: Option<String>,
}

/// Aggregate statistics for one shard. The load-aware fields are read in
/// O(1) from the shard's [`LoadTotals`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Live tenants.
    pub tenants: usize,
    /// Events processed.
    pub events: u64,
    /// States committed.
    pub states: u64,
    /// Slots recorded in the load-aware metrics.
    pub metric_slots: usize,
    /// Total energy proxy (1 unit per committed server per slot).
    pub total_energy: f64,
    /// Fraction of offered load dropped (capacity shortfall).
    pub drop_rate: f64,
    /// Mean committed servers per load-aware slot.
    pub mean_committed: f64,
    /// Total power-up events.
    pub total_wakes: u32,
}

/// Running totals of a shard's load-aware slots: everything the
/// load-aware half of [`ShardStats`] reports, in a fixed few numbers
/// however long the stream runs.
///
/// Each commit that carries a load adds one slot under a logical-fleet
/// model: 1 power unit per committed server per slot, "serving" equal to
/// the committed state — so the committed-server sum is also the energy
/// total. Every `f64` total is a left fold in commit order starting from
/// `-0.0` (the identity `Sum for f64` folds from), so the derived stats
/// are bit-identical to summing the per-slot values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadTotals {
    /// Load-aware slots recorded.
    pub slots: u64,
    /// Offered load.
    pub load: f64,
    /// Load dropped for lack of committed servers.
    pub dropped: f64,
    /// Committed servers summed over slots (the energy proxy).
    pub committed: f64,
    /// Power-up events.
    pub wakes: u32,
}

impl Default for LoadTotals {
    fn default() -> Self {
        Self {
            slots: 0,
            load: -0.0,
            dropped: -0.0,
            committed: -0.0,
            wakes: 0,
        }
    }
}

impl LoadTotals {
    /// Meter one committed slot: `state` servers facing `load`, `ups` of
    /// them powered up entering the slot.
    pub fn record(&mut self, state: u32, load: f64, ups: u32) {
        let x = state as f64;
        self.slots += 1;
        self.load += load;
        self.dropped += (load - x).max(0.0);
        self.committed += x;
        self.wakes += ups;
    }

    /// Fold another shard's totals into these. Counts and the
    /// integer-valued committed sum stay exact; the load sums add
    /// per-shard subtotals, so `drop_rate` may move in the last ulps.
    pub fn merge(&mut self, other: &LoadTotals) {
        self.slots += other.slots;
        self.load += other.load;
        self.dropped += other.dropped;
        self.committed += other.committed;
        self.wakes += other.wakes;
    }

    /// Fraction of offered load dropped (0 when no load was offered).
    pub fn drop_rate(&self) -> f64 {
        if self.load == 0.0 {
            0.0
        } else {
            self.dropped / self.load
        }
    }

    /// Mean committed servers per slot (0 before the first slot).
    pub fn mean_committed(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.committed / self.slots as f64
        }
    }
}

/// Aggregate shard state that lives outside any tenant: the counters and
/// load totals a checkpoint must carry for the recovered engine to be
/// bit-identical to the pre-crash one. Its size is fixed, whatever the
/// length of the stream behind it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardMeta {
    /// Shard index.
    pub shard: usize,
    /// Events processed.
    pub events: u64,
    /// States committed.
    pub states: u64,
    /// Running load totals of this shard.
    pub metrics: LoadTotals,
}

impl ShardMeta {
    /// Fold another shard's aggregates into these (migrations carry
    /// retired or re-partitioned shards' history this way, so fleet
    /// totals survive a topology change).
    pub fn merge(&mut self, other: &ShardMeta) {
        self.events += other.events;
        self.states += other.states;
        self.metrics.merge(&other.metrics);
    }
}

/// What one shard contributes to a checkpoint: every tenant snapshot plus
/// the shard-level aggregates, captured atomically with the WAL rotation.
#[derive(Debug, Clone)]
pub struct ShardDump {
    /// Tenant snapshots, sorted by id.
    pub snapshots: Vec<TenantSnapshot>,
    /// Shard-level aggregate state.
    pub meta: ShardMeta,
}

/// One shard's reply to a [`Request::Batch`]: the per-event outcomes plus
/// the aggregate pulse the topology policy feeds on (the shard's live
/// tenant count after the batch) — piggybacked so observing load costs no
/// extra round trips.
#[derive(Debug)]
pub struct BatchReply {
    /// Outcomes, tagged with their original batch positions.
    pub outcomes: Vec<(usize, StepOutcome)>,
    /// The drained event buffer, handed back so the engine's dispatch
    /// pool can reuse its capacity (steady state allocates no new event
    /// vectors).
    pub events: Vec<Event>,
    /// Live tenants on this shard after the batch.
    pub tenants: usize,
    /// Machines committed across this shard's tenants after the batch
    /// (sum of last committed states) — the energy meter's load sample.
    pub machines: u64,
}

/// Requests a shard worker serves. Slot-addressed requests carry the
/// interned key the engine resolved; id strings ride along for journaling
/// and error messages.
pub enum Request {
    /// Admit a new tenant under the given interned key.
    Admit(TenantConfig, u32, Sender<Result<(), EngineError>>),
    /// Process a batch of events (already routed to this shard).
    Batch(Vec<Event>, Sender<Result<BatchReply, EngineError>>),
    /// End-of-stream for one tenant: flush lookahead states.
    Finish(String, Sender<Result<StepOutcome, EngineError>>),
    /// Capture one tenant's full state.
    Snapshot(String, Sender<Result<TenantSnapshot, EngineError>>),
    /// Fetch one tenant's static configuration.
    Config(String, Sender<Result<TenantConfig, EngineError>>),
    /// Re-install a tenant from a snapshot (admits it if absent).
    Restore(Box<TenantSnapshot>, u32, Sender<Result<(), EngineError>>),
    /// Migration plumbing: remove a tenant and hand back its snapshot
    /// **without journaling** — an incremental migration's moves are
    /// covered by the write-ahead `Migrate` record plus the fencing
    /// checkpoint, so per-tenant records would corrupt replay (a
    /// journaled `Evict` would delete the tenant on recovery).
    Extract(String, Sender<Result<TenantSnapshot, EngineError>>),
    /// Migration plumbing: install a tenant from a snapshot **without
    /// journaling** (counterpart of [`Extract`](Request::Extract); also
    /// used to land tenants on freshly spawned workers).
    Install(Box<TenantSnapshot>, u32, Sender<Result<(), EngineError>>),
    /// Remove a tenant, returning its final report.
    Evict(String, Sender<Result<TenantReport, EngineError>>),
    /// Report one tenant (`Some(id)`) or all tenants on this shard.
    Report(
        Option<String>,
        Sender<Result<Vec<TenantReport>, EngineError>>,
    ),
    /// Shard-level aggregate statistics.
    Stats(Sender<ShardStats>),
    /// Ids of the tenants living on this shard (sorted).
    TenantIds(Sender<Vec<String>>),
    /// Attach a durability backend: subsequent mutations are journaled.
    AttachStore(Arc<dyn Durability>, Sender<()>),
    /// Journal a record to this shard's WAL without applying anything —
    /// the engine handle routes control-plane records (topology changes)
    /// through the owning shard thread so WAL appends stay serialized.
    Journal(Box<JournalRecord>, Sender<Result<(), EngineError>>),
    /// Capture this shard's checkpoint contribution, rotating its WAL to
    /// the segment for the given checkpoint sequence at the capture point.
    Checkpoint(u64, Sender<Result<ShardDump, EngineError>>),
    /// Install shard-level aggregates from a checkpoint (recovery only).
    InstallMeta(Box<ShardMeta>, Sender<()>),
    /// Merge shard-level aggregates *into* this shard's own (used when an
    /// incremental migration retires shards: the retired indices' history
    /// folds onto shard 0 so fleet totals stay exact).
    MergeMeta(Box<ShardMeta>, Sender<()>),
    /// Stop the worker.
    Shutdown,
}

/// State owned by one shard thread.
pub struct Shard {
    index: usize,
    /// Tenant slab, indexed by interned key. Slots for tenants living on
    /// other shards (or evicted) are `None`; the vector grows to the
    /// engine-wide key space high-water mark.
    slots: Vec<Option<Tenant>>,
    /// Cold-path id → key map for the control ops that address by id.
    by_id: HashMap<String, u32>,
    metrics: LoadTotals,
    events: u64,
    states: u64,
    store: Option<Arc<dyn Durability>>,
    obs: ShardObs,
    scratch: StepScratch,
}

impl Shard {
    /// Worker entry point: serve requests until `Shutdown` or hangup.
    pub fn run(index: usize, rx: Receiver<Request>, obs: Arc<EngineObs>) {
        let mut shard = Shard {
            index,
            slots: Vec::new(),
            by_id: HashMap::new(),
            metrics: LoadTotals::default(),
            events: 0,
            states: 0,
            store: None,
            obs: ShardObs::for_shard(&obs, index),
            scratch: StepScratch::default(),
        };
        while let Ok(req) = rx.recv() {
            match req {
                Request::Admit(cfg, key, reply) => {
                    let _ = reply.send(shard.admit(cfg, key));
                }
                Request::Batch(events, reply) => {
                    let _ = reply.send(shard.batch(events));
                }
                Request::Finish(id, reply) => {
                    let _ = reply.send(shard.finish(&id));
                }
                Request::Snapshot(id, reply) => {
                    let _ = reply.send(shard.tenant(&id).map(|t| t.snapshot()));
                }
                Request::Config(id, reply) => {
                    let _ = reply.send(shard.tenant(&id).map(|t| t.config().clone()));
                }
                Request::Restore(snapshot, key, reply) => {
                    let _ = reply.send(shard.restore(*snapshot, key));
                }
                Request::Extract(id, reply) => {
                    let _ = reply.send(shard.extract(&id));
                }
                Request::Install(snapshot, key, reply) => {
                    let _ = reply.send(shard.install(*snapshot, key));
                }
                Request::Evict(id, reply) => {
                    let _ = reply.send(shard.evict(&id));
                }
                Request::Report(Some(id), reply) => {
                    let _ = reply.send(shard.tenant(&id).map(|t| vec![t.report()]));
                }
                Request::Report(None, reply) => {
                    let mut reports: Vec<TenantReport> = shard.live().map(|t| t.report()).collect();
                    reports.sort_by(|a, b| a.id.cmp(&b.id));
                    let _ = reply.send(Ok(reports));
                }
                Request::Stats(reply) => {
                    let _ = reply.send(shard.stats());
                }
                Request::TenantIds(reply) => {
                    let mut ids: Vec<String> = shard.by_id.keys().cloned().collect();
                    ids.sort_unstable();
                    let _ = reply.send(ids);
                }
                Request::AttachStore(store, reply) => {
                    shard.store = Some(store);
                    let _ = reply.send(());
                }
                Request::Journal(record, reply) => {
                    let _ = reply.send(shard.journal(&record));
                }
                Request::Checkpoint(seq, reply) => {
                    let _ = reply.send(shard.checkpoint(seq));
                }
                Request::InstallMeta(meta, reply) => {
                    shard.events = meta.events;
                    shard.states = meta.states;
                    shard.metrics = meta.metrics;
                    let _ = reply.send(());
                }
                Request::MergeMeta(meta, reply) => {
                    shard.events += meta.events;
                    shard.states += meta.states;
                    shard.metrics.merge(&meta.metrics);
                    let _ = reply.send(());
                }
                Request::Shutdown => break,
            }
        }
        // Whatever the store buffered reaches disk before the thread dies.
        if let Some(store) = &shard.store {
            let _ = store.sync();
        }
    }

    fn durable(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.is_durable())
    }

    /// Write-ahead hook: persist `record` to this shard's WAL. Callers
    /// journal *before* mutating, so a crash between the two replays the
    /// mutation instead of losing it.
    fn journal(&self, record: &JournalRecord) -> Result<(), EngineError> {
        if self.durable() {
            let store = self.store.as_ref().expect("durable implies store");
            store
                .append(self.index, &record.encode())
                .map_err(|e| EngineError::Store(e.to_string()))?;
        }
        Ok(())
    }

    fn checkpoint(&mut self, seq: u64) -> Result<ShardDump, EngineError> {
        if self.durable() {
            let store = self.store.as_ref().expect("durable implies store");
            store
                .rotate(self.index, seq)
                .map_err(|e| EngineError::Store(e.to_string()))?;
        }
        let mut snapshots: Vec<TenantSnapshot> = self.live().map(|t| t.snapshot()).collect();
        snapshots.sort_by(|a, b| a.config.id.cmp(&b.config.id));
        Ok(ShardDump {
            snapshots,
            meta: ShardMeta {
                shard: self.index,
                events: self.events,
                states: self.states,
                metrics: self.metrics,
            },
        })
    }

    /// Iterate the live tenants of this shard.
    fn live(&self) -> impl Iterator<Item = &Tenant> {
        self.slots.iter().flatten()
    }

    fn tenant(&self, id: &str) -> Result<&Tenant, EngineError> {
        self.by_id
            .get(id)
            .and_then(|&key| self.slots.get(key as usize))
            .and_then(|slot| slot.as_ref())
            .ok_or_else(|| EngineError::UnknownTenant(id.to_string()))
    }

    /// Grow the slab to cover `key` and place `tenant` there.
    fn place(&mut self, key: u32, tenant: Tenant) {
        let at = key as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        let id = tenant.config().id.clone();
        self.slots[at] = Some(tenant);
        self.by_id.insert(id, key);
    }

    fn admit(&mut self, cfg: TenantConfig, key: u32) -> Result<(), EngineError> {
        if self.by_id.contains_key(&cfg.id) {
            return Err(EngineError::DuplicateTenant(cfg.id));
        }
        // Validate (and build) before journaling so an invalid config is
        // rejected without leaving a doomed admit in the WAL.
        let tenant = Tenant::new(cfg.clone()).map_err(EngineError::Policy)?;
        self.journal(&JournalRecord::Admit(cfg))?;
        self.place(key, tenant);
        Ok(())
    }

    fn take(&mut self, id: &str) -> Option<Tenant> {
        let key = self.by_id.remove(id)?;
        self.slots
            .get_mut(key as usize)
            .and_then(|slot| slot.take())
    }

    fn evict(&mut self, id: &str) -> Result<TenantReport, EngineError> {
        if !self.by_id.contains_key(id) {
            return Err(EngineError::UnknownTenant(id.to_string()));
        }
        self.journal(&JournalRecord::Evict(id.to_string()))?;
        Ok(self.take(id).expect("checked above").report())
    }

    /// Remove a tenant and return its snapshot, bypassing the journal
    /// (incremental-migration plumbing; see [`Request::Extract`]).
    fn extract(&mut self, id: &str) -> Result<TenantSnapshot, EngineError> {
        self.take(id)
            .map(|t| t.snapshot())
            .ok_or_else(|| EngineError::UnknownTenant(id.to_string()))
    }

    /// Install a tenant from a snapshot, bypassing the journal
    /// (incremental-migration plumbing; see [`Request::Install`]).
    fn install(&mut self, snapshot: TenantSnapshot, key: u32) -> Result<(), EngineError> {
        let tenant = Tenant::from_snapshot(snapshot).map_err(EngineError::Policy)?;
        self.place(key, tenant);
        Ok(())
    }

    fn batch(&mut self, mut events: Vec<Event>) -> Result<BatchReply, EngineError> {
        // One clock pair per *batch*, journal included, gated on a bool
        // baked in at spawn — with metrics off the hot path pays exactly
        // this branch and two counter no-ops.
        let lap = if self.obs.enabled {
            Some(Instant::now())
        } else {
            None
        };
        if self.durable() {
            // The whole batch is one WAL record, including events that will
            // fail with a per-event error: replay reproduces the outcomes
            // identically either way, and one record per batch is what
            // keeps journaling off the per-event hot path.
            let record = JournalRecord::Batch(
                events
                    .iter()
                    .map(|ev| JournalEvent {
                        id: ev.id.to_string(),
                        cost: ev.cost.clone(),
                        load: ev.load,
                    })
                    .collect(),
            );
            self.journal(&record)?;
        }
        let mut out = Vec::with_capacity(events.len());
        let (mut ingested, mut dropped) = (0u64, 0u64);
        for ev in events.drain(..) {
            let Some(tenant) = self
                .slots
                .get_mut(ev.key as usize)
                .and_then(|slot| slot.as_mut())
            else {
                dropped += 1;
                out.push((
                    ev.index,
                    StepOutcome {
                        error: Some(EngineError::UnknownTenant(ev.id.to_string()).to_string()),
                        id: ev.id,
                        states: StateList::new(),
                        configs: None,
                    },
                ));
                continue;
            };
            match tenant.step_into(&ev.cost, ev.load, &mut self.scratch) {
                Ok(()) => {
                    let effect = &self.scratch.effect;
                    self.events += 1;
                    ingested += 1;
                    self.states += effect.commits.len() as u64;
                    out.push((
                        ev.index,
                        StepOutcome {
                            id: ev.id,
                            states: effect.state_list(),
                            configs: effect.configs(),
                            error: None,
                        },
                    ));
                    self.meter();
                }
                // Deterministic per-event failure (e.g. a hetero step with
                // no load): replay reproduces it identically.
                Err(e) => {
                    dropped += 1;
                    out.push((
                        ev.index,
                        StepOutcome {
                            id: ev.id,
                            states: StateList::new(),
                            configs: None,
                            error: Some(e.to_string()),
                        },
                    ));
                }
            }
        }
        self.obs.ingested.add(ingested);
        self.obs.dropped.add(dropped);
        if let Some(start) = lap {
            self.obs
                .batch_ns
                .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        Ok(BatchReply {
            outcomes: out,
            events,
            tenants: self.by_id.len(),
            machines: self.live().map(|t| t.last_state() as u64).sum(),
        })
    }

    fn finish(&mut self, id: &str) -> Result<StepOutcome, EngineError> {
        let Some(&key) = self.by_id.get(id) else {
            return Err(EngineError::UnknownTenant(id.to_string()));
        };
        self.journal(&JournalRecord::Finish(id.to_string()))?;
        let tenant = self.slots[key as usize].as_mut().expect("keyed above");
        let effect = tenant.finish();
        self.states += effect.commits.len() as u64;
        let id: Arc<str> = Arc::from(id);
        let outcome = StepOutcome {
            id,
            states: effect.state_list(),
            configs: effect.configs(),
            error: None,
        };
        self.scratch.effect = effect;
        self.meter();
        Ok(outcome)
    }

    /// Add the scratch effect's committed slots to the load totals. Each
    /// commit pairs a state with *its own* slot's load (they differ under
    /// lookahead lag).
    fn meter(&mut self) {
        for c in &self.scratch.effect.commits {
            if let Some(load) = c.load {
                self.metrics.record(c.state, load, c.ups as u32);
            }
        }
    }

    fn restore(&mut self, snapshot: TenantSnapshot, key: u32) -> Result<(), EngineError> {
        if self.durable() {
            self.journal(&JournalRecord::Restore(Box::new(snapshot.clone())))?;
        }
        self.install(snapshot, key)
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            shard: self.index,
            tenants: self.by_id.len(),
            events: self.events,
            states: self.states,
            metric_slots: self.metrics.slots as usize,
            total_energy: self.metrics.committed,
            drop_rate: self.metrics.drop_rate(),
            mean_committed: self.metrics.mean_committed(),
            total_wakes: self.metrics.wakes,
        }
    }
}
