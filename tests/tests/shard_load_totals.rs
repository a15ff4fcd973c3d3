//! Shard load totals: every shard keeps its load-aware metrics as a fixed
//! handful of running totals, so checkpoints stay the same size however
//! long the stream runs, while the `stats` reply keeps the exact bytes the
//! per-slot record history produced:
//!
//! * a checkpoint written in the older per-slot-records format recovers
//!   to the stats bytes its writer reported;
//! * an unrebalanced engine (including an empty shard's `-0.0` energy)
//!   replies the exact bytes recorded from the per-slot implementation;
//! * a durable engine's encoded shard aggregates do not grow with the
//!   number of load-carrying steps;
//! * full and incremental rebalances carry the fleet totals over exactly.

use rsdc_core::Cost;
use rsdc_engine::journal::CheckpointDoc;
use rsdc_engine::wire::Session;
use rsdc_engine::{Engine, EngineConfig, PolicySpec, ShardStats, TenantConfig};
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rsdc-shard-load-totals")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &std::path::Path) -> Arc<dyn Durability> {
    Arc::new(FileStore::open(dir, FileStoreConfig { sync_every: 16 }).expect("open store"))
}

/// Six load-carrying steps on two Lcp tenants, one of them over capacity.
const EVENTS: [&str; 8] = [
    r#"{"op":"admit","id":"a","m":4,"beta":2.0,"policy":"lcp"}"#,
    r#"{"op":"admit","id":"b","m":3,"beta":1.0,"policy":"lcp"}"#,
    r#"{"op":"step","id":"a","load":0.1}"#,
    r#"{"op":"step","id":"b","load":2.7}"#,
    r#"{"op":"step","id":"a","load":3.3}"#,
    r#"{"op":"step","id":"b","load":0.2}"#,
    r#"{"op":"step","id":"a","load":0.7}"#,
    r#"{"op":"step","id":"b","load":5.9}"#,
];

/// The `stats` reply a one-shard engine gave after [`EVENTS`] when each
/// shard still kept one record per metered slot.
const EVENTS_STATS: &str = r#"{"op":"stats","shards":[{"shard":0,"tenants":2,"events":6,"states":6,"metric_slots":6,"total_energy":18.0,"drop_rate":0.2248062015503876,"mean_committed":3.0,"total_wakes":7}],"skew":{"tenants":1.0,"events":1.0},"autoscale":null,"energy":null}"#;

/// The checkpoint a one-shard engine wrote after [`EVENTS`] in the
/// per-slot-records format (`metrics.records`), sequence number elided.
const LEGACY_CHECKPOINT: &str = r#"{"seq":SEQ,"shards":1,"vnodes":64,"tenants":[{"config":{"id":"a","m":4,"beta":2.0,"policy":"Lcp","track_opt":false,"cost_model":null},"events":3,"committed":3,"prev_state":4,"operating":28.671929824561403,"switching":8.0,"ups":4,"downs":0,"change_slots":2,"peak":4,"sum_states":9.0,"phases_closed":0,"dir":"Up","policy":{"tracker":{"m":4,"beta":2.0,"tau":3,"c_low":[54.871929824561406,34.871929824561406,34.871929824561406,35.72907268170426,36.6719298245614],"c_up":[54.871929824561406,32.871929824561406,30.871929824561402,29.72907268170426,28.671929824561403],"x_low":1,"x_up":4},"state":4},"pending":[],"opt":null},{"config":{"id":"b","m":3,"beta":1.0,"policy":"Lcp","track_opt":false,"cost_model":null},"events":3,"committed":3,"prev_state":3,"operating":304.55511396843985,"switching":3.0,"ups":3,"downs":0,"change_slots":1,"peak":3,"sum_states":9.0,"phases_closed":0,"dir":"Flat","policy":{"tracker":{"m":3,"beta":1.0,"tau":3,"c_low":[482.63874239350974,423.62150101419934,365.5794918330313,307.55511396843985],"c_up":[482.63874239350974,422.62150101419934,363.5794918330313,304.55511396843985],"x_low":3,"x_up":3},"state":3},"pending":[],"opt":null}],"shard_meta":[{"shard":0,"events":6,"states":6,"metrics":{"records":[{"target":1,"committed":1,"serving":1,"load":0.1,"served":0.1,"dropped":0.0,"utilisation":0.1,"power":1.0,"wake_energy":0.0,"woken":1,"slept":0},{"target":3,"committed":3,"serving":3,"load":2.7,"served":2.7,"dropped":0.0,"utilisation":0.9,"power":3.0,"wake_energy":0.0,"woken":3,"slept":0},{"target":4,"committed":4,"serving":4,"load":3.3,"served":3.3,"dropped":0.0,"utilisation":0.825,"power":4.0,"wake_energy":0.0,"woken":3,"slept":0},{"target":3,"committed":3,"serving":3,"load":0.2,"served":0.2,"dropped":0.0,"utilisation":0.06666666666666667,"power":3.0,"wake_energy":0.0,"woken":0,"slept":0},{"target":4,"committed":4,"serving":4,"load":0.7,"served":0.7,"dropped":0.0,"utilisation":0.175,"power":4.0,"wake_energy":0.0,"woken":0,"slept":0},{"target":3,"committed":3,"serving":3,"load":5.9,"served":3.0,"dropped":2.9000000000000004,"utilisation":1.0,"power":3.0,"wake_energy":0.0,"woken":0,"slept":0}]}}]}"#;

fn stats_line(session: &mut Session) -> String {
    let mut replies = session.handle_lines([r#"{"op":"stats"}"#]);
    assert_eq!(replies.len(), 1, "{replies:?}");
    replies.pop().unwrap()
}

#[test]
fn legacy_record_checkpoint_recovers_the_writers_stats_bytes() {
    let dir = case_dir("legacy");
    let store = open_store(&dir);
    let seq = store.begin_checkpoint().expect("begin");
    let doc = LEGACY_CHECKPOINT.replace("SEQ", &seq.to_string());
    store
        .commit_checkpoint(seq, doc.as_bytes())
        .expect("commit");
    drop(store);

    let (mut session, report) = Session::open_durable(1, open_store(&dir)).expect("recover");
    let report = report.expect("a checkpoint was recovered");
    assert_eq!(report.tenants_restored, 2);
    assert!(report.shard_meta_restored);
    assert_eq!(stats_line(&mut session), EVENTS_STATS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrebalanced_stats_keep_their_bytes() {
    // A fresh shard: the energy total is the empty sum, `-0.0`.
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    assert_eq!(
        stats_line(&mut session),
        r#"{"op":"stats","shards":[{"shard":0,"tenants":0,"events":0,"states":0,"metric_slots":0,"total_energy":-0.0,"drop_rate":0.0,"mean_committed":0.0,"total_wakes":0}],"skew":{"tenants":1.0,"events":1.0},"autoscale":null,"energy":null}"#
    );
    // Cost-only steps count as events but meter no load-aware slot.
    session.handle_lines([
        r#"{"op":"admit","id":"c","m":2,"beta":1.0,"policy":"lcp"}"#,
        r#"{"op":"step","id":"c","cost":{"Abs":{"slope":1.0,"center":1.0}}}"#,
    ]);
    assert_eq!(
        stats_line(&mut session),
        r#"{"op":"stats","shards":[{"shard":0,"tenants":1,"events":1,"states":1,"metric_slots":0,"total_energy":-0.0,"drop_rate":0.0,"mean_committed":0.0,"total_wakes":0}],"skew":{"tenants":1.0,"events":1.0},"autoscale":null,"energy":null}"#
    );

    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    session.handle_lines(EVENTS);
    assert_eq!(stats_line(&mut session), EVENTS_STATS);
}

/// Run `slots` load-carrying slots over a durable 2-shard fleet of 8 Lcp
/// tenants, checkpoint, and return the checkpoint's encoded shard
/// aggregates.
fn encoded_shard_meta(slots: usize) -> String {
    let dir = case_dir("bounded");
    let engine =
        Engine::with_store(EngineConfig::with_shards(2), open_store(&dir)).expect("engine");
    let ids: Vec<String> = (0..8).map(|i| format!("t{i}")).collect();
    for id in &ids {
        engine
            .admit(TenantConfig::new(id.clone(), 8, 2.0, PolicySpec::Lcp))
            .expect("admit");
    }
    for slot in 0..slots {
        // Integer loads keep every total integral, so a total can gain
        // at most one digit when the run is 4x longer.
        let load = (slot % 7) as f64 + (slot % 3) as f64;
        let events = ids
            .iter()
            .map(|id| (id.clone(), Cost::abs(1.0, load), Some(load)))
            .collect();
        engine.step_batch_loads(events).expect("step");
    }
    engine.checkpoint().expect("checkpoint");
    engine.shutdown();
    let recovery = open_store(&dir).recover().expect("scan");
    let blob = recovery.checkpoint.expect("checkpoint on disk");
    let doc = CheckpointDoc::decode(&blob.payload).expect("decode");
    let _ = std::fs::remove_dir_all(&dir);
    use serde::Serialize as _;
    serde_json::to_string(&doc.shard_meta.to_value()).expect("json")
}

/// The per-shard aggregates a checkpoint carries are a fixed set of
/// numbers: 4x the load-carrying steps adds at most one digit to each
/// (the loads are integral, so every total prints without a fraction).
#[test]
fn checkpoint_shard_meta_does_not_grow_with_the_stream() {
    let short = encoded_shard_meta(60);
    let long = encoded_shard_meta(240);
    let numbers = |s: &str| {
        s.split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .filter(|t| !t.is_empty())
            .count()
    };
    assert_eq!(numbers(&short), numbers(&long), "{short}\n{long}");
    assert!(
        long.len() <= short.len() + numbers(&short),
        "shard_meta grew from {} to {} bytes:\n{short}\n{long}",
        short.len(),
        long.len()
    );
}

/// Fleet sums of the exactly-summed stats: slots, wakes, energy, and the
/// committed-server sum (`mean_committed × slots`, rounded back to the
/// integer it is — the division and multiplication can each round).
fn fleet_sums(stats: &[ShardStats]) -> (usize, u32, f64, f64) {
    (
        stats.iter().map(|s| s.metric_slots).sum(),
        stats.iter().map(|s| s.total_wakes).sum(),
        stats.iter().map(|s| s.total_energy).sum(),
        stats
            .iter()
            .map(|s| (s.mean_committed * s.metric_slots as f64).round())
            .sum(),
    )
}

/// A rebalance folds shard aggregates into one another. Slot and wake
/// counts, energy and the committed-server sum are integral, so the
/// fleet sums survive exactly. `drop_rate` after a merge divides summed
/// per-shard subtotals rather than one fold over every slot, so it may
/// differ from the single-fold fleet rate in the last ulps: it is held
/// to a 1e-12 relative bound instead.
#[test]
fn rebalances_carry_fleet_totals_over() {
    let mut engine = Engine::new(EngineConfig::with_shards(3));
    let ids: Vec<String> = (0..12).map(|i| format!("tenant-{i}")).collect();
    for id in &ids {
        engine
            .admit(TenantConfig::new(id.clone(), 6, 1.5, PolicySpec::Lcp))
            .expect("admit");
    }
    // The test's own fold of offered and dropped load, in commit order.
    let (mut load_sum, mut dropped_sum) = (0.0f64, 0.0f64);
    let mut run = |engine: &Engine, from: usize, to: usize| {
        for slot in from..to {
            let events: Vec<(String, Cost, Option<f64>)> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| {
                    let load = ((slot * 7 + i * 3) % 23) as f64 * 0.37;
                    (id.clone(), Cost::abs(1.0, load), Some(load))
                })
                .collect();
            let outcomes = engine.step_batch_loads(events.clone()).expect("step");
            for ((_, _, load), outcome) in events.iter().zip(&outcomes) {
                let load = load.expect("load");
                let x = outcome.states[0] as f64;
                load_sum += load;
                dropped_sum += (load - x).max(0.0);
            }
        }
        (load_sum, dropped_sum)
    };
    let assert_fleet = |engine: &Engine, before: &[ShardStats], (load, dropped): (f64, f64)| {
        let after = engine.shard_stats().expect("stats");
        assert_eq!(fleet_sums(&after), fleet_sums(before));
        // Every slot now lives on shard 0.
        assert_eq!(after[0].metric_slots, fleet_sums(before).0);
        let rate = dropped / load;
        assert!(rate > 0.0);
        let err = (after[0].drop_rate - rate).abs() / rate;
        assert!(err <= 1e-12, "drop_rate {} vs {rate}", after[0].drop_rate);
    };

    let totals = run(&engine, 0, 40);
    let before = engine.shard_stats().expect("stats");
    assert!(before.iter().all(|s| s.metric_slots > 0), "{before:?}");
    // A full rebalance merges every old shard onto the new shard 0.
    engine.rebalance(2, None).expect("rebalance");
    assert_fleet(&engine, &before, totals);

    let totals = run(&engine, 40, 80);
    let before = engine.shard_stats().expect("stats");
    assert!(before.iter().all(|s| s.metric_slots > 0), "{before:?}");
    // Shrinking incrementally folds the retired shard onto shard 0.
    engine.rebalance_incremental(1, None).expect("shrink");
    assert_fleet(&engine, &before, totals);

    // Growing incrementally moves no history at all.
    let before = engine.shard_stats().expect("stats");
    engine.rebalance_incremental(3, None).expect("grow");
    let after = engine.shard_stats().expect("stats");
    assert_eq!(fleet_sums(&after), fleet_sums(&before));
    assert_eq!(after[0].drop_rate.to_bits(), before[0].drop_rate.to_bits());
}
