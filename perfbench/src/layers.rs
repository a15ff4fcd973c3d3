//! The traced run: per-layer metrics.
//!
//! The program carries no spans of its own, so the benchmark replays a
//! workload's generated records through each layer's public calls itself —
//! decode, intern, engine batch, reply encode, journal codec, store — the
//! same sequence a session performs, with a span around each call. Store
//! spans come from an `InstrumentedStore` observer and nest under the
//! engine batch (or checkpoint, or recovery) that caused them. The policy
//! runs on the shard worker, out of the benchmark's reach, so its cost per
//! batch is measured by stepping mirror tenants over the same events; the
//! shard hand-off is the batch's self time minus that.

use crate::durable::{self, Dirs};
use crate::gen::{Framing, Kind, Stream};
use crate::report::Report;
use crate::serve::{self, Spec};
use crate::spans::{self, Span, Tracer};
use crate::Args;
use rsdc_core::Cost;
use rsdc_engine::binwire::{BinSession, BodyReader, FrameDecoder};
use rsdc_engine::journal::{JournalEvent, JournalRecord};
use rsdc_engine::tenant::Tenant;
use rsdc_engine::wire::{self, LineSession, Record, Session};
use rsdc_engine::{Engine, StepEvent, StepOutcome};
use rsdc_online::streaming::{StreamLcp, StreamRounded, StreamingPolicy};
use rsdc_store::{Durability, InstrumentedStore, StoreObserver, StoreOp};
use rsdc_workloads::builder::CostModel;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The session's step-batch cap (`wire::MAX_STEP_BATCH`, crate-private).
const MAX_STEP_BATCH: usize = 1024;

/// Spans that exist only to measure (mirror policy steps, the journal
/// codec on paths that do not journal); excluded from traced throughput.
const MEASURE_ONLY: [&str; 3] = ["tenant.mirror", "journal.encode", "journal.decode"];

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
const LAYERS: [(&str, &str, &str); 32] = [
    (
        "serve.events_per_flush",
        "count",
        "p50_ms.lo on serve-binary-policy",
    ),
    (
        "serve.overhead_ns_per_event",
        "ns",
        "throughput_eps on serve-jsonl-control",
    ),
    (
        "serve.shed",
        "count",
        "error_frac (failed) on both serve workloads",
    ),
    (
        "wire.decode_ns",
        "ns",
        "throughput_eps, p99_ms.hi on serve-jsonl-control",
    ),
    (
        "wire.encode_ns",
        "ns",
        "throughput_eps, p99_ms.hi on serve-jsonl-control",
    ),
    (
        "wire.feed_ns_per_event",
        "ns",
        "throughput_eps, p99_ms.hi on serve-jsonl-control",
    ),
    (
        "wire.bytes_in_per_event",
        "bytes",
        "throughput_eps, p99_ms.hi on serve-jsonl-control",
    ),
    (
        "wire.bytes_out_per_event",
        "bytes",
        "throughput_eps, p99_ms.hi on serve-jsonl-control",
    ),
    (
        "binwire.decode_ns",
        "ns",
        "throughput_eps on serve-binary-policy (small share)",
    ),
    (
        "binwire.feed_ns_per_event",
        "ns",
        "throughput_eps on serve-binary-policy (small share)",
    ),
    (
        "binwire.bytes_in_per_event",
        "bytes",
        "throughput_eps on serve-binary-policy (small share)",
    ),
    (
        "intern.resolve_ns",
        "ns",
        "throughput_eps on serve-jsonl-control",
    ),
    (
        "admission.admit_ns",
        "ns",
        "setup_s on serve-binary-policy and serve-jsonl-control",
    ),
    (
        "engine.batch_ns",
        "ns",
        "throughput_eps on serve-jsonl-control and durable-ticks",
    ),
    (
        "engine.events_per_batch",
        "count",
        "throughput_eps on serve-jsonl-control and durable-ticks",
    ),
    (
        "shard.handoff_ns_per_batch",
        "ns",
        "throughput_eps on serve-jsonl-control and durable-ticks",
    ),
    (
        "online.step_ns.lcp",
        "ns",
        "throughput_eps, p99_ms.hi on serve-binary-policy; none on serve-jsonl-control",
    ),
    (
        "online.step_ns.halfstep",
        "ns",
        "throughput_eps, p99_ms.hi on serve-binary-policy; none on serve-jsonl-control",
    ),
    (
        "journal.encode_ns",
        "ns",
        "throughput_eps, p50_ms.lo on durable-ticks",
    ),
    ("journal.decode_ns", "ns", "setup_s on durable-ticks"),
    (
        "journal.bytes_per_event",
        "bytes",
        "throughput_eps on durable-ticks",
    ),
    (
        "store.append_ns",
        "ns",
        "p99_ms.hi, throughput_eps on durable-ticks",
    ),
    (
        "store.appends",
        "count",
        "p99_ms.hi, throughput_eps on durable-ticks",
    ),
    (
        "store.sync_ns",
        "ns",
        "p99_ms.hi, throughput_eps on durable-ticks",
    ),
    (
        "store.syncs",
        "count",
        "p99_ms.hi, throughput_eps on durable-ticks",
    ),
    (
        "store.checkpoint_ns",
        "ns",
        "p99_ms.hi, throughput_eps on durable-ticks",
    ),
    (
        "store.checkpoint_bytes",
        "bytes",
        "p99_ms.hi, throughput_eps on durable-ticks",
    ),
    (
        "engine.recover_s",
        "s",
        "setup_s, p99_ms.hi on durable-ticks",
    ),
    (
        "engine.events_replayed",
        "count",
        "setup_s, p99_ms.hi on durable-ticks",
    ),
    (
        "engine.checkpoint_ns",
        "ns",
        "setup_s, p99_ms.hi on durable-ticks",
    ),
    (
        "trace.traced_eps",
        "1/s",
        "tracing overhead: traced replay vs trace.untraced_eps",
    ),
    (
        "trace.untraced_eps",
        "1/s",
        "tracing overhead: untraced replay of the same records",
    ),
];

/// Per-layer values gathered by one traced run, reported in `LAYERS` order.
#[derive(Default)]
struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            LAYERS.iter().any(|l| l.0 == name),
            "unlisted layer metric {name}"
        );
        self.0.insert(name, v);
    }

    fn report(self, report: &mut Report) {
        for (name, unit, moves) in LAYERS {
            let v = self.0.get(name).copied().unwrap_or(0.0);
            report.layer(name, v, unit, moves);
        }
    }
}

/// Store observer that records each durable operation as a span under the
/// tracer's current context.
struct StoreSpans(Arc<Tracer>);

impl StoreObserver for StoreSpans {
    fn observe(&self, op: StoreOp, nanos: u64, bytes: u64) {
        let name = match op {
            StoreOp::Append => "store.append",
            StoreOp::Sync => "store.sync",
            StoreOp::CommitCheckpoint => "store.checkpoint",
        };
        self.0.push_in_context(name, nanos, bytes);
    }
}

/// The decomposed, traced replay of a stream through one engine.
struct Replay<'a> {
    tracer: &'a Tracer,
    engine: &'a Engine,
    framing: Framing,
    /// Rendered request bytes and per-record end offsets in `framing`.
    bytes: Vec<u8>,
    ends: Vec<usize>,
    models: HashMap<String, CostModel>,
    mirrors: HashMap<String, Tenant>,
    checkpoint_every: u64,
    since_checkpoint: u64,
    req: u64,
    events: Vec<StepEvent>,
    outcomes: Vec<StepOutcome>,
}

impl<'a> Replay<'a> {
    fn new(tracer: &'a Tracer, engine: &'a Engine, s: &Stream, framing: Framing) -> Self {
        let (bytes, ends) = s.render(framing);
        Replay {
            tracer,
            engine,
            framing,
            bytes,
            ends,
            models: HashMap::new(),
            mirrors: HashMap::new(),
            checkpoint_every: 0,
            since_checkpoint: 0,
            req: 0,
            events: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Request bytes of records `i..j`.
    fn records(&self, i: usize, j: usize) -> &[u8] {
        let start = match i {
            0 if self.framing == Framing::Binary => rsdc_engine::binwire::PREAMBLE.len(),
            0 => 0,
            _ => self.ends[i - 1],
        };
        &self.bytes[start..self.ends[j - 1]]
    }

    /// Admits and steps applied to the mirror tenants only (for state the
    /// engine already holds, e.g. a recovered prefix).
    fn warm_mirrors(&mut self, s: &Stream, end: usize) {
        for i in 0..end {
            let r = &s.recs[i];
            let t = &s.tenants[r.tenant as usize];
            match r.kind {
                Kind::Admit => {
                    let Ok(Record::Admit { config, cost_model }) = wire::parse_record(&s.line(i))
                    else {
                        panic!("generated admit does not parse");
                    };
                    self.models.insert(config.id.clone(), cost_model);
                    self.mirrors.insert(
                        config.id.clone(),
                        Tenant::new(config).expect("valid tenant"),
                    );
                }
                Kind::Step => {
                    let cost = price(&self.models[&t.config.id], r.load);
                    let m = self.mirrors.get_mut(&t.config.id).expect("mirror");
                    m.step(&cost, Some(r.load)).expect("mirror step");
                }
                Kind::Control => {}
            }
        }
    }

    fn run(&mut self, s: &Stream, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            match s.recs[i].kind {
                Kind::Admit => {
                    self.admit(s, i);
                    i += 1;
                }
                Kind::Control => {
                    self.control(s, i);
                    i += 1;
                }
                Kind::Step => {
                    let mut j = i;
                    while j < end && s.recs[j].kind == Kind::Step && j - i < MAX_STEP_BATCH {
                        j += 1;
                    }
                    self.batch(i, j);
                    i = j;
                }
            }
        }
    }

    fn admit(&mut self, s: &Stream, i: usize) {
        let Ok(Record::Admit { config, cost_model }) = wire::parse_record(&s.line(i)) else {
            panic!("generated admit does not parse");
        };
        let id = config.id.clone();
        self.models.insert(id.clone(), cost_model);
        self.mirrors
            .insert(id, Tenant::new(config.clone()).expect("valid tenant"));
        let engine = self.engine;
        self.tracer
            .time("admission.admit", None, 0, 1, || engine.admit(config))
            .expect("admit");
    }

    fn control(&mut self, s: &Stream, i: usize) {
        let id = &s.tenants[s.recs[i].tenant as usize].config.id;
        let engine = self.engine;
        self.tracer
            .time("session.control", None, self.req, 1, || engine.report(id))
            .expect("report");
    }

    fn batch(&mut self, i: usize, j: usize) {
        let t = self.tracer;
        let req = self.req;
        self.req += 1;
        let n = (j - i) as u64;

        // Decode.
        let decoded: Vec<(String, f64)> = match self.framing {
            Framing::Jsonl => t.time("wire.decode", None, req, n, || {
                (i..j)
                    .map(|k| {
                        let line = std::str::from_utf8(self.records(k, k + 1)).expect("utf-8");
                        match wire::parse_record(line.trim_end()) {
                            Ok(Record::Step { id, load, .. }) => (id, load.expect("load")),
                            other => panic!("expected a step record, got {other:?}"),
                        }
                    })
                    .collect()
            }),
            Framing::Binary => t.time("binwire.decode", None, req, n, || {
                let mut dec = FrameDecoder::new();
                dec.extend(self.records(i, j));
                let mut out = Vec::with_capacity(j - i);
                while let Some(frame) = dec.next_frame().expect("valid frame") {
                    let mut r = BodyReader::new(frame.body);
                    let id = r.str16().expect("id").to_string();
                    out.push((id, r.f64().expect("load")));
                }
                out
            }),
        };

        // Intern/route.
        let engine = self.engine;
        let resolved: Vec<_> = t.time("intern.resolve", None, req, n, || {
            decoded.iter().map(|(id, _)| engine.resolve(id)).collect()
        });
        for ((id, key), (name, load)) in resolved.into_iter().zip(&decoded) {
            self.events.push(StepEvent {
                id,
                key,
                cost: price(&self.models[name], *load),
                load: Some(*load),
            });
        }
        let journal = JournalRecord::Batch(
            self.events
                .iter()
                .map(|e| JournalEvent {
                    id: e.id.to_string(),
                    cost: e.cost.clone(),
                    load: e.load,
                })
                .collect(),
        );

        // Engine batch; store spans attach to it.
        let batch = t.open("engine.batch", None, req);
        t.enter(Some(batch), req);
        self.outcomes.clear();
        engine
            .step_events(&mut self.events, &mut self.outcomes)
            .expect("step_events");
        t.close(batch, n);

        // Reply encode.
        let outcomes = &self.outcomes;
        let bytes: usize = t.time("wire.encode", None, req, n, || {
            outcomes.iter().map(|o| wire::stepped_line(o).len()).sum()
        });
        std::hint::black_box(bytes);

        // Journal codec and the mirror policy steps.
        let encoded = t.time("journal.encode", None, req, n, || journal.encode());
        let back = t.time("journal.decode", None, req, encoded.len() as u64, || {
            JournalRecord::decode(&encoded)
        });
        std::hint::black_box(back.expect("journal round trip"));
        let JournalRecord::Batch(events) = journal else {
            unreachable!()
        };
        let mirrors = &mut self.mirrors;
        t.time("tenant.mirror", Some(batch), req, n, || {
            for e in &events {
                let m = mirrors.get_mut(&e.id).expect("mirror");
                std::hint::black_box(m.step(&e.cost, e.load).expect("mirror step"));
            }
        });

        if self.checkpoint_every > 0 {
            self.since_checkpoint += n;
            if self.since_checkpoint >= self.checkpoint_every {
                self.since_checkpoint = 0;
                let ck = t.open("engine.checkpoint", None, req);
                t.enter(Some(ck), req);
                engine.checkpoint().expect("checkpoint");
                t.close(ck, 1);
            }
        }
        t.enter(None, 0);
    }
}

/// Price a load exactly as the session does for a scalar tenant.
fn price(model: &CostModel, load: f64) -> Cost {
    Cost::Server {
        lambda: load,
        params: model.server,
        overload: model.overload,
    }
}

/// Mean span duration and total count, per name.
fn mean_ns(spans: &[Span], name: &str) -> (f64, u64) {
    let (dur, count, n) = spans::totals(spans, name);
    (if n == 0 { 0.0 } else { dur as f64 / n as f64 }, count)
}

/// Nanoseconds per counted item.
fn per_item(spans: &[Span], name: &str) -> f64 {
    let (dur, count, _) = spans::totals(spans, name);
    if count == 0 {
        0.0
    } else {
        dur as f64 / count as f64
    }
}

/// Fill the span-derived metrics; returns the traced replay's busy time
/// (wall time minus measure-only spans).
///
/// `syncs` is the store's own fsync count over the replay, for a durable
/// engine (`None` on a `NullStore`). The store fsyncs inside `append`
/// every 32 records, so the fsync cost is read off the `syncs` slowest
/// appends: their mean minus the other appends' mean.
fn from_spans(spans: &[Span], wall_ns: u64, syncs: Option<u64>, v: &mut Values) -> f64 {
    v.set("wire.decode_ns", per_item(spans, "wire.decode"));
    v.set("binwire.decode_ns", per_item(spans, "binwire.decode"));
    v.set("wire.encode_ns", per_item(spans, "wire.encode"));
    v.set("intern.resolve_ns", per_item(spans, "intern.resolve"));
    v.set("admission.admit_ns", per_item(spans, "admission.admit"));
    let (batch_ns, events) = mean_ns(spans, "engine.batch");
    let batches = spans.iter().filter(|s| s.name == "engine.batch").count();
    v.set("engine.batch_ns", batch_ns);
    v.set(
        "engine.events_per_batch",
        events as f64 / batches.max(1) as f64,
    );
    v.set("journal.encode_ns", per_item(spans, "journal.encode"));
    let (dec, _, _) = spans::totals(spans, "journal.decode");
    let (_, journal_events, _) = spans::totals(spans, "journal.encode");
    let (_, journal_bytes, _) = spans::totals(spans, "journal.decode");
    v.set(
        "journal.decode_ns",
        dec as f64 / journal_events.max(1) as f64,
    );
    v.set(
        "journal.bytes_per_event",
        journal_bytes as f64 / journal_events.max(1) as f64,
    );
    let mut appends: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "store.append")
        .map(|s| s.dur() as f64)
        .collect();
    appends.sort_by(f64::total_cmp);
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let slow = (syncs.unwrap_or(0) as usize).min(appends.len());
    let (plain, synced) = appends.split_at(appends.len() - slow);
    v.set("store.append_ns", mean(&appends));
    v.set("store.appends", appends.len() as f64);
    v.set(
        "store.sync_ns",
        if slow == 0 {
            0.0
        } else {
            mean(synced) - mean(plain)
        },
    );
    v.set("store.syncs", slow as f64);
    let (ck, ck_bytes) = mean_ns(spans, "store.checkpoint");
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    v.set("store.checkpoint_ns", ck);
    v.set(
        "store.checkpoint_bytes",
        ck_bytes as f64 / count("store.checkpoint").max(1.0),
    );
    v.set(
        "engine.checkpoint_ns",
        mean_ns(spans, "engine.checkpoint").0,
    );

    // Shard hand-off: batch self time (store children removed) minus the
    // work the shard does for the batch — the mirror policy steps and, on
    // a durable engine, encoding the batch's journal record.
    let self_ns = spans::self_times(spans);
    let by_req = |name: &str| -> HashMap<u64, u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.req, s.dur()))
            .collect()
    };
    let mirror = by_req("tenant.mirror");
    let journal = if syncs.is_some() {
        by_req("journal.encode")
    } else {
        HashMap::new()
    };
    let handoff: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "engine.batch")
        .map(|(i, s)| {
            let shard_work = mirror.get(&s.req).unwrap_or(&0) + journal.get(&s.req).unwrap_or(&0);
            self_ns[i] as f64 - shard_work as f64
        })
        .collect();
    v.set(
        "shard.handoff_ns_per_batch",
        if handoff.is_empty() {
            0.0
        } else {
            handoff.iter().sum::<f64>() / handoff.len() as f64
        },
    );
    let measure_only: u64 = spans
        .iter()
        .filter(|s| MEASURE_ONLY.contains(&s.name))
        .map(Span::dur)
        .sum();
    wall_ns.saturating_sub(measure_only) as f64
}

/// Drive the streaming policies directly over the workload's costs.
fn online(s: &Stream, v: &mut Values) {
    let f = &s.tenants[0].config;
    let model = f.load_cost_model();
    let costs: Vec<Cost> = s
        .recs
        .iter()
        .filter(|r| r.kind == Kind::Step)
        .take(20_000)
        .map(|r| price(&model, r.load))
        .collect();
    let mut policies: [(&'static str, Box<dyn StreamingPolicy>); 2] = [
        ("online.step_ns.lcp", Box::new(StreamLcp::new(f.m, f.beta))),
        (
            "online.step_ns.halfstep",
            Box::new(StreamRounded::halfstep(f.m, f.beta, 7)),
        ),
    ];
    let mut states = Vec::new();
    for (name, p) in policies.iter_mut() {
        let t0 = Instant::now();
        for c in &costs {
            states.clear();
            p.ingest(c, &mut states);
            std::hint::black_box(&states);
        }
        v.set(name, t0.elapsed().as_nanos() as f64 / costs.len() as f64);
    }
}

/// Untraced session feed of a whole stream in one framing: `(ns/event,
/// request bytes/event, reply bytes/event, events)`.
fn feed(s: &Stream, framing: Framing, engine: Engine) -> (f64, f64, f64, usize) {
    let (bytes, _) = s.render(framing);
    let steps = s.steps_in(0, s.recs.len());
    let mut out = Vec::new();
    let t0 = Instant::now();
    match framing {
        Framing::Jsonl => {
            let mut ls = LineSession::new(Session::new(engine));
            for chunk in bytes.chunks(64 * 1024) {
                ls.feed(chunk, &mut out);
            }
            ls.finish(&mut out);
        }
        Framing::Binary => {
            let mut bs = BinSession::new(Session::new(engine));
            for chunk in bytes.chunks(64 * 1024) {
                bs.feed(chunk, &mut out);
            }
            bs.finish(&mut out);
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let per = |x: f64| x / steps as f64;
    (
        per(ns),
        per(bytes.len() as f64),
        per(out.len() as f64),
        steps,
    )
}

fn write_spans(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<Vec<Span>, String> {
    let spans = tracer.take();
    let dir = args.workdir.join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    spans::write(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    report.check(
        "spans written",
        !spans.is_empty(),
        format!("{} spans to {}", spans.len(), path.display()),
    );
    Ok(spans)
}

pub fn serve(
    spec: &Spec,
    args: &Args,
    streams: &[Stream],
    report: &mut Report,
) -> Result<(), String> {
    let mut v = Values::default();
    // The real server, driven as in the untraced run, for what only the
    // client can see.
    let (mean_burst, shed, server_eps) = serve::client_view(spec, args, streams, report)?;
    v.set("serve.events_per_flush", mean_burst);
    v.set("serve.shed", shed as f64);

    // In-process replays of connection 0's records.
    let s = &streams[0];
    let (wire_ns, wire_in, wire_out, steps) =
        feed(s, Framing::Jsonl, Engine::new(serve::engine_config()));
    v.set("wire.feed_ns_per_event", wire_ns);
    v.set("wire.bytes_in_per_event", wire_in);
    v.set("wire.bytes_out_per_event", wire_out);
    let (bin_ns, bin_in, _, _) = feed(s, Framing::Binary, Engine::new(serve::engine_config()));
    v.set("binwire.feed_ns_per_event", bin_ns);
    v.set("binwire.bytes_in_per_event", bin_in);
    // One connection's wall time per event through the server, minus the
    // same connection's records fed to a session in process.
    let own_ns = if spec.framing == Framing::Jsonl {
        wire_ns
    } else {
        bin_ns
    };
    let conn_eps = server_eps / serve::CONNS as f64;
    v.set("serve.overhead_ns_per_event", 1e9 / conn_eps - own_ns);
    v.set("trace.untraced_eps", 1e9 / own_ns);

    let tracer = Tracer::default();
    let engine = Engine::new(serve::engine_config());
    let t0 = Instant::now();
    let mut replay = Replay::new(&tracer, &engine, s, spec.framing);
    replay.run(s, 0, s.recs.len());
    let wall = t0.elapsed().as_nanos() as u64;
    drop(replay);
    engine.shutdown();
    let spans = write_spans(args, &tracer, report)?;
    let busy = from_spans(&spans, wall, None, &mut v);
    v.set("trace.traced_eps", steps as f64 / busy * 1e9);
    online(s, &mut v);
    report.attempted = steps as u64;
    v.report(report);
    Ok(())
}

pub fn durable(args: &Args, s: &Stream, dirs: &Dirs, report: &mut Report) -> Result<(), String> {
    let mut v = Values::default();
    let tracer = Arc::new(Tracer::default());
    let tail_start = s.phase("lo").start;
    let steps = s.steps_in(tail_start, s.recs.len());

    // Untraced: the session path, closed loop, one tick per feed.
    let dir = dirs.copy_prefix("untraced")?;
    let (session, _) = rsdc_engine::wire::Session::open_durable_cfg(
        durable::engine_config(),
        durable::open_store(&dir)?,
    )
    .map_err(|e| e.to_string())?;
    let mut ls = LineSession::new(session.with_auto_checkpoint(durable::CHECKPOINT_EVERY));
    let ticks: Vec<Vec<u8>> = s
        .phases
        .iter()
        .filter(|p| p.start >= tail_start)
        .flat_map(|p| durable::ticks(s, p))
        .map(|(a, b)| durable::bytes(s, a, b))
        .collect();
    let (mut out, mut replies, mut failed) = (Vec::new(), 0usize, 0);
    let t0 = Instant::now();
    for w in &ticks {
        out.clear();
        ls.feed(w, &mut out);
        replies += out.iter().filter(|&&b| b == b'\n').count();
        failed += durable::errors(&out);
    }
    let untraced_ns = t0.elapsed().as_nanos() as f64;
    drop(ls);
    let in_bytes: usize = ticks.iter().map(Vec::len).sum();
    v.set("wire.feed_ns_per_event", untraced_ns / steps as f64);
    v.set("wire.bytes_in_per_event", in_bytes as f64 / steps as f64);
    v.set("trace.untraced_eps", steps as f64 / untraced_ns * 1e9);
    v.set(
        "serve.events_per_flush",
        replies as f64 / ticks.len() as f64,
    );
    let (_, _, wire_out, _) = feed(s, Framing::Jsonl, Engine::new(durable::engine_config()));
    v.set("wire.bytes_out_per_event", wire_out);
    let (bin_ns, bin_in, _, _) = feed(s, Framing::Binary, Engine::new(durable::engine_config()));
    v.set("binwire.feed_ns_per_event", bin_ns);
    v.set("binwire.bytes_in_per_event", bin_in);

    // Traced: recovery, then the same ticks through the layer calls.
    let dir = dirs.copy_prefix("traced")?;
    let observer: Arc<dyn StoreObserver> = Arc::new(StoreSpans(tracer.clone()));
    let store: Arc<dyn Durability> =
        Arc::new(InstrumentedStore::new(durable::open_store(&dir)?, observer));
    let rec = tracer.open("engine.recover", None, 0);
    tracer.enter(Some(rec), 0);
    let (engine, recovery) =
        Engine::recover(durable::engine_config(), store.clone()).map_err(|e| e.to_string())?;
    tracer.close(rec, recovery.events_replayed as u64);
    tracer.enter(None, 0);
    v.set("engine.events_replayed", recovery.events_replayed as f64);
    let mut replay = Replay::new(&tracer, &engine, s, Framing::Jsonl);
    replay.warm_mirrors(s, tail_start);
    replay.checkpoint_every = durable::CHECKPOINT_EVERY;
    let syncs = || {
        store
            .wal_stats()
            .map(|st| st.syncs)
            .map_err(|e| e.to_string())
    };
    let syncs0 = syncs()?;
    let t0 = Instant::now();
    replay.run(s, tail_start, s.recs.len());
    let wall = t0.elapsed().as_nanos() as u64;
    drop(replay);
    let synced = syncs()? - syncs0;
    let reports = engine.report_all().map_err(|e| e.to_string())?;
    engine.shutdown();
    let spans = write_spans(args, &tracer, report)?;
    let recover_ns = spans
        .iter()
        .find(|s| s.name == "engine.recover")
        .map_or(0, Span::dur);
    v.set("engine.recover_s", recover_ns as f64 / 1e9);
    let busy = from_spans(&spans, wall, Some(synced), &mut v);
    v.set("trace.traced_eps", steps as f64 / busy * 1e9);
    online(s, &mut v);

    let worst = reports.iter().filter_map(|t| t.ratio).fold(0.0, f64::max);
    report.check(
        "LCP ratio <= 3",
        worst <= 3.0,
        format!("worst ratio {worst:.4}"),
    );
    report.check(
        "error_frac",
        failed == 0,
        format!("{failed} error replies over {steps} steps"),
    );
    report.attempted = steps as u64;
    report.failed = failed;
    v.report(report);
    Ok(())
}
