//! Result collection and output: human-readable lines, the full result
//! file (host block, phases, checks, metrics) and the one-line summary.

use crate::{stats, Args};
use serde::Value;
use std::io::Write;

/// Latency samples of one open-loop rate, gathered over its slices.
#[derive(Default)]
pub struct OpenLoop {
    /// Step latencies (ms), one vector per slice.
    pub slices: Vec<Vec<f64>>,
    /// How late the generator handed each record over, ms.
    pub lag: Vec<f64>,
    /// First and last quarter of each slice's samples.
    pub first: Vec<f64>,
    pub last: Vec<f64>,
    /// Longest wait from a slice's last due time to its last reply, ms.
    pub drain_ms: f64,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// For per-layer metrics: the end-to-end metric and workload it should move.
    moves: Option<&'static str>,
}

/// One run's results.
pub struct Report {
    workload: String,
    host: Value,
    phases: Vec<Value>,
    checks: Vec<(String, bool, String)>,
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            workload: args.workload.clone(),
            host: Value::Null,
            phases: Vec::new(),
            checks: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn set_host(&mut self, host: Value) {
        println!("host {}", serde_json::to_string(&host).expect("json"));
        self.host = host;
    }

    pub fn phase(&mut self, phase: Value) {
        println!("phase {}", serde_json::to_string(&phase).expect("json"));
        self.phases.push(phase);
    }

    /// Record a correctness or validity check; any failure fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        println!(
            "check {:<34} {} {detail}",
            name,
            if ok { "ok  " } else { "FAIL" }
        );
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Report one open-loop rate: its phase block, the backlog check, and
    /// its `p50_ms.NAME`/`p99_ms.NAME` metrics (medians over slices).
    pub fn open_loop(
        &mut self,
        name: &str,
        rate: f64,
        what: String,
        limit_ms: f64,
        mut o: OpenLoop,
    ) {
        let (q1, q4) = (stats::median(&o.first), stats::median(&o.last));
        o.lag.sort_by(f64::total_cmp);
        let (p50, tail) = stats::sliced(&o.slices);
        let sustained = o.drain_ms <= limit_ms && q4 <= 2.0 * q1 + 2.0;
        self.phase(serde_json::json!({
            "phase": format!("open loop at {rate} steps/s, {what}, {} slices", o.slices.len()),
            "name": name,
            "offered_eps": rate,
            "steps": o.slices.iter().map(Vec::len).sum::<usize>(),
            "p50_ms": p50,
            "tail_pct": tail.pct,
            "tail_ms": tail.value,
            "tail_samples_per_slice": tail.n,
            "p99_limit_ms": limit_ms,
            "met_limit": tail.pct == 99.0 && tail.value <= limit_ms,
            "lag_p50_ms": stats::percentile(&o.lag, 50.0),
            "lag_p99_ms": stats::tail(&o.lag, 99.0).value,
            "drain_ms": o.drain_ms,
            "p50_first_quarter_ms": q1,
            "p50_last_quarter_ms": q4,
            "sustained": sustained,
        }));
        self.check(
            &format!("{name}: no growing backlog"),
            sustained,
            format!(
                "drain {:.2} ms after last due; p50 first/last quarter {q1:.2}/{q4:.2} ms",
                o.drain_ms
            ),
        );
        self.metric(&format!("p50_ms.{name}"), p50, "ms");
        self.metric(&format!("p99_ms.{name}"), tail.value, "ms");
    }

    /// An end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            moves: None,
        });
    }

    /// A per-layer metric, tagged with what it should move.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, moves: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            moves: Some(moves),
        });
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }

    pub fn finish(&self, args: &Args) -> std::io::Result<()> {
        for m in &self.metrics {
            match m.moves {
                None => println!("metric {:<26} {:>14.4} {}", m.name, m.value, m.unit),
                Some(moves) => println!(
                    "layer  {:<30} {:>14.4} {:<6} -> {moves}",
                    m.name, m.value, m.unit
                ),
            }
        }
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        serde_json::json!({"value": m.value, "unit": m.unit}),
                    )
                })
                .collect(),
        );
        let full = serde_json::json!({
            "workload": self.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": self.host.clone(),
            "phases": Value::Array(self.phases.clone()),
            "checks": Value::Array(self.checks.iter().map(|(n, ok, d)| {
                serde_json::json!({"name": n, "ok": ok, "detail": d})
            }).collect()),
            "layers": Value::Array(self.metrics.iter().filter_map(|m| m.moves.map(|moves| {
                serde_json::json!({"name": m.name, "moves": moves})
            })).collect()),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics.clone(),
        });
        let dir = args.workdir.join("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload, args.seed, args.trace as u8
        ));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(
            serde_json::to_string_pretty(&full)
                .expect("json")
                .as_bytes(),
        )?;
        f.write_all(b"\n")?;
        println!("result {}", path.display());
        let summary = serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": metrics,
        });
        println!("{}", serde_json::to_string(&summary).expect("json"));
        std::io::stdout().flush()
    }
}
