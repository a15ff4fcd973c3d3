//! The durable tick loop: the `rsdc engine --data-dir` path in process — a
//! durable `wire::Session` on a `FileStore`, fed one tick at a time.
//!
//! Set-up recovers a store left by an untimed prefix that crashed (the
//! session dropped without shutdown). Then come two open-loop phases
//! (Poisson step arrivals; a tick is processed once its last record is
//! due) and closed-loop saturation rounds (each tick fed as soon as the
//! previous one answered).

use crate::gen::{self, Fleet, Framing, Kind, Phase, Rng, Stream};
use crate::report::{OpenLoop, Report};
use crate::{host, layers, stats, Args};
use rsdc_engine::wire::{LineSession, Session};
use rsdc_engine::{Engine, EngineConfig};
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const FLEET: Fleet = Fleet {
    tenants: 64,
    m: 128,
    beta: 6.0,
    halfstep_share: 0.0,
    track_opt: true,
};
/// WAL fsync cadence, in appended records (the CLI default).
pub const SYNC_EVERY: u64 = 32;
/// Auto-checkpoint cadence, in applied step events.
pub const CHECKPOINT_EVERY: u64 = 16_384;
/// Ticks run before the crash: one checkpoint (at 256 ticks) plus a
/// 192-tick WAL tail for recovery to replay.
const PREFIX_TICKS: usize = 448;
/// Recoveries timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Offered steps/s in the open-loop slices (well under half of the
/// closed-loop capacity on a 2-core host) and ticks per slice (0.5 s and
/// 1 s; at least 16 ticks, so a slice's p99 has ten samples beyond it).
/// At 6k steps/s a step's p99 was ~14 ms, near the stalls a busy shared
/// host imposes, and varied twice as much between runs as at 3k.
pub const RATE_LO: f64 = 2_000.0;
pub const RATE_HI: f64 = 3_000.0;
const LO_TICKS: usize = 16;
const HI_TICKS: usize = 48;
/// A cycle — low slice, high slice, saturation round — is exactly one
/// checkpoint interval (16,384 events = 256 ticks). The session's count
/// restarts at recovery, so every checkpoint lands on the last tick of a
/// saturation round: each round pays exactly one, and the open-loop
/// slices measure latency between checkpoints (the stall itself is
/// `engine.checkpoint_ns` in the traced run and in the rounds' rate).
const CYCLE_TICKS: usize = CHECKPOINT_EVERY as usize / 64;
const ROUND_TICKS: usize = CYCLE_TICKS - LO_TICKS - HI_TICKS;
/// The p99 latency limit each fixed-rate phase is held to.
const P99_LIMIT_MS: f64 = 100.0;

/// The whole run's request stream: admits, the crashed prefix, then
/// cycles of (low-rate slice, high-rate slice, saturation round).
pub fn stream(seed: u64, seconds: f64) -> Stream {
    let mut rng = Rng::new(seed);
    let tenants = gen::fleet(&mut rng, "d-", FLEET);
    let mut s = Stream::new(Framing::Jsonl, tenants);
    s.tick_phase(&mut rng, "prefix", None, PREFIX_TICKS);
    for _ in 0..gen::cycles(seconds) {
        s.tick_phase(&mut rng, "lo", Some(RATE_LO), LO_TICKS);
        s.tick_phase(&mut rng, "hi", Some(RATE_HI), HI_TICKS);
        s.tick_phase(&mut rng, "sat", None, ROUND_TICKS);
    }
    s
}

pub fn engine_config() -> EngineConfig {
    EngineConfig::with_shards(1)
}

pub fn open_store(dir: &Path) -> Result<Arc<dyn Durability>, String> {
    let store = FileStore::open(
        dir,
        FileStoreConfig {
            sync_every: SYNC_EVERY,
        },
    )
    .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    Ok(Arc::new(store))
}

/// Rendered JSONL bytes of records `start..end`.
pub fn bytes(s: &Stream, start: usize, end: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in start..end {
        out.extend_from_slice(s.line(i).as_bytes());
        out.push(b'\n');
    }
    out
}

/// Record ranges of each tick (steps then its control record) in `ph`.
pub fn ticks(s: &Stream, ph: &Phase) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = ph.start;
    for i in ph.start..ph.end {
        if s.recs[i].kind == Kind::Control {
            out.push((start, i + 1));
            start = i + 1;
        }
    }
    out
}

/// Scratch directories of one run, removed when dropped.
pub struct Dirs {
    pub root: PathBuf,
}

impl Dirs {
    pub fn new(workdir: &Path) -> Result<Dirs, String> {
        let root = workdir.join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Dirs { root })
    }

    /// Copy the crashed prefix store to a fresh directory.
    pub fn copy_prefix(&self, name: &str) -> Result<PathBuf, String> {
        let from = self.root.join("prefix");
        let to = self.root.join(name);
        copy_dir(&from, &to).map_err(|e| format!("copy store: {e}"))?;
        Ok(to)
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let target = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), target)?;
        }
    }
    Ok(())
}

/// Run the untimed prefix on a fresh store, then crash: drop the session
/// without shutdown.
pub fn crashed_prefix(s: &Stream, dirs: &Dirs) -> Result<(), String> {
    let store = open_store(&dirs.root.join("prefix"))?;
    let (session, recovered) =
        Session::open_durable_cfg(engine_config(), store).map_err(|e| e.to_string())?;
    if recovered.is_some() {
        return Err("prefix store was not empty".into());
    }
    let mut ls = LineSession::new(session.with_auto_checkpoint(CHECKPOINT_EVERY));
    let mut out = Vec::new();
    ls.feed(&bytes(s, 0, s.phase("prefix").end), &mut out);
    drop(ls);
    Ok(())
}

/// Count error replies in a JSONL reply buffer.
pub fn errors(out: &[u8]) -> u64 {
    out.split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"{\"op\":\"error\""))
        .count() as u64
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // One CPU for the session and its shard worker: the hand-off between
    // them then always takes the same path.
    if let Some(&cpu) = host::allowed_cpus().first() {
        host::pin_thread(cpu);
    }
    let dirs = Dirs::new(&args.workdir)?;
    // The engine runs inside this process: this binary is the one under test.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    report.set_host(host::block(&exe, Some(&dirs.root)));
    let s = stream(args.seed, args.seconds);
    crashed_prefix(&s, &dirs)?;
    if args.trace {
        return layers::durable(args, &s, &dirs, report);
    }

    // Set-up: recover the crashed store, several times from fresh copies.
    let mut setups = Vec::new();
    let mut session = None;
    for rep in 0..SETUP_REPS {
        let dir = dirs.copy_prefix(&format!("rep{rep}"))?;
        let t0 = Instant::now();
        let store = open_store(&dir)?;
        let (sess, recovered) =
            Session::open_durable_cfg(engine_config(), store).map_err(|e| e.to_string())?;
        setups.push(t0.elapsed().as_secs_f64());
        if recovered.is_none() {
            return Err("set-up found no state to recover".into());
        }
        if rep + 1 == SETUP_REPS {
            session = Some(sess);
        }
    }
    let session = session.expect("a recovered session");
    let mut ls = LineSession::new(session.with_auto_checkpoint(CHECKPOINT_EVERY));
    let mut out = Vec::new();
    let mut failed = 0;
    let mut attempted = 0u64;

    // The phases, in cycles: open-loop slices and closed-loop rounds.
    // Request bytes are rendered up front, outside every timed interval.
    let mut open: Vec<(&str, f64, OpenLoop)> = vec![
        ("lo", RATE_LO, OpenLoop::default()),
        ("hi", RATE_HI, OpenLoop::default()),
    ];
    let mut rounds = Vec::new();
    let mut tick_ms = Vec::new();
    for ph in s.phases.iter().skip_while(|p| p.name != "lo") {
        let ticks: Vec<(usize, usize, Vec<u8>)> = ticks(&s, ph)
            .into_iter()
            .map(|(a, b)| (a, b, bytes(&s, a, b)))
            .collect();
        attempted += s.steps_in(ph.start, ph.end) as u64;
        if ph.name == "sat" {
            let t0 = Instant::now();
            for (_, _, w) in &ticks {
                let t = Instant::now();
                out.clear();
                ls.feed(w, &mut out);
                tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
                failed += errors(&out);
            }
            rounds.push((
                s.steps_in(ph.start, ph.end) as f64,
                t0.elapsed().as_secs_f64(),
            ));
            continue;
        }
        let o = &mut open.iter_mut().find(|o| o.0 == ph.name).expect("phase").2;
        let t0 = Instant::now();
        let due = |i: usize| t0 + Duration::from_nanos(s.recs[i].due_ns);
        let mut lat = Vec::new();
        for (a, b, w) in &ticks {
            let at = due(b - 1);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let start = Instant::now();
            o.lag
                .push(start.saturating_duration_since(at).as_secs_f64() * 1e3);
            out.clear();
            ls.feed(w, &mut out);
            let done = Instant::now();
            failed += errors(&out);
            lat.extend((*a..b - 1).map(|i| (done - due(i)).as_secs_f64() * 1e3));
        }
        let drain = Instant::now().saturating_duration_since(due(ph.end - 1));
        o.drain_ms = o.drain_ms.max(drain.as_secs_f64() * 1e3);
        let n = lat.len();
        o.first.extend_from_slice(&lat[..n / 4]);
        o.last.extend_from_slice(&lat[n * 3 / 4..]);
        o.slices.push(lat);
    }
    for (name, rate, o) in open {
        let what = format!("{} steps per tick", FLEET.tenants);
        report.open_loop(name, rate, what, P99_LIMIT_MS, o);
    }
    let throughput = stats::rate(&rounds);
    let round_eps: Vec<f64> = rounds.iter().map(|(n, t)| n / t).collect();
    tick_ms.sort_by(f64::total_cmp);
    let tick_tail = stats::tail(&tick_ms, 99.0);
    report.phase(serde_json::json!({
        "phase": format!("closed loop: {} rounds x {ROUND_TICKS} ticks", round_eps.len()),
        "name": "sat",
        "round_eps_spread": stats::spread(&round_eps),
        "round_eps": round_eps,
        "tick_p50_ms": stats::percentile(&tick_ms, 50.0),
        "tick_tail_pct": tick_tail.pct,
        "tick_tail_ms": tick_tail.value,
        // The checkpoint ticks: the stall the open-loop slices are kept clear of.
        "tick_max_ms": tick_ms.last().copied().unwrap_or(0.0),
        "ticks": tick_tail.n,
    }));
    for (name, rate) in [("lo", RATE_LO), ("hi", RATE_HI)] {
        report.check(
            &format!("{name}: offered <= half capacity"),
            rate <= 0.5 * throughput,
            format!("{rate} steps/s vs throughput {throughput:.0} steps/s"),
        );
    }
    let (rss, threads) = host::proc_status(std::process::id()).ok_or("reading /proc/self")?;
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("throughput_eps", throughput, "1/s");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("threads_peak", threads as f64, "count");

    // Correctness: final reports equal an uncrashed in-memory run.
    let got = ls
        .session()
        .engine()
        .report_all()
        .map_err(|e| e.to_string())?;
    let want = {
        let mut reference = LineSession::new(Session::new(Engine::new(engine_config())));
        let mut sink = Vec::new();
        reference.feed(&bytes(&s, 0, s.recs.len()), &mut sink);
        reference.finish(&mut sink);
        reference
            .session()
            .engine()
            .report_all()
            .map_err(|e| e.to_string())?
    };
    let render = |r: &[rsdc_engine::TenantReport]| {
        let mut v: Vec<String> = r
            .iter()
            .map(|t| serde_json::to_string(t).expect("json"))
            .collect();
        v.sort();
        v
    };
    let same = render(&got) == render(&want);
    report.check(
        "reports == NullStore run",
        same && got.len() == FLEET.tenants,
        format!("{} tenant reports after crash + recovery", got.len()),
    );
    let worst = got.iter().filter_map(|t| t.ratio).fold(0.0, f64::max);
    let tracked = got.iter().filter(|t| t.ratio.is_some()).count();
    report.check(
        "LCP ratio <= 3",
        tracked == got.len() && worst <= 3.0,
        format!("worst online/OPT ratio {worst:.4} over {tracked} tenants"),
    );
    report.check(
        "error_frac",
        failed == 0,
        format!("{failed} error replies over {attempted} steps"),
    );
    report.attempted = attempted;
    report.failed = failed;
    Ok(())
}
