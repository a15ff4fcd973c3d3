//! The served workloads: `rsdc serve` in its own process, driven from this
//! one over two loopback connections by two threads (one per connection).
//!
//! Each connection's request stream is generated up front: the admits,
//! then cycles of an open-loop slice at the low rate, one at the high
//! rate, and saturation rounds with a bounded in-flight window. The reply
//! stream is recorded and afterwards checked byte-for-byte against a
//! serial in-process session fed the same request bytes.

use crate::gen::{self, Fleet, Framing, Kind, Phase, Rng, Stream};
use crate::report::{OpenLoop, Report};
use crate::{host, layers, stats, Args};
use rsdc_engine::binwire::{self, BinSession, TAG_RESP_ERROR};
use rsdc_engine::wire::{LineSession, Session};
use rsdc_engine::{Engine, EngineConfig};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One served workload.
pub struct Spec {
    pub framing: Framing,
    pub fleet: Fleet,
    /// Every n-th record per connection is a `report` control record.
    pub control_every: Option<usize>,
    /// Offered steps/s over both connections in the two open-loop phases.
    pub rate_lo: f64,
    pub rate_hi: f64,
    /// Steps per connection in one saturation round.
    pub round_steps: usize,
    /// The p99 latency limit each fixed-rate phase is held to.
    pub p99_limit_ms: f64,
}

/// Policy-step bound: binary decode is cheap, LCP's O(m) tracker and
/// HalfStep's fixed-iteration search at m=256 dominate, and steps reply
/// only at the engine's 1,024-step batch cap. Its saturation throughput
/// is ~60k steps/s on a 2-core host, so the high rate is 20k, not 40k.
pub const BINARY_POLICY: Spec = Spec {
    framing: Framing::Binary,
    fleet: Fleet {
        tenants: 1000,
        m: 256,
        beta: 6.0,
        halfstep_share: 0.5,
        track_opt: false,
    },
    control_every: None,
    rate_lo: 10_000.0,
    rate_hi: 20_000.0,
    round_steps: 8_192,
    p99_limit_ms: 400.0,
};

/// Codec/hand-off bound: cheap LCP at m=16 over a 20,000-tenant id
/// working set, JSONL framing, and a `report` every 64th record so engine
/// batches hold at most 63 steps. The rates are 5k and 10k, not 10k and
/// 40k: there a step's p99 is 4-8 ms, the scale of the stalls a shared
/// host imposes on the load generator, so it measured the host rather
/// than the program. At these rates it is set by the 63-step batch fill.
pub const JSONL_CONTROL: Spec = Spec {
    framing: Framing::Jsonl,
    fleet: Fleet {
        tenants: 10_000,
        m: 16,
        beta: 6.0,
        halfstep_share: 0.0,
        track_opt: false,
    },
    control_every: Some(64),
    rate_lo: 5_000.0,
    rate_hi: 10_000.0,
    round_steps: 16_384,
    p99_limit_ms: 50.0,
};

/// Loopback connections (and load-generator threads).
pub const CONNS: usize = 2;
/// Server start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Saturation in-flight window per connection, in records: twice the
/// engine's 1,024-step batch cap, so a binary connection always has a
/// full batch queued behind the one being answered.
const WINDOW: usize = 2 * 1024;
/// Saturation rounds per cycle; `throughput_eps` is their steps over
/// their time.
const ROUNDS_PER_CYCLE: usize = 3;
/// Length of one open-loop slice; a phase's latency is the median over
/// its slices.
const SLICE_S: f64 = 0.6;

/// Generate the per-connection request streams.
pub fn streams(spec: &Spec, seed: u64, seconds: f64) -> Vec<Stream> {
    let mut rng = Rng::new(seed);
    let cycles = gen::cycles(seconds);
    (0..CONNS)
        .map(|c| {
            let tenants = gen::fleet(&mut rng, &format!("c{c}-"), spec.fleet);
            let mut s = Stream::new(spec.framing, tenants);
            let per_conn = |r: f64| Some(r / CONNS as f64);
            let every = spec.control_every;
            for _ in 0..cycles {
                s.random_phase(&mut rng, "lo", per_conn(spec.rate_lo), SLICE_S, 0, every);
                s.random_phase(&mut rng, "hi", per_conn(spec.rate_hi), SLICE_S, 0, every);
                for _ in 0..ROUNDS_PER_CYCLE {
                    s.random_phase(&mut rng, "sat", None, 0.0, spec.round_steps, every);
                }
            }
            s
        })
        .collect()
}

/// A spawned `rsdc serve` with its two client connections.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    conns: Vec<Client>,
}

/// One connection's rendered requests and the replies a serial session
/// gives them, built once before any server starts.
struct Wire {
    framing: Framing,
    /// Request bytes, and the byte offset just past each record.
    bytes: Vec<u8>,
    ends: Vec<usize>,
    kinds: Vec<Kind>,
    /// Each record's due time, ns after its phase starts.
    dues: Vec<u64>,
    want: Vec<u8>,
}

impl Wire {
    fn new(stream: &Stream) -> Wire {
        let (bytes, ends) = stream.render(stream.framing);
        let want = reference(stream.framing, &bytes);
        Wire {
            framing: stream.framing,
            kinds: stream.recs.iter().map(|r| r.kind).collect(),
            dues: stream.recs.iter().map(|r| r.due_ns).collect(),
            bytes,
            ends,
            want,
        }
    }
}

/// Client side of one connection.
struct Client {
    sock: TcpStream,
    wire: Arc<Wire>,
    /// Records handed to the socket, and bytes of them written so far.
    queued: usize,
    written: usize,
    /// Records answered.
    answered: usize,
    /// Every reply byte received, and the parse cursor into it.
    rx: Vec<u8>,
    cursor: usize,
    errors: u64,
    /// Reply-burst sizes: replies parsed per read.
    bursts: Vec<u32>,
}

impl Client {
    fn new(sock: TcpStream, wire: &Arc<Wire>) -> Client {
        sock.set_nodelay(true).expect("nodelay");
        sock.set_nonblocking(true).expect("nonblocking");
        Client {
            sock,
            wire: wire.clone(),
            queued: 0,
            written: 0,
            answered: 0,
            // Sized for every reply up front: growing it mid-phase would
            // stall the reader on a large copy.
            rx: Vec::with_capacity(wire.want.len()),
            cursor: if wire.framing == Framing::Binary {
                6
            } else {
                0
            },
            errors: 0,
            bursts: Vec::new(),
        }
    }

    /// Queue records up to `upto` and write what the socket takes.
    fn send(&mut self, upto: usize) -> std::io::Result<()> {
        self.queued = self.queued.max(upto);
        let target = self.wire.ends[self.queued - 1];
        while self.written < target {
            match self.sock.write(&self.wire.bytes[self.written..target]) {
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read everything available; call `on_reply(record, now)` per reply.
    fn recv(&mut self, mut on_reply: impl FnMut(usize, Instant)) -> std::io::Result<bool> {
        let mut buf = [0u8; 64 * 1024];
        let mut eof = false;
        loop {
            match self.sock.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => self.rx.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        let before = self.answered;
        while let Some((len, error)) = self.next_reply() {
            self.cursor += len;
            self.errors += error as u64;
            on_reply(self.answered, now);
            self.answered += 1;
        }
        if self.answered > before {
            self.bursts.push((self.answered - before) as u32);
        }
        Ok(eof)
    }

    /// Length of the next complete reply at the cursor, and whether it is
    /// an error reply.
    fn next_reply(&self) -> Option<(usize, bool)> {
        let rest = self.rx.get(self.cursor..)?;
        match self.wire.framing {
            Framing::Jsonl => {
                let n = rest.iter().position(|&b| b == b'\n')?;
                Some((n + 1, rest.starts_with(b"{\"op\":\"error\"")))
            }
            Framing::Binary => {
                let head = rest.get(..binwire::FRAME_HEADER + 1)?;
                let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
                let total = binwire::FRAME_HEADER + len;
                (rest.len() >= total).then_some((total, head[8] == TAG_RESP_ERROR))
            }
        }
    }

    /// Block until the socket is readable (or writable, when bytes are
    /// pending) or `until` passes.
    fn wait(&self, until: Instant) {
        let timeout = until.saturating_duration_since(Instant::now());
        if timeout.is_zero() {
            return;
        }
        let events = POLLIN
            | if self.written < self.wire.ends[self.queued.max(1) - 1] {
                POLLOUT
            } else {
                0
            };
        poll_one(self.sock.as_raw_fd(), events, timeout);
    }
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait on one descriptor with nanosecond timeout resolution (`poll(2)`
/// rounds to milliseconds, far coarser than the arrival gaps at 40k/s).
fn poll_one(fd: i32, events: i16, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is 1
    // and a null sigmask leaves the signal mask unchanged. Errors (EINTR)
    // only end the wait early, which every caller tolerates.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// One connection's view of one phase.
#[derive(Default)]
struct ConnPhase {
    /// Step latencies from due time to reply read, ms.
    lat: Vec<f64>,
    /// How late each record was handed to the socket, ms.
    lag: Vec<f64>,
    start: Option<Instant>,
    /// When the phase's last reply (its flushing control record) was read.
    end: Option<Instant>,
    /// Due time of the phase's last record.
    last_due: Option<Instant>,
    steps: usize,
}

impl Client {
    /// Open loop: each record goes out at its due time; each step is
    /// timed from due time to reply.
    fn open_loop(&mut self, ph: &Phase) -> std::io::Result<ConnPhase> {
        let t0 = Instant::now();
        let wire = self.wire.clone();
        let due = |i: usize| t0 + Duration::from_nanos(wire.dues[i]);
        let mut out = ConnPhase {
            start: Some(t0),
            last_due: Some(due(ph.end - 1)),
            ..ConnPhase::default()
        };
        while self.answered < ph.end {
            let now = Instant::now();
            let mut k = self.queued;
            while k < ph.end && due(k) <= now {
                out.lag.push((now - due(k)).as_secs_f64() * 1e3);
                k += 1;
            }
            if k > self.queued || self.written < self.wire.ends[self.queued - 1] {
                self.send(k)?;
            }
            let lat = &mut out.lat;
            let eof = self.recv(|i, at| {
                if wire.kinds[i] == Kind::Step {
                    lat.push((at.saturating_duration_since(due(i))).as_secs_f64() * 1e3);
                }
            })?;
            if eof {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            if self.answered >= ph.end {
                break;
            }
            let next = if self.queued < ph.end {
                due(self.queued)
            } else {
                Instant::now() + Duration::from_millis(100)
            };
            self.wait(next);
        }
        out.end = Some(Instant::now());
        out.steps = out.lat.len();
        Ok(out)
    }

    /// Saturation: keep at most `WINDOW` records in flight.
    fn windowed(&mut self, ph: &Phase) -> std::io::Result<ConnPhase> {
        let mut out = ConnPhase {
            start: Some(Instant::now()),
            ..ConnPhase::default()
        };
        while self.answered < ph.end {
            let k = (self.answered + WINDOW).min(ph.end);
            if k > self.queued || self.written < self.wire.ends[self.queued - 1] {
                self.send(k)?;
            }
            if self.recv(|_, _| {})? {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            if self.answered < ph.end {
                self.wait(Instant::now() + Duration::from_millis(100));
            }
        }
        out.end = Some(Instant::now());
        out.steps = self.wire.kinds[ph.start..ph.end]
            .iter()
            .filter(|k| **k == Kind::Step)
            .count();
        Ok(out)
    }

    /// Half-close and read the final replies until the server closes.
    fn close(&mut self) -> std::io::Result<()> {
        self.sock.shutdown(Shutdown::Write)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.recv(|_, _| {})? {
            if Instant::now() > deadline {
                return Err(ErrorKind::TimedOut.into());
            }
            self.wait(Instant::now() + Duration::from_millis(100));
        }
        Ok(())
    }
}

fn spawn(spec: &Spec, rsdc: &std::path::Path, wires: &[Arc<Wire>]) -> Result<Server, String> {
    let wire = match spec.framing {
        Framing::Jsonl => "jsonl",
        Framing::Binary => "binary",
    };
    // The server gets one CPU and the load generator another, so neither
    // steals the other's cycles and the reactor-to-shard hand-off always
    // takes the same path. (On a 1-CPU host they share it.)
    let cpus = host::allowed_cpus();
    if let Some(&cpu) = cpus.first() {
        host::pin_thread(cpu);
    }
    let child = Command::new(rsdc)
        .args(["serve", "--listen", "127.0.0.1:0", "--wire", wire])
        .args([
            "--shards",
            "1",
            "--no-metrics",
            "--max-accepts",
            "2",
            "--max-conns",
            "2",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn();
    if let Some(&cpu) = cpus.get(1) {
        host::pin_thread(cpu);
    }
    let mut child = child.map_err(|e| format!("spawn {}: {e}", rsdc.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("reading readiness line: {e}"))?;
    let addr = line
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .ok_or_else(|| {
            let _ = child.kill();
            let _ = child.wait();
            format!("no readiness line from rsdc serve: {line:?}")
        })?
        .to_string();
    let mut conns = Vec::new();
    for w in wires {
        let sock = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conns.push(Client::new(sock, w));
    }
    Ok(Server {
        child,
        stdout,
        conns,
    })
}

impl Server {
    /// Close both connections, wait for exit, return the `served` line.
    fn shutdown(mut self) -> Result<(String, Vec<Client>), String> {
        for c in &mut self.conns {
            c.close().map_err(|e| format!("closing connection: {e}"))?;
        }
        let mut served = String::new();
        self.stdout
            .read_to_string(&mut served)
            .map_err(|e| format!("reading served line: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("rsdc serve exited with {status}"));
        }
        Ok((served.trim().to_string(), std::mem::take(&mut self.conns)))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path before `shutdown`: never leave
        // the server running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Run `f` on every connection at once, one thread per connection.
fn on_all<T: Send>(
    conns: &mut [Client],
    f: impl Fn(usize, &mut Client) -> std::io::Result<T> + Sync,
) -> Result<Vec<T>, String> {
    let barrier = Barrier::new(conns.len());
    let run = |i: usize, c: &mut Client| {
        barrier.wait();
        f(i, c)
    };
    let (first, rest) = conns.split_first_mut().expect("connections");
    std::thread::scope(|s| {
        let others: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || run(i + 1, c)))
            .collect();
        let mut out = vec![run(0, first)];
        for h in others {
            out.push(h.join().expect("load generator thread panicked"));
        }
        out.into_iter()
            .collect::<std::io::Result<Vec<T>>>()
            .map_err(|e| format!("load generator: {e}"))
    })
}

fn served_field(line: &str, key: &str) -> Option<u64> {
    line.split(&format!("\"{key}\":"))
        .nth(1)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// What one server session measured.
struct Driven {
    setups: Vec<f64>,
    /// Per open-loop phase: name, offered rate, each connection's view.
    open: Vec<(&'static str, f64, Vec<ConnPhase>)>,
    /// Reply bursts per read during the open-loop phases.
    bursts: Vec<u32>,
    /// Saturation rounds: steps and seconds.
    rounds: Vec<(f64, f64)>,
    /// Peak resident MiB and threads of the server process.
    peak: (f64, u64),
    served: String,
    conns: Vec<Client>,
}

/// Start the server `setup_reps` times (timing each start-up through the
/// last admit acknowledgement), then drive the last one through the
/// open-loop phases and the saturation rounds, and shut it down.
fn drive(
    spec: &Spec,
    args: &Args,
    streams: &[Stream],
    setup_reps: usize,
) -> Result<Driven, String> {
    let admits: Vec<Phase> = streams.iter().map(|st| st.phase("admit").clone()).collect();
    // Render requests and compute the expected replies, one thread per
    // connection, before any server starts.
    let wires: Vec<Arc<Wire>> = std::thread::scope(|sc| {
        let handles: Vec<_> = streams
            .iter()
            .map(|s| sc.spawn(move || Arc::new(Wire::new(s))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference session panicked"))
            .collect()
    });
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..setup_reps {
        let t0 = Instant::now();
        let mut s = spawn(spec, &args.rsdc, &wires)?;
        on_all(&mut s.conns, |i, c| c.windowed(&admits[i]))?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let pid = server.child.id();
    let mut peak = (0.0, 0);
    let mut sample = || {
        if let Some(st) = host::proc_status(pid) {
            peak = (st.0.max(peak.0), st.1.max(peak.1));
        }
    };
    sample();

    let mut open = vec![
        ("lo", spec.rate_lo, Vec::new()),
        ("hi", spec.rate_hi, Vec::new()),
    ];
    let mut bursts = Vec::new();
    let mut rounds = Vec::new();
    for p in 1..streams[0].phases.len() {
        let phases: Vec<Phase> = streams.iter().map(|s| s.phases[p].clone()).collect();
        if phases[0].name == "sat" {
            let per = on_all(&mut server.conns, |i, c| c.windowed(&phases[i]))?;
            let start = per.iter().filter_map(|p| p.start).min().expect("start");
            let end = per.iter().filter_map(|p| p.end).max().expect("end");
            let steps: usize = per.iter().map(|p| p.steps).sum();
            rounds.push((steps as f64, (end - start).as_secs_f64()));
        } else {
            let per = on_all(&mut server.conns, |i, c| {
                c.bursts.clear();
                c.open_loop(&phases[i])
            })?;
            bursts.extend(server.conns.iter().flat_map(|c| c.bursts.iter().copied()));
            let slot = open
                .iter_mut()
                .find(|o| o.0 == phases[0].name)
                .expect("phase");
            slot.2.extend(per);
        }
        sample();
    }
    let (served, conns) = server.shutdown()?;
    println!("served {served}");
    Ok(Driven {
        setups,
        open,
        bursts,
        rounds,
        peak,
        served,
        conns,
    })
}

/// Correctness checks on a finished server session; returns failed steps
/// (error replies plus shed connections' refusals).
fn check_replies(d: &Driven, attempted: u64, report: &mut Report) -> u64 {
    let shed = served_field(&d.served, "shed").unwrap_or(u64::MAX);
    let errors: u64 = d.conns.iter().map(|c| c.errors).sum();
    let sent: u64 = d.conns.iter().map(|c| c.wire.bytes.len() as u64).sum();
    let got: u64 = d.conns.iter().map(|c| c.rx.len() as u64).sum();
    report.check(
        "served summary matches client",
        served_field(&d.served, "accepted") == Some(CONNS as u64)
            && served_field(&d.served, "closed") == Some(CONNS as u64)
            && shed == 0
            && served_field(&d.served, "bytes_in") == Some(sent)
            && served_field(&d.served, "bytes_out") == Some(got),
        format!("{} vs client sent {sent} B, received {got} B", d.served),
    );
    for (i, c) in d.conns.iter().enumerate() {
        let (same, detail) = same_replies(c.wire.framing, &c.rx, &c.wire.want);
        report.check(
            &format!("conn {i}: replies == serial session"),
            same,
            detail,
        );
    }
    let failed = errors.saturating_add(shed);
    report.check(
        "error_frac",
        failed == 0,
        format!("{errors} error replies and {shed} shed over {attempted} steps"),
    );
    failed
}

pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    report.set_host(host::block(&args.rsdc, None));
    let streams = streams(spec, args.seed, args.seconds);
    if args.trace {
        return layers::serve(spec, args, &streams, report);
    }
    let d = drive(spec, args, &streams, SETUP_REPS)?;
    let throughput = stats::rate(&d.rounds);
    let round_eps: Vec<f64> = d.rounds.iter().map(|(n, t)| n / t).collect();
    let mut attempted = 0;
    report.metric("setup_s", stats::median(&d.setups), "s");
    for (name, rate, per) in &d.open {
        attempted += per.iter().map(|p| p.steps as u64).sum::<u64>();
        let mut o = OpenLoop {
            // Both connections' samples of one slice are pooled.
            slices: per
                .chunks(CONNS)
                .map(|c| c.iter().flat_map(|p| p.lat.iter().copied()).collect())
                .collect(),
            ..OpenLoop::default()
        };
        for p in per {
            let n = p.lat.len();
            o.lag.extend_from_slice(&p.lag);
            o.first.extend_from_slice(&p.lat[..n / 4]);
            o.last.extend_from_slice(&p.lat[n * 3 / 4..]);
            let drain = p.end.expect("end") - p.last_due.expect("due");
            o.drain_ms = o.drain_ms.max(drain.as_secs_f64() * 1e3);
        }
        let what = format!("{CONNS} connections, slices of {SLICE_S} s");
        report.open_loop(name, *rate, what, spec.p99_limit_ms, o);
        report.check(
            &format!("{name}: offered <= half capacity"),
            *rate <= 0.5 * throughput,
            format!("{rate} steps/s vs throughput {throughput:.0} steps/s"),
        );
    }
    report.phase(serde_json::json!({
        "phase": format!(
            "saturation: {} rounds x {} steps/conn, window {WINDOW}",
            d.rounds.len(),
            spec.round_steps
        ),
        "name": "sat",
        "round_eps_spread": stats::spread(&round_eps),
        "round_eps": round_eps,
    }));
    report.metric("throughput_eps", throughput, "1/s");
    report.metric("peak_rss_mb", d.peak.0, "MiB");
    report.metric("threads_peak", d.peak.1 as f64, "count");
    attempted += (d.rounds.len() * CONNS * spec.round_steps) as u64;
    report.failed = check_replies(&d, attempted, report);
    report.attempted = attempted;
    Ok(())
}

/// The traced run's view of the real server (one start-up, same phases):
/// mean reply burst per read in the open-loop phases, shed count, and the
/// saturation throughput.
pub fn client_view(
    spec: &Spec,
    args: &Args,
    streams: &[Stream],
    report: &mut Report,
) -> Result<(f64, u64, f64), String> {
    let d = drive(spec, args, streams, 1)?;
    let attempted = streams
        .iter()
        .map(|s| s.steps_in(0, s.recs.len()) as u64)
        .sum();
    report.failed = check_replies(&d, attempted, report);
    let mean_burst = d.bursts.iter().map(|&b| b as f64).sum::<f64>() / d.bursts.len().max(1) as f64;
    let shed = served_field(&d.served, "shed").unwrap_or(u64::MAX);
    Ok((mean_burst, shed, stats::rate(&d.rounds)))
}

/// Serial in-process replies to `bytes`, fed in reactor-sized chunks.
pub fn reference(framing: Framing, bytes: &[u8]) -> Vec<u8> {
    let session = Session::new(Engine::new(engine_config()));
    let mut out = Vec::new();
    match framing {
        Framing::Jsonl => {
            let mut ls = LineSession::new(session);
            for chunk in bytes.chunks(64 * 1024) {
                ls.feed(chunk, &mut out);
            }
            ls.finish(&mut out);
        }
        Framing::Binary => {
            let mut bs = BinSession::new(session);
            for chunk in bytes.chunks(64 * 1024) {
                bs.feed(chunk, &mut out);
            }
            bs.finish(&mut out);
        }
    }
    out
}

/// The engine `rsdc serve --shards 1 --no-metrics` builds per connection.
pub fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::with_shards(1);
    cfg.metrics = false;
    cfg
}

fn same_replies(framing: Framing, got: &[u8], want: &[u8]) -> (bool, String) {
    let (got, want) = match framing {
        Framing::Jsonl => (
            String::from_utf8_lossy(got)
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>(),
            String::from_utf8_lossy(want)
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        ),
        Framing::Binary => match (
            binwire::decode_response(got),
            binwire::decode_response(want),
        ) {
            (Ok(g), Ok(w)) => (g, w),
            (g, w) => {
                return (
                    false,
                    format!("undecodable reply stream: {:?} / {:?}", g.err(), w.err()),
                )
            }
        },
    };
    match got.iter().zip(&want).position(|(g, w)| g != w) {
        None if got.len() == want.len() => (true, format!("{} reply lines identical", got.len())),
        None => (
            false,
            format!("{} reply lines, want {}", got.len(), want.len()),
        ),
        Some(i) => (
            false,
            format!("reply {i} differs: {:?} vs {:?}", got[i], want[i]),
        ),
    }
}
