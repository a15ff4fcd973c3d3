//! The host block every result carries, and /proc probes of a process.

use serde::Value;
use std::path::Path;

/// FNV-1a, 64-bit: a dependency-free content fingerprint.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprint of the program sources (`Cargo.lock`, `crates/`, `shims/`),
/// so results from a checkout without git history still name their code.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        fnv(&mut h, f.to_string_lossy().as_bytes());
        fnv(&mut h, &std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

/// The host block: cores, build, code identity, the binary running the
/// program under test, and — for workloads with a durable store — where
/// that store lives.
pub fn block(binary: &Path, store_dir: Option<&Path>) -> Value {
    // The process's CPU set as started; later pinning narrows the
    // calling thread's own view.
    let cores = allowed_cpus().len();
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let bytes = std::fs::read(binary).unwrap_or_default();
    let mut h = FNV_OFFSET;
    fnv(&mut h, &bytes);
    let binary = serde_json::json!({
        "path": binary.display().to_string(),
        "bytes": bytes.len(),
        "fnv64": format!("{h:016x}"),
    });
    let store = store_dir.map(|d| {
        let fs = fs_type(d);
        let comparable = fs == "tmpfs";
        serde_json::json!({
            "dir": d.display().to_string(),
            "fs": fs,
            "comparable": comparable,
            "note": if comparable {
                "store on tmpfs".to_string()
            } else {
                format!("store on {fs}, not tmpfs: durable timings include the disk and are not comparable across hosts")
            },
        })
    });
    serde_json::json!({
        "cores": cores,
        "pinning": if cores >= 2 {
            "server (or in-process engine) on the first CPU, load generator on the second"
        } else {
            "none: one CPU"
        },
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "git_rev": git_rev(),
        "source_fnv64": source_digest(),
        "loadavg": loadavg.split_whitespace().take(3).collect::<Vec<_>>().join(" "),
        "binary": binary,
        "store": store.unwrap_or(Value::Null),
    })
}

/// `(peak resident MiB, threads)` of a live process, from `/proc/PID/status`.
pub fn proc_status(pid: u32) -> Option<(f64, u64)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |key: &str| -> Option<u64> {
        text.lines()
            .find(|l| l.starts_with(key))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    };
    Some((field("VmHWM:")? as f64 / 1024.0, field("Threads:")?))
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPUs the process was started with (read once, before any pinning).
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(read_affinity)
}

fn read_affinity() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread — and the threads and processes it starts
/// from now on, which inherit the mask — to one CPU.
pub fn pin_thread(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread. A failure leaves the mask unchanged,
    // which only costs steadiness, so it is ignored.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}
