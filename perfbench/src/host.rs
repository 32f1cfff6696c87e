//! Host identity and process counters: the fingerprint every result is
//! stamped with, the processor clock the benchmark's times are read
//! from, and the peak resident set size.

use std::path::{Path, PathBuf};
use std::process::Command;

use icoe::hetsim::obs::json;

use crate::stats::fnv1a;

/// Where and from what a result was measured. Results compare only when
/// everything but `commit` agrees (see `perfbench compare`).
pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub profile: &'static str,
    /// `git rev-parse HEAD` in a git checkout; elsewhere a digest of the
    /// sources the benchmark builds from (`src-<fnv1a>`).
    pub commit: String,
}

impl Fingerprint {
    pub fn current() -> Fingerprint {
        let git = Path::new(".git")
            .exists()
            .then(|| first_line("git", &["rev-parse", "HEAD"]))
            .flatten();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git.unwrap_or_else(source_digest),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":{},\"profile\":{},\"commit\":{}}}",
            self.nproc,
            json::escape(&self.rustc),
            json::escape(self.profile),
            json::escape(&self.commit)
        )
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// Digest of the manifests and of every file under `crates/`, `shims/`
/// and `perfbench/src/`: a commit stamp for checkouts without git.
fn source_digest() -> String {
    let mut files: Vec<PathBuf> = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
        .iter()
        .map(PathBuf::from)
        .collect();
    for dir in ["crates", "shims", "perfbench/src"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.sort();
    let mut summary = Vec::new();
    for f in &files {
        if let Ok(content) = std::fs::read(f) {
            summary.extend_from_slice(f.to_string_lossy().as_bytes());
            summary.extend_from_slice(&fnv1a(content).to_le_bytes());
        }
    }
    format!("src-{:016x}", fnv1a(summary))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Processor time this process has used, in seconds: every thread, live
/// or exited, from `CLOCK_PROCESS_CPUTIME_ID`. Time a thread spends
/// waiting for a processor is not in it, so on a shared host it measures
/// the program's own work where the wall clock also measures whatever
/// else runs there.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit words on
    // 64-bit Linux, the only target the benchmark reads `/proc` on) and
    // the clock id is one the C library accepts; the call writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Confine this process, and every thread it starts from now on, to one
/// processor, the highest-numbered it may run on; returns that processor.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // Room for 1,024 processors, the C library's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes and pid
    // 0 names this process; the call writes nothing else.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .ok_or("this process may run on no processor")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes and pid 0
    // names this process.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to processor {cpu} failed"));
    }
    Ok(cpu)
}

/// Peak resident set size of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
