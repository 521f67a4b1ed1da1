//! What every workload shares: the run context, the correctness tally,
//! the end-to-end sample sets, the stage table of a traced replay, and the
//! host fingerprint.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::proc::{self, Finished};
use crate::stats::{median, quantile};

/// One run's settings.
pub struct Ctx {
    /// The release `symloc` binary under test.
    pub symloc: PathBuf,
    /// Where every generated trace, checkpoint, span dump and result goes.
    pub scratch: PathBuf,
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: f64,
    /// Tiny inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Worker threads and client connections: at most two, never more
    /// than the host has.
    pub threads: usize,
}

impl Ctx {
    /// A fresh scratch subdirectory for one workload.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }

    /// Runs `symloc args..` to completion.
    pub fn symloc(&self, args: &[String]) -> Result<Finished, String> {
        proc::run(&self.symloc, args).map_err(|e| format!("cannot run symloc: {e}"))
    }

    /// Runs `op` until about `self.seconds` have passed (never fewer than
    /// `min_reps` times), stopping before a repetition that would overrun
    /// the target by more than a tenth. Returns the repetition count.
    pub fn timed(&self, min_reps: usize, mut op: impl FnMut()) -> usize {
        let start = Instant::now();
        let mut reps = 0usize;
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if reps >= min_reps {
                let mean = elapsed / reps as f64;
                if elapsed + mean > self.seconds * 1.1 {
                    break;
                }
            }
            op();
            reps += 1;
        }
        reps
    }
}

/// The path as an argument string.
pub fn arg(path: &Path) -> String {
    path.display().to_string()
}

/// Checked operations: every failed, refused or wrong result counts.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `result` is `Ok`.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {reason}"));
            }
            eprintln!("symbench: FAILED {what}: {reason}");
        }
    }

    /// Checks that a command exited with code 0.
    pub fn check_exit(&mut self, what: &str, run: &Result<Finished, String>) -> bool {
        let result = match run {
            Ok(f) if f.ok() => Ok(()),
            Ok(f) => Err(format!(
                "exit {:?}: {}",
                f.usage.code,
                f.stderr.lines().last().unwrap_or("")
            )),
            Err(e) => Err(e.clone()),
        };
        let ok = result.is_ok();
        self.check(what, result);
        ok
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Samples behind the end-to-end metrics of one run: one entry per timed
/// operation (a CLI invocation, or a serve session), except `latency_ms`,
/// which for serve holds one entry per query.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Items (accesses or permutations) per second of each operation.
    pub throughput: Vec<f64>,
    pub latency_ms: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub rss_mb: Vec<f64>,
}

impl E2e {
    /// Records one timed CLI invocation that processed `items` items.
    pub fn add_invocation(&mut self, items: f64, run: &Finished) {
        let wall = run.wall.as_secs_f64();
        self.throughput.push(items / wall);
        self.latency_ms.push(wall * 1e3);
        self.cpu_s.push(run.usage.cpu_s);
        self.rss_mb.push(run.usage.peak_rss_mb);
    }

    /// The raw samples as a JSON object, for the result record.
    pub fn samples_json(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| json_num(*x))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"setup_s\": [{}], \"throughput_per_s\": [{}], \"latency_ms\": [{}], \"cpu_s\": [{}], \"rss_mb\": [{}]}}",
            list(&self.setup_s),
            list(&self.throughput),
            list(&self.latency_ms),
            list(&self.cpu_s),
            list(&self.rss_mb)
        )
    }

    /// The end-to-end metrics, medians over the run's samples.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("throughput_per_s", median(&self.throughput), "1/s"),
            Metric::new("latency_p50_ms", median(&self.latency_ms), "ms"),
            Metric::new("latency_p90_ms", quantile(&self.latency_ms, 0.9), "ms"),
            Metric::new("cpu_s", median(&self.cpu_s), "s"),
            Metric::new("peak_rss_mb", median(&self.rss_mb), "MiB"),
        ]
    }
}

/// The traced replay of one workload's pipeline: its layer metrics and
/// its stage table.
pub struct Traced {
    pub pipeline: &'static str,
    pub layers: Vec<Metric>,
    pub table: StageTable,
    /// Wall time of the replay with spans recorded, and without.
    pub traced_s: f64,
    pub untraced_s: f64,
}

/// Per-item stage costs of a replay next to the end-to-end cost of the
/// same work through the binary. Worker stages are divided by the worker
/// count, so the stages add up to the replay's wall time; the residual is
/// what the binary spends outside the replayed calls.
pub struct StageTable {
    /// `access` or `perm`.
    pub item: &'static str,
    pub stages: Vec<(String, f64)>,
    /// End-to-end nanoseconds per item, from an untraced run of the binary.
    pub e2e: f64,
}

impl StageTable {
    pub fn sum(&self) -> f64 {
        self.stages.iter().map(|(_, v)| v).sum()
    }

    pub fn residual(&self) -> f64 {
        self.e2e - self.sum()
    }

    /// Stage sum, end to end and residual side by side.
    pub fn render(&self, pipeline: &str) -> String {
        let unit = format!("ns/{}", self.item);
        let mut out = format!("stages of {pipeline} ({unit}):\n");
        for (name, value) in &self.stages {
            let _ = writeln!(out, "  {name:<32} {value:>14.2}");
        }
        let _ = writeln!(out, "  {:<32} {:>14.2}", "= stage sum", self.sum());
        let _ = writeln!(out, "  {:<32} {:>14.2}", "end to end", self.e2e);
        let _ = writeln!(out, "  {:<32} {:>14.2}", "residual", self.residual());
        out
    }
}

/// The host a result was measured on, so results from different machines
/// are never compared silently.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (mut l2, mut llc, mut llc_level) = (String::from("unknown"), String::from("unknown"), 0);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let kind = read("type").unwrap_or_default();
        let level: u32 = level.trim().parse().unwrap_or(0);
        if kind.trim() == "Instruction" {
            continue;
        }
        if level == 2 {
            l2 = size.trim().to_string();
        }
        if level >= llc_level {
            llc_level = level;
            llc = format!("L{level} {}", size.trim());
        }
    }
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("cpu", model),
        ("nproc", nproc.to_string()),
        ("l2", l2),
        ("llc", llc),
        ("rustc", rustc),
    ]
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", symloc_core::jsonio::escape(s))
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0
/// and are flagged by the caller's tally.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
