//! Child processes measured the way a user meets them: wall time from
//! spawn to exit, plus the CPU time and peak resident set size the kernel
//! reports for that one child through `wait4`.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// How a child ended and what it cost.
#[derive(Debug, Clone)]
pub struct Usage {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// User plus system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set size of the child, in MiB.
    pub peak_rss_mb: f64,
}

/// A finished one-shot command.
#[derive(Debug, Clone)]
pub struct Finished {
    pub usage: Usage,
    /// Spawn to exit.
    pub wall: Duration,
    pub stdout: String,
    pub stderr: String,
}

impl Finished {
    /// True when the command exited with code 0.
    pub fn ok(&self) -> bool {
        self.usage.code == Some(0)
    }
}

fn pid_of(child: &Child) -> i32 {
    i32::try_from(child.id()).expect("pids fit in i32")
}

/// Waits for `child` and collects its resource usage. The child is reaped
/// here, so `Child::wait` must not be called on it afterwards.
fn reap(child: &Child) -> std::io::Result<Usage> {
    let pid = pid_of(child);
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`int` and 64-bit `struct rusage`); `pid` is
        // our own unreaped child, so no other process is waited for.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Usage {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

fn drain(pipe: Option<impl Read + Send + 'static>) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        if let Some(mut pipe) = pipe {
            let _ = pipe.read_to_string(&mut text);
        }
        text
    })
}

/// Runs `program args..` to completion with stdin closed.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let out = drain(child.stdout.take());
    let err = drain(child.stderr.take());
    let usage = reap(&child)?;
    let wall = start.elapsed();
    Ok(Finished {
        usage,
        wall,
        stdout: out.join().unwrap_or_default(),
        stderr: err.join().unwrap_or_default(),
    })
}

/// A long-running child (the serve daemon). Dropping it without
/// [`Daemon::terminate`] kills and reaps it, so no daemon outlives the
/// benchmark on an early return.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Daemon {
    /// Spawns `program args..` with stdout piped for [`Daemon::read_line`].
    pub fn spawn(program: &Path, args: &[String]) -> std::io::Result<Daemon> {
        let spawned = Instant::now();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child: Some(child),
            stdout,
            spawned,
        })
    }

    /// The next line the daemon printed (without its newline).
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    }

    /// Sends SIGTERM, waits for the exit and returns its usage.
    #[allow(clippy::zombie_processes)] // reaped by `wait4` in `reap`
    pub fn terminate(mut self) -> std::io::Result<Usage> {
        let child = self.child.take().expect("daemon not yet reaped");
        // SAFETY: plain syscall on our own unreaped child's pid.
        unsafe { kill(pid_of(&child), SIGTERM) };
        reap(&child)
    }
}

impl Drop for Daemon {
    #[allow(clippy::zombie_processes)] // reaped by `wait4` in `reap`
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            // SAFETY: plain syscall on our own unreaped child's pid.
            unsafe { kill(pid_of(&child), SIGKILL) };
            let _ = reap(&child);
        }
    }
}
