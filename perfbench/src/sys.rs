//! Process accounting and control: CPU time and peak RSS from
//! `getrusage(2)` and `/proc`, signals from `kill(2)`, and the one
//! helper that runs a `repro` child to completion.

use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// CPU seconds (user + sys) and peak RSS in KiB for one `who`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_kb: u64,
}

fn rusage(who: i32) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage` (144 bytes), and `who` is one of the two
    // constants getrusage accepts, so the call writes only inside `ru`.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/CHILDREN");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_kb: u64::try_from(ru.maxrss).unwrap_or(0),
    }
}

/// This process, all threads.
pub fn self_usage() -> Usage {
    rusage(RUSAGE_SELF)
}

/// Every descendant this process has waited for, grandchildren that
/// their parents waited for included.
pub fn children_usage() -> Usage {
    rusage(RUSAGE_CHILDREN)
}

/// CPU seconds of a live process plus the children it has reaped, from
/// `/proc/<pid>/stat` (utime, stime, cutime, cstime).
pub fn proc_tree_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    // `rest` starts at field 3 (state); utime is field 14.
    let ticks: u64 = fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    // SAFETY: sysconf takes an integer name and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    Some(ticks as f64 / hz.max(1) as f64)
}

/// Asks a child to shut down cleanly (SIGTERM), as Ctrl-C would.
pub fn terminate(child: &Child) {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    // SAFETY: kill(2) only sends a signal; `pid` is our own unreaped
    // child, so the id cannot have been recycled for another process.
    unsafe {
        kill(pid, SIGTERM);
    }
}

/// Waits up to `secs` for a child that was asked to stop, then kills it.
pub fn reap(child: &mut Child, secs: f64) -> Option<ExitStatus> {
    let t = Instant::now();
    loop {
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        if t.elapsed().as_secs_f64() > secs {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// What one finished `repro` invocation left behind.
pub struct Finished {
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `repro` with `args` to completion. Children run one at a time,
/// so the change in reaped-children CPU is exactly this child's.
/// Artifacts and temporary files land under `work`.
pub fn run_repro(repro: &Path, work: &Path, args: &[String]) -> Finished {
    let before = children_usage().cpu_s;
    let t = Instant::now();
    let out = repro_command(repro, work)
        .args(args)
        .stdin(Stdio::null())
        .output();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = children_usage().cpu_s - before;
    match out {
        Ok(o) => Finished {
            ok: o.status.success(),
            stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&o.stderr).into_owned(),
            wall_s,
            cpu_s,
        },
        Err(e) => Finished {
            ok: false,
            stdout: String::new(),
            stderr: format!("cannot run {}: {e}", repro.display()),
            wall_s,
            cpu_s,
        },
    }
}

/// A `repro` command whose artifact and temp directories stay under
/// `work`, so a run writes nothing outside its checkout.
pub fn repro_command(repro: &Path, work: &Path) -> Command {
    let mut cmd = Command::new(repro);
    cmd.env("PHASELAB_OUT", work.join("artifacts"))
        .env("TMPDIR", work.join("tmp"))
        .env_remove("PHASELAB_FAULTS")
        .env_remove("PHASELAB_FAULTS_WORKER");
    cmd
}
